"""Shared MiniCC test programs, and the analysis bundle of one."""

from repro import AnalysisConfig, Canary


def bundle_for(src, **config):
    """The VFG bundle (module, VFG, thread structure, points-to) the
    analysis pipeline builds for the MiniCC text ``src``, with no
    checkers run; ``config`` sets other :class:`AnalysisConfig` fields."""
    report = Canary(AnalysisConfig(checkers=(), **config)).analyze_source(
        src, keep_bundle=True
    )
    return report.bundle


# The paper's Fig. 2: bug-free because the two branch conditions
# contradict each other (theta1 vs !theta1).
FIG2_BUG_FREE = """
extern int theta1;

void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    fork(t, thread1, x);
    if (theta1) {
        int* c = *x;
        print(*c);
    }
}

void thread1(int** y) {
    int* b = malloc();
    if (!theta1) {
        *y = b;
        free(b);
    }
}
"""

# Same program with compatible guards: a real inter-thread UAF.
FIG2_BUGGY = FIG2_BUG_FREE.replace("if (!theta1)", "if (theta1)")

# Unconditional inter-thread UAF (no guards at all).
SIMPLE_UAF = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    fork(t, worker, x);
    int* c = *x;
    print(*c);
}

void worker(int** y) {
    int* b = malloc();
    *y = b;
    free(b);
}
"""

# Free and use ordered by join: never a UAF.
JOIN_PROTECTED = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    fork(t, worker, x);
    int* c = *x;
    join(t);
    print(*c);
}

void worker(int** y) {
    int* b = malloc();
    *y = b;
}
"""

# The use happens before the fork: the child's free cannot precede it.
USE_BEFORE_FORK = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    int* c = *x;
    print(*c);
    fork(t, worker, x);
}

void worker(int** y) {
    int* b = *y;
    free(b);
    *y = b;
}
"""

# Inter-thread NULL dereference through shared memory.
NULL_SHARED = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    fork(t, nuller, x);
    int* c = *x;
    *c = 5;
}

void nuller(int** y) {
    *y = null;
}
"""

# Double free across threads.
DOUBLE_FREE = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    fork(t, freer, x);
    int* c = *x;
    free(c);
}

void freer(int** y) {
    int* b = *y;
    free(b);
}
"""

# Information leak through shared memory across threads.
TAINT_LEAK = """
void main() {
    int** x = malloc();
    int* secret = taint_source();
    fork(t, publisher, x);
    *x = secret;
}

void publisher(int** y) {
    int* v = *y;
    taint_sink(v);
}
"""

# Function pointer fork target.
FUNC_PTR_FORK = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    fork(t, worker, x);
    int* c = *x;
    print(*c);
}

void worker(int** y) {
    int* b = malloc();
    *y = b;
    free(b);
}
"""

# Value flows through a helper call (summary application).
THROUGH_CALL = """
void main() {
    int** x = malloc();
    int* a = malloc();
    put(x, a);
    fork(t, worker, x);
    int* c = get(x);
    print(*c);
}

void put(int** slot, int* value) {
    *slot = value;
}

int* get(int** slot) {
    int* out = *slot;
    return out;
}

void worker(int** y) {
    int* b = malloc();
    *y = b;
    free(b);
}
"""

# Loop containing a fork: unrolling bounds the thread count.
FORK_IN_LOOP = """
void main() {
    int** x = malloc();
    int* a = malloc();
    *x = a;
    int i = 0;
    while (i < 10) {
        fork(t, worker, x);
        i = i + 1;
    }
    int* c = *x;
    print(*c);
}

void worker(int** y) {
    int* b = malloc();
    *y = b;
    free(b);
}
"""

# Nested loops: at depth 2 the inner loop is unrolled inside each of the
# outer loop's iterations.
NESTED_LOOPS = """
extern int n;
void main() {
    int i = 0;
    while (i < n) {
        int j = 0;
        while (j < i) {
            fork(t, worker, &i);
            j = j + 1;
        }
        i = i + 1;
    }
}

void worker(int* p) {
    print(*p);
}
"""
