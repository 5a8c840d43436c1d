"""Workload inputs and their oracles.

Every input is made here from the workload seed.  The generators are
vendored copies of ``repro.bench.codegen.generate_project`` and of
``scaled_program`` / ``detection_scaled_program`` in ``tests/fuzz_gen.py``
(seed 0 reproduces them byte for byte, pinned by ``digests.json``), and
the corpus files are copied into ``corpus/``, so later edits to the
program's generators or regression corpus cannot change a workload.

The oracles come from how each input was constructed, never from Canary:
a report is attributed to the function whose body holds its source line
in the generated text.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
CORPUS_DIR = HERE / "corpus"
DIGESTS = HERE / "digests.json"

#: one report as the child sends it: (kind, source line, sink line)
Bug = Tuple[str, int, int]
#: returns a description of the mismatch, or None when the reports are right
Oracle = Callable[[str, Sequence[Bug]], Optional[str]]


@dataclass
class Analysis:
    """One ``analyze_source`` call."""

    label: str  # unique per distinct input text within a workload
    filename: str  # what the program sees (the cache lineage)
    text: str
    oracle: Oracle
    config: Dict[str, object] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    #: True: one child per rep runs setup + timed analyses back to back.
    #: False: every timed analysis gets a fresh child; a rep is the set.
    resident: bool
    #: AnalysisConfig fields of the child's ``Canary(config)``
    config: Dict[str, object]
    timed: List[Analysis]
    setup: List[Analysis] = field(default_factory=list)

    def inputs(self) -> Dict[str, str]:
        """Distinct input texts by label."""
        return {a.label: a.text for a in self.setup + self.timed}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----- attributing reports to functions --------------------------------------

_FUNC_HEADER = re.compile(r"^(?:void|int\**)\s+(\w+)\s*\(")


def function_of_line(text: str) -> Dict[int, str]:
    """1-based line -> enclosing function name (generated code puts every
    function header at column 0)."""
    owner: Dict[int, str] = {}
    current = ""
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _FUNC_HEADER.match(line)
        if m:
            current = m.group(1)
        owner[lineno] = current
    return owner


def line_of(text: str, statement: str) -> int:
    """1-based line of the first line whose stripped text is ``statement``."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip() == statement:
            return lineno
    raise ValueError(f"statement {statement!r} not in input")


def _expect_keys(expected: Callable[[str], set]) -> Oracle:
    """Oracle: the set of (source function, sink line) pairs is exact."""

    def oracle(text: str, bugs: Sequence[Bug]) -> Optional[str]:
        owner = function_of_line(text)
        got = sorted((kind, owner.get(src, "?"), sink) for kind, src, sink in bugs)
        want = sorted(("use-after-free", fn, sink) for fn, sink in expected(text))
        if got != want:
            return f"{len(got)} report(s) {got[:4]}..., expected {len(want)} {want[:4]}..."
        return None

    return oracle


# ----- table1: Table-1 subjects (vendored repro.bench.codegen) ---------------

#: (name, Table-1 index, KLoC, Canary reports, Canary FPs), paper profile
TABLE1_SUBJECTS = [
    ("lrzip", 1, 16, 2, 0),
    ("transmission", 9, 88, 2, 0),
    ("redis", 11, 219, 0, 0),
    ("openssl", 15, 451, 1, 1),
]
_FILLER_LINES = 21


def generate_project(
    target_lines: int, real_bugs: int, canary_fps: int,
    guard_baits: int, order_baits: int, seed: int,
) -> Tuple[str, List[str]]:
    """A synthetic Table-1 subject and its real-bug functions."""
    rng = random.Random(seed)
    real_functions: List[str] = []
    parts: List[str] = []
    main_body: List[str] = []
    thread_counter = [0]

    n_externs = max(4, guard_baits + 2)
    for i in range(n_externs):
        parts.append(f"extern int cfg{i};")
    parts.append("")

    def fresh_thread() -> str:
        thread_counter[0] += 1
        return f"t{thread_counter[0]}"

    for i in range(real_bugs):
        fn = f"real_uaf_worker_{i}"
        real_functions.append(fn)
        parts.append(
            f"void {fn}(int** slot) {{\n"
            f"    int* fresh = malloc();\n"
            f"    *slot = fresh;\n"
            f"    free(fresh);\n"
            f"}}"
        )
        t = fresh_thread()
        main_body += [
            f"    int** rslot{i} = malloc();",
            f"    int* rinit{i} = malloc();",
            f"    *rslot{i} = rinit{i};",
            f"    fork({t}, {fn}, rslot{i});",
            f"    int* rv{i} = *rslot{i};",
            f"    print(*rv{i});",
        ]

    for i in range(canary_fps):
        fn = f"cfp_uaf_worker_{i}"
        parts.append(
            f"void {fn}(int** slot) {{\n"
            f"    int* fresh = malloc();\n"
            f"    *slot = fresh;\n"
            f"    int failed = nondet();\n"
            f"    if (failed) {{\n"
            f"        free(fresh);\n"
            f"    }}\n"
            f"}}"
        )
        t = fresh_thread()
        main_body += [
            f"    int** cslot{i} = malloc();",
            f"    int* cinit{i} = malloc();",
            f"    *cslot{i} = cinit{i};",
            f"    fork({t}, {fn}, cslot{i});",
            f"    int ok{i} = nondet();",
            f"    if (ok{i}) {{",
            f"        int* cv{i} = *cslot{i};",
            f"        print(*cv{i});",
            f"    }}",
        ]

    for i in range(guard_baits):
        fn = f"bait_guard_worker_{i}"
        cfg = f"cfg{i % n_externs}"
        parts.append(
            f"void {fn}(int** slot) {{\n"
            f"    int* fresh = malloc();\n"
            f"    if ({cfg} < 2) {{\n"
            f"        *slot = fresh;\n"
            f"        free(fresh);\n"
            f"    }}\n"
            f"}}"
        )
        t = fresh_thread()
        main_body += [
            f"    int** gslot{i} = malloc();",
            f"    int* ginit{i} = malloc();",
            f"    *gslot{i} = ginit{i};",
            f"    fork({t}, {fn}, gslot{i});",
            f"    if ({cfg} >= 2) {{",
            f"        int* gv{i} = *gslot{i};",
            f"        print(*gv{i});",
            f"    }}",
        ]

    for i in range(order_baits):
        fn = f"bait_order_worker_{i}"
        parts.append(
            f"void {fn}(int** slot) {{\n"
            f"    int* old = *slot;\n"
            f"    int* fresh = malloc();\n"
            f"    *slot = fresh;\n"
            f"    free(old);\n"
            f"}}"
        )
        t = fresh_thread()
        main_body += [
            f"    int** oslot{i} = malloc();",
            f"    int* oinit{i} = malloc();",
            f"    *oslot{i} = oinit{i};",
            f"    fork({t}, {fn}, oslot{i});",
            f"    join({t});",
            f"    int* ov{i} = *oslot{i};",
            f"    print(*ov{i});",
        ]

    committed = sum(p.count("\n") + 1 for p in parts) + len(main_body) + 8
    n_filler = max(0, target_lines - committed) // _FILLER_LINES
    n_dispatch = max(1, n_filler // 3)
    for d in range(n_dispatch):
        parts.append(
            f"int* handler_{d}(int* a0) {{\n"
            f"    int** cell = malloc();\n"
            f"    *cell = a0;\n"
            f"    int* r = *cell;\n"
            f"    return r;\n"
            f"}}"
        )
    main_body.insert(0, "    int** workbox = malloc();")
    for u in range(n_filler):
        fn = f"util_{u}"
        cfg = f"cfg{rng.randrange(n_externs)}"
        threshold = rng.randrange(8)
        parts.append(
            f"int* {fn}(int* a0, int* b0, int** box) {{\n"
            f"    int* t0 = a0;\n"
            f"    int* t1 = t0;\n"
            f"    int* fresh = malloc();\n"
            f"    *box = fresh;\n"
            f"    int* got = *box;\n"
            f"    int* out = got;\n"
            f"    if ({cfg} > {threshold}) {{\n"
            f"        out = b0;\n"
            f"    }}\n"
            f"    int n = 0;\n"
            f"    while (n < 2) {{\n"
            f"        n = n + 1;\n"
            f"    }}\n"
            f"    return out;\n"
            f"}}"
        )
        if u % 3 == 0:
            main_body.append(f"    int* u{u} = util_{u}(fp0, fp1, workbox);")
        elif u % 3 == 1:
            main_body.append(f"    u{u - 1} = util_{u}(u{u - 1}, fp0, workbox);")
        else:
            main_body.append(f"    int* u{u} = util_{u}(u{u - 1}, u{u - 2}, workbox);")
        if u % 4 == 0:
            d = rng.randrange(n_dispatch)
            main_body.append(f"    int* h{u} = handler_{d};")
            main_body.append(f"    int* hv{u} = h{u}(fp0);")

    header = ["void main() {", "    int* fp0 = malloc();", "    int* fp1 = malloc();"]
    parts.append("\n".join(header + main_body + ["}"]))
    return "\n\n".join(parts) + "\n", real_functions


def _table1_oracle(real_functions: List[str], reports: int, fps: int) -> Oracle:
    """Table 1's Canary columns: report, TP and FP counts."""

    def oracle(text: str, bugs: Sequence[Bug]) -> Optional[str]:
        owner = function_of_line(text)
        tp = sum(1 for _k, src, _s in bugs if owner.get(src) in real_functions)
        got = (len(bugs), tp, len(bugs) - tp)
        want = (reports, reports - fps, fps)
        return None if got == want else f"reports/TP/FP {got}, expected {want}"

    return oracle


def table1(seed: int) -> Workload:
    timed = []
    for name, index, kloc, reports, fps in TABLE1_SUBJECTS:
        baits = max(5, min(40, kloc // 25 + 1))
        text, real = generate_project(
            target_lines=min(65_000, int(250 + 20.0 * kloc)),
            real_bugs=reports - fps,
            canary_fps=fps,
            guard_baits=baits,
            order_baits=baits,
            seed=index * 1009 + seed,
        )
        timed.append(
            Analysis(name, f"{name}.mcc", text, _table1_oracle(real, reports, fps))
        )
    return Workload("table1", resident=False, config={"use_cache": False}, timed=timed)


# ----- detect: detection_scaled_program (vendored tests/fuzz_gen.py) --------

DETECT_THREADS, DETECT_SLOTS, DETECT_FUNCTIONS = 64, 1, 257


def detection_scaled_program(n_threads: int, n_slots: int, pad_functions: int) -> str:
    """Every writer thread republishes-and-frees on every shared slot, so
    each candidate's order constraints grow with the thread count."""
    lines: List[str] = ["extern int mode;", ""]
    for t in range(n_threads):
        lines.append(f"void wt{t}(int** s) {{")
        lines.append(f"    int* b{t} = malloc();")
        lines.append(f"    *s = b{t};")
        lines.append(f"    free(b{t});")
        lines.append("}")
        lines.append("")
    for p in range(pad_functions):
        lines.append(f"void pad{p}(int x) {{")
        lines.append(f"    int y{p} = x + {p};")
        lines.append(f"    print(y{p});")
        lines.append("}")
        lines.append("")
    lines.append("void main() {")
    for s in range(n_slots):
        lines.append(f"    int** slot{s} = malloc();")
        lines.append(f"    int* init{s} = malloc();")
        lines.append(f"    *slot{s} = init{s};")
        for t in range(n_threads):
            lines.append(f"    fork(t{s}_{t}, wt{t}, slot{s});")
    for p in range(pad_functions):
        lines.append(f"    pad{p}({p});")
    for s in range(n_slots):
        lines.append(f"    int* v{s} = *slot{s};")
        lines.append(f"    print(*v{s});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def detect(seed: int) -> Workload:
    """The same input for every seed: SMT search cost is sensitive to
    label numbering, so any seeded variation would show as noise."""
    text = detection_scaled_program(
        DETECT_THREADS, DETECT_SLOTS, DETECT_FUNCTIONS - DETECT_THREADS - 1
    )

    def expected(text: str) -> set:
        return {
            (f"wt{t}", line_of(text, f"print(*v{s});"))
            for t in range(DETECT_THREADS)
            for s in range(DETECT_SLOTS)
        }

    return Workload(
        "detect",
        resident=False,
        config={},
        timed=[Analysis("detect", "detect.mcc", text, _expect_keys(expected))],
    )


# ----- corpus: the regression corpus with its own directives ----------------

CORPUS_SWEEPS = 10
#: pool knobs: the benchmark runs the serial pipeline, one analysis at a time
_POOL_KNOBS = frozenset({
    "parallel_solving", "solver_workers", "solver_backend", "streaming_solving",
    "enumeration_workers", "summary_workers", "detect_workers",
})
_EXPECT_RE = re.compile(r"^//\s*EXPECT\s+(\S+)\s+(\d+)(?:\s+(\d+))?\s*$")
_CHECKERS_RE = re.compile(r"^//\s*CHECKERS\s+(\S+)\s*$")
_CONFIG_RE = re.compile(r"^//\s*CONFIG\s+(\w+)=(\S+)\s*$")


def parse_directives(text: str) -> Tuple[Dict[str, Tuple[int, int]], Dict[str, object]]:
    """``// EXPECT kind lo [hi]``, ``// CHECKERS a,b`` and ``// CONFIG k=v``
    -> (expected report ranges by kind, AnalysisConfig overrides)."""
    expects: Dict[str, Tuple[int, int]] = {}
    checkers: List[str] = []
    config: Dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        m = _EXPECT_RE.match(line)
        if m:
            lo = int(m.group(2))
            expects[m.group(1)] = (lo, int(m.group(3)) if m.group(3) else lo)
            continue
        m = _CHECKERS_RE.match(line)
        if m:
            checkers = [c.strip() for c in m.group(1).split(",")]
            continue
        m = _CONFIG_RE.match(line)
        if m and m.group(1) not in _POOL_KNOBS:
            value = m.group(2)
            if value in ("true", "false"):
                config[m.group(1)] = value == "true"
            elif value.isdigit():
                config[m.group(1)] = int(value)
            else:
                config[m.group(1)] = value
    config["checkers"] = checkers or sorted(expects) or ["use-after-free"]
    return expects, config


def expect_oracle(expects: Dict[str, Tuple[int, int]]) -> Oracle:
    """The file's hand-written ``// EXPECT`` ranges."""

    def oracle(text: str, bugs: Sequence[Bug]) -> Optional[str]:
        counts: Dict[str, int] = {}
        for kind, _src, _sink in bugs:
            counts[kind] = counts.get(kind, 0) + 1
        for kind, (lo, hi) in sorted(expects.items()):
            if not lo <= counts.get(kind, 0) <= hi:
                return f"{counts.get(kind, 0)} {kind} report(s), expected {lo}..{hi}"
        return None

    return oracle


def corpus_analysis(path: pathlib.Path) -> Analysis:
    text = path.read_text()
    expects, config = parse_directives(text)
    if not expects:
        raise ValueError(f"{path.name}: no EXPECT directive")
    return Analysis(path.name, path.name, text, expect_oracle(expects), config)


def corpus(seed: int) -> Workload:
    files = [corpus_analysis(p) for p in sorted(CORPUS_DIR.glob("*.mcc"))]
    rng = random.Random(seed)

    def sweep() -> List[Analysis]:
        order = list(files)
        rng.shuffle(order)
        return order

    setup = sweep()
    timed = [a for _ in range(CORPUS_SWEEPS) for a in sweep()]
    # Repeated identical requests would be answered from the run cache;
    # the workload measures analyses, so caching is off.
    return Workload(
        "corpus", resident=True, config={"use_cache": False}, timed=timed, setup=setup
    )


# ----- edit: scaled_program + one-function edits (vendored fuzz_gen) ---------

EDIT_GROUPS, EDIT_HELPERS, EDIT_BUG_GROUPS, EDIT_STEPS = 60, 5, 2, 2


def scaled_program(
    seed: int, n_groups: int, helpers_per_group: int = 5, bug_groups: int = 2
) -> str:
    """``n_groups * (helpers_per_group + 4) + 1`` functions, one thread per
    group; exactly ``bug_groups`` groups hold a use-after-free."""
    rng = random.Random(seed)
    lines: List[str] = ["extern int mode;", ""]
    for g in range(n_groups):
        for j in range(helpers_per_group):
            lines.append(f"void help{g}_{j}(int** s) {{")
            lines.append(f"    int* h{g}_{j} = *s;")
            lines.append(f"    *s = h{g}_{j};")
            if j % 2 == 0:
                lines.append(f"    print(*h{g}_{j});")
            else:
                lines.append(f"    int n{g}_{j} = {j} + {rng.randrange(7)};")
            lines.append("}")
            lines.append("")
        lines.append(f"void publish{g}(int** s, int* p) {{ *s = p; }}")
        lines.append("")
        lines.append(f"void alloc{g}(int** s) {{")
        lines.append(f"    int* fresh{g} = malloc();")
        lines.append(f"    publish{g}(s, fresh{g});")
        lines.append("}")
        lines.append("")
        lines.append(f"void reader{g}(int** s) {{")
        lines.append(f"    int* r{g} = *s;")
        lines.append(f"    print(*r{g});")
        lines.append("}")
        lines.append("")
        lines.append(f"void wthread{g}(int** s) {{")
        if g < bug_groups:
            lines.append(f"    int* b{g} = malloc();")
            lines.append(f"    *s = b{g};")
            lines.append(f"    free(b{g});")
        else:
            lines.append(f"    alloc{g}(s);")
            for j in range(helpers_per_group):
                lines.append(f"    help{g}_{j}(s);")
            lines.append(f"    reader{g}(s);")
        lines.append("}")
        lines.append("")
    lines.append("void main() {")
    for g in range(n_groups):
        lines.append(f"    int** slot{g} = malloc();")
        lines.append(f"    int* init{g} = malloc();")
        lines.append(f"    *slot{g} = init{g};")
        lines.append(f"    fork(t{g}, wthread{g}, slot{g});")
    for g in range(n_groups):
        lines.append(f"    int* v{g} = *slot{g};")
        lines.append(f"    print(*v{g});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edit(seed: int) -> Workload:
    text = scaled_program(seed, EDIT_GROUPS, EDIT_HELPERS, EDIT_BUG_GROUPS)

    def expected(text: str) -> set:
        return {
            (f"wthread{g}", line_of(text, f"print(*v{g});"))
            for g in range(EDIT_BUG_GROUPS)
        }

    oracle = _expect_keys(expected)
    rng = random.Random(seed)
    lines = text.split("\n")
    timed = []
    for k in range(EDIT_STEPS):
        # The edited functions sit at fixed points of the module: what an
        # edit costs depends on where it falls in the bottom-up order, and
        # the seed only changes constants.
        g = (2 * k + 1) * EDIT_GROUPS // (2 * EDIT_STEPS)
        at = lines.index(f"void help{g}_{EDIT_HELPERS // 2}(int** s) {{")
        # The new local goes on the header line so no other line moves:
        # functions reused across an edit keep their old line numbers in
        # reports (see README.md), which the line-based oracle would flag.
        lines[at] += f" int bench_edit{k} = {rng.randrange(100)};"
        timed.append(Analysis(f"edit{k + 1}", "edit.mcc", "\n".join(lines), oracle))
    return Workload(
        "edit",
        resident=True,
        config={},
        setup=[Analysis("cold", "edit.mcc", text, oracle)],
        timed=timed,
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "table1": table1,
    "detect": detect,
    "corpus": corpus,
    "edit": edit,
}


def digest_mismatches(name: str) -> List[str]:
    """Labels whose seed-0 input differs from its sha256 in ``digests.json``."""
    want = json.loads(DIGESTS.read_text())[name]
    got = {label: sha256(text) for label, text in WORKLOADS[name](0).inputs().items()}
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
