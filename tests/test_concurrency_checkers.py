"""The three concurrency-bug checker families (data-race, atomicity
violation, order violation) on the ordering engine.

Each family gets a bait/safe pair: the bait must fire, and the
synchronised variant of the *same* access pattern must stay silent —
the lock-set filter, the mutual-exclusion constraints, and the Φ_po
signal→wait edges are what make the difference.  Every realizable
report of the new kinds must also replay concretely (the interpreter's
opt-in dynamic detectors), and keys must be identical at every
detect-worker width.
"""

import sys

import pytest

from repro import AnalysisConfig, Canary
from repro.checkers import ALL_CHECKERS, CHECKER_ALIASES, resolve_checker_names
from repro.interp import confirm_all

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from fuzz_gen import lock_bait_program

RACE_BAIT = """
void main() {
    int* c = malloc();
    *c = 1;
    fork(t, worker, c);
    *c = 2;
    print(*c);
}
void worker(int* c) {
    *c = 7;
}
"""

RACE_LOCKED = """
void main() {
    int* c = malloc();
    *c = 1;
    fork(t, worker, c);
    lock(m);
    *c = 2;
    int r = *c;
    unlock(m);
    print(r);
}
void worker(int* c) {
    lock(m);
    *c = 7;
    unlock(m);
}
"""

RACE_WRONG_MUTEX = RACE_LOCKED.replace(
    "lock(m);\n    *c = 7;", "lock(other);\n    *c = 7;"
).replace("*c = 7;\n    unlock(m);", "*c = 7;\n    unlock(other);")

RMW_BAIT = """
void main() {
    int* c = malloc();
    *c = 0;
    fork(t, worker, c);
    int tmp = *c;
    *c = tmp + 1;
    print(*c);
}
void worker(int* c) {
    *c = 100;
}
"""

RMW_LOCKED = """
void main() {
    int* c = malloc();
    *c = 0;
    fork(t, worker, c);
    lock(m);
    int tmp = *c;
    *c = tmp + 1;
    unlock(m);
    print(*c);
}
void worker(int* c) {
    lock(m);
    *c = 100;
    unlock(m);
}
"""

# Consumer forked before the final store: the stale read interleaves
# even under SC, so the witness is concretely executable.
ORDER_SC_BAIT = """
void main() {
    int* d = malloc();
    *d = 41;
    fork(t, consumer, d);
    *d = 42;
}
void consumer(int* d) {
    int v = *d;
    print(v);
}
"""

# Both stores retire before the fork; only PSO's store-store relaxation
# can delay the superseding store past the consumer's read.
ORDER_PUBLISH = """
void main() {
    int* d = malloc();
    int* a = d;
    *d = 41;
    *a = 42;
    fork(t, consumer, d);
}
void consumer(int* d) {
    int v = *d;
    print(v);
}
"""


def run(src, checkers, keep_bundle=False, **overrides):
    config = AnalysisConfig(checkers=checkers, **overrides)
    return Canary(config).analyze_source(src, keep_bundle=keep_bundle)


def kinds(report):
    return sorted(b.kind for b in report.bugs)


class TestDataRace:
    def test_unprotected_conflicts_fire(self):
        report = run(RACE_BAIT, ("data-race",))
        assert report.num_reports >= 1
        assert set(kinds(report)) == {"data-race"}

    def test_same_mutex_is_silent(self):
        report = run(RACE_LOCKED, ("data-race",), model_locks=True)
        assert report.num_reports == 0

    def test_wrong_mutex_fires(self):
        report = run(RACE_WRONG_MUTEX, ("data-race",), model_locks=True)
        assert report.num_reports >= 1

    def test_locks_ignored_without_model_locks(self):
        # Matching the published Canary: locks unmodeled => FP reported.
        report = run(RACE_LOCKED, ("data-race",), model_locks=False)
        assert report.num_reports >= 1

    def test_write_write_pair_reported_once(self):
        src = """
        void main() {
            int* c = malloc();
            *c = 1;
            fork(t, worker, c);
            *c = 2;
        }
        void worker(int* c) {
            *c = 7;
        }
        """
        report = run(src, ("data-race",))
        # One conflicting write pair — deduplicated by label order, not
        # reported once per direction.
        assert report.num_reports == 1

    def test_join_ordered_accesses_do_not_race(self):
        src = """
        void main() {
            int* c = malloc();
            *c = 1;
            fork(t, worker, c);
            join(t);
            *c = 2;
            print(*c);
        }
        void worker(int* c) {
            *c = 7;
        }
        """
        report = run(src, ("data-race",))
        assert report.num_reports == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzzed_lock_discipline_differential(self, seed):
        safe = lock_bait_program(seed, protected=True)
        racy = lock_bait_program(seed, protected=False)
        assert run(safe, ("data-race",), model_locks=True).num_reports == 0
        assert run(racy, ("data-race",), model_locks=True).num_reports >= 1


class TestAtomicityViolation:
    def test_unprotected_rmw_fires(self):
        report = run(RMW_BAIT, ("atomicity-violation",))
        assert report.num_reports >= 1
        assert set(kinds(report)) == {"atomicity-violation"}

    def test_locked_rmw_is_silent(self):
        report = run(RMW_LOCKED, ("atomicity-violation",), model_locks=True)
        assert report.num_reports == 0

    def test_locks_ignored_without_model_locks(self):
        report = run(RMW_LOCKED, ("atomicity-violation",), model_locks=False)
        assert report.num_reports >= 1

    def test_no_remote_writer_is_silent(self):
        src = """
        void main() {
            int* c = malloc();
            *c = 0;
            fork(t, worker, c);
            int tmp = *c;
            *c = tmp + 1;
        }
        void worker(int* c) {
            int r = *c;
            print(r);
        }
        """
        # The remote thread only reads: no store can split the RMW pair.
        report = run(src, ("atomicity-violation",))
        assert report.num_reports == 0

    def test_join_before_rmw_is_silent(self):
        src = """
        void main() {
            int* c = malloc();
            *c = 0;
            fork(t, worker, c);
            join(t);
            int tmp = *c;
            *c = tmp + 1;
        }
        void worker(int* c) {
            *c = 100;
        }
        """
        report = run(src, ("atomicity-violation",))
        assert report.num_reports == 0


class TestOrderViolation:
    def test_sc_interleaved_stale_read_fires(self):
        report = run(ORDER_SC_BAIT, ("order-violation",))
        assert report.num_reports >= 1

    def test_publish_safe_under_sc_and_tso(self):
        for model in ("sc", "tso"):
            report = run(ORDER_PUBLISH, ("order-violation",), memory_model=model)
            assert report.num_reports == 0, model

    def test_publish_fires_under_pso(self):
        report = run(ORDER_PUBLISH, ("order-violation",), memory_model="pso")
        assert report.num_reports >= 1

    def test_coherence_kept_for_same_pointer_stores(self):
        # Same SSA pointer for both stores: per-location coherence keeps
        # them ordered even under PSO, so the stale read never appears.
        src = ORDER_PUBLISH.replace("*a = 42;", "*d = 42;")
        report = run(src, ("order-violation",), memory_model="pso")
        assert report.num_reports == 0

    def test_lock_protected_publication_is_silent(self):
        src = """
        void main() {
            int* d = malloc();
            fork(t, consumer, d);
            lock(m);
            *d = 41;
            *d = 42;
            unlock(m);
        }
        void consumer(int* d) {
            lock(m);
            int v = *d;
            unlock(m);
            print(v);
        }
        """
        report = run(src, ("order-violation",), model_locks=True)
        assert report.num_reports == 0


class TestAliasesAndSelection:
    def test_aliases_resolve_to_canonical_kinds(self):
        assert resolve_checker_names(["race", "atomicity", "order"]) == (
            "data-race",
            "atomicity-violation",
            "order-violation",
        )

    def test_canonical_names_pass_through(self):
        names = tuple(sorted(ALL_CHECKERS))
        assert resolve_checker_names(names) == names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown checker"):
            resolve_checker_names(["race", "nonsense"])

    def test_every_alias_targets_a_registered_checker(self):
        for target in CHECKER_ALIASES.values():
            assert target in ALL_CHECKERS

    def test_families_only_report_their_kind(self):
        report = run(RACE_BAIT, ("atomicity-violation", "order-violation"))
        assert "data-race" not in kinds(report)


class TestReplay:
    @pytest.mark.parametrize(
        "src,checker",
        [
            (RACE_BAIT, "data-race"),
            (RMW_BAIT, "atomicity-violation"),
            (ORDER_SC_BAIT, "order-violation"),
        ],
        ids=["race", "atomicity", "order"],
    )
    def test_every_report_confirms_dynamically(self, src, checker):
        report = run(src, (checker,), keep_bundle=True)
        assert report.num_reports >= 1
        results = confirm_all(report.bundle.module, report.bugs)
        assert all(r.confirmed for r in results), [r.describe() for r in results]
