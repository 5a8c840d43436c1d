"""Unit tests for the SMT term DSL."""

import sys
import threading
import uuid

from repro.smt import terms as T


class TestInterning:
    def test_bool_vars_interned(self):
        assert T.bool_var("a") is T.bool_var("a")
        assert T.bool_var("a") is not T.bool_var("b")

    def test_int_terms_interned(self):
        assert T.int_var("x") is T.int_var("x")
        assert T.int_const(3) is T.int_const(3)

    def test_compound_interned(self):
        a, b = T.bool_var("a"), T.bool_var("b")
        assert T.and_(a, b) is T.and_(a, b)
        assert T.or_(a, b) is T.or_(a, b)

    def test_concurrent_construction_yields_one_object(self):
        # Concurrent runs intern into one process-wide table: threads that
        # build the same fresh terms at once must all get the stored one.
        names = [f"race_{uuid.uuid4().hex}" for _ in range(3000)]
        results = [None] * 4
        barrier = threading.Barrier(len(results))

        def build(k):
            barrier.wait()
            results[k] = [T.int_var(name) for name in names]

        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for built in results[1:]:
            assert all(a is b for a, b in zip(results[0], built))


class TestBooleanConstruction:
    def test_constants(self):
        assert T.true() is T.TRUE
        assert T.false() is T.FALSE
        assert T.TRUE.value is True
        assert T.FALSE.value is False

    def test_double_negation(self):
        a = T.bool_var("a")
        assert T.not_(T.not_(a)) is a

    def test_negation_of_constants(self):
        assert T.not_(T.TRUE) is T.FALSE
        assert T.not_(T.FALSE) is T.TRUE

    def test_and_identity_absorption(self):
        a = T.bool_var("a")
        assert T.and_(a, T.TRUE) is a
        assert T.and_(a, T.FALSE) is T.FALSE
        assert T.and_() is T.TRUE

    def test_or_identity_absorption(self):
        a = T.bool_var("a")
        assert T.or_(a, T.FALSE) is a
        assert T.or_(a, T.TRUE) is T.TRUE
        assert T.or_() is T.FALSE

    def test_and_flattening(self):
        a, b, c = (T.bool_var(n) for n in "abc")
        nested = T.and_(T.and_(a, b), c)
        flat = T.and_(a, b, c)
        assert nested is flat
        assert len(nested.args) == 3

    def test_and_dedup(self):
        a = T.bool_var("a")
        assert T.and_(a, a) is a

    def test_complementary_literals_fold(self):
        a = T.bool_var("a")
        assert T.and_(a, T.not_(a)) is T.FALSE
        assert T.or_(a, T.not_(a)) is T.TRUE

    def test_implies_iff(self):
        a, b = T.bool_var("a"), T.bool_var("b")
        assert T.implies(T.FALSE, a) is T.TRUE
        assert T.implies(T.TRUE, a) is a
        assert T.iff(a, a) is T.TRUE

    def test_operator_overloads(self):
        a, b = T.bool_var("a"), T.bool_var("b")
        assert (a & b) is T.and_(a, b)
        assert (a | b) is T.or_(a, b)
        assert (~a) is T.not_(a)

    def test_python_bool_coercion(self):
        a = T.bool_var("a")
        assert T.and_(a, True) is a
        assert T.and_(a, False) is T.FALSE


class TestArithmetic:
    def test_constant_folding_cmp(self):
        assert T.lt(1, 2) is T.TRUE
        assert T.lt(2, 1) is T.FALSE
        assert T.le(2, 2) is T.TRUE
        assert T.eq(3, 3) is T.TRUE
        assert T.eq(3, 4) is T.FALSE

    def test_reflexive_cmp(self):
        x = T.int_var("x")
        assert T.le(x, x) is T.TRUE
        assert T.lt(x, x) is T.FALSE
        assert T.eq(x, x) is T.TRUE

    def test_ge_gt_normalize_to_le_lt(self):
        x, y = T.int_var("x"), T.int_var("y")
        assert T.ge(x, y) is T.le(y, x)
        assert T.gt(x, y) is T.lt(y, x)

    def test_add_sub_folding(self):
        x = T.int_var("x")
        assert (x + 0) is x
        assert (x - 0) is x
        assert (x - x) is T.int_const(0)
        assert (T.int_const(2) + 3) is T.int_const(5)

    def test_int_operator_cmp(self):
        x, y = T.int_var("x"), T.int_var("y")
        assert (x < y) is T.lt(x, y)
        assert (x >= y) is T.ge(x, y)


class TestLiteralHelpers:
    def test_is_literal(self):
        a = T.bool_var("a")
        x, y = T.int_var("x"), T.int_var("y")
        assert T.is_literal(a)
        assert T.is_literal(T.not_(a))
        assert T.is_literal(T.lt(x, y))
        assert not T.is_literal(T.and_(a, T.bool_var("b")))

    def test_literal_atom(self):
        a = T.bool_var("a")
        assert T.literal_atom(a) == (a, True)
        assert T.literal_atom(T.not_(a)) == (a, False)

    def test_conjuncts(self):
        a, b = T.bool_var("a"), T.bool_var("b")
        assert list(T.conjuncts(T.and_(a, b))) == [a, b]
        assert list(T.conjuncts(a)) == [a]

    def test_pretty_round_trip_stable(self):
        a, b = T.bool_var("a"), T.bool_var("b")
        t = T.and_(a, T.or_(b, T.not_(a)))
        assert isinstance(t.pretty(), str)
        assert "a" in t.pretty() and "b" in t.pretty()
