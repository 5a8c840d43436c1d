"""Semantics of the per-fact records: VFG nodes and edges, tokens,
source locations and SSA variables.

Nodes, edges and tokens are tuple-backed (hash and equality run in C).
``Location`` and ``Variable`` are ``__slots__`` classes whose ``__new__``
fills the slots through their descriptors and whose ``__setattr__``
refuses every assignment; a ``Location`` compares, hashes and pickles by
value, a ``Variable`` by identity.  Whatever their backing, every record
is immutable, carries no instance dict, keeps its ``repr``, and the graph
holds one canonical node object per node.
"""

import copy
import pickle

import pytest

from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.source import Location
from repro.ir import AllocInst, LoadInst, StoreInst
from repro.ir.values import Variable
from repro.smt.terms import TRUE, bool_var
from repro.vfg import DefNode, NullNode, ObjNode, StoreNode, ValueFlowGraph, VFGEdge

from programs import SIMPLE_UAF, bundle_for

NODE_CLASSES = (DefNode, StoreNode, ObjNode, NullNode)


def first(module, func, cls):
    return next(i for i in module.functions[func].body if isinstance(i, cls))


@pytest.fixture(scope="module")
def bundle():
    return bundle_for(SIMPLE_UAF)


class TestNodes:
    def test_classes_never_equal_on_same_payload(self, bundle):
        store = first(bundle.module, "main", StoreInst)
        nodes = [cls(store) for cls in NODE_CLASSES]
        for a in nodes:
            for b in nodes:
                assert (a == b) == (type(a) is type(b))
        assert len({hash(n) for n in nodes}) == len(nodes)
        assert len(set(nodes)) == len(nodes)

    def test_equal_payload_same_class_is_equal(self, bundle):
        store = first(bundle.module, "main", StoreInst)
        assert StoreNode(store) == StoreNode(store)
        assert hash(StoreNode(store)) == hash(StoreNode(store))
        assert StoreNode(store).inst is store
        assert copy.copy(StoreNode(store)) == StoreNode(store)

    def test_null_store_keeps_its_edge(self):
        b = bundle_for("void main() { int* p = malloc(); *p = null; }")
        store = first(b.module, "main", StoreInst)
        assert [e.dst for e in b.vfg.out_edges(NullNode(store))] == [StoreNode(store)]
        assert [repr(e) for e in b.vfg.in_edges(StoreNode(store))] == [
            f"null@ℓ{store.label} → store@ℓ{store.label} [direct]"
        ]

    def test_reprs(self, bundle):
        main = bundle.module.functions["main"]
        store = first(bundle.module, "main", StoreInst)
        alloc = main.body[0]
        assert repr(DefNode(alloc.dst)) == f"def({alloc.dst!r})"
        assert repr(ObjNode(alloc.obj)) == f"obj({alloc.obj!r})"
        assert repr(StoreNode(store)) == f"store@ℓ{store.label}"
        assert repr(NullNode(store)) == f"null@ℓ{store.label}"


class TestGraph:
    def test_edges_hold_the_canonical_nodes(self, bundle):
        vfg = bundle.vfg
        canonical = {id(n) for n in vfg.nodes()}
        assert len(canonical) == vfg.num_nodes
        edges = list(vfg.edges())
        assert len(edges) == vfg.num_edges
        for edge in edges:
            assert id(edge.src) in canonical and id(edge.dst) in canonical
        for node in vfg.nodes():
            fresh = type(node)(node[1])
            assert fresh is not node
            assert all(e.src is node for e in vfg.out_edges(fresh))
            assert all(e.dst is node for e in vfg.in_edges(fresh))

    def test_fresh_copy_does_not_add_a_node(self, bundle):
        vfg = ValueFlowGraph()
        alloc = bundle.module.functions["main"].body[0]
        first_edge = vfg.add_edge(ObjNode(alloc.obj), DefNode(alloc.dst), TRUE, "alloc")
        assert vfg.add_edge(ObjNode(alloc.obj), DefNode(alloc.dst), TRUE, "alloc") is None
        assert vfg.num_nodes == 2 and vfg.num_edges == 1
        assert list(vfg.edges()) == [first_edge]

    def test_edge_value_semantics(self, bundle):
        alloc = bundle.module.functions["main"].body[0]
        src, dst = ObjNode(alloc.obj), DefNode(alloc.dst)
        edge = VFGEdge(src, dst, TRUE, "alloc")
        assert edge == VFGEdge(src, dst, TRUE, "alloc")
        assert hash(edge) == hash(VFGEdge(src, dst, TRUE, "alloc"))
        assert (edge.callsite, edge.obj, edge.store, edge.load, edge.interthread) == (
            None,
            None,
            None,
            None,
            False,
        )
        assert repr(edge) == f"{src!r} → {dst!r} [alloc]"
        interference = VFGEdge(src, dst, TRUE, "alloc", interthread=True)
        assert repr(interference) == f"{src!r} ⇢ {dst!r} [alloc]"


class TestEdgeIdentity:
    """An edge is dropped only as a duplicate of its identity fields:
    ``(src, dst, kind, callsite, obj, store, load, interthread)``."""

    @pytest.fixture()
    def parts(self):
        b = bundle_for(
            "void main() { int** p = malloc(); int* a = malloc(); int* q = malloc();"
            " *p = a; *p = q; int* c = *p; print(*c); }"
        )
        main = b.module.functions["main"]
        s1, s2 = [i for i in main.body if isinstance(i, StoreInst)]
        load = next(i for i in main.body if isinstance(i, LoadInst))
        objs = [i.obj for i in main.body if isinstance(i, AllocInst)]
        return StoreNode(s1), DefNode(load.dst), s1, s2, load, objs

    def test_edges_differing_in_one_field_are_both_kept(self, parts):
        src, dst, s1, s2, load, objs = parts
        bare = dict(callsite=None, obj=None, store=None, load=None, interthread=False)
        full = dict(bare, obj=objs[0], store=s1, load=load)
        changes = dict(callsite=7, obj=objs[1], store=s2, load=load, interthread=True)
        for base in (bare, full):
            for field, other in changes.items():
                if base[field] is other:
                    other = None
                vfg = ValueFlowGraph()
                first = vfg.add_edge(src, dst, TRUE, "load", **base)
                second = vfg.add_edge(src, dst, TRUE, "load", **{**base, field: other})
                assert first is not None and second is not None, field
                assert vfg.out_edges(src) == [first, second]

    def test_same_identity_other_guard_is_dropped(self, parts):
        src, dst, s1, _s2, load, objs = parts
        guard = bool_var("theta")
        for fields in ({}, dict(obj=objs[0], store=s1, load=load, interthread=True)):
            vfg = ValueFlowGraph()
            first = vfg.add_edge(src, dst, TRUE, "load", **fields)
            assert vfg.add_edge(src, dst, guard, "load", **fields) is None
            assert vfg.out_edges(src) == [first] and vfg.num_edges == 1

    def test_short_and_long_keys_between_the_same_nodes(self, parts):
        src, dst, s1, _s2, load, objs = parts
        vfg = ValueFlowGraph()
        short = vfg.add_edge(src, dst, TRUE, "load")
        long = vfg.add_edge(src, dst, TRUE, "load", obj=objs[0], store=s1, load=load)
        assert short is not None and long is not None
        assert vfg.in_edges(dst) == [short, long]


def _records(bundle):
    alloc = bundle.module.functions["main"].body[0]
    store = first(bundle.module, "main", StoreInst)
    token = tokenize("int x;")[0]
    return [
        (DefNode(alloc.dst), "var"),
        (StoreNode(store), "inst"),
        (ObjNode(alloc.obj), "obj"),
        (NullNode(store), "inst"),
        (next(iter(bundle.vfg.edges())), "guard"),
        (token, "text"),
        (token.location, "line"),
        (alloc.dst, "name"),
    ]


class TestImmutability:
    def test_fields_cannot_be_assigned(self, bundle):
        for record, name in _records(bundle):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            # (a frozen slots dataclass raises TypeError on some Pythons)
            with pytest.raises((AttributeError, TypeError)):
                record.extra = 1

    def test_no_instance_dict(self, bundle):
        for record, _name in _records(bundle):
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestTokens:
    def test_lexer_tokens_are_plain_tokens(self):
        tok = tokenize("  foo")[0]
        assert type(tok) is Token
        assert tok == Token(TokenKind.IDENT, "foo", Location(1, 3))
        assert tok.kind == TokenKind.IDENT and tok.text == "foo"
        assert tok.location == Location(1, 3, "<input>")

    def test_reprs(self):
        tok = tokenize("x")[0]
        assert repr(tok) == (
            "Token(kind='ident', text='x', "
            "location=Location(line=1, column=1, filename='<input>'))"
        )
        assert str(tok.location) == "<input>:1:1"


class TestLocation:
    def test_value_semantics(self):
        loc = Location(3, 7, "f.mcc")
        assert loc == Location(3, 7, "f.mcc")
        assert loc != Location(3, 8, "f.mcc") and loc != Location(3, 7, "g.mcc")
        assert loc != (3, 7, "f.mcc")
        assert hash(loc) == hash(Location(3, 7, "f.mcc")) == hash((3, 7, "f.mcc"))
        assert Location(1, 2) == Location(1, 2, "<input>")
        assert str(Location.unknown()) == "<unknown>:0:0"

    def test_pickle_and_copy_keep_the_value(self):
        loc = Location(3, 7, "f.mcc")
        for clone in (
            pickle.loads(pickle.dumps(loc)),
            copy.copy(loc),
            copy.deepcopy(loc),
        ):
            assert type(clone) is Location and clone == loc
            assert repr(clone) == "Location(line=3, column=7, filename='f.mcc')"

    def test_cannot_delete_a_field(self):
        with pytest.raises(AttributeError):
            del Location(1, 1).line


class TestVariable:
    def test_identity_semantics(self):
        a, b = Variable("f::x", "x"), Variable("f::x", "x")
        assert a == a and a != b
        assert len({a, b}) == 2
        assert (a.name, a.source_name) == ("f::x", "x")
        assert Variable("f::t").source_name is None
        assert repr(a) == "%f::x"

    def test_pickle_keeps_sharing_within_one_dump(self):
        a = Variable("f::x", "x")
        left, right = pickle.loads(pickle.dumps([a, a]))
        assert left is right and left is not a
        assert (left.name, left.source_name) == ("f::x", "x")

    def test_cannot_delete_a_field(self):
        with pytest.raises(AttributeError):
            del Variable("f::x").name
