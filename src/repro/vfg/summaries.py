"""Per-function value-flow/escape summaries — the modular layer between
Alg. 1 (guarded data dependence) and Alg. 2 (interference).

Alg. 1 builds the VFG one function at a time (reverse-topological pass
order), so every function owns one *contiguous span* of edge ordinals and
store/load site positions (recorded in
``DataDependenceAnalysis.function_extents``).  A
:class:`FunctionVFSummary` packages that span as a compact,
content-fingerprinted artifact:

* the function's edge-ordinal span (its slice of the VFG),
* its guarded store/load sites on pointer variables, indexed
  ``pointer-var -> site positions`` (the inputs to ``Pted`` membership
  tests and to the ``S(l)``/``object_stores`` construction),
* its escape seeds (objects it publishes through fork arguments),
* a content fingerprint over the encoded edges/sites (node labels +
  structural guard keys), so a single-function edit invalidates exactly
  one summary in the :class:`~repro.analysis.artifacts.ArtifactStore`.

:class:`SummaryIndex` merges the per-function site indexes and serves a
:class:`SummaryGraphView` — a demand-loading adjacency view that
materializes a function's edge span only when the interference fixpoint
or the detection DFS actually walks into it.  Exactness is structural:
per-node adjacency lists in the real VFG are ordinal-sorted by
construction, so merging per-shard ``(ordinal, edge)`` entries and
appending interference-created overlay edges (whose ordinals are larger
than every dataflow ordinal) reproduces ``vfg.out_edges`` byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..ir.values import MemObject, Variable
from ..smt.terms import structural_key
from .graph import DefNode, NullNode, ObjNode, StoreNode, VFGEdge, ValueFlowGraph

__all__ = [
    "FunctionVFSummary",
    "SummaryGraphView",
    "SummaryIndex",
    "compute_summaries",
]


# ----- summary artifact -----------------------------------------------------


@dataclass
class FunctionVFSummary:
    """One function's contribution to the inter-thread analysis.

    Picklable (variables/objects/instructions pickle by value); persisted
    in the ArtifactStore *memory* layer only — SSA variable identity is
    process-local, so a summary is valid exactly as long as the journal
    that produced its span (enforced by the extent check on reuse).
    """

    name: str
    #: sha256 over the encoded edge rows + site rows (relative ordinals,
    #: node labels, structural guard keys) — content-addressed, stable
    #: across journal replays of an unchanged function
    fingerprint: str
    #: (edge_start, edge_end, store_start, store_end, load_start,
    #: load_end, fork_escape_start, fork_escape_end)
    extent: Tuple[int, ...]
    #: pointer variable -> ascending positions into ``dataflow.all_stores``
    ptr_stores: Dict[Variable, List[int]] = field(default_factory=dict)
    #: pointer variable -> ascending positions into ``dataflow.all_loads``
    ptr_loads: Dict[Variable, List[int]] = field(default_factory=dict)
    #: objects this function publishes via fork arguments (its slice of
    #: ``dataflow.fork_escaped``)
    escape_seeds: List[MemObject] = field(default_factory=list)

    @property
    def edge_span(self) -> Tuple[int, int]:
        return (self.extent[0], self.extent[1])

    @property
    def num_edges(self) -> int:
        return self.extent[1] - self.extent[0]

    @property
    def num_sites(self) -> int:
        return (self.extent[3] - self.extent[2]) + (self.extent[5] - self.extent[4])


# ----- demand-loading graph view -------------------------------------------


class SummaryGraphView:
    """Adjacency view over summary edge spans, loaded shard by shard.

    ``out_edges(node)`` materializes only the shards (function spans)
    that *own* out-edges of ``node``; the result list is identical to
    ``vfg.out_edges(node)`` — same edges, same order — because per-node
    lists are rebuilt by ordinal.  Interference edges created during the
    fixpoint are appended through :meth:`add_overlay` with monotonically
    increasing ordinals, which keeps every materialized list sorted
    without re-sorting.
    """

    def __init__(self, index: "SummaryIndex") -> None:
        self.index = index
        self._loaded: Set[str] = set()
        #: pending per-node (ordinal, edge) entries for loaded shards
        self._entries: Dict[Any, List[Tuple[int, VFGEdge]]] = {}
        #: finalized ordinal-sorted adjacency lists
        self._ready: Dict[Any, List[VFGEdge]] = {}
        self.shards_loaded = 0
        self.edges_materialized = 0
        self.demand_queries = 0

    def out_edges(self, node: Any) -> List[VFGEdge]:
        ready = self._ready.get(node)
        if ready is not None:
            return ready
        self.demand_queries += 1
        for name in self.index.out_owners.get(node, ()):
            self._load(name)
        entries = self._entries.pop(node, None)
        if entries is None:
            ready = []
        else:
            entries.sort(key=lambda pair: pair[0])
            ready = [edge for _ordinal, edge in entries]
        self._ready[node] = ready
        return ready

    def in_edges(self, node: Any) -> List[VFGEdge]:
        # Backward queries (escape seeding, explanation) go straight to
        # the real VFG; demand loading only pays off on the forward side.
        return self.index.vfg.in_edges(node)

    def add_overlay(self, edge: VFGEdge, ordinal: int) -> None:
        """Register an interference edge added to the VFG at ``ordinal``
        (strictly larger than all previously registered ordinals for its
        source node, since the VFG append is the ordinal)."""
        ready = self._ready.get(edge.src)
        if ready is not None:
            ready.append(edge)
        else:
            self._entries.setdefault(edge.src, []).append((ordinal, edge))

    def _load(self, name: str) -> None:
        if name in self._loaded:
            return
        self._loaded.add(name)
        summary = self.index.summaries[name]
        start, end = summary.edge_span
        for ordinal, edge in enumerate(self.index.vfg.edge_slice(start, end), start):
            # A node's finalized list never misses shard edges: owners
            # are computed up front, and a node is finalized only after
            # all its owner shards have loaded.
            target = self._ready.get(edge.src)
            if target is not None:
                # Owner loaded after finalization cannot happen for
                # dataflow edges (all owners load before finalization);
                # guard anyway for robustness.
                target.append(edge)
            else:
                self._entries.setdefault(edge.src, []).append((ordinal, edge))
        self.shards_loaded += 1
        self.edges_materialized += end - start

    # ----- diagnostics ------------------------------------------------------

    def assert_consistent(self) -> None:
        """Every materialized adjacency list must equal the real VFG's
        (same edge objects, same order) — the exactness invariant."""
        for node, ready in self._ready.items():
            real = self.index.vfg.out_edges(node)
            if ready != real:
                raise AssertionError(
                    f"summary view diverged at {node!r}: "
                    f"{len(ready)} vs {len(real)} edges"
                )

    def statistics(self) -> Dict[str, int]:
        return {
            "shards_loaded": self.shards_loaded,
            "shards_total": len(self.index.summaries),
            "edges_materialized": self.edges_materialized,
            "demand_queries": self.demand_queries,
        }


# ----- index ----------------------------------------------------------------


class SummaryIndex:
    """All function summaries of one run, plus the merged site indexes
    and the demand-loading graph view consumed by interference/detection."""

    def __init__(
        self,
        vfg: ValueFlowGraph,
        summaries: Dict[str, FunctionVFSummary],
    ) -> None:
        self.vfg = vfg
        self.summaries = summaries
        #: merged pointer-var -> ascending global store positions
        self.ptr_stores: Dict[Variable, List[int]] = {}
        #: merged pointer-var -> ascending global load positions
        self.ptr_loads: Dict[Variable, List[int]] = {}
        #: node -> names of the functions owning its out-edges
        self.out_owners: Dict[Any, Tuple[str, ...]] = {}
        owners: Dict[Any, List[str]] = {}
        for name, summary in summaries.items():
            for var, positions in summary.ptr_stores.items():
                self.ptr_stores.setdefault(var, []).extend(positions)
            for var, positions in summary.ptr_loads.items():
                self.ptr_loads.setdefault(var, []).extend(positions)
            start, end = summary.edge_span
            for edge in vfg.edge_slice(start, end):
                names = owners.setdefault(edge.src, [])
                if not names or names[-1] != name:
                    names.append(name)
        for node, names in owners.items():
            self.out_owners[node] = tuple(dict.fromkeys(names))
        # Summaries arrive in pass order, so merged per-var position
        # lists are ascending already; sort defensively (cheap: lists
        # are sorted, timsort is linear on them).
        for positions in self.ptr_stores.values():
            positions.sort()
        for positions in self.ptr_loads.values():
            positions.sort()
        self.view = SummaryGraphView(self)

    @property
    def escape_seeds(self) -> List[MemObject]:
        seeds: List[MemObject] = []
        for summary in self.summaries.values():
            seeds.extend(summary.escape_seeds)
        return seeds

    def store_positions(self, var: Variable) -> Sequence[int]:
        return self.ptr_stores.get(var, ())

    def load_positions(self, var: Variable) -> Sequence[int]:
        return self.ptr_loads.get(var, ())

    def statistics(self) -> Dict[str, int]:
        stats = self.view.statistics()
        stats["functions"] = len(self.summaries)
        return stats


# ----- content encoding -----------------------------------------------------


def _encode_node(node: Any) -> Tuple:
    if isinstance(node, DefNode):
        return ("d", node.var.name)
    if isinstance(node, StoreNode):
        return ("s", node.inst.label)
    if isinstance(node, ObjNode):
        obj = node.obj
        return ("o", obj.name, obj.kind, obj.context)
    if isinstance(node, NullNode):
        return ("n", node.inst.label)
    return ("x", repr(node))


def _encode_function(dataflow, name: str):
    """The fingerprint payload for one function: relative ordinals,
    label-encoded nodes and guard *terms* (serialized structurally by
    :func:`_fingerprints`)."""
    extent = dataflow.function_extents[name]
    e0, e1, s0, s1, l0, l1, f0, f1 = extent
    edge_rows = []
    for rel, edge in enumerate(dataflow.vfg.edge_slice(e0, e1)):
        edge_rows.append(
            (
                rel,
                _encode_node(edge.src),
                _encode_node(edge.dst),
                edge.kind,
                edge.callsite,
                edge.guard,
                edge.interthread,
            )
        )
    site_rows = []
    for rel, store in enumerate(dataflow.all_stores[s0:s1]):
        ptr = store.pointer
        site_rows.append(
            ("st", rel, store.label, ptr.name if isinstance(ptr, Variable) else None)
        )
    for rel, load in enumerate(dataflow.all_loads[l0:l1]):
        ptr = load.pointer
        site_rows.append(
            ("ld", rel, load.label, ptr.name if isinstance(ptr, Variable) else None)
        )
    for obj in dataflow.fork_escaped[f0:f1]:
        site_rows.append(("esc", obj.name, obj.kind, obj.context))
    return (name, edge_rows, site_rows)


def _fingerprints(payloads) -> Dict[str, str]:
    """Hash each function payload to its content fingerprint."""
    results: Dict[str, str] = {}
    guard_keys: Dict[int, str] = {}
    for name, edge_rows, site_rows in payloads:
        hasher = hashlib.sha256()
        hasher.update(repr(name).encode())
        for rel, src, dst, kind, callsite, guard, interthread in edge_rows:
            key = guard_keys.get(id(guard))
            if key is None:
                key = structural_key(guard)
                guard_keys[id(guard)] = key
            hasher.update(
                repr((rel, src, dst, kind, callsite, key, interthread)).encode()
            )
        for row in site_rows:
            hasher.update(repr(row).encode())
        results[name] = hasher.hexdigest()
    return results


# ----- portable disk codec --------------------------------------------------


def _encode_disk_summary(summary: FunctionVFSummary, schema: str) -> dict:
    """The JSON disk entry for one summary.  Only portable content goes
    to disk: the fingerprint plus the extent *shape* (relative counts)
    used to validate a hit.  Site indexes and escape seeds are rebuilt
    from the live dataflow on load — they index process-local objects."""
    e0, e1, s0, s1, l0, l1, f0, f1 = summary.extent
    return {
        "schema": schema,
        "name": summary.name,
        "fingerprint": summary.fingerprint,
        "shape": [e1 - e0, s1 - s0, l1 - l0, f1 - f0],
    }


def _decode_disk_summary(
    entry, name: str, extent: Tuple[int, ...], dataflow, schema: str
) -> Optional[FunctionVFSummary]:
    """Reconstruct a summary from a disk entry, or ``None`` when the
    entry is stale or malformed (schema drift, shape mismatch, hand-rolled
    JSON) — every reject is just a cache miss."""
    if not isinstance(entry, dict) or entry.get("schema") != schema:
        return None
    if entry.get("name") != name:
        return None
    fingerprint = entry.get("fingerprint")
    if not isinstance(fingerprint, str) or len(fingerprint) != 64:
        return None
    e0, e1, s0, s1, l0, l1, f0, f1 = extent
    if entry.get("shape") != [e1 - e0, s1 - s0, l1 - l0, f1 - f0]:
        return None
    return FunctionVFSummary(
        name=name,
        fingerprint=fingerprint,
        extent=extent,
        ptr_stores=_site_index(dataflow.all_stores, s0, s1),
        ptr_loads=_site_index(dataflow.all_loads, l0, l1),
        escape_seeds=list(dataflow.fork_escaped[f0:f1]),
    )


# ----- computation ----------------------------------------------------------


def _site_index(sites, start: int, end: int) -> Dict[Variable, List[int]]:
    index: Dict[Variable, List[int]] = {}
    for pos in range(start, end):
        ptr = sites[pos].pointer
        if isinstance(ptr, Variable):
            index.setdefault(ptr, []).append(pos)
    return index


def compute_summaries(
    dataflow,
    *,
    store=None,
    lineage_key: str = "",
    config_key: str = "",
    metrics=None,
) -> SummaryIndex:
    """Build (or reuse) the per-function summaries for one Alg. 1 run.

    Memory reuse rule: a function whose dataflow pass was a journal
    *replay* (``function_trace`` status ``cached``) produced
    byte-identical edges and sites, so its persisted summary is valid iff
    its extent matches — a single-function edit therefore recomputes
    exactly the summaries of re-run functions.

    Disk reuse (when the store routes the ``vfs`` namespace to a
    directory and ``config_key`` is given): functions whose portable
    identity key (:func:`repro.analysis.fingerprint.summary_identity_keys`)
    matches a schema-valid disk entry skip the expensive
    encode+fingerprint step entirely — the fingerprint comes from disk,
    the site indexes and escape seeds rebuild cheaply from the live
    dataflow.  Deterministic SSA naming makes those fingerprints valid in
    any process, which is what lets summaries survive restarts.
    """

    def _count(name: str, delta: int = 1) -> None:
        if metrics is not None:
            metrics.counter(f"summary.{name}").add(delta)

    identity: Dict[str, str] = {}
    schema = ""
    if store is not None and config_key and getattr(store, "has_disk", None):
        if store.has_disk("vfs"):
            from ..analysis.fingerprint import SUMMARY_SCHEMA, summary_identity_keys

            schema = SUMMARY_SCHEMA
            identity = summary_identity_keys(dataflow, config_key)

    statuses = {name: status for name, status, _seconds in dataflow.function_trace}
    summaries: Dict[str, FunctionVFSummary] = {}
    pending: List[str] = []
    for name, extent in dataflow.function_extents.items():
        reused: Optional[FunctionVFSummary] = None
        if store is not None and statuses.get(name) == "cached":
            entry = store.get("summary", (lineage_key, name))
            if isinstance(entry, FunctionVFSummary) and entry.extent == extent:
                reused = entry
        if reused is None and name in identity:
            decoded = _decode_disk_summary(
                store.get_disk("vfs", identity[name]), name, extent, dataflow, schema
            )
            if decoded is not None:
                reused = decoded
                store.put("summary", (lineage_key, name), decoded)
                _count("disk_hits")
        if reused is not None:
            summaries[name] = reused
            _count("cache_hits")
        else:
            pending.append(name)
            summaries[name] = None  # placeholder keeps pass order
    payloads = [_encode_function(dataflow, name) for name in pending]
    fingerprints = _fingerprints(payloads)
    for name in pending:
        extent = dataflow.function_extents[name]
        summary = FunctionVFSummary(
            name=name,
            fingerprint=fingerprints[name],
            extent=extent,
            ptr_stores=_site_index(dataflow.all_stores, extent[2], extent[3]),
            ptr_loads=_site_index(dataflow.all_loads, extent[4], extent[5]),
            escape_seeds=list(dataflow.fork_escaped[extent[6] : extent[7]]),
        )
        summaries[name] = summary
        if store is not None:
            store.put("summary", (lineage_key, name), summary)
        if name in identity:
            store.put_disk("vfs", identity[name], _encode_disk_summary(summary, schema))
            _count("disk_stores")
        _count("computed")
    _count("functions", len(summaries))
    return SummaryIndex(dataflow.vfg, summaries)
