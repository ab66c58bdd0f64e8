"""Relation families over values, patterns, time references, sets, and
graph structure.

``eval_relation`` and ``configuration_equal`` return whether the relation
holds, a bool; the tag functions (``allen_relation``, ``point_relation``,
``set_relation``) return the one relation that holds, and
``are_adjacent`` and ``shortest_connection`` also return the crossing
edges and the path that connection tasks report.

Interval relations use the thirteen-relation algebra on inclusive index
ranges. Single-point intervals embed as zero-length intervals; a point can
therefore relate to a proper interval as before / starts / during /
finishes / after only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .config import Config
from .errors import (
    FAMILY_MISMATCH,
    MISSING_TIME_CONTEXT,
    TgqError,
)
from .graph import (
    ElemKind,
    GraphElementRef,
    TemporalGraph,
    TimeInterval,
)
from .patterns import match_score
from .search import bfs


class RelationFamily(str, Enum):
    VALUE = "value"
    PATTERN = "pattern"
    TEMPORAL_POINT = "temporal_point"
    TEMPORAL_INTERVAL = "temporal_interval"
    SET = "set"
    STRUCTURAL = "structural"


VALUE_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "within")
PATTERN_OPS = ("same", "different", "opposite")
POINT_OPS = ("before", "same", "after")
ALLEN_OPS = (
    "before", "meets", "overlaps", "starts", "during", "finishes", "equals",
    "after", "met_by", "overlapped_by", "started_by", "contains", "finished_by",
)
SET_OPS = ("equal", "subset", "superset", "disjoint", "overlapping")
STRUCTURAL_OPS = ("adjacent", "connected", "distance_le", "configuration_equal")

_FAMILY_OPS = {
    RelationFamily.VALUE: VALUE_OPS,
    RelationFamily.PATTERN: PATTERN_OPS,
    RelationFamily.TEMPORAL_POINT: POINT_OPS,
    RelationFamily.TEMPORAL_INTERVAL: ALLEN_OPS,
    RelationFamily.SET: SET_OPS,
    RelationFamily.STRUCTURAL: STRUCTURAL_OPS,
}

ALLEN_INVERSE = {
    "before": "after", "after": "before",
    "meets": "met_by", "met_by": "meets",
    "overlaps": "overlapped_by", "overlapped_by": "overlaps",
    "starts": "started_by", "started_by": "starts",
    "during": "contains", "contains": "during",
    "finishes": "finished_by", "finished_by": "finishes",
    "equals": "equals",
}


@dataclass(frozen=True)
class RelationSpec:
    family: RelationFamily
    op: str
    params: tuple = ()  # e.g. (k,) for distance_le, (delta,) for within

    def __post_init__(self):
        if self.op not in _FAMILY_OPS[self.family]:
            raise TgqError(
                FAMILY_MISMATCH,
                f"operator '{self.op}' is not in the {self.family.value} family",
            )


# ---------------------------------------------------------------------------
# Interval algebra
# ---------------------------------------------------------------------------


def allen_relation(i1: TimeInterval, i2: TimeInterval) -> str:
    """The unique interval relation between two inclusive index ranges."""
    s1, e1, s2, e2 = i1.start, i1.end, i2.start, i2.end
    if e1 < s2:
        return "before"
    if s1 > e2:
        return "after"
    if s1 == s2 and e1 == e2:
        return "equals"
    if s1 == s2:
        return "starts" if e1 < e2 else "started_by"
    if e1 == e2:
        return "finishes" if s1 > s2 else "finished_by"
    # At this stage both intervals are proper around the touch points.
    if e1 == s2:
        return "meets"
    if s1 == e2:
        return "met_by"
    if s1 < s2 and e1 > e2:
        return "contains"
    if s1 > s2 and e1 < e2:
        return "during"
    return "overlaps" if s1 < s2 else "overlapped_by"


def point_relation(t1: int, t2: int) -> str:
    if t1 < t2:
        return "before"
    if t1 > t2:
        return "after"
    return "same"


def set_relation(s1, s2) -> str:
    """The most specific set relation tag for two element-id sets."""
    s1, s2 = set(s1), set(s2)
    if s1 == s2:
        return "equal"
    if s1 < s2:
        return "subset"
    if s1 > s2:
        return "superset"
    if not (s1 & s2):
        return "disjoint"
    return "overlapping"


# ---------------------------------------------------------------------------
# Structural relations
# ---------------------------------------------------------------------------


_RELATION_FAMILY = "structural relations apply to nodes and graph objects"


def _member_nodes(graph: TemporalGraph, ref: GraphElementRef, t: int, family: str) -> list:
    """Alive node ids standing for a node or graph-object reference; any
    other kind raises FAMILY_MISMATCH with ``family`` naming what applies."""
    if ref.kind == ElemKind.NODE:
        return [ref.id] if graph.snapshot(t).has_node(ref.id) else []
    if ref.kind == ElemKind.OBJECT:
        snap = graph.snapshot(t)
        return sorted(n for n in graph.object_members(ref.id).nodes if snap.has_node(n))
    raise TgqError(FAMILY_MISMATCH, f"{family}, not {ref}")


def _members(graph: TemporalGraph, t: int, g1: GraphElementRef, g2: GraphElementRef) -> tuple:
    """The alive member nodes of both elements at t, g1's first."""
    return (_member_nodes(graph, g1, t, _RELATION_FAMILY),
            _member_nodes(graph, g2, t, _RELATION_FAMILY))


def shortest_connection(
    graph: TemporalGraph,
    t: int,
    g1: GraphElementRef,
    g2: GraphElementRef,
    max_distance: Optional[int] = None,
    members: Optional[tuple] = None,
):
    """(distance, node path) between two elements in the snapshot at t,
    edges taken either way, or (None, None) when no path (within the bound)
    exists. ``members`` is ``_members(graph, t, g1, g2)`` where the caller
    has it.

    Graph objects connect through any member node; their internal hops are
    free, so the distance is the minimum over cross pairs.
    """
    sources, targets = members or _members(graph, t, g1, g2)
    if not sources or not targets:
        return None, None
    targets = frozenset(targets)
    if not targets.isdisjoint(sources):
        # An element meets itself, and overlapping objects touch, at their
        # least shared node.
        return 0, [min(targets.intersection(sources))]
    # Sources are sorted and every neighbour tuple is too, so the first
    # target found is the same on every run.
    parents = bfs(graph.snapshot(t).adjacency, sources, max_distance, targets)
    node = next((n for n in parents if n in targets), None)
    if node is None:
        return None, None
    path = [node]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return len(path) - 1, path[::-1]


def are_adjacent(graph: TemporalGraph, t: int, g1: GraphElementRef, g2: GraphElementRef,
                 members: Optional[tuple] = None):
    """(flag, witness edge ids): any alive edge crossing between the two.
    ``members`` is ``_members(graph, t, g1, g2)`` where the caller has it."""
    nodes1, nodes2 = members or _members(graph, t, g1, g2)
    nodes2 = set(nodes2)
    hits = []
    for a in nodes1:
        for edge_id in graph.edges_between_any(a, nodes2, t):
            hits.append(edge_id)
    return bool(hits), sorted(set(hits))


def configuration_equal(
    graph: TemporalGraph, t: int, g1: GraphElementRef, g2: GraphElementRef
) -> bool:
    """Structural equality of two graph objects (or subsets of nodes) at t.

    Up to 10 alive nodes per side: exact isomorphism by backtracking.
    Larger: identical member sets only.
    """
    n1 = _member_nodes(graph, g1, t, _RELATION_FAMILY)
    n2 = _member_nodes(graph, g2, t, _RELATION_FAMILY)
    if len(n1) > 10 or len(n2) > 10:
        return set(n1) == set(n2)
    return _isomorphic(n1, _induced_arcs(graph, t, n1), n2, _induced_arcs(graph, t, n2))


def _induced_arcs(graph: TemporalGraph, t: int, nodes) -> set:
    node_set = set(nodes)
    arcs = set()
    for edge_id, src, dst, directed in graph.snapshot(t).edges:
        if src in node_set and dst in node_set:
            arcs.add((src, dst))
            if not directed:
                arcs.add((dst, src))
    return arcs


def _isomorphic(nodes1, arcs1, nodes2, arcs2) -> bool:
    if len(nodes1) != len(nodes2) or len(arcs1) != len(arcs2):
        return False
    out1 = {n: sum(1 for a, _ in arcs1 if a == n) for n in nodes1}
    in1 = {n: sum(1 for _, b in arcs1 if b == n) for n in nodes1}
    out2 = {n: sum(1 for a, _ in arcs2 if a == n) for n in nodes2}
    in2 = {n: sum(1 for _, b in arcs2 if b == n) for n in nodes2}
    if sorted(zip(out1.values(), in1.values())) != sorted(zip(out2.values(), in2.values())):
        return False
    order = sorted(nodes1, key=lambda n: (-out1[n] - in1[n], n))
    mapping: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for v in sorted(nodes2):
            if v in used or (out1[u], in1[u]) != (out2[v], in2[v]):
                continue
            ok = True
            for w, x in mapping.items():
                if ((u, w) in arcs1) != ((v, x) in arcs2) or ((w, u) in arcs1) != ((x, v) in arcs2):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used.add(v)
                if extend(i + 1):
                    return True
                del mapping[u]
                used.discard(v)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Unified evaluation
# ---------------------------------------------------------------------------


def pattern_holds(op: str, score: float, opposite: bool, cfg: Config) -> bool:
    """Whether the pattern relation ``op`` (same, different or opposite)
    holds between two patterns whose match is ``(score, opposite)``."""
    if op == "opposite":
        return opposite
    return (score >= cfg.similarity_threshold) == (op == "same")


def eval_relation(
    spec: RelationSpec,
    lhs,
    rhs,
    cfg: Config,
    graph: Optional[TemporalGraph] = None,
    t: Optional[int] = None,
) -> bool:
    """Whether ``lhs spec rhs`` holds; a structural relation needs the
    graph and the time point it is evaluated at."""
    if spec.family == RelationFamily.VALUE:
        return _eval_value(spec, lhs, rhs)
    if spec.family == RelationFamily.PATTERN:
        return pattern_holds(spec.op, *match_score(lhs, rhs, cfg), cfg)
    if spec.family == RelationFamily.TEMPORAL_POINT:
        return point_relation(lhs, rhs) == spec.op
    if spec.family == RelationFamily.TEMPORAL_INTERVAL:
        return allen_relation(lhs, rhs) == spec.op
    if spec.family == RelationFamily.SET:
        return _eval_set(spec, lhs, rhs)
    # STRUCTURAL
    if graph is None or t is None:
        raise TgqError(
            MISSING_TIME_CONTEXT,
            f"structural relation '{spec.op}' needs a graph and a time point",
        )
    if spec.op == "adjacent":
        return are_adjacent(graph, t, lhs, rhs)[0]
    if spec.op == "connected":
        return shortest_connection(graph, t, lhs, rhs)[0] is not None
    if spec.op == "distance_le":
        k = int(spec.params[0])
        dist = shortest_connection(graph, t, lhs, rhs, max_distance=k)[0]
        return dist is not None and dist <= k
    return configuration_equal(graph, t, lhs, rhs)


def _eval_value(spec: RelationSpec, lhs, rhs) -> bool:
    if spec.op in ("eq", "ne"):
        return (lhs == rhs) if spec.op == "eq" else (lhs != rhs)
    _need_numeric(spec.op, lhs, rhs)
    if spec.op == "within":
        return abs(lhs - rhs) <= float(spec.params[0])
    return {"lt": lhs < rhs, "le": lhs <= rhs, "gt": lhs > rhs, "ge": lhs >= rhs}[spec.op]


def _need_numeric(op: str, lhs, rhs) -> None:
    for side in (lhs, rhs):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise TgqError(
                FAMILY_MISMATCH, f"value relation '{op}' needs numeric operands"
            )


def _eval_set(spec: RelationSpec, lhs, rhs) -> bool:
    s1, s2 = set(lhs), set(rhs)
    return {
        "equal": s1 == s2,
        "subset": s1 <= s2,
        "superset": s1 >= s2,
        "disjoint": s1.isdisjoint(s2),
        "overlapping": not s1.isdisjoint(s2),
    }[spec.op]
