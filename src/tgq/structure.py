"""Structural tasks: connection finding, connection-constrained search,
connection timing, and structural pattern characterisation/search.

Four structural behaviours are summarised:

- PAIR_OVER_TIME: how the connection between two elements changes over an
  interval, as a presence bitstring classified into ALWAYS / NEVER /
  APPEARING / DISAPPEARING / INTERMITTENT,
- SNAPSHOT_CONFIG: the shape of connections within a node set at one time
  point, as a small metric vector (density, components, triangles, mean
  degree, 4-cliques),
- PAIRS_AGGREGATE: the frequency table of pair presence classes over a set,
- CONFIG_OVER_TIME: the trend of each snapshot metric over an interval.

``StructuralPattern.similarity`` scores two patterns of one behaviour, and
each structural literal pins a pattern, so ``patterns.match_score`` scores
them as it does attribute patterns.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .config import Config
from .errors import (
    ABSENT_ELEMENT,
    EMPTY_SCOPE,
    FAMILY_MISMATCH,
    KIND_MISMATCH,
    TgqError,
    VALIDATION_ERROR,
)
from .graph import (
    ElemKind,
    GraphElementRef,
    TemporalGraph,
    TimeInterval,
    node_ref,
)
from .patterns import _OPPOSITE_TRENDS, _frequency_similarity, as_pattern, classify_trend, match_score
from .relations import _member_nodes, _members, are_adjacent, shortest_connection
from .search import (
    GroupCandidate,
    SearchSpace,
    bfs,
    check_budget,
    scopes,
    time_points,
    time_windows,
)
from .tasks import Binding, Resolved

METRIC_NAMES = ("density", "components", "triangles", "mean_degree", "cliques4")


class PresenceClass(str, Enum):
    ALWAYS = "ALWAYS"
    NEVER = "NEVER"
    APPEARING = "APPEARING"
    DISAPPEARING = "DISAPPEARING"
    INTERMITTENT = "INTERMITTENT"


class StructScopeKind(str, Enum):
    PAIR_OVER_TIME = "PAIR_OVER_TIME"
    SNAPSHOT_CONFIG = "SNAPSHOT_CONFIG"
    PAIRS_AGGREGATE = "PAIRS_AGGREGATE"
    CONFIG_OVER_TIME = "CONFIG_OVER_TIME"


@dataclass(frozen=True)
class ConnectionSpec:
    """How "connected" is meant: direct edge or path, optionally bounded,
    direction-aware, and filtered by an edge-attribute predicate."""

    mode: str = "adjacent"  # "adjacent" | "path"
    max_distance: Optional[int] = None
    direction: str = "any"  # "any" | "out" | "in"
    edge_attr: Optional[str] = None
    edge_constraint: Optional[object] = None  # ValueConstraint on edge_attr

    def __post_init__(self):
        if self.max_distance is not None and self.max_distance < 1:
            raise TgqError(VALIDATION_ERROR, "max distance must be >= 1")


@dataclass(frozen=True)
class StructuralPattern:
    scope: StructScopeKind
    presence_class: Optional[PresenceClass] = None
    presence_bits: Optional[str] = None
    metrics: Optional[tuple] = None  # tuple of (name, value), sorted
    class_frequencies: Optional[tuple] = None  # tuple of (class name, count)
    metric_trends: Optional[tuple] = None  # tuple of (name, TrendClass name)
    motif: Optional[str] = None

    def metrics_dict(self) -> dict:
        return dict(self.metrics or ())

    def trends_dict(self) -> dict:
        return dict(self.metric_trends or ())

    def to_dict(self) -> dict:
        out: dict = {"kind": "structural", "scope": self.scope.value}
        if self.presence_class is not None:
            out["class"] = self.presence_class.value
            out["bits"] = self.presence_bits
        if self.metrics is not None:
            out["metrics"] = {k: v for k, v in self.metrics}
            out["motif"] = self.motif
        if self.class_frequencies is not None:
            out["frequencies"] = {k: v for k, v in self.class_frequencies}
        if self.metric_trends is not None:
            out["metric_trends"] = {k: v for k, v in self.metric_trends}
        return out

    def pp(self) -> str:
        # the one structural pattern a query spells out: a PAIRSAGG literal
        inner = ", ".join(f"{k}: {v}" for k, v in self.class_frequencies)
        return f"PAIRSAGG {{{inner}}}"

    def similarity(self, other: StructuralPattern, cfg: Config):
        """Presence classes match exactly, configurations by relative metric
        proximity over this pattern's metrics, configuration trends by
        per-metric class agreement, pair tables by total variation."""
        if self.scope != other.scope:
            raise TgqError(KIND_MISMATCH, "structural patterns describe different behaviours")
        if self.scope == StructScopeKind.PAIR_OVER_TIME:
            c1, c2 = self.presence_class, other.presence_class
            return (1.0 if c1 == c2 else 0.0), (c1, c2) in _PRESENCE_OPPOSITES
        if self.scope == StructScopeKind.SNAPSHOT_CONFIG:
            return _metric_proximity(self.metrics_dict(), other.metrics_dict()), False
        if self.scope == StructScopeKind.PAIRS_AGGREGATE:
            return _frequency_similarity(
                dict(self.class_frequencies), dict(other.class_frequencies)), False
        return _trend_table_detail(self.trends_dict(), other.trends_dict())


# Literals for structural search / comparison sides: each pins a pattern.


@dataclass(frozen=True)
class PresenceLiteral:
    cls: PresenceClass

    def to_dict(self) -> dict:
        return {"kind": "presence_literal", "class": self.cls.value}

    def pp(self) -> str:
        return self.cls.value

    def pinned(self) -> StructuralPattern:
        return StructuralPattern(StructScopeKind.PAIR_OVER_TIME, presence_class=self.cls)


@dataclass(frozen=True)
class ConfigLiteral:
    metrics: tuple  # tuple of (name, value) to pin

    def to_dict(self) -> dict:
        return {"kind": "config_literal", "metrics": {k: v for k, v in self.metrics}}

    def pp(self) -> str:
        return "CONFIG " + ", ".join(f"{k}={v!r}" for k, v in self.metrics)

    def pinned(self) -> StructuralPattern:
        return StructuralPattern(StructScopeKind.SNAPSHOT_CONFIG, metrics=self.metrics)


@dataclass(frozen=True)
class ConfigTrendLiteral:
    trends: tuple  # tuple of (metric name, trend class name)

    def to_dict(self) -> dict:
        return {"kind": "config_trend_literal", "trends": {k: v for k, v in self.trends}}

    def pp(self) -> str:
        return "CONFIGTREND " + ", ".join(f"{k}={v}" for k, v in self.trends)

    def pinned(self) -> StructuralPattern:
        return StructuralPattern(StructScopeKind.CONFIG_OVER_TIME, metric_trends=self.trends)


# ---------------------------------------------------------------------------
# Elementary connection tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionReport:
    adjacent: bool
    distance: Optional[int]
    path: Optional[tuple]
    edges: tuple

    def to_dict(self) -> dict:
        return {
            "connected": self.distance is not None,
            "adjacent": self.adjacent,
            "distance": self.distance,
            "path": list(self.path) if self.path is not None else None,
            "edges": list(self.edges),
        }


def find_connection(
    graph: TemporalGraph, cfg: Config, g1: GraphElementRef, g2: GraphElementRef, t: int
) -> ConnectionReport:
    """(How) is g1 connected to g2 at t: adjacency flag plus the shortest
    path witness, or nothing when the snapshot keeps them apart."""
    for g in (g1, g2):
        if not graph.exists_at(g, t):
            raise TgqError(ABSENT_ELEMENT, f"{g} does not exist at t={graph.label_of(t)}")
    members = _members(graph, t, g1, g2)
    adjacent, edges = are_adjacent(graph, t, g1, g2, members=members)
    dist, path = shortest_connection(graph, t, g1, g2, members=members)
    return ConnectionReport(adjacent, dist, tuple(path) if path else None, tuple(edges))


class _Connectivity:
    """Connection under one spec for one call: a neighbour table per time
    point, built on first use (the one builder of tables constrained by
    direction or by an edge predicate), and ``pairs``, the one scan of which
    members connect when. Per t it meets each alive member node's reach with
    the members' nodes, so its work follows the pairs that connect; pairs
    are ordered iff the spec has a direction. Only an edge member or the
    edge predicate raises; neither is read where fewer than two members are
    alive. It raises what a scan pair by pair, each pair time by time, meets
    first: at each t the error of the first alive member with the second, if
    either is an edge or the table raises, else with the first alive edge;
    over all t, the least such pair's."""

    def __init__(self, graph: TemporalGraph, cfg: Config, spec: ConnectionSpec):
        self.graph, self.cfg, self.spec = graph, cfg, spec
        self._tables: dict = {}

    def _table(self, t: int) -> dict:
        """node -> nodes one qualifying edge away at t along the direction:
        the snapshot's own table when every edge qualifies both ways."""
        if t in self._tables:
            return self._tables[t]
        snap = self.graph.snapshot(t)
        spec = self.spec
        if spec.direction == "any" and spec.edge_attr is None:
            table = snap.adjacency
        else:
            table = {}
            for edge_id, src, dst, directed in snap.edges:
                if spec.edge_attr is not None:
                    edge = GraphElementRef(ElemKind.EDGE, edge_id)
                    value = self.graph.column(edge, spec.edge_attr, self.cfg)[t]
                    if value is None or not spec.edge_constraint.test(value):
                        continue
                if spec.direction != "in" or not directed:
                    table.setdefault(src, set()).add(dst)
                if spec.direction != "out" or not directed:
                    table.setdefault(dst, set()).add(src)
        self._tables[t] = table
        return table

    def hits(self, a: str, t: int):
        """Nodes connected to ``a`` at t: one hop away (adjacent), or within
        the bound and other than ``a`` (path)."""
        if self.spec.mode == "adjacent":
            return self._table(t).get(a, ())
        reach = bfs(self._table(t), (a,), self.spec.max_distance)
        del reach[a]
        return reach

    def reached(self, starts, t: int) -> set:
        out: set = set()
        for a in starts:
            out.update(self.hits(a, t))
        return out

    def pairs(self, refs: list, times) -> list:
        """Per t of ``times``, the set of index pairs ``(i, j)`` of ``refs`` connected at t."""
        graph, ordered, last = self.graph, self.spec.direction != "any", len(refs) - 1
        graph.check_time(*times)
        owners: dict = {}  # node id -> indices of the members standing for it
        edges = []  # indices of the edge members, which raise once read
        for i, ref in enumerate(refs):
            if ref.kind == ElemKind.NODE:
                owners.setdefault(ref.id, []).append(i)
            elif ref.kind == ElemKind.EDGE:
                edges.append(i)
            else:
                for n in graph.object_members(ref.id).nodes:
                    owners.setdefault(n, []).append(i)
        out, error = [], None
        for t in times:
            out.append(set())
            alive = graph.snapshot(t).adjacency
            if edges or ordered or self.spec.edge_attr is not None:
                # Only an edge member or the predicate can raise, and only a
                # constrained table costs a build. Read as a scan pair by pair
                # does: the first two alive members, the table, then the rest.
                alive_edges = [i for i in edges if graph.exists_at(refs[i], t)]
                first = sorted({*(i for n, idx in owners.items() if n in alive for i in idx),
                                *alive_edges})[:2]
                if len(first) < 2:
                    continue
                try:
                    if not alive_edges or alive_edges[0] > first[1]:
                        self._table(t)
                    if alive_edges:
                        first[1] = max(first[1], alive_edges[0])
                        _member_nodes(graph, refs[alive_edges[0]], t, _CONNECTION_FAMILY)
                except TgqError as err:
                    if error is None or first < error[0]:
                        error = first, err
                    continue
            elif owners.keys().isdisjoint(alive):
                continue
            # Unordered pairs put the larger index second: the last member starts none.
            reach = self._table(t) if self.spec.mode == "adjacent" else {
                n: owners.keys() & self.hits(n, t) for n, idx in owners.items()
                if n in alive and (ordered or idx[0] < last)}
            out[-1] = {(i, j) for n, idx in owners.items() if n in alive for i in idx
                       for h in reach.get(n, ()) for j in owners.get(h, ())
                       if j > i or ordered and j != i}
        if error is not None:
            raise error[1]
        return out


_CONNECTION_FAMILY = "connection tasks apply to nodes and objects"


def find_connected(
    graph: TemporalGraph,
    cfg: Config,
    g1: GraphElementRef,
    spec: ConnectionSpec,
    t: Optional[int] = None,
) -> list:
    """Elements connected to g1 in the given way; (element, t) pairs.

    A fixed t requires g1 to exist there; a free t unions over every time
    point where g1 exists. Candidates share g1's kind.
    """
    if t is not None and not graph.exists_at(g1, t):
        raise TgqError(ABSENT_ELEMENT, f"{g1} does not exist at t={graph.label_of(t)}")
    times = [t] if t is not None else [
        ti for ti in range(graph.n_times) if graph.exists_at(g1, ti)
    ]
    if g1.kind == ElemKind.NODE:
        candidates = [node_ref(n) for n in graph.node_ids()]
    else:
        candidates = [GraphElementRef(ElemKind.OBJECT, o) for o in graph.object_ids()]
    conn = _Connectivity(graph, cfg, spec)
    out = []
    for ti in times:
        reached = None
        for g2 in candidates:
            if g2 == g1 or not graph.exists_at(g2, ti):
                continue
            if reached is None:
                reached = conn.reached(_member_nodes(graph, g1, ti, _CONNECTION_FAMILY), ti)
            if not reached.isdisjoint(_member_nodes(graph, g2, ti, _CONNECTION_FAMILY)):
                out.append((g2, ti))
    out.sort(key=lambda p: (p[1], p[0]))
    return out


def find_connected_pairs(
    graph: TemporalGraph,
    cfg: Config,
    spec: ConnectionSpec,
    t: Optional[int] = None,
) -> list:
    """All node pairs connected in the given way; unordered unless the
    direction is constrained."""
    times = time_points(graph, t)
    refs = graph.all_refs((ElemKind.NODE,))  # in id order, so the list is in (t, a, b) order
    check_budget(len(times) * len(refs) * max(1, len(refs) - 1) // 2, cfg,
                 "connected-pair search")
    found = _Connectivity(graph, cfg, spec).pairs(refs, times)
    return [(refs[i], refs[j], ti) for ti, pairs in zip(times, found) for i, j in sorted(pairs)]


def connection_times(
    graph: TemporalGraph,
    cfg: Config,
    g1: GraphElementRef,
    g2: GraphElementRef,
    spec: ConnectionSpec,
) -> list:
    """Time indices at which both exist and the connection holds."""
    found = _Connectivity(graph, cfg, spec).pairs([g1, g2], range(graph.n_times))
    return [t for t, pairs in enumerate(found) if (0, 1) in pairs]


# ---------------------------------------------------------------------------
# Structural behaviour patterns
# ---------------------------------------------------------------------------


def classify_presence(bits: str) -> PresenceClass:
    """Decision rules over a presence bitstring: solid runs at the edges
    name the class, anything with more than one switch is intermittent."""
    if "0" not in bits:
        return PresenceClass.ALWAYS
    if "1" not in bits:
        return PresenceClass.NEVER
    ones = bits.count("1")
    if bits.endswith("1" * ones):
        return PresenceClass.APPEARING
    if bits.startswith("1" * ones):
        return PresenceClass.DISAPPEARING
    return PresenceClass.INTERMITTENT


def pair_over_time(
    graph: TemporalGraph,
    cfg: Config,
    g1: GraphElementRef,
    g2: GraphElementRef,
    interval: TimeInterval,
    spec: Optional[ConnectionSpec] = None,
) -> StructuralPattern:
    found = _Connectivity(graph, cfg, spec or ConnectionSpec()).pairs([g1, g2], interval.indices())
    return _presence_pattern(_bits(found, (0, 1)))


def _bits(found: list, pair: tuple) -> str:
    """Presence bits of ``pair`` over the pair sets of successive times."""
    return "".join("1" if pair in pairs else "0" for pairs in found)


def _presence_pattern(bits: str) -> StructuralPattern:
    return StructuralPattern(StructScopeKind.PAIR_OVER_TIME,
                             presence_class=classify_presence(bits), presence_bits=bits)


def snapshot_metrics(graph: TemporalGraph, members, t: int) -> dict:
    """Metric vector of the induced simple graph on ``members`` at t."""
    node_ids = set()
    for m in members:
        if m.kind != ElemKind.NODE:
            raise TgqError(
                FAMILY_MISMATCH, "snapshot configuration is defined over node sets"
            )
        node_ids.add(m.id)
    snap = graph.snapshot(t)
    alive = sorted(n for n in node_ids if snap.has_node(n))
    if not alive:
        raise TgqError(EMPTY_SCOPE, f"no member is alive at t={graph.label_of(t)}")
    alive_set = set(alive)
    adj = {n: set() for n in alive}
    for n in alive:
        for m in snap.neighbours(n):
            if m in alive_set and m != n:
                adj[n].add(m)
    n = len(alive)
    m_count = sum(len(v) for v in adj.values()) // 2
    density = (2 * m_count / (n * (n - 1))) if n > 1 else 0.0
    components = 0
    seen: set = set()
    for start in alive:
        if start not in seen:
            components += 1
            seen.update(bfs(adj, (start,)))
    # Each clique is counted once, from its smallest node.
    higher = {a: {b for b in adj[a] if b > a} for a in alive}
    triangles = cliques4 = 0
    for a in alive:
        for b in higher[a]:
            common = higher[a] & higher[b]
            triangles += len(common)
            cliques4 += sum(len(common & higher[c]) for c in common)
    mean_degree = (2 * m_count / n) if n else 0.0
    return {
        "density": density,
        "components": float(components),
        "triangles": float(triangles),
        "mean_degree": mean_degree,
        "cliques4": float(cliques4),
    }


def snapshot_config(
    graph: TemporalGraph, cfg: Config, members, t: int
) -> StructuralPattern:
    metrics = snapshot_metrics(graph, members, t)
    motif = "clique" if metrics["density"] == 1.0 and len(members) > 1 else None
    return StructuralPattern(
        StructScopeKind.SNAPSHOT_CONFIG,
        metrics=tuple(sorted(metrics.items())),
        motif=motif,
    )


def pairs_aggregate(
    graph: TemporalGraph,
    cfg: Config,
    members,
    interval: TimeInterval,
    spec: Optional[ConnectionSpec] = None,
) -> StructuralPattern:
    """Frequency table of the presence classes of the member pairs over the
    interval, from the one scan: only pairs that connect somewhere get a
    bitstring, and every other pair counts as NEVER."""
    refs = sorted(members)
    if len(refs) < 2:
        raise TgqError(EMPTY_SCOPE, "pair aggregation needs at least two members")
    found = _Connectivity(graph, cfg, spec or ConnectionSpec()).pairs(refs, interval.indices())
    counts = Counter(classify_presence(_bits(found, pair)).value
                     for pair in set().union(*found) if pair[0] < pair[1])
    untouched = len(refs) * (len(refs) - 1) // 2 - sum(counts.values())
    if untouched:
        counts[classify_presence("0" * len(found)).value] += untouched
    return StructuralPattern(StructScopeKind.PAIRS_AGGREGATE,
                             class_frequencies=tuple(sorted(counts.items())))


def config_over_time(
    graph: TemporalGraph,
    cfg: Config,
    members,
    interval: TimeInterval,
    metrics: tuple = METRIC_NAMES,
) -> StructuralPattern:
    series: dict = {name: [] for name in metrics}
    for t in interval.indices():
        try:
            vector = snapshot_metrics(graph, members, t)
        except TgqError as err:
            if err.code == EMPTY_SCOPE:
                continue
            raise
        for name in metrics:
            series[name].append((t, vector[name]))
    if not any(series.values()):
        raise TgqError(EMPTY_SCOPE, "no member is alive anywhere in the interval")
    trends = tuple(
        (name, classify_trend(series[name], cfg).cls.value) for name in metrics
    )
    return StructuralPattern(StructScopeKind.CONFIG_OVER_TIME, metric_trends=trends)


# Scope objects mirroring the four behaviours, used by the planner and compare.


@dataclass(frozen=True)
class StructScope:
    kind: StructScopeKind
    g1: Optional[GraphElementRef] = None
    g2: Optional[GraphElementRef] = None
    group: Optional[GroupCandidate] = None
    time_key: object = None  # int (SNAPSHOT_CONFIG) | TimeInterval (the others)
    connection: Optional[ConnectionSpec] = None
    metrics: tuple = METRIC_NAMES

    def describe(self, graph: TemporalGraph, **head) -> dict:
        """``head``, then the pair, group and time key the scope has."""
        desc = dict(head)
        if self.g1 is not None:
            desc["pair"] = [str(self.g1), str(self.g2)]
        if self.group is not None:
            desc["group"] = self.group.name
        desc.update(graph.key_label(self.time_key))
        return desc


def structural_characterize(graph: TemporalGraph, cfg: Config, scope: StructScope) -> StructuralPattern:
    if scope.kind == StructScopeKind.PAIR_OVER_TIME:
        return pair_over_time(graph, cfg, scope.g1, scope.g2, scope.time_key, scope.connection)
    if scope.kind == StructScopeKind.SNAPSHOT_CONFIG:
        return snapshot_config(graph, cfg, scope.group.members, scope.time_key)
    if scope.kind == StructScopeKind.PAIRS_AGGREGATE:
        return pairs_aggregate(graph, cfg, scope.group.members, scope.time_key, scope.connection)
    return config_over_time(graph, cfg, scope.group.members, scope.time_key, scope.metrics)


# ---------------------------------------------------------------------------
# Structural similarity and search
# ---------------------------------------------------------------------------


_PRESENCE_OPPOSITES = {
    (PresenceClass.ALWAYS, PresenceClass.NEVER),
    (PresenceClass.NEVER, PresenceClass.ALWAYS),
    (PresenceClass.APPEARING, PresenceClass.DISAPPEARING),
    (PresenceClass.DISAPPEARING, PresenceClass.APPEARING),
}

_OPPOSITE_TREND_NAMES = {(a.value, b.value) for a, b in _OPPOSITE_TRENDS}


def _metric_proximity(target: dict, candidate: dict) -> float:
    """Mean relative closeness over the metrics the target specifies."""
    if not target:
        return 1.0
    total = 0.0
    for name, want in target.items():
        if name not in candidate:
            raise TgqError(KIND_MISMATCH, f"candidate lacks metric '{name}'")
        have = candidate[name]
        scale = max(abs(want), abs(have), 1e-9)
        total += 1.0 - min(1.0, abs(want - have) / scale)
    return total / len(target)


def _trend_table_detail(target: dict, candidate: dict):
    if not target:
        return 1.0, False
    hits = 0
    opposites = 0
    for name, want in target.items():
        if name not in candidate:
            raise TgqError(KIND_MISMATCH, f"candidate lacks metric trend '{name}'")
        have = candidate[name]
        if want == have:
            hits += 1
        elif (want, have) in _OPPOSITE_TREND_NAMES:
            opposites += 1
    return hits / len(target), opposites == len(target)


def structural_search(
    graph: TemporalGraph,
    cfg: Config,
    target,
    space: SearchSpace,
    time_key=None,
) -> list:
    """Find the references whose structural behaviour approximates the
    target: ``Binding``s with their scores, in (-score, time key, ref name)
    order. The target's scope decides what gets enumerated: node pairs
    connected by an edge in either direction for presence patterns (ref
    ``node:a|node:b``), node sets for configurations.

    Presence search works in proportion to the pairs that connect: per
    window, only pairs in some time point's connected-pair set get their own
    bitstring. Every other pair is NEVER, scored once per window, and all
    pairs are walked only when that score reaches the threshold.
    """
    thr = cfg.similarity_threshold
    target = as_pattern(target)  # a literal is scored as the pattern it pins
    kind = target.scope
    matches = []
    if kind == StructScopeKind.PAIR_OVER_TIME:
        windows = time_windows(graph, time_key, space.window_min_len)
        refs = graph.all_refs((ElemKind.NODE,))
        check_budget(len(refs) * (len(refs) - 1) // 2 * len(windows), cfg, "structural search")
        span = range(windows[0].start, windows[-1].end + 1) if windows else range(0)
        found_at = dict(zip(span, _Connectivity(graph, cfg, ConnectionSpec()).pairs(refs, span)))
        for window in windows:
            found = [found_at[t] for t in window.indices()]
            never = _presence_pattern("0" * len(found))
            never_score, _ = match_score(target, never, cfg)
            touched = set().union(*found)
            for pair in (itertools.combinations(range(len(refs)), 2) if never_score >= thr
                         else sorted(touched)):
                if pair in touched:
                    candidate = _presence_pattern(_bits(found, pair))
                    score, _ = match_score(target, candidate, cfg)
                else:
                    candidate, score = never, never_score
                if score >= thr:
                    matches.append(Binding(window, f"{refs[pair[0]]}|{refs[pair[1]]}",
                                           candidate, score))
    else:
        keys = (time_points(graph, time_key) if kind == StructScopeKind.SNAPSHOT_CONFIG
                else time_windows(graph, time_key, space.window_min_len))
        characterize = {
            StructScopeKind.SNAPSHOT_CONFIG:
                lambda members, t: snapshot_config(graph, cfg, members, t),
            StructScopeKind.PAIRS_AGGREGATE:
                lambda members, w: pairs_aggregate(graph, cfg, members, w),
            StructScopeKind.CONFIG_OVER_TIME:
                lambda members, w: config_over_time(graph, cfg, members, w),
        }[kind]
        for grp, key, candidate in scopes(graph, cfg, "structural search", space,
                                          characterize, keys):
            score, _ = match_score(target, candidate, cfg)
            if score >= thr:
                matches.append(Binding(key, grp, candidate, score))
    matches.sort(key=lambda m: (-m.score, *m.sort_key()))
    return matches


@dataclass(frozen=True)
class StructScopeSide:
    """Comparison side resolving to a structural pattern (duck-typed like
    the attribute sides in the task engine)."""

    scope: StructScope

    def resolve(self, graph: TemporalGraph, cfg: Config) -> Resolved:
        pattern = structural_characterize(graph, cfg, self.scope)
        if self.scope.group is not None:
            ref_key = self.scope.group.name
        elif self.scope.g1 is not None:
            ref_key = f"{self.scope.g1}|{self.scope.g2}"
        else:
            ref_key = None
        return Resolved(pattern, self.scope.time_key, ref_key, self.scope.describe(
            graph, struct=self.scope.kind.value, pattern=pattern.to_dict()))


@dataclass(frozen=True)
class SeekSideStructConfig:
    """Synoptic structural relation-seeking side: snapshot configurations
    over enumerated node sets."""

    time_key: Optional[int] = None
    ref_key: Optional[GroupCandidate] = None

    def resolve_bindings(self, graph: TemporalGraph, cfg: Config, space: SearchSpace) -> list:
        return [Binding(t, grp, pattern) for grp, t, pattern in scopes(
            graph, cfg, "relation seeking", space,
            lambda members, t: snapshot_config(graph, cfg, members, t),
            time_points(graph, self.time_key), self.ref_key)]
