"""Attribute-based task families: lookup, behaviour characterisation,
pattern search, direct and inverse comparison, and relation seeking.

Each task-matrix cell is one binding pattern of these operations: a fixed
reference is a constraint, an omitted one a search target. Every entry
point takes its fixed references as one pair, as ``Binding`` holds a found
one: ``time_key`` (a time point or a ``TimeInterval``) and ``ref_key`` (a
``GraphElementRef`` or a ``GroupCandidate``), None where free. Everything
is evaluated against the immutable graph, and results come back in
canonical order (time index, then element id) so serialized output is
reproducible byte for byte.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Optional

from .config import Config
from .errors import (
    KIND_MISMATCH,
    MISSING_TIME_CONTEXT,
    TgqError,
    UNRESOLVED_SIDE,
)
from .graph import AttrKind, ElemKind, GraphElementRef, TemporalGraph, TimeInterval
from .patterns import (
    SHAPES,
    AspectAxis,
    TrendPattern,
    as_pattern,
    aspectual,
    distribution,
    match_score,
    related_classes,
    shaped_window_trends,
    trend,
    window_candidates,
    window_trends,
)
from .relations import (
    RelationFamily,
    RelationSpec,
    allen_relation,
    eval_relation,
    pattern_holds,
    point_relation,
    set_relation,
    shortest_connection,
)
from .search import (
    GroupCandidate,
    SearchSpace,
    _time_sort_key,
    check_budget,
    element_candidates,
    scopes,
    time_points,
    time_windows,
)


class Quadrant(str, Enum):
    Q2_DIST_AT_T = "Q2"
    Q3_TREND_OF_G = "Q3"
    Q4_ASPECTUAL = "Q4"


@dataclass(frozen=True)
class BehaviorScope:
    quadrant: Quadrant
    time_key: object  # int (Q2) | TimeInterval (Q3, Q4)
    ref_key: object  # GraphElementRef (Q3) | GroupCandidate (Q2, Q4)
    axis: Optional[AspectAxis] = None


@dataclass(frozen=True)
class ValueConstraint:
    """A closed-form value test: comparison, enumeration, or range."""

    op: str  # eq ne lt le gt ge in between
    values: tuple

    def test(self, v) -> bool:
        if self.op == "eq":
            return v == self.values[0]
        if self.op == "ne":
            return v != self.values[0]
        if self.op == "in":
            return v in self.values
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TgqError(
                KIND_MISMATCH, f"constraint '{self.op}' needs a numeric attribute"
            )
        try:  # a constant that is not a number raises TypeError in any comparison
            if bool in map(type, self.values):  # a bool would compare as 0 or 1
                raise TypeError
            if self.op == "lt":
                return v < self.values[0]
            if self.op == "le":
                return v <= self.values[0]
            if self.op == "gt":
                return v > self.values[0]
            if self.op == "ge":
                return v >= self.values[0]
            # between: both bounds compared, whatever the first gives
            return (self.values[0] <= v) & (v <= self.values[1])
        except TypeError:
            raise TgqError(
                KIND_MISMATCH, f"constraint '{self.op}' needs a numeric constant"
            ) from None

    def is_range(self) -> bool:
        """An ordering test against numbers (no bool, no NaN): the values
        that pass it form one run of any ascending list."""
        return self.op in ("lt", "le", "gt", "ge", "between") and all(
            type(c) in (int, float) and c == c for c in self.values)

    def span(self, values: list) -> slice:
        """The run of ascending ``values`` that passes a range test."""
        lo = hi = None
        if self.op in ("gt", "ge", "between"):
            lo = (bisect_right if self.op == "gt" else bisect_left)(values, self.values[0])
        if self.op in ("lt", "le", "between"):
            hi = (bisect_left if self.op == "lt" else bisect_right)(values, self.values[-1])
        return slice(lo, hi)


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------


def inverse_lookup(
    graph: TemporalGraph,
    cfg: Config,
    attr: str,
    constraint: ValueConstraint,
    time_key=None,
    ref_key=None,
) -> list:
    """All (t, element, value) satisfying the constraint, narrowed by any
    supplied reference constraints. Elements range over nodes and edges;
    graph objects participate only when passed explicitly, and a group
    stands for its members.

    A range test of a numeric attribute over every element bisects each
    time point's ``TemporalGraph.sorted_at`` of the nodes and of the edges;
    the rest scan columns. Hits come in (t, ref) order either way."""
    if isinstance(time_key, TimeInterval):
        graph.check_time(time_key.start, time_key.end)
        times = list(time_key.indices())
    elif time_key is not None:
        graph.check_time(time_key)
        times = [time_key]
    else:
        times = time_points(graph)
    hits = []
    if (ref_key is None and constraint.is_range()
            and graph.attr_kinds.get(attr) == AttrKind.NUMERIC):
        for ti in times:
            for kind in (ElemKind.NODE, ElemKind.EDGE):
                values, refs, _ = graph.sorted_at(attr, ti, cfg, kind)
                span = constraint.span(values)
                hits.extend(zip(repeat(ti), refs[span], values[span]))
    else:
        elements = (graph.all_refs() if ref_key is None
                    else list(ref_key.members) if isinstance(ref_key, GroupCandidate)
                    else [ref_key])
        for el in elements if times else ():
            column = graph.column(el, attr, cfg)
            for ti in times:
                value = column[ti]
                if value is not None and constraint.test(value):
                    hits.append((ti, el, value))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


# ---------------------------------------------------------------------------
# Characterisation and pattern search
# ---------------------------------------------------------------------------


def characterize(graph: TemporalGraph, cfg: Config, scope: BehaviorScope, attr: str):
    if scope.quadrant == Quadrant.Q3_TREND_OF_G:
        return trend(graph, cfg, scope.ref_key, scope.time_key, attr)
    if scope.quadrant == Quadrant.Q2_DIST_AT_T:
        return distribution(graph, cfg, scope.ref_key.members, scope.time_key, attr)
    return aspectual(graph, cfg, scope.ref_key.members, scope.time_key, attr, scope.axis)


def _ref_name(ref_key) -> str:
    """A group by its name, an element or a pair by its text, nothing as ""."""
    if ref_key is None:
        return ""
    if isinstance(ref_key, GroupCandidate):
        return ref_key.name
    return str(ref_key)


@dataclass(frozen=True)
class Binding:
    """A found reference: a time key, a graph reference and what was found
    there, with its score against the target when a search found it."""

    time_key: object  # int | TimeInterval | None
    ref_key: object  # GraphElementRef | GroupCandidate | "node:a|node:b" (a pair) | None
    payload: object
    score: Optional[float] = None

    @property
    def ref_name(self) -> str:
        return _ref_name(self.ref_key)

    def sort_key(self):
        return (_time_sort_key(self.time_key), self.ref_name)

    def describe(self, graph: TemporalGraph) -> dict:
        out = graph.key_label(self.time_key)
        if self.ref_key is not None:
            out["ref"] = self.ref_name
        if self.payload is not None:
            out["found"] = (
                self.payload.to_dict() if hasattr(self.payload, "to_dict") else self.payload
            )
        return out


def pattern_search(
    graph: TemporalGraph,
    cfg: Config,
    target,
    quadrant: Quadrant,
    attr: str,
    space: SearchSpace,
    time_key=None,
    ref_key=None,
) -> list:
    """Enumerate candidate scopes, characterize each, and keep those whose
    behaviour approximates the target pattern: ``Binding``s with their
    scores, in (-score, time key, ref name) order.

    A trend target with a positive ``similarity_threshold`` classifies only
    the windows whose shape can match (``_scopes``). No match is lost, and
    every budget check and error is as if every window were classified."""
    thr = cfg.similarity_threshold
    target = as_pattern(target)  # a literal is scored as the pattern it pins
    axis = target.axis if quadrant == Quadrant.Q4_ASPECTUAL else None
    classes = (related_classes(target.cls, "same", thr)
               if isinstance(target, TrendPattern) else None)
    matches = []
    for ref, key, candidate in _scopes(
            graph, cfg, "pattern search", quadrant, attr, space, time_key, ref_key,
            axis, classes):
        score, _ = match_score(target, candidate, cfg)
        if score >= thr:
            matches.append(Binding(key, ref, candidate, score))
    matches.sort(key=lambda m: (-m.score, *m.sort_key()))
    return matches


def _scopes(graph, cfg, what, quadrant, attr, space, time_key=None, ref_key=None, axis=None,
            classes=None):
    """``(ref, time key, pattern)`` for every candidate scope of a quadrant:
    elements × windows for trends, groups × points or windows otherwise.
    With a set of ``classes`` within ``SHAPES``, only the trend scopes whose
    class can be one of them are classified and listed: from each element's
    step runs, and for one window over every node or edge from the
    per-start index. The budget counts every scope."""
    if quadrant == Quadrant.Q3_TREND_OF_G:
        elements, n_windows = _trend_jobs(graph, space, time_key, ref_key)
        check_budget(len(elements) * n_windows, cfg, what)
        if classes is not None and not classes <= SHAPES:
            classes = None
        if classes is None:
            windows = time_windows(graph, time_key, space.window_min_len)
        elif time_key is not None and ref_key is None:
            elements = window_candidates(graph, cfg, elements, attr, time_key, classes)
        for el in elements:
            for window, candidate in (
                    window_trends(graph, cfg, el, windows, attr) if classes is None
                    else shaped_window_trends(graph, cfg, el, attr, classes,
                                              space.window_min_len, time_key)):
                yield el, window, candidate
    elif quadrant == Quadrant.Q2_DIST_AT_T:
        yield from scopes(
            graph, cfg, what, space,
            lambda members, t: distribution(graph, cfg, members, t, attr),
            time_points(graph, time_key), ref_key)
    else:
        yield from scopes(
            graph, cfg, what, space,
            lambda members, window: aspectual(graph, cfg, members, window, attr, axis),
            time_windows(graph, time_key, space.window_min_len), ref_key)


def _trend_jobs(graph, space, time_key, ref_key) -> tuple:
    """The elements a trend search ranges over, and the number of windows of
    each: k(k+1)/2 of ``window_min_len`` or more points, k = n - min_len + 1."""
    elements = [ref_key] if ref_key is not None else element_candidates(
        graph, space.subset_family)
    if time_key is not None:
        return elements, 1
    k = max(0, graph.n_times - space.window_min_len + 1)
    return elements, k * (k + 1) // 2


# ---------------------------------------------------------------------------
# Comparison sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Resolved:
    payload: object
    time_key: object
    ref_key: object
    desc: dict


@dataclass(frozen=True)
class LookupSide:
    t: int
    ref: GraphElementRef
    attr: str

    def resolve(self, graph: TemporalGraph, cfg: Config) -> Resolved:
        value, aggregated = graph.value_at_info(self.t, self.ref, self.attr, cfg)
        name = str(self.ref)
        return Resolved(
            value, self.t, name,
            {"t": graph.label_of(self.t), "element": name,
             "attr": self.attr, "value": value, "aggregated": aggregated},
        )


@dataclass(frozen=True)
class ScopeSide:
    scope: BehaviorScope
    attr: str

    def resolve(self, graph: TemporalGraph, cfg: Config) -> Resolved:
        pattern = characterize(graph, cfg, self.scope, self.attr)
        return Resolved(
            pattern, self.scope.time_key, _ref_name(self.scope.ref_key),
            {"scope": _scope_desc(graph, self.scope), "attr": self.attr,
             "pattern": pattern.to_dict()},
        )


@dataclass(frozen=True)
class LiteralSide:
    payload: object  # plain value, attribute pattern, or structural pattern

    def resolve(self, graph: TemporalGraph, cfg: Config) -> Resolved:
        desc = (
            {"literal": self.payload.to_dict()}
            if hasattr(self.payload, "to_dict")
            else {"literal": self.payload}
        )
        return Resolved(self.payload, None, None, desc)


def _scope_desc(graph: TemporalGraph, scope: BehaviorScope) -> dict:
    kind = "group" if isinstance(scope.ref_key, GroupCandidate) else "element"
    out = {"quadrant": scope.quadrant.value, kind: _ref_name(scope.ref_key)}
    out.update(graph.key_label(scope.time_key))
    if scope.axis is not None:
        out["axis"] = scope.axis.value
    return out


@dataclass(frozen=True)
class CompareReport:
    lhs: dict
    rhs: dict
    relation: str
    holds: Optional[bool]
    score: Optional[float]
    opposite: bool
    label: str

    def to_dict(self) -> dict:
        out = {"lhs": self.lhs, "rhs": self.rhs, "relation": self.relation,
               "label": self.label}
        if self.holds is not None:
            out["holds"] = self.holds
        if self.score is not None:
            out["score"] = self.score
            out["opposite"] = self.opposite
        return out


def direct_compare(
    graph: TemporalGraph,
    cfg: Config,
    lhs,
    rhs,
    relation: Optional[RelationSpec] = None,
) -> CompareReport:
    a = _resolve_side(lhs, graph, cfg, "lhs")
    b = _resolve_side(rhs, graph, cfg, "rhs")
    label = _geometry_label(a, b)
    if _is_plain_value(a.payload) and _is_plain_value(b.payload):
        if relation is not None:
            holds = eval_relation(relation, a.payload, b.payload, cfg)
            return CompareReport(a.desc, b.desc, relation.op, holds, None, False, label)
        tag = _derive_value_tag(a.payload, b.payload)
        return CompareReport(a.desc, b.desc, tag, None, None, False, label)
    if _is_plain_value(a.payload) or _is_plain_value(b.payload):
        raise TgqError(KIND_MISMATCH, "cannot compare a value with a pattern")
    score, flag = match_score(a.payload, b.payload, cfg)
    if relation is not None and relation.family == RelationFamily.PATTERN:
        holds = pattern_holds(relation.op, score, flag, cfg)
        return CompareReport(a.desc, b.desc, relation.op, holds, score, flag, label)
    # Without a pattern relation the label is the first of these that holds.
    tag = next(op for op in ("opposite", "same", "different")
               if pattern_holds(op, score, flag, cfg))
    return CompareReport(a.desc, b.desc, tag, None, score, flag, label)


def _resolve_side(side, graph, cfg, which: str) -> Resolved:
    try:
        return side.resolve(graph, cfg)
    except TgqError as err:
        raise TgqError(err.code, f"{which} side: {err.message}", **err.details) from None


def _is_plain_value(payload) -> bool:
    return isinstance(payload, (int, float, str, bool))


def _derive_value_tag(a, b) -> str:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return "eq" if a == b else "ne"
    if a == b:
        return "eq"
    return "lt" if a < b else "gt"


def _geometry_label(a: Resolved, b: Resolved) -> str:
    """Reference geometry of a comparison: same element across time is
    evolutionary, across elements is contextual, no movement is static.
    Literal sides have no reference geometry and read as static."""
    if a.ref_key is None or b.ref_key is None:
        return "STATIC"
    if a.ref_key == b.ref_key:
        if a.time_key == b.time_key:
            return "STATIC"
        return "EVOLUTIONARY"
    return "CONTEXTUAL"


# ---------------------------------------------------------------------------
# Inverse comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FindSide:
    """Inverse-lookup side: bindings are the (t, g) pairs whose value
    satisfies the constraint."""

    attr: str
    constraint: ValueConstraint
    time_key: object = None
    ref_key: object = None

    def resolve_bindings(self, graph: TemporalGraph, cfg: Config) -> list:
        hits = inverse_lookup(graph, cfg, self.attr, self.constraint, self.time_key, self.ref_key)
        return [Binding(t, ref, value) for t, ref, value in hits]


@dataclass(frozen=True)
class SearchSide:
    """Pattern-search side: bindings are the scopes matching the pattern."""

    target: object
    quadrant: Quadrant
    attr: str
    space: SearchSpace
    time_key: object = None
    ref_key: object = None

    def resolve_bindings(self, graph: TemporalGraph, cfg: Config) -> list:
        return pattern_search(graph, cfg, self.target, self.quadrant, self.attr, self.space,
                              self.time_key, self.ref_key)


@dataclass(frozen=True)
class FixedSide:
    """A fully specified reference (the reduced comparison forms)."""

    time_key: object = None
    ref_key: object = None

    def resolve_bindings(self, graph: TemporalGraph, cfg: Config) -> list:
        return [Binding(self.time_key, self.ref_key, None)]


@dataclass(frozen=True)
class PairReport:
    lhs: dict
    rhs: dict
    relations: dict

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "relations": self.relations}


def inverse_compare(
    graph: TemporalGraph,
    cfg: Config,
    lhs,
    rhs,
    families: Optional[tuple] = None,
    all_pairs: bool = False,
) -> list:
    """Resolve both sides to reference bindings and report the temporal /
    set / structural relations between them. Default is the first pair in
    canonical order; ``all_pairs`` reports the full product."""
    b1 = lhs.resolve_bindings(graph, cfg)
    b2 = rhs.resolve_bindings(graph, cfg)
    if not b1:
        raise TgqError(UNRESOLVED_SIDE, "lhs constraint matched nothing")
    if not b2:
        raise TgqError(UNRESOLVED_SIDE, "rhs constraint matched nothing")
    b1.sort(key=Binding.sort_key)
    b2.sort(key=Binding.sort_key)
    pairs = [(x, y) for x in b1 for y in b2] if all_pairs else [(b1[0], b2[0])]
    reports = []
    for x, y in pairs:
        reports.append(
            PairReport(x.describe(graph), y.describe(graph),
                       _pair_relations(graph, x, y, families))
        )
    return reports


def _pair_relations(graph, x: Binding, y: Binding, families) -> dict:
    requested = families or ("temporal", "graph")
    out: dict = {}
    if "temporal" in requested:
        tag = _temporal_tag(x.time_key, y.time_key)
        if tag is not None:
            out["temporal"] = tag
    if "graph" in requested and x.ref_key is not None and y.ref_key is not None:
        if isinstance(x.ref_key, GroupCandidate) and isinstance(y.ref_key, GroupCandidate):
            out["set"] = set_relation(_member_names(x.ref_key), _member_names(y.ref_key))
        else:
            out["element"] = "same" if x.ref_name == y.ref_name else "different"
    if "structural" in requested:
        out["structural"] = _structural_tag(graph, x, y)
    return out


def _temporal_tag(k1, k2):
    if k1 is None or k2 is None:
        return None
    if isinstance(k1, TimeInterval) or isinstance(k2, TimeInterval):
        return allen_relation(_as_interval(k1), _as_interval(k2))
    return point_relation(k1, k2)


def _as_interval(key) -> TimeInterval:
    """A time key as an interval: a point t is [t, t]."""
    return key if isinstance(key, TimeInterval) else TimeInterval(key, key)


def _structural_tag(graph, x: Binding, y: Binding) -> dict:
    if not (isinstance(x.time_key, int) and x.time_key == y.time_key):
        raise TgqError(
            MISSING_TIME_CONTEXT,
            "structural relation between found references needs a shared time point",
        )
    g1 = _as_element(x.ref_key)
    g2 = _as_element(y.ref_key)
    dist, path = shortest_connection(graph, x.time_key, g1, g2)
    return {"connected": dist is not None, "distance": dist, "path": path}


def _as_element(ref_key) -> GraphElementRef:
    if isinstance(ref_key, GraphElementRef):
        return ref_key
    raise TgqError(KIND_MISMATCH, "structural relations apply to element references")


# ---------------------------------------------------------------------------
# Relation seeking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxRelation:
    """A side constraint on the time or graph references of a binding pair."""

    target: str  # "time" | "graph"
    spec: RelationSpec
    t_context: Optional[int] = None  # explicit snapshot for structural tests

    def holds(self, graph, cfg, x: Binding, y: Binding) -> bool:
        if self.target == "time":
            if self.spec.family == RelationFamily.TEMPORAL_POINT:
                return eval_relation(self.spec, x.time_key, y.time_key, cfg)
            return eval_relation(self.spec, _as_interval(x.time_key), _as_interval(y.time_key), cfg)
        if self.spec.family == RelationFamily.VALUE:
            return eval_relation(self.spec, x.ref_name, y.ref_name, cfg)
        if self.spec.family == RelationFamily.SET:
            return eval_relation(self.spec, _member_names(x.ref_key), _member_names(y.ref_key), cfg)
        # structural: use the explicit time context, else a shared bound point
        t = self.t_context
        if t is None and isinstance(x.time_key, int) and x.time_key == y.time_key:
            t = x.time_key
        g1, g2 = _as_element(x.ref_key), _as_element(y.ref_key)
        return eval_relation(self.spec, g1, g2, cfg, graph=graph, t=t)


def _member_names(ref_key) -> set:
    if isinstance(ref_key, GroupCandidate):
        return {str(m) for m in ref_key.members}
    return {str(ref_key)}


@dataclass(frozen=True)
class SeekSideValues:
    """Elementary relation-seeking side: attribute values with optional
    fixed references."""

    attr: str
    time_key: Optional[int] = None
    ref_key: Optional[GraphElementRef] = None

    def resolve_bindings(self, graph: TemporalGraph, cfg: Config, space: SearchSpace) -> list:
        times, elements = self._scope(graph, cfg, space)
        columns = [graph.column(el, self.attr, cfg) for el in elements] if times else []
        out = []
        for t in times:
            for el, column in zip(elements, columns):
                value = column[t]
                if value is not None:
                    out.append(Binding(t, el, value))
        return out

    def sorted_values(self, graph: TemporalGraph, cfg: Config, space: SearchSpace) -> tuple:
        """``(values, refs, positions)``: what ``resolve_bindings`` lists, in
        ascending value order (``TemporalGraph.sorted_at``), after the same
        budget check; for a side with a fixed t and no fixed ref."""
        _, elements = self._scope(graph, cfg, space)
        if not elements:
            return (), (), ()
        return graph.sorted_at(self.attr, self.time_key, cfg, elements[0].kind)

    def _scope(self, graph: TemporalGraph, cfg: Config, space: SearchSpace) -> tuple:
        """The side's time points and elements, counted against the cap."""
        times = time_points(graph, self.time_key)
        elements = ([self.ref_key] if self.ref_key is not None
                    else element_candidates(graph, space.subset_family))
        check_budget(len(times) * len(elements), cfg, "relation seeking")
        return times, elements


@dataclass(frozen=True)
class SeekSidePatterns:
    """Synoptic relation-seeking side: behaviour patterns over enumerated scopes."""

    quadrant: Quadrant
    attr: str
    axis: Optional[AspectAxis] = None
    time_key: object = None
    ref_key: object = None

    def resolve_bindings(self, graph: TemporalGraph, cfg: Config, space: SearchSpace,
                         classes=None) -> list:
        return [Binding(key, ref, pattern) for ref, key, pattern in _scopes(
            graph, cfg, "relation seeking", self.quadrant, self.attr, space,
            self.time_key, self.ref_key, self.axis, classes)]


@dataclass(frozen=True)
class SeekPair:
    lhs: Binding
    rhs: Binding
    detail: dict


def relation_seek(
    graph: TemporalGraph,
    cfg: Config,
    relation: RelationSpec,
    side1,
    side2,
    aux: tuple = (),
    space: Optional[SearchSpace] = None,
) -> list:
    """Find binding pairs whose values/patterns stand in the requested
    relation, subject to every auxiliary relation on their references.

    Against one trend on side 1, side 2 lists only the windows whose class
    can stand in the relation to it (a semijoin); the budget counts them all.
    WITHIN between numbers on side 1 and every node or edge at one time
    point on side 2 is a band join: each x pairs only with the run of side
    2's ``TemporalGraph.sorted_at`` that the tolerance admits (``_band``),
    in ref order, as the loop would."""
    space = space or SearchSpace()
    symmetric = side1 == side2
    b1 = side1.resolve_bindings(graph, cfg, space)
    n2 = None  # side 2's scope count, where it lists fewer
    band = None  # side 2's (values, refs, positions) for a band join
    if symmetric:
        b2 = b1
    elif _band_joins(graph, relation, b1, side2):
        band = side2.sorted_values(graph, cfg, space)
        n2 = len(band[0])
    elif (relation.family == RelationFamily.PATTERN and len(b1) == 1
          and isinstance(b1[0].payload, TrendPattern)
          and isinstance(side2, SeekSidePatterns) and side2.quadrant == Quadrant.Q3_TREND_OF_G):
        b2 = side2.resolve_bindings(graph, cfg, space, related_classes(
            b1[0].payload.cls, relation.op, cfg.similarity_threshold))
        elements, n_windows = _trend_jobs(graph, space, side2.time_key, side2.ref_key)
        n2 = len(elements) * n_windows
    else:
        b2 = side2.resolve_bindings(graph, cfg, space)
    n2 = len(b2) if n2 is None else n2
    check_budget(max(len(b1), n2), cfg, "relation seeking")
    check_budget(len(b1) * n2, cfg, "relation seeking (pairs)")

    # Candidates for each x: in a band join only the y of its run, sorted
    # back into ref order by position, each Binding made once (each pair is
    # still tested, so a run may hold more than the pairs that hold, never
    # fewer); for value equality only the y with an equal payload (a hash
    # join); else all of b2. Hashed payloads are floats, strs and bools,
    # for which a == b implies hash(a) == hash(b), so each bucket holds
    # exactly the y the nested loop would pair, in b2 order; a NaN equals
    # nothing, itself included, and is left out.
    if band is not None:
        values, refs, positions = band
        made = [None] * len(values)

        def candidates(x):
            run = _band(x.payload, float(relation.params[0]), values)
            out = []
            for k in sorted(range(run.start, run.stop), key=positions.__getitem__):
                if made[k] is None:
                    made[k] = Binding(side2.time_key, refs[k], values[k])
                out.append(made[k])
            return out
    elif relation.family == RelationFamily.VALUE and relation.op == "eq":
        buckets = {}
        for y in b2:
            if y.payload == y.payload:
                buckets.setdefault(y.payload, []).append(y)

        def candidates(x):
            return buckets.get(x.payload, ())
    else:
        def candidates(x):
            return b2

    def qualified(x: Binding, y: Binding):
        detail = _main_relation_detail(relation, x, y, cfg)
        if detail is None:
            return None
        for a in aux:
            if not a.holds(graph, cfg, x, y):
                return None
        return detail

    results = []
    for x in b1:
        for y in candidates(x):
            if symmetric and (x.time_key, x.ref_name) == (y.time_key, y.ref_name):
                continue
            detail = qualified(x, y)
            if detail is None:
                continue
            if symmetric and (y.sort_key(), x.sort_key()) < (x.sort_key(), y.sort_key()):
                if qualified(y, x) is not None:
                    continue  # mirrored pair will be reported in canonical order
            results.append(SeekPair(x, y, detail))
    results.sort(key=lambda p: (p.lhs.sort_key(), p.rhs.sort_key()))
    return results


def _band_joins(graph: TemporalGraph, relation: RelationSpec, b1: list, side2) -> bool:
    """Whether ``relation_seek`` joins ``b1`` with ``side2`` by ``_band``:
    side 2 is every node or edge at one time point, the relation WITHIN,
    and every value on either side a number, so that no pair the join
    skips could have raised."""
    return (isinstance(side2, SeekSideValues) and side2.time_key is not None
            and side2.ref_key is None and relation.family == RelationFamily.VALUE
            and relation.op == "within"
            and graph.attr_kinds.get(side2.attr) == AttrKind.NUMERIC
            and all(type(x.payload) in (int, float) for x in b1))


def _band(v, d: float, values) -> slice:
    """The run of ascending ``values`` y within ``d`` of ``v``. It bisects
    on the relation's own test, ``abs(v - y) <= d``, which holds on one
    run on either side of v."""
    m = bisect_left(values, v)
    return slice(bisect_left(values, True, 0, m, key=lambda y: abs(v - y) <= d),
                 bisect_left(values, True, m, key=lambda y: abs(v - y) > d))


def _main_relation_detail(relation: RelationSpec, x: Binding, y: Binding, cfg: Config):
    if relation.family == RelationFamily.VALUE:
        return {"relation": relation.op} if eval_relation(relation, x.payload, y.payload, cfg) else None
    score, flag = match_score(x.payload, y.payload, cfg)  # PATTERN
    if not pattern_holds(relation.op, score, flag, cfg):
        return None
    return {"relation": relation.op, "score": score}
