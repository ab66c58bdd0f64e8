"""Resolved attribute columns checked against the point-by-point read.

The ``reference_*`` functions are the read ``graph.py`` made before values
were resolved into cached columns: find the last recorded point of the
element's series by bisection, carry it forward only while the element
stays alive (an object is alive where any member node is, at every point
in between), and aggregate a graph object's members where it has no value
of its own. The callers that scan are checked against the per-point loops
they ran on top of that read. Answers and errors must be the same.
"""

import json
import random
import sys
import threading
from bisect import bisect_right
from operator import itemgetter
from pathlib import Path

import pytest

from tgq.config import Config
from tgq.correlate import (
    AGGREGATIONS,
    correlate_attributes,
    element_series,
    group_series,
    pearson,
)
from tgq.dsl.planner import run_query
from tgq.errors import (
    ABSENT_ELEMENT,
    EMPTY_SCOPE,
    MISSING_VALUE,
    TYPE_ERROR,
    TgqError,
    VALIDATION_ERROR,
)
from tgq.graph import (
    AttrKind,
    ElemKind,
    TimeInterval,
    edge_ref,
    load,
    load_path,
    node_ref,
    object_ref,
)
from tgq.patterns import (
    AspectAxis,
    AspectualPattern,
    aspectual,
    classify_distribution,
    classify_trend,
    distribution,
    start_index,
    step_runs,
    trend,
)
from tgq.search import GroupCandidate, SearchSpace, SubsetFamily, element_candidates, time_points
from tgq.tasks import Binding, SeekSideValues, ValueConstraint, inverse_lookup

from randsuite import random_graph

SEEDS = range(30)
ATTRS = ("w", "u", "c", "b", "nope")
CFGS = {
    "carry": Config(),
    "no_carry": Config(carry_forward_default=False),
    "carry_but_w": Config(carry_forward={"w": False}),
    "no_carry_but_w_b": Config(carry_forward_default=False, carry_forward={"w": True, "b": True}),
}
UNKNOWN = (node_ref("zz"), edge_ref("zz"), object_ref("zz"))

# ---------------------------------------------------------------------------
# Reference: one bisection per (element, t) read
# ---------------------------------------------------------------------------


def reference_intervals(graph, ref):
    if ref.kind == ElemKind.NODE:
        if ref.id not in graph.nodes:
            raise TgqError(VALIDATION_ERROR, f"unknown node '{ref.id}'")
        return graph.nodes[ref.id]
    if ref.kind == ElemKind.EDGE:
        if ref.id not in graph.edges:
            raise TgqError(VALIDATION_ERROR, f"unknown edge '{ref.id}'")
        return graph.edges[ref.id].intervals
    return None


def reference_exists(graph, ref, t):
    if ref.kind == ElemKind.OBJECT:
        members = graph.object_members(ref.id)
        return any(reference_exists(graph, node_ref(n), t) for n in members.nodes)
    return any(s <= t <= e for s, e in reference_intervals(graph, ref))


def reference_series_value(graph, t, ref, attr, cfg):
    series = graph.attrs.get((ref.kind, ref.id, attr), ())
    pos = bisect_right(series, t, key=itemgetter(0))
    if pos and series[pos - 1][0] == t:
        return series[pos - 1][1]
    if pos and cfg.carries_forward(attr):
        t_rec, value = series[pos - 1]
        if ref.kind != ElemKind.OBJECT:
            for s, e in reference_intervals(graph, ref):
                if s <= t_rec and t <= e:
                    return value
        elif all(reference_exists(graph, ref, u) for u in range(t_rec, t + 1)):
            return value
    return None


def reference_aggregate_members(graph, t, ref, attr, cfg):
    members = graph.object_members(ref.id)
    refs = [node_ref(n) for n in sorted(members.nodes)]
    refs += [edge_ref(e) for e in sorted(members.edges)]
    values = [v for v in (reference_value(graph, t, r, attr, cfg) for r in refs) if v is not None]
    if not values:
        return None
    if graph.attr_kinds[attr] == AttrKind.NUMERIC:
        return sum(values) / len(values)
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def reference_value_info(graph, t, ref, attr, cfg):
    if attr not in graph.attr_kinds:
        raise TgqError(VALIDATION_ERROR, f"attribute '{attr}' is not declared by the data")
    if not reference_exists(graph, ref, t):
        return None
    value = reference_series_value(graph, t, ref, attr, cfg)
    if value is not None:
        return value, False
    if ref.kind == ElemKind.OBJECT:
        value = reference_aggregate_members(graph, t, ref, attr, cfg)
        if value is not None:
            return value, True
    return None


def reference_value(graph, t, ref, attr, cfg):
    info = reference_value_info(graph, t, ref, attr, cfg)
    return None if info is None else info[0]


def reference_value_at_info(graph, t, ref, attr, cfg):
    info = reference_value_info(graph, t, ref, attr, cfg)
    if info is not None:
        return info
    label = graph.label_of(t)
    if not reference_exists(graph, ref, t):
        raise TgqError(ABSENT_ELEMENT, f"{ref} does not exist at t={label}")
    if ref.kind == ElemKind.OBJECT:
        raise TgqError(MISSING_VALUE, f"no member of {ref} has a value of '{attr}' at t={label}")
    raise TgqError(MISSING_VALUE, f"no value of '{attr}' for {ref} at t={label}")


# ---------------------------------------------------------------------------
# Reference: the scanning callers as per-point loops over that read
# ---------------------------------------------------------------------------


def reference_inverse_lookup(graph, cfg, attr, constraint, time_key=None, ref_key=None):
    if isinstance(time_key, TimeInterval):
        times = list(time_key.indices())
    elif time_key is not None:
        times = [time_key]
    else:
        times = time_points(graph)
    if isinstance(ref_key, GroupCandidate):
        elements = list(ref_key.members)
    elif ref_key is not None:
        elements = [ref_key]
    else:
        elements = graph.all_refs()
    hits = []
    for ti in times:
        for el in elements:
            value = reference_value(graph, ti, el, attr, cfg)
            if value is not None and constraint.test(value):
                hits.append((ti, el, value))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def reference_trend(graph, cfg, ref, interval, attr):
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"trend needs a numeric attribute, '{attr}' is not")
    values = ((t, reference_value(graph, t, ref, attr, cfg)) for t in interval.indices())
    return classify_trend([(t, v) for t, v in values if v is not None], cfg)


def reference_distribution(graph, cfg, members, t, attr):
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"distribution needs a numeric attribute, '{attr}' is not")
    values = [v for v in (reference_value(graph, t, m, attr, cfg) for m in members)
              if v is not None]
    if not values:
        raise TgqError(EMPTY_SCOPE, f"no member has a value of '{attr}' at t={graph.label_of(t)}")
    return classify_distribution(values, cfg)


def reference_aspectual(graph, cfg, members, interval, attr, axis):
    if axis == AspectAxis.TRENDS_OVER_GRAPH:
        counts = {}
        for m in members:
            p = reference_trend(graph, cfg, m, interval, attr)
            counts[p.cls.value] = counts.get(p.cls.value, 0) + 1
        return AspectualPattern(axis=axis, frequencies=tuple(sorted(counts.items())))
    mean_series, std_series = [], []
    for t in interval.indices():
        try:
            d = reference_distribution(graph, cfg, members, t, attr)
        except TgqError as err:
            if err.code == EMPTY_SCOPE:
                continue
            raise
        mean_series.append((t, d.mean))
        std_series.append((t, d.stddev))
    if not mean_series:
        raise TgqError(EMPTY_SCOPE, "no time point in the interval has any defined value")
    return AspectualPattern(
        axis=axis,
        mean_trend=classify_trend(mean_series, cfg),
        stddev_trend=classify_trend(std_series, cfg),
    )


def _check_numeric(graph, attr):
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"correlation needs a numeric attribute, '{attr}' is not")


def reference_element_series(graph, cfg, ref, attr, interval):
    _check_numeric(graph, attr)
    values = ((t, reference_value(graph, t, ref, attr, cfg)) for t in interval.indices())
    return {t: v for t, v in values if v is not None}


def reference_group_series(graph, cfg, group, attr, interval, agg):
    _check_numeric(graph, attr)
    fold = AGGREGATIONS[agg]
    out = {}
    for t in interval.indices():
        values = [v for v in (reference_value(graph, t, m, attr, cfg) for m in group.members)
                  if v is not None]
        if values:
            out[t] = float(fold(values))
    return out


def reference_cross_section(graph, cfg, attr_a, attr_b, group, t):
    _check_numeric(graph, attr_a)
    _check_numeric(graph, attr_b)
    pairs = []
    for m in group.members:
        a = reference_value(graph, t, m, attr_a, cfg)
        b = reference_value(graph, t, m, attr_b, cfg)
        if a is not None and b is not None:
            pairs.append((a, b))
    return pearson(pairs, 0, cfg)


def reference_seek_values(side, graph, cfg, space):
    times = time_points(graph, side.time_key)
    elements = ([side.ref_key] if side.ref_key is not None
                else element_candidates(graph, space.subset_family))
    out = []
    for t in times:
        for el in elements:
            value = reference_value(graph, t, el, side.attr, cfg)
            if value is not None:
                out.append(Binding(t, el, value))
    return out


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def extended_graph(seed: int):
    """A randsuite graph replayed from its tables, plus:

    - a categorical ``c`` and a boolean ``b`` recorded at random alive
      points of every node, and ``w``/``c`` at random alive points of
      every edge;
    - a node ``m`` and an edge ``em`` (anchor to ``m``) with two intervals;
    - objects: ``o`` (two nodes, values only from members), ``r`` (three
      nodes with induced edges, some values recorded), ``h`` (members
      ``ha`` then ``hb`` hand off, so ``h`` stays alive throughout and its
      value recorded at t=0 carries to the end) and ``g`` (members ``ga``
      and ``gb`` leave a gap at t=1, where no value carries across);
    - subsets ``O`` (the objects) and ``E`` (every edge).
    """
    raw = random_graph(seed)
    rng = random.Random(1000 + seed)
    n_t = raw.n_times
    last = n_t - 1
    spans = {name: list(s) for name, s in raw.node_spans.items()}
    split = [(0, 0), (2, last)] if n_t >= 3 else [(0, last)]
    spans["m"] = split
    half = n_t // 2 - 1
    spans["ha"] = [(0, half)]
    spans["hb"] = [(half + 1, last)]
    spans["ga"] = [(0, 0)]
    if n_t >= 3:
        spans["gb"] = [(2, last)]
    records = []
    for name, node_spans in spans.items():
        for s, e in node_spans:
            # one record per point keeps every time label in the domain
            records += [{"type": "node", "id": name, "start": t, "end": t}
                        for t in range(s, e + 1)]
    edges = {edge_id: [(start, end)] for edge_id, _, _, start, end in raw.edge_rows}
    for edge_id, src, dst, start, end in raw.edge_rows:
        records.append({"type": "edge", "id": edge_id, "src": src, "dst": dst,
                        "start": start, "end": end})
    edges["em"] = split
    for s, e in split:
        records.append({"type": "edge", "id": "em", "src": "n0", "dst": "m", "start": s, "end": e})

    def record(elem, attr, t, value):
        records.append({"type": "attr", "elem": elem, "name": attr, "t": t, "value": value})

    for elem, attr, t, value in raw.attr_rows:
        record(f"node:{elem}", attr, t, value)
    for name, node_spans in spans.items():
        for s, e in node_spans:
            for t in range(s, e + 1):
                if name in ("m", "ha", "hb", "ga", "gb") and rng.random() < 0.5:
                    record(f"node:{name}", "w", t, float(rng.randint(0, 6)))
                if rng.random() < 0.4:
                    record(f"node:{name}", "c", t, rng.choice(("lo", "mid", "hi")))
                if rng.random() < 0.4:
                    record(f"node:{name}", "b", t, rng.random() < 0.5)
    for edge_id, edge_spans in edges.items():
        for s, e in edge_spans:
            for t in range(s, e + 1):
                if rng.random() < 0.5:
                    record(f"edge:{edge_id}", "w", t, float(rng.randint(0, 6)))
                if rng.random() < 0.3:
                    record(f"edge:{edge_id}", "c", t, rng.choice(("lo", "hi")))

    first = sorted(raw.node_spans)
    records.append({"type": "object", "id": "o", "nodes": first[:2]})
    records.append({"type": "object", "id": "r", "nodes": first[:3]})
    records.append({"type": "object", "id": "h", "nodes": ["ha", "hb"]})
    records.append({"type": "object", "id": "g", "nodes": ["ga", "gb"] if n_t >= 3 else ["ga"]})
    r_alive = sorted({t for n in first[:3] for s, e in spans[n] for t in range(s, e + 1)})
    for t in r_alive:
        if rng.random() < 0.4:
            record("object:r", "w", t, float(rng.randint(0, 6)))
    record("object:r", "c", r_alive[0], "mid")
    record("object:h", "w", 0, 5.0)
    record("object:h", "b", 0, True)
    record("object:g", "w", 0, 4.0)
    for name, members in raw.subsets.items():
        records.append({"type": "subset", "name": name,
                        "members": [f"node:{m}" for m in members]})
    records.append({"type": "subset", "name": "O",
                    "members": ["object:o", "object:r", "object:h", "object:g"]})
    records.append({"type": "subset", "name": "E", "members": [f"edge:{e}" for e in edges]})
    return load(json.dumps(r) for r in records)


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the code and message of the error it raises,
    as a repr so that 1.0, 1 and True are told apart."""
    try:
        return repr(fn(*args, **kwargs))
    except TgqError as err:
        return repr(("error", err.code, err.message))


def every_ref(graph):
    return graph.all_refs((ElemKind.NODE, ElemKind.EDGE, ElemKind.OBJECT))


def groups(graph):
    out = [GroupCandidate(f"subset:{name}", s.members) for name, s in sorted(graph.subsets.items())]
    out.append(GroupCandidate("NODES", tuple(graph.all_refs((ElemKind.NODE,)))))
    out.append(GroupCandidate("none", ()))
    return out


def intervals(graph):
    last = graph.n_times - 1
    return [TimeInterval(0, last), TimeInterval(0, 0), TimeInterval(1, last)]


# ---------------------------------------------------------------------------
# The column and the point reads on it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_column_matches_point_reference(seed):
    graph = extended_graph(seed)
    n_t = graph.n_times
    for cfg in CFGS.values():  # one graph instance, so columns of every config are cached side by side
        for ref in every_ref(graph) + list(UNKNOWN):
            for attr in ATTRS:
                want = outcome(lambda: tuple(
                    reference_value(graph, t, ref, attr, cfg) for t in range(n_t)))
                assert outcome(graph.column, ref, attr, cfg) == want, (ref, attr)
                for t in range(n_t):
                    assert outcome(graph.value_at_info, t, ref, attr, cfg) == outcome(
                        reference_value_at_info, graph, t, ref, attr, cfg), (t, ref, attr)


def test_objects_hand_off_and_gap():
    graph = extended_graph(3)
    assert graph.n_times >= 4
    last = graph.n_times - 1
    carry, no_carry = CFGS["carry"], CFGS["no_carry"]
    # h's members hand off without a gap, so h's own value carries to the end
    assert graph.column(object_ref("h"), "w", carry) == (5.0,) * graph.n_times
    assert graph.value_at_info(last, object_ref("h"), "w", carry) == (5.0, False)
    assert graph.column(object_ref("h"), "b", carry)[last] is True
    # g is absent at t=1, so its value does not carry across; later slots are
    # member aggregates or None
    col = graph.column(object_ref("g"), "w", carry)
    assert col[1] is None
    for t in range(2, graph.n_times):
        assert col[t] == reference_value(graph, t, object_ref("g"), "w", carry)
        if col[t] is not None:
            assert graph.value_at_info(t, object_ref("g"), "w", carry)[1] is True
    assert graph.column(object_ref("h"), "w", no_carry)[0] == 5.0
    assert graph.column(object_ref("h"), "w", no_carry)[1:] == tuple(
        reference_value(graph, t, object_ref("h"), "w", no_carry) for t in range(1, graph.n_times))


def test_object_slots_interleave():
    # o = {a, b, c} is alive at t=0..2 and 5..7 and absent at 3..4. It
    # records w at t=1 and t=6 and c at t=2; elsewhere its members' mean or
    # mode stands in, and at t=0 and t=5 the mode of c ties between "blue"
    # and "red". Without carry-forward neither o nor a member has a value of
    # w at t=2 or of c at t=7.
    records = [{"type": "node", "id": n, "start": s, "end": e}
               for n, spans in {"a": [(0, 2), (5, 7)], "b": [(0, 2), (5, 6)],
                                "c": [(0, 1), (6, 7)]}.items() for s, e in spans]
    records.append({"type": "object", "id": "o", "nodes": ["a", "b", "c"]})
    for elem, attr, t, value in [
        ("a", "w", 0, 1.0), ("b", "w", 0, 2.0), ("a", "w", 5, 3.0), ("b", "w", 5, 4.0),
        ("o", "w", 1, 10.0), ("o", "w", 6, 20.0), ("c", "w", 7, 6.0),
        ("a", "c", 0, "red"), ("b", "c", 0, "blue"), ("a", "c", 5, "red"), ("b", "c", 5, "blue"),
        ("c", "c", 1, "red"), ("o", "c", 2, "zz"), ("c", "c", 6, "red"),
    ]:
        kind = "object" if elem == "o" else "node"
        records.append({"type": "attr", "elem": f"{kind}:{elem}", "name": attr, "t": t,
                        "value": value})
    # a record at every t puts every label 0..7 in the time domain
    records += [{"type": "node", "id": "x", "start": t, "end": t} for t in range(8)]
    graph = load(json.dumps(r) for r in records)
    o = object_ref("o")
    assert graph.column(o, "w", CFGS["no_carry"]) == (
        1.5, 10.0, None, None, None, 3.5, 20.0, 6.0)
    assert graph.column(o, "c", CFGS["no_carry"]) == (
        "blue", "red", "zz", None, None, "blue", "red", None)
    assert graph.column(o, "w", CFGS["carry"])[:3] == (1.5, 10.0, 10.0)
    assert [graph.value_at_info(t, o, "w", CFGS["no_carry"])[1] for t in (0, 1, 5, 6, 7)] == [
        True, False, True, False, True]
    for cfg in CFGS.values():
        for attr in ("w", "c"):
            assert graph.column(o, attr, cfg) == tuple(
                reference_value(graph, t, o, attr, cfg) for t in range(graph.n_times))
            for t in range(graph.n_times):
                assert outcome(graph.value_at_info, t, o, attr, cfg) == outcome(
                    reference_value_at_info, graph, t, o, attr, cfg), (t, attr)


def test_edge_with_two_intervals_does_not_carry_across_the_gap():
    graph = load(json.dumps(r) for r in [
        {"type": "node", "id": "a", "start": 0, "end": 4},
        {"type": "node", "id": "b", "start": 0, "end": 4},
        {"type": "edge", "id": "e", "src": "a", "dst": "b", "start": 0, "end": 1},
        {"type": "edge", "id": "e", "src": "a", "dst": "b", "start": 3, "end": 4},
        {"type": "attr", "elem": "edge:e", "name": "w", "t": 0, "value": 2.0},
        {"type": "attr", "elem": "edge:e", "name": "w", "t": 3, "value": 7.0},
        {"type": "attr", "elem": "node:a", "name": "w", "t": 2, "value": 1.0},
    ])
    assert graph.column(edge_ref("e"), "w", Config()) == (2.0, 2.0, None, 7.0, 7.0)
    assert graph.column(edge_ref("e"), "w", Config(carry_forward_default=False)) == (
        2.0, None, None, 7.0, None)
    assert graph.column(node_ref("a"), "w", Config()) == (None, None, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# The callers that scan, against their per-point loops
# ---------------------------------------------------------------------------

CONSTRAINTS = (
    ("w", ValueConstraint("gt", (2.0,))),
    ("w", ValueConstraint("between", (1.0, 4.0))),
    ("c", ValueConstraint("eq", ("lo",))),
    ("c", ValueConstraint("lt", (1.0,))),  # KIND_MISMATCH once a value is in scope
    ("b", ValueConstraint("eq", (True,))),
    ("b", ValueConstraint("gt", (0.0,))),
    ("nope", ValueConstraint("gt", (0.0,))),
)


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_lookup_matches_reference(seed):
    graph = extended_graph(seed)
    last = graph.n_times - 1
    times = [{}, {"time_key": 0}, {"time_key": last}, {"time_key": TimeInterval(1, last)}]
    elements = [{}] + [{"ref_key": ref} for ref in (
        node_ref("n1"), edge_ref("em"), object_ref("h"), node_ref("zz"),
        GroupCandidate("subset:A", graph.subsets["A"].members),
        GroupCandidate("subset:O", graph.subsets["O"].members), GroupCandidate("none", ()))]
    for cfg in CFGS.values():
        for attr, constraint in CONSTRAINTS:
            for when in times:
                for which in elements:
                    kwargs = {**when, **which}
                    assert outcome(inverse_lookup, graph, cfg, attr, constraint, **kwargs) == (
                        outcome(reference_inverse_lookup, graph, cfg, attr, constraint, **kwargs)
                    ), (attr, constraint, kwargs)


@pytest.mark.parametrize("seed", SEEDS)
def test_trend_and_distribution_match_reference(seed):
    graph = extended_graph(seed)
    for cfg in CFGS.values():
        for attr in ("w", "u", "c", "nope"):
            for ref in every_ref(graph) + list(UNKNOWN):
                for interval in intervals(graph):
                    assert outcome(trend, graph, cfg, ref, interval, attr) == outcome(
                        reference_trend, graph, cfg, ref, interval, attr), (ref, interval, attr)
            for group in groups(graph):
                for t in range(graph.n_times):
                    assert outcome(distribution, graph, cfg, group.members, t, attr) == outcome(
                        reference_distribution, graph, cfg, group.members, t, attr), (group, t)
                for axis in AspectAxis:
                    for interval in intervals(graph):
                        assert outcome(aspectual, graph, cfg, group.members, interval, attr,
                                       axis) == outcome(reference_aspectual, graph, cfg,
                                                        group.members, interval, attr, axis)


@pytest.mark.parametrize("seed", SEEDS)
def test_correlation_series_match_reference(seed):
    graph = extended_graph(seed)
    for cfg in CFGS.values():
        for attr in ("w", "u", "c", "nope"):
            for interval in intervals(graph):
                for ref in every_ref(graph) + list(UNKNOWN):
                    assert outcome(element_series, graph, cfg, ref, attr, interval) == outcome(
                        reference_element_series, graph, cfg, ref, attr, interval)
                for group in groups(graph):
                    for agg in AGGREGATIONS:
                        assert outcome(group_series, graph, cfg, group, attr, interval, agg) == (
                            outcome(reference_group_series, graph, cfg, group, attr, interval, agg)
                        ), (group, attr, interval, agg)
        for attr_a, attr_b in (("w", "u"), ("u", "w"), ("w", "c"), ("nope", "w")):
            for group in groups(graph):
                for t in range(graph.n_times):
                    assert outcome(correlate_attributes, graph, cfg, attr_a, attr_b,
                                   time_key=t, ref_key=group) == outcome(
                        reference_cross_section, graph, cfg, attr_a, attr_b, group, t)


@pytest.mark.parametrize("seed", SEEDS)
def test_seek_side_values_matches_reference(seed):
    graph = extended_graph(seed)
    for cfg in CFGS.values():
        for attr in ("w", "c", "b", "nope"):
            for time_key in (None, 0):
                for ref_key in (None, node_ref("m"), edge_ref("em"), object_ref("g"),
                                node_ref("zz")):
                    side = SeekSideValues(attr, time_key=time_key, ref_key=ref_key)
                    for family in (SubsetFamily.EACH_NODE, SubsetFamily.EACH_EDGE):
                        space = SearchSpace(subset_family=family)
                        assert outcome(side.resolve_bindings, graph, cfg, space) == outcome(
                            reference_seek_values, side, graph, cfg, space), (side, family)


def test_empty_scans_make_no_read():
    graph = extended_graph(0)
    cfg = Config()
    # an undeclared attribute raises on the first read; a scan over no
    # elements makes none
    assert inverse_lookup(graph, cfg, "nope", ValueConstraint("gt", (0.0,)),
                          ref_key=GroupCandidate("none", ())) == []
    assert graph._columns == {}
    with pytest.raises(TgqError) as e:
        inverse_lookup(graph, cfg, "nope", ValueConstraint("gt", (0.0,)),
                       ref_key=GroupCandidate("n0", (node_ref("n0"),)))
    assert e.value.code == VALIDATION_ERROR


# ---------------------------------------------------------------------------
# Cache isolation
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def _answer(text, graph, cfg):
    try:
        envelope = run_query(text, graph, cfg)
    except TgqError as err:
        return ("error", err.code, err.message)
    envelope.pop("elapsed_ms")
    return json.dumps(envelope, sort_keys=True)


def test_load_builds_no_column():
    assert load_path(str(DATA / "corpus_graph.jsonl"))._columns == {}
    assert extended_graph(0)._columns == {}


def test_one_graph_answers_every_config_like_a_fresh_graph():
    path = str(DATA / "corpus_graph.jsonl")
    queries = [line.strip() for line in (DATA / "corpus_queries.txt").read_text().splitlines()
               if line.strip() and not line.startswith("#")]
    configs = [Config(), Config(carry_forward_default=False), Config(carry_forward={"w": False}),
               Config(carry_forward_default=False, carry_forward={"w": True})]
    shared = load_path(path)
    changed = 0
    for i, query in enumerate(queries):
        answers = []
        for cfg in configs[i % 4:] + configs[:i % 4]:  # alternate which config reads first
            got = _answer(query, shared, cfg)
            assert got == _answer(query, load_path(path), cfg), (query, cfg)
            answers.append(got)
        changed += len(set(answers)) > 1
    assert changed  # the configs do give different answers on this graph


@pytest.mark.parametrize("seed", range(5))
def test_one_extended_graph_answers_every_config_like_a_fresh_graph(seed):
    queries = [
        "FIND t,g WHERE w > 2",
        "FIND t,g WHERE c = \"lo\"",
        "LOOKUP w OF object:h AT t=1",
        "LOOKUP w OF object:g AT t=2",
        "CHARACTERIZE TREND ON w OF node:m",
        "CHARACTERIZE TREND ON w OF object:g",
        "CHARACTERIZE DIST ON w OF subset:O AT t=1",
        "CHARACTERIZE ASPECT DISTRIBUTION_OVER_TIME ON w OF subset:O",
        "CHARACTERIZE ASPECT TRENDS_OVER_GRAPH ON w OF NODES",
    ]
    shared = extended_graph(seed)
    for query in queries:
        for cfg in list(CFGS.values()) + list(CFGS.values())[::-1]:
            assert _answer(query, shared, cfg) == _answer(query, extended_graph(seed), cfg), (
                query, cfg)


def test_concurrent_readers_see_whole_columns():
    """Threads that race to build the same columns, per-kind sorted indexes,
    step runs and per-start indexes on one graph all read what one thread
    reads on a graph of its own."""
    fresh = extended_graph(7)
    jobs = [("column", ref, attr, cfg) for cfg in CFGS.values() for ref in every_ref(fresh)
            for attr in ("w", "c", "b")]
    jobs += [("column_index", ref, "w", cfg, step_runs) for cfg in CFGS.values()
             for ref in every_ref(fresh)]
    jobs += [("sorted_at", attr, t, cfg, kind) for cfg in CFGS.values() for attr in ("w", "u")
             for t in range(fresh.n_times) for kind in (ElemKind.NODE, ElemKind.EDGE)]
    jobs += [("family_index", kind, "w", cfg, start_index, s, j)
             for cfg in CFGS.values() for kind in (ElemKind.NODE, ElemKind.EDGE)
             for s in range(fresh.n_times) for j in (0, 1)]
    random.Random(7).shuffle(jobs)  # index builds and column reads interleaved

    def read(graph, job):
        return getattr(graph, job[0])(*job[1:])

    want = [read(fresh, job) for job in jobs]
    shared = extended_graph(7)
    seen = []

    def reader(offset):
        order = jobs[offset:] + jobs[:offset]
        seen.append({(*job[:3], id(job[3]), *job[4:]): read(shared, job) for job in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i * 7,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(seen) == len(threads)
    for got in seen:
        assert [got[(*job[:3], id(job[3]), *job[4:])] for job in jobs] == want
