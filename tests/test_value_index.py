"""Value constraints answered by lookup, checked against the scans they replace.

``scan_inverse_lookup`` is ``inverse_lookup`` as it was before range tests
bisected the per-time sorted index: every element's column, every time
point. ``reference_relation_seek`` is ``relation_seek`` before side 2 was
reduced by side 1's one trend: both sides classify every window and the
join meets every pair. Answers, budget checks and errors must be the same.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from tgq import patterns, tasks
from tgq.config import Config
from tgq.dsl.planner import run_query
from tgq.errors import EMPTY_SCOPE, KIND_MISMATCH, TYPE_ERROR, TgqError
from tgq.graph import (
    AttrKind,
    ElemKind,
    TimeInterval,
    _sorted_values,
    load,
    load_path,
    node_ref,
    object_ref,
)
from tgq.patterns import TrendClass, trend
from tgq.relations import RelationFamily, RelationSpec
from tgq.search import GroupCandidate, SearchSpace, SubsetFamily, check_budget, time_points, time_windows
from tgq.tasks import (
    AuxRelation,
    Quadrant,
    SeekPair,
    SeekSidePatterns,
    SeekSideValues,
    ValueConstraint,
    inverse_lookup,
    relation_seek,
)

from randsuite import random_graph

DATA = Path(__file__).parent / "data"
SEEDS = range(30)
CFGS = {"carry": Config(), "no_carry": Config(carry_forward_default=False)}
EXTREMES = (-1e308, 1e308, -5e307, 0.0, -0.0, 1e-300, 2e-300)


# ---------------------------------------------------------------------------
# References: the scans
# ---------------------------------------------------------------------------


def scan_inverse_lookup(graph, cfg, attr, constraint, time_key=None, ref_key=None):
    if isinstance(time_key, TimeInterval):
        graph.check_time(time_key.start, time_key.end)
        times = list(time_key.indices())
    elif time_key is not None:
        graph.check_time(time_key)
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
    for el in elements if times else ():
        column = graph.column(el, attr, cfg)
        for ti in times:
            value = column[ti]
            if value is not None and constraint.test(value):
                hits.append((ti, el, value))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def reference_relation_seek(graph, cfg, relation, side1, side2, aux=(), space=None):
    space = space or SearchSpace()
    b1 = side1.resolve_bindings(graph, cfg, space)
    b2 = side2.resolve_bindings(graph, cfg, space)
    tasks.check_budget(max(len(b1), len(b2)), cfg, "relation seeking")
    tasks.check_budget(len(b1) * len(b2), cfg, "relation seeking (pairs)")

    def qualified(x, y):
        detail = tasks._main_relation_detail(relation, x, y, cfg)
        if detail is None:
            return None
        for a in aux:
            if not a.holds(graph, cfg, x, y):
                return None
        return detail

    results = []
    for x in b1:
        for y in b2:
            detail = qualified(x, y)
            if detail is not None:
                results.append(SeekPair(x, y, detail))
    results.sort(key=lambda p: (p.lhs.sort_key(), p.rhs.sort_key()))
    return results


def outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except TgqError as err:
        return ("error", err.code, err.message, err.details)


# ---------------------------------------------------------------------------
# Graphs: randsuite nodes and edges with values, ties and extremes
# ---------------------------------------------------------------------------


def index_graph(seed: int):
    """A randsuite graph plus a node x holding extreme values (signed zeros
    among them), values of w on edges, a categorical attribute and an object."""
    raw = random_graph(seed)
    rng = random.Random(3000 + seed)
    records = list(raw.records)
    last = raw.n_times - 1
    records.append({"type": "node", "id": "x", "start": 0, "end": last})
    for t in range(raw.n_times):
        if rng.random() < 0.8:
            records.append({"type": "attr", "elem": "node:x", "name": "w", "t": t,
                            "value": rng.choice(EXTREMES)})
    for edge_id, _, _, start, end in raw.edge_rows:
        for t in range(start, end + 1):
            if rng.random() < 0.5:
                records.append({"type": "attr", "elem": f"edge:{edge_id}", "name": "w", "t": t,
                                "value": rng.choice((-0.0, 0.0, 2.0, 3.0, 6.0))})
    records.append({"type": "attr", "elem": "node:n0", "name": "c", "t": 0, "value": "hi"})
    records.append({"type": "object", "id": "o", "nodes": sorted(raw.node_spans)[:2]})
    return load(json.dumps(r) for r in records)


@pytest.fixture(scope="module")
def graphs():
    return [index_graph(seed) for seed in SEEDS]


# ---------------------------------------------------------------------------
# FIND: bisection against the scan
# ---------------------------------------------------------------------------

# Constants at, between and beyond the recorded values (integers 0..6, the
# extremes), as floats and ints.
POINTS = (-math.inf, -1e308, -1.0, -0.0, 0.0, 1e-300, 2, 2.0, 2.5, 6.0, 7, 5e307, 1e308, math.inf)
BOUNDS = ((0.0, 6.0), (2.0, 2.0), (2.5, 4.0), (4.0, 2.0), (-1e308, 1e308), (-0.0, 0.0),
          (1e-300, 2e-300), (3, 3.0), (-math.inf, 0.0))
RANGES = [ValueConstraint(op, (c,)) for op in ("lt", "le", "gt", "ge") for c in POINTS] + [
    ValueConstraint("between", bounds) for bounds in BOUNDS]
# Cases that keep the scan: another op, a constant that is not a number,
# another attribute kind, an undeclared attribute.
SCANNED = [
    ("w", ValueConstraint("eq", (2.0,))),
    ("w", ValueConstraint("ne", (2.0,))),
    ("w", ValueConstraint("in", (2.0, 1e308))),
    ("w", ValueConstraint("gt", ("red",))),
    ("w", ValueConstraint("between", (1.0, "x"))),
    ("w", ValueConstraint("gt", (True,))),
    ("w", ValueConstraint("le", (False,))),
    ("w", ValueConstraint("gt", (math.nan,))),
    ("w", ValueConstraint("ge", (math.nan,))),
    ("w", ValueConstraint("between", (math.nan, 3.0))),
    ("c", ValueConstraint("gt", (1.0,))),
    ("c", ValueConstraint("lt", ("zz",))),
    ("nope", ValueConstraint("gt", (0.0,))),
]


def when(graph):
    last = graph.n_times - 1
    return [{}] + [{"time_key": key} for key in (
        0, last, last + 1, TimeInterval(0, last), TimeInterval(min(1, last), last))]


@pytest.mark.parametrize("cfg_name", sorted(CFGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_find_matches_the_scan(graphs, seed, cfg_name):
    graph, cfg = graphs[seed], CFGS[cfg_name]
    cases = [("w", c) for c in RANGES] + [("u", c) for c in RANGES[::5]] + SCANNED
    for attr, constraint in cases:
        for kwargs in when(graph):
            got = outcome(inverse_lookup, graph, cfg, attr, constraint, **kwargs)
            assert got == outcome(scan_inverse_lookup, graph, cfg, attr, constraint, **kwargs), (
                attr, constraint, kwargs)


def sorted_indexes(graph) -> list:
    """(kind, attr, carry, t) of every ``sorted_at`` index built on ``graph``."""
    return sorted((key[0], key[1], key[2], key[4]) for key in graph._columns
                  if len(key) == 5 and key[3] is _sorted_values)


def test_find_reads_the_index_only_for_range_tests():
    graph, cfg = index_graph(0), Config()
    inverse_lookup(graph, cfg, "w", ValueConstraint("eq", (2.0,)))
    inverse_lookup(graph, cfg, "w", ValueConstraint("gt", (2.0,)), ref_key=node_ref("n1"))
    inverse_lookup(graph, cfg, "w", ValueConstraint("gt", (2.0,)),
                   ref_key=GroupCandidate("n1", (node_ref("n1"),)))
    inverse_lookup(graph, cfg, "c", ValueConstraint("eq", ("hi",)))
    assert sorted_indexes(graph) == []
    inverse_lookup(graph, cfg, "w", ValueConstraint("gt", (2.0,)), time_key=0)
    assert sorted_indexes(graph) == [("edge", "w", True, 0), ("node", "w", True, 0)]
    inverse_lookup(graph, Config(carry_forward_default=False), "w",
                   ValueConstraint("between", (0.0, 2.0)))
    assert len(sorted_indexes(graph)) == 2 * (1 + graph.n_times)


def test_sorted_at_holds_every_value_ascending(graphs):
    for graph in graphs[:10]:
        for cfg in CFGS.values():
            for t in range(graph.n_times):
                for kind in (ElemKind.NODE, ElemKind.EDGE):
                    values, refs, positions = graph.sorted_at("w", t, cfg, kind)
                    every = graph.all_refs((kind,))
                    column = [(graph.column(r, "w", cfg)[t], r) for r in every]
                    # ties (signed zeros among them) keep ref order
                    assert list(zip(values, refs)) == sorted(
                        ((v, r) for v, r in column if v is not None), key=lambda vr: vr[0])
                    assert [every[p] for p in positions] == list(refs)


def test_load_builds_no_index():
    assert load_path(str(DATA / "corpus_graph.jsonl"))._columns == {}


# ---------------------------------------------------------------------------
# An ordering test against a string is a coded error
# ---------------------------------------------------------------------------


def _error_code(query):
    graph = load_path(str(DATA / "corpus_graph.jsonl"))
    with pytest.raises(TgqError) as e:
        run_query(query, graph, Config())
    return e.value.code, e.value.message


@pytest.mark.parametrize("query, op", [
    ('FIND t,g WHERE w > "red"', "gt"),
    ('FIND g WHERE w <= "red" AT t=0', "le"),
    ('FIND t,g WHERE w BETWEEN 1 AND "x"', "between"),
    ('FIND t WHERE w < "red" FOR node:a', "lt"),
    ('COMPARE FIND g WHERE w > "red" AT t=0 WITH node:a AT t=0 USING GRAPH', "gt"),
    ('NEIGHBORS(node:a, ADJACENT WITH weight > "x") AT t=0', "gt"),
    ('NEIGHBORS(node:a, PATH <= 2 WITH weight >= "x")', "ge"),
], ids=["find", "find_at", "find_between", "find_for", "compare_find", "edge_predicate",
        "edge_predicate_free_t"])
def test_ordering_against_a_string_is_kind_mismatch(query, op):
    assert _error_code(query) == (KIND_MISMATCH, f"constraint '{op}' needs a numeric constant")


@pytest.mark.parametrize("query, op", [
    ("FIND t,g WHERE w > TRUE", "gt"),
    ("FIND g WHERE w <= FALSE AT t=0", "le"),
    ("FIND t,g WHERE w BETWEEN TRUE AND 5", "between"),
    ("FIND t,g WHERE w BETWEEN 0 AND FALSE", "between"),
    ("COMPARE FIND g WHERE w > TRUE AT t=0 WITH node:a AT t=0 USING GRAPH", "gt"),
    ("NEIGHBORS(node:a, ADJACENT WITH weight < TRUE) AT t=0", "lt"),
], ids=["find", "find_at", "find_between_low", "find_between_high", "compare_find",
        "edge_predicate"])
def test_ordering_against_a_boolean_is_kind_mismatch(query, op):
    # A bool is an int in Python: w > TRUE would compare against 1.
    assert _error_code(query) == (KIND_MISMATCH, f"constraint '{op}' needs a numeric constant")


def test_equality_with_a_boolean_keeps_python_equality():
    graph = load_path(str(DATA / "corpus_graph.jsonl"))
    as_bool = run_query("FIND t,g WHERE w IN {TRUE, 3}", graph, Config())["bindings"]
    assert as_bool and as_bool == run_query(
        "FIND t,g WHERE w IN {1, 3}", graph, Config())["bindings"]


@pytest.mark.parametrize("constraint", [
    ValueConstraint("between", (1.0, "x")), ValueConstraint("between", ("x", 1.0)),
    ValueConstraint("gt", (None,)), ValueConstraint("lt", ([1.0],)),
    ValueConstraint("ge", (True,)), ValueConstraint("between", (False, 5.0)),
    ValueConstraint("between", (0.0, True)),
])
@pytest.mark.parametrize("value", [0.0, 1.0, 5.0])
def test_a_constant_that_is_not_a_number_fails_at_any_value(constraint, value):
    with pytest.raises(TgqError) as e:
        constraint.test(value)
    assert (e.value.code, e.value.message) == (
        KIND_MISMATCH, f"constraint '{constraint.op}' needs a numeric constant")


def test_ordering_of_a_string_value_keeps_its_message():
    assert ValueConstraint("eq", ("red",)).test("red")
    with pytest.raises(TgqError) as e:
        ValueConstraint("gt", ("red",)).test("blue")
    assert (e.value.code, e.value.message) == (
        KIND_MISMATCH, "constraint 'gt' needs a numeric attribute")


# ---------------------------------------------------------------------------
# SEEK: side 2 reduced by side 1's one trend, against the full join
# ---------------------------------------------------------------------------

RELATIONS = [RelationSpec(RelationFamily.PATTERN, op) for op in ("same", "opposite", "different")]
THRESHOLDS = (0.0, 0.5, 0.9, 1.0)


def side_one_by_class(graph, cfg, per_class=2):
    """Up to ``per_class`` (element, window) pairs for each trend class."""
    found = {}
    for el in [node_ref(n) for n in sorted(graph.nodes)] + [object_ref("o")]:
        for window in time_windows(graph, None, 1):
            cls = trend(graph, cfg, el, window, "w").cls
            if len(found.setdefault(cls, [])) < per_class:
                found[cls].append((el, window))
    return found


def seek_outcome(monkeypatch, fn, *args):
    """What ``fn`` returns or raises, and the budget checks it made."""
    calls = []

    def recording(count, cfg, what):
        calls.append((count, what))
        return check_budget(count, cfg, what)

    monkeypatch.setattr(tasks, "check_budget", recording)
    return outcome(fn, *args), calls


@pytest.mark.parametrize("seed", SEEDS)
def test_seek_matches_the_full_join(graphs, seed, monkeypatch):
    graph = graphs[seed]
    seen = set()
    last = graph.n_times - 1
    aux = ((), (AuxRelation("graph", RelationSpec(RelationFamily.STRUCTURAL, "adjacent")),))
    for thr in THRESHOLDS:
        cfg = Config(similarity_threshold=thr)
        for cls, picks in side_one_by_class(graph, cfg).items():
            for el, window in picks:
                side1 = SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w", ref_key=el,
                                         time_key=window)
                sides2 = [
                    (SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w", time_key=window),
                     SearchSpace()),
                    (SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w"),
                     SearchSpace(window_min_len=max(1, last))),
                    (SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w", ref_key=node_ref("x")),
                     SearchSpace(window_min_len=max(1, last - 1))),
                ]
                for side2, space in sides2:
                    for relation in RELATIONS:
                        for extra in aux:
                            args = (graph, cfg, relation, side1, side2, extra, space)
                            got = seek_outcome(monkeypatch, relation_seek, *args)
                            want = seek_outcome(monkeypatch, reference_relation_seek, *args)
                            assert got == want, (cls, el, window, side2, relation, thr)
                seen.add(cls)
    assert TrendClass.DEGENERATE in seen and len(seen) > 1


def test_every_side_one_class_is_covered(graphs):
    seen = set()
    for graph in graphs:
        seen |= set(side_one_by_class(graph, Config(), per_class=1))
    assert seen == set(TrendClass)


@pytest.mark.parametrize("seed", range(10))
def test_seek_cap_sweep_matches_the_full_join(graphs, seed, monkeypatch):
    graph = graphs[seed]
    window = graph.full_interval()
    side1 = SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w", ref_key=node_ref("n0"),
                             time_key=window)
    side2 = SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w")
    n2 = len(graph.nodes) * len(time_windows(graph, None, 1))
    for cap in sorted({1, n2 - 1, n2, n2 + 1} - {0}):
        cfg = Config(search_max_candidates=cap)
        for relation in RELATIONS:
            args = (graph, cfg, relation, side1, side2)
            assert seek_outcome(monkeypatch, relation_seek, *args) == seek_outcome(
                monkeypatch, reference_relation_seek, *args), (cap, relation)


def _counting_classify(monkeypatch):
    calls = []
    real = patterns.classify_trend

    def counting(samples, cfg):
        calls.append(samples)
        return real(samples, cfg)

    monkeypatch.setattr(patterns, "classify_trend", counting)
    return calls


def _shapes_graph():
    """Node a rises; b falls; c peaks; d fluctuates; e is flat."""
    series = {"a": [1, 2, 3, 4], "b": [4, 3, 2, 1], "c": [1, 3, 2, 1], "d": [1, 3, 1, 3],
              "e": [2, 2, 2, 2]}
    records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in series]
    records += [{"type": "attr", "elem": f"node:{n}", "name": "w", "t": t, "value": float(v)}
                for n, values in series.items() for t, v in enumerate(values)]
    return load(json.dumps(r) for r in records)


@pytest.mark.parametrize("node, op, classified", [
    ("a", "opposite", ["b"]),          # only the falling window
    ("c", "opposite", []),             # a peak pairs with a trough; there is none
    ("d", "opposite", []),             # nothing is opposite to fluctuating
    ("a", "same", ["a"]),
    ("e", "same", list("abcde")),      # a constant trend needs every window classified
    ("a", "different", list("abcde")),
])
def test_side_two_classifies_only_what_can_pair(monkeypatch, node, op, classified):
    graph = _shapes_graph()
    window = graph.full_interval()
    side1 = SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w", ref_key=node_ref(node),
                             time_key=window)
    side2 = SeekSidePatterns(Quadrant.Q3_TREND_OF_G, "w", time_key=window)
    relation = RelationSpec(RelationFamily.PATTERN, op)
    want = reference_relation_seek(graph, Config(), relation, side1, side2)
    calls = _counting_classify(monkeypatch)
    got = relation_seek(graph, Config(), relation, side1, side2)
    assert got == want
    values = {n: tuple(graph.column(node_ref(n), "w", Config())) for n in graph.nodes}
    assert calls[1:] == [list(enumerate(values[n])) for n in classified]


def test_pushdown_keeps_the_query_answer():
    graph = _shapes_graph()
    query = "SEEK g2 WHERE TREND(w, g1) OPPOSITE TREND(w, g2) AND g1 = node:a AND T1 = [0, 3] " \
            "AND T2 = [0, 3]"
    rows = run_query(query, graph, Config())["bindings"]
    assert [r["rhs"]["ref"] for r in rows] == ["node:b"]


# ---------------------------------------------------------------------------
# Value SEEK against every node or edge at t: the band join against the loop
# ---------------------------------------------------------------------------

# WITHIN, which the band join answers, at tolerances that land on recorded
# values exactly, zero of either sign, overflow-wide and, as an API call can
# pass, below zero; and the other value relations, which keep the loop or
# the hash join.
VALUE_RELATIONS = [RelationSpec(RelationFamily.VALUE, op)
                   for op in ("lt", "le", "gt", "ge", "eq", "ne")] + [
    RelationSpec(RelationFamily.VALUE, "within", (d,))
    for d in (0.0, -0.0, 0.5, 1.0, 2.0, 1e308, math.inf, -1.0)]
SEEK_AUX = (
    (),
    (AuxRelation("graph", RelationSpec(RelationFamily.STRUCTURAL, "adjacent")),),
    (AuxRelation("graph", RelationSpec(RelationFamily.STRUCTURAL, "distance_le", (1,))),),
    (AuxRelation("graph", RelationSpec(RelationFamily.STRUCTURAL, "distance_le", (2,)), 0),),
)
FAMILIES = (SearchSpace(), SearchSpace(subset_family=SubsetFamily.EACH_EDGE))


def value_sides_one(graph, t):
    """Side-1 value scopes: node x (extremes, ±1e308 among them) at t and at
    every t, each other node and edge at t (some with no value there), the
    object, and a categorical value."""
    refs = [node_ref("x")] + graph.all_refs() + [object_ref("o")]
    sides = [SeekSideValues("w", time_key=t, ref_key=ref) for ref in refs]
    sides += [SeekSideValues("w", ref_key=ref) for ref in (node_ref("x"), node_ref("n1"),
                                                           object_ref("o"))]
    return sides + [SeekSideValues("c", time_key=0, ref_key=node_ref("n0"))]


@pytest.mark.parametrize("cfg_name", sorted(CFGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_value_seek_matches_the_loop(graphs, seed, cfg_name, monkeypatch):
    graph, cfg = graphs[seed], CFGS[cfg_name]
    t2 = random.Random(seed).randrange(graph.n_times)
    # every node or edge at t2 (a band join where side 1 is numeric), and
    # sides that keep the loop: another attribute kind, an undeclared one,
    # a fixed ref, a free t
    sides2 = [SeekSideValues(attr, time_key=t2) for attr in ("w", "c", "nope")] + [
        SeekSideValues("w", time_key=t2, ref_key=node_ref("n1")), SeekSideValues("w")]
    for side1 in value_sides_one(graph, t2):
        for space in FAMILIES:
            for side2 in sides2:
                if side2 == side1:
                    continue  # a symmetric seek, which the reference does not model
                relations = VALUE_RELATIONS if side2 == sides2[0] else VALUE_RELATIONS[::4]
                for relation in relations:
                    for aux in SEEK_AUX:
                        args = (graph, cfg, relation, side1, side2, aux, space)
                        got = seek_outcome(monkeypatch, relation_seek, *args)
                        want = seek_outcome(monkeypatch, reference_relation_seek, *args)
                        assert got == want, (side1, side2, space, relation, aux)


def test_value_seek_cases_are_reached(graphs):
    """The graphs hold what the join must get right: a side-1 element with
    no value at t, values at v ± d and at ±1e308, and a WITHIN whose
    v - y overflows."""
    no_value = overflow = at_tolerance = False
    for graph in graphs:
        cfg = Config()
        for ref in graph.all_refs():
            no_value |= None in graph.column(ref, "w", cfg)
        column = [v for v in graph.column(node_ref("x"), "w", cfg) if v is not None]
        overflow |= 1e308 in column and -1e308 in column
        for t in range(graph.n_times):
            values = graph.sorted_at("w", t, cfg, ElemKind.NODE)[0]
            at_tolerance |= any(v + 1.0 in values for v in values)
    assert no_value and overflow and at_tolerance


def test_band_pairs_only_the_run(monkeypatch):
    """Side 2 of a band join meets only the pairs that hold, in ref order."""
    graph = load(json.dumps(r) for r in [
        {"type": "node", "id": n, "start": 0, "end": 0} for n in "abcdef"] + [
        {"type": "attr", "elem": f"node:{n}", "name": "w", "t": 0, "value": v}
        for n, v in zip("abcdef", (3.0, 1.0, 2.0, 4.0, 2.0, 0.5))])
    evaluated = []
    real = tasks._main_relation_detail

    def counting(relation, x, y, cfg):
        evaluated.append(str(y.ref_key))
        return real(relation, x, y, cfg)

    monkeypatch.setattr(tasks, "_main_relation_detail", counting)
    side1 = SeekSideValues("w", time_key=0, ref_key=node_ref("c"))
    side2 = SeekSideValues("w", time_key=0)
    within = RelationSpec(RelationFamily.VALUE, "within", (1.0,))
    got = relation_seek(graph, Config(), within, side1, side2)
    assert [str(p.rhs.ref_key) for p in got] == ["node:a", "node:b", "node:c", "node:e"]
    assert evaluated == ["node:a", "node:b", "node:c", "node:e"]


def test_only_within_reads_the_index():
    """The ordering relations and equality keep the loop and the hash join:
    no side-2 index is built for them."""
    graph = index_graph(0)
    side1 = SeekSideValues("w", time_key=0, ref_key=node_ref("n0"))
    side2 = SeekSideValues("w", time_key=0)
    for relation in VALUE_RELATIONS[:6]:
        relation_seek(graph, Config(), relation, side1, side2)
    assert sorted_indexes(graph) == []
    relation_seek(graph, Config(), VALUE_RELATIONS[-1], side1, side2)
    assert sorted_indexes(graph) == [("node", "w", True, 0)]


def test_a_wide_run_makes_each_binding_once(monkeypatch):
    """Where every value is within the tolerance of every side-1 value,
    each x meets every y in ref order, and side 2's Bindings are shared."""
    graph = index_graph(0)
    cfg = Config()
    wide = RelationSpec(RelationFamily.VALUE, "within", (math.inf,))
    side1, side2 = SeekSideValues("w", ref_key=node_ref("x")), SeekSideValues("w", time_key=0)
    got = relation_seek(graph, cfg, wide, side1, side2)
    assert got == reference_relation_seek(graph, cfg, wide, side1, side2)
    rhs = {}
    for pair in got:
        assert rhs.setdefault(pair.rhs.ref_key, pair.rhs) is pair.rhs
    assert len(got) > len(rhs) == len(graph.sorted_at("w", 0, cfg, ElemKind.NODE)[0])


@dataclass(frozen=True)
class ListedSide:
    """A seek side that lists the bindings it is given."""

    bindings: tuple

    def resolve_bindings(self, graph, cfg, space):
        return list(self.bindings)


def test_a_nan_on_side_one_pairs_with_nothing():
    """A NaN can bisect to a run of every value; each pair is still tested,
    so the join pairs it with nothing, as the loop does."""
    graph = index_graph(0)
    side2 = SeekSideValues("w", time_key=0)
    for payload in (math.nan, 2.0):
        side1 = ListedSide((tasks.Binding(0, node_ref("n0"), payload),))
        for relation in VALUE_RELATIONS:
            args = (graph, Config(), relation, side1, side2)
            assert outcome(relation_seek, *args) == outcome(reference_relation_seek, *args)


@pytest.mark.parametrize("v, d, y, holds", [
    (0.2, 0.7, 0.9, True),    # 0.2 + 0.7 < 0.9, yet abs(0.2 - 0.9) <= 0.7
    (2.0, 0.3, 1.7, False),   # 2.0 - 0.3 <= 1.7, yet abs(2.0 - 1.7) > 0.3
    (8.3, 0.3, 8.0, False),
])
def test_within_bisects_on_the_relations_own_test(v, d, y, holds):
    """Bounds v - d and v + d round otherwise than abs(v - y) <= d: the
    band join must pair exactly what the relation holds for."""
    graph = load(json.dumps(r) for r in [
        {"type": "node", "id": n, "start": 0, "end": 0} for n in "abc"] + [
        {"type": "attr", "elem": f"node:{n}", "name": "w", "t": 0, "value": value}
        for n, value in (("a", v), ("b", y), ("c", 2 * y + 10))])
    within = RelationSpec(RelationFamily.VALUE, "within", (d,))
    args = (graph, Config(), within, SeekSideValues("w", time_key=0, ref_key=node_ref("a")),
            SeekSideValues("w", time_key=0))
    got = relation_seek(*args)
    assert got == reference_relation_seek(*args)
    assert [str(p.rhs.ref_key) for p in got] == ["node:a"] + ["node:b"] * holds


def test_value_seek_budget_counts_side_two_values(monkeypatch):
    """With every side-2 element holding a value, a cap of that count
    answers and one less is SEARCH_SPACE_EXCEEDED with the count; with some
    holding none, a cap between the value and element counts fails at the
    element count, and caps around the pair count behave as the loop's."""
    records = [{"type": "node", "id": n, "start": 0, "end": 1 if n in "abc" else 0}
               for n in "abcde"]
    records += [{"type": "attr", "elem": f"node:{n}", "name": "w", "t": 0, "value": float(i)}
                for i, n in enumerate("abcde")]
    records += [{"type": "attr", "elem": f"node:{n}", "name": "w", "t": 1, "value": 1.0}
                for n in "abc"]
    graph = load(json.dumps(r) for r in records)
    within = RelationSpec(RelationFamily.VALUE, "within", (1.0,))
    one = SeekSideValues("w", time_key=0, ref_key=node_ref("b"))
    answered = relation_seek(graph, Config(search_max_candidates=5), within, one,
                             SeekSideValues("w", time_key=0))
    assert [str(p.rhs.ref_key) for p in answered] == ["node:a", "node:b", "node:c"]
    with pytest.raises(TgqError) as err:
        relation_seek(graph, Config(search_max_candidates=4), within, one,
                      SeekSideValues("w", time_key=0))
    assert (err.value.code, err.value.details) == ("SEARCH_SPACE_EXCEEDED", {"count": 5})
    # at t=1 three of five nodes exist and hold a value: n2 = 3, elements = 5
    free = SeekSideValues("w", ref_key=node_ref("b"))  # two side-1 bindings
    for side1 in (one, free):
        for cap in range(1, 12):
            args = (graph, Config(search_max_candidates=cap), within, side1,
                    SeekSideValues("w", time_key=1))
            got = seek_outcome(monkeypatch, relation_seek, *args)
            assert got == seek_outcome(monkeypatch, reference_relation_seek, *args), (side1, cap)
    counts = seek_outcome(monkeypatch, relation_seek, graph, Config(), within, free,
                          SeekSideValues("w", time_key=1))[1]
    assert counts == [(2, "relation seeking"), (5, "relation seeking"),
                      (3, "relation seeking"), (6, "relation seeking (pairs)")]


# ---------------------------------------------------------------------------
# Distributions over every node or edge: the index against the member reads
# ---------------------------------------------------------------------------


def reference_distribution(graph, cfg, members, t, attr):
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"distribution needs a numeric attribute, '{attr}' is not")
    graph.check_time(t)
    values = [v for v in (graph.column(m, attr, cfg)[t] for m in members) if v is not None]
    if not values:
        raise TgqError(
            EMPTY_SCOPE, f"no member has a value of '{attr}' at t={graph.label_of(t)}"
        )
    return patterns.classify_distribution(values, cfg)


@pytest.mark.parametrize("cfg_name", sorted(CFGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_whole_family_distribution_matches_the_member_reads(graphs, seed, cfg_name):
    graph, cfg = graphs[seed], CFGS[cfg_name]
    for kind in (ElemKind.NODE, ElemKind.EDGE):
        refs = graph.all_refs((kind,))
        for members in (tuple(refs), refs, refs[::-1], refs[1:], refs + refs[:1]):
            for attr in ("w", "u", "c", "nope"):
                for t in range(-1, graph.n_times + 1):
                    got = outcome(patterns.distribution, graph, cfg, members, t, attr)
                    want = outcome(reference_distribution, graph, cfg, members, t, attr)
                    assert got == want, (kind, members, attr, t)


def test_only_whole_families_read_the_index():
    graph, cfg = index_graph(3), Config()
    nodes, edges = graph.all_refs((ElemKind.NODE,)), graph.all_refs((ElemKind.EDGE,))
    for members in (nodes[:1], nodes[::-1], edges + nodes[:1], [object_ref("o")]):
        outcome(patterns.distribution, graph, cfg, members, 0, "w")
    assert sorted_indexes(graph) == []
    for members in (tuple(nodes), edges):
        outcome(patterns.distribution, graph, cfg, members, 0, "w")
    assert sorted_indexes(graph) == [("edge", "w", True, 0), ("node", "w", True, 0)]
