"""Trend search against a class literal checked against classifying every window.

``reference_classify_trend`` is the trend rule as ``classify_trend`` wrote
it before the step-sign shape: monotone steps, then a single apex found
from the first and last position of the extremum. ``reference_shape`` is
the one-pass shape of a window's values that the run index of
``step_runs`` replaced. ``reference_pattern_search`` is the Q3 search loop
that classified every (element, window) job before scoring it, and
``reference_window_scan`` the loop that tested one window of every node or
edge before the per-start index. The filtered search, and the windows it
enumerates, must give the same matches, raise the same errors and make the
same budget checks.
"""

import json
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

from tgq import patterns, tasks
from tgq.config import Config
from tgq.dsl.planner import run_query
from tgq.errors import SEARCH_SPACE_EXCEEDED, TYPE_ERROR, VALIDATION_ERROR, TgqError
from tgq.graph import AttrKind, ElemKind, TimeInterval, load, load_path, node_ref, object_ref
from tgq.patterns import (
    SHAPES,
    TrendClass,
    TrendLiteral,
    TrendPattern,
    _ls_slope,
    classify_trend,
    match_score,
    shaped_window_trends,
    start_index,
    step_runs,
    window_trends,
)
from tgq.search import (
    SearchSpace,
    SubsetFamily,
    check_budget,
    element_candidates,
    time_windows,
)
from tgq.tasks import Binding, Quadrant, _scopes, pattern_search

from randsuite import random_graph

CORPUS_GRAPH = Path(__file__).parent / "data" / "corpus_graph.jsonl"

SEEDS = range(30)
CFGS = {"carry": Config(), "no_carry": Config(carry_forward_default=False)}
THRESHOLDS = (0.0, 0.5, None, 1.0)
# Extreme values that take classify_trend's scaled path, where the tiny ones
# collapse to ties; and the vector on which the scaled class is not the shape.
EXTREMES = (-1e308, 1e308, -5e307, 0.0, 1e-300, 2e-300, 3e-300)
SCALED_NOT_SHAPE = [-1e308, 3e-300, 2e-300, 0.0, 1e-300]


# ---------------------------------------------------------------------------
# Reference: the old rule and the unfiltered loop
# ---------------------------------------------------------------------------


def reference_classify_trend(samples, cfg):
    if len(samples) < 2:
        return TrendPattern(TrendClass.DEGENERATE)
    xs = [float(x) for x, _ in samples]
    ys = [float(y) for _, y in samples]
    lo, hi = min(ys), max(ys)
    value_range = hi - lo
    slope = _ls_slope(xs, ys)
    if not (math.isfinite(value_range) and math.isfinite(slope)):
        scale = max(abs(lo), abs(hi))
        ys = [y / scale for y in ys]
        lo, hi = lo / scale, hi / scale
        value_range = hi - lo
        slope = _ls_slope(xs, ys)
    norm_slope = slope / value_range if value_range > 0 else 0.0
    if value_range == 0.0:
        return TrendPattern(TrendClass.CONSTANT, 0.0)
    if abs(slope) <= cfg.slope_epsilon * value_range:
        return TrendPattern(TrendClass.CONSTANT, norm_slope)
    diffs = [ys[i + 1] - ys[i] for i in range(len(ys) - 1)]
    if all(d >= 0 for d in diffs):
        return TrendPattern(TrendClass.INCREASING, norm_slope)
    if all(d <= 0 for d in diffs):
        return TrendPattern(TrendClass.DECREASING, norm_slope)
    for extremum, cls in ((hi, TrendClass.PEAK), (lo, TrendClass.TROUGH)):
        first = ys.index(extremum)
        last = len(ys) - 1 - ys[::-1].index(extremum)
        if not (0 < first and last < len(ys) - 1):
            continue
        if any(v != extremum for v in ys[first:last + 1]):
            continue
        rising = cls == TrendClass.PEAK
        before_ok = all(d >= 0 for d in diffs[:first]) if rising else all(d <= 0 for d in diffs[:first])
        after_ok = all(d <= 0 for d in diffs[last:]) if rising else all(d >= 0 for d in diffs[last:])
        if before_ok and after_ok:
            pos = (xs[first] - xs[0]) / (xs[-1] - xs[0])
            return TrendPattern(cls, norm_slope, pos)
    return TrendPattern(TrendClass.FLUCTUATING, norm_slope)


def reference_shape(ys) -> TrendClass:
    """The class that the signs of the steps of ``ys`` give, ties skipped:
    only rises INCREASING, only falls DECREASING, rises then falls PEAK,
    falls then rises TROUGH, more sign changes FLUCTUATING, and CONSTANT
    when there is no rise or fall. One pass, ending at the second change."""
    steps = iter(ys)
    prev = next(steps, None)
    first = rising = None
    for y in steps:
        if y != prev:
            up = y > prev
            if rising is None:
                first = rising = up
            elif up is not rising:
                if rising is not first:
                    return TrendClass.FLUCTUATING
                rising = up
            prev = y
    if first is None:
        return TrendClass.CONSTANT
    if rising is first:
        return TrendClass.INCREASING if first else TrendClass.DECREASING
    return TrendClass.PEAK if first else TrendClass.TROUGH


def reference_trend(graph, cfg, ref, interval, attr):
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"trend needs a numeric attribute, '{attr}' is not")
    column = graph.column(ref, attr, cfg)
    samples = [(t, column[t]) for t in interval.indices() if column[t] is not None]
    return reference_classify_trend(samples, cfg)


def reference_pattern_search(graph, cfg, target, attr, space, ref_key=None, time_key=None):
    elements = [ref_key] if ref_key is not None else element_candidates(graph, space.subset_family)
    windows = time_windows(graph, time_key, space.window_min_len)
    check_budget(len(elements) * len(windows), cfg, "pattern search")
    matches = []
    for el in elements:
        for window in windows:
            candidate = reference_trend(graph, cfg, el, window, attr)
            score, _ = match_score(target, candidate, cfg)
            if score >= cfg.similarity_threshold:
                matches.append(Binding(window, el, candidate, score))
    matches.sort(key=lambda m: (-m.score, *m.sort_key()))
    return matches


def search(graph, cfg, target, attr, space, **kwargs):
    return pattern_search(graph, cfg, target, Quadrant.Q3_TREND_OF_G, attr, space, **kwargs)


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the code, message and details of its error."""
    try:
        return repr(fn(*args, **kwargs))
    except TgqError as err:
        return ("error", err.code, err.message, err.details)


# ---------------------------------------------------------------------------
# Graphs: randsuite tables plus an object, a categorical attribute and a node
# holding extreme values
# ---------------------------------------------------------------------------


def filter_graph(seed: int):
    raw = random_graph(seed)
    rng = random.Random(2000 + seed)
    records = []
    for name, spans in raw.node_spans.items():
        for s, e in spans:
            # one record per point keeps every time label in the domain
            records += [{"type": "node", "id": name, "start": t, "end": t} for t in range(s, e + 1)]
    for edge_id, src, dst, start, end in raw.edge_rows:
        records.append({"type": "edge", "id": edge_id, "src": src, "dst": dst,
                        "start": start, "end": end})
    for elem, attr, t, value in raw.attr_rows:
        records.append({"type": "attr", "elem": f"node:{elem}", "name": attr, "t": t, "value": value})
    last = raw.n_times - 1
    records.append({"type": "node", "id": "x", "start": 0, "end": last})
    for t in range(raw.n_times):
        records.append({"type": "attr", "elem": "node:x", "name": "w", "t": t,
                        "value": rng.choice(EXTREMES)})
    records.append({"type": "attr", "elem": "node:n0", "name": "c", "t": 0, "value": "hi"})
    records.append({"type": "object", "id": "o", "nodes": sorted(raw.node_spans)[:2]})
    return load(json.dumps(r) for r in records)


@pytest.fixture(scope="module")
def graphs():
    return [filter_graph(seed) for seed in SEEDS]


# ---------------------------------------------------------------------------
# The shape rule
# ---------------------------------------------------------------------------


def _series(values):
    return [(i, v) for i, v in enumerate(values)]


def test_classify_matches_reference_on_tie_heavy_sequences():
    rng = random.Random(7)
    for cfg in (Config(), Config(slope_epsilon=0.0)):
        for _ in range(10000):
            ys = [float(rng.randint(0, 3)) for _ in range(rng.randint(0, 9))]
            assert classify_trend(_series(ys), cfg) == reference_classify_trend(_series(ys), cfg), ys


def test_classify_matches_reference_on_the_scaled_path():
    rng = random.Random(11)
    cfg = Config()
    scaled = 0
    for _ in range(10000):
        ys = [rng.choice(EXTREMES) for _ in range(rng.randint(2, 9))]
        got = classify_trend(_series(ys), cfg)
        assert got == reference_classify_trend(_series(ys), cfg), ys
        scaled += max(ys) - min(ys) == math.inf
    assert scaled > 500


def test_scaled_class_can_differ_from_the_shape():
    p = classify_trend(_series(SCALED_NOT_SHAPE), Config())
    assert p == reference_classify_trend(_series(SCALED_NOT_SHAPE), Config())
    assert p.cls == TrendClass.INCREASING
    assert reference_shape(SCALED_NOT_SHAPE) == TrendClass.FLUCTUATING


def test_shape_is_the_class_whenever_not_constant():
    rng = random.Random(5)
    cfg = Config(slope_epsilon=0.0)
    for _ in range(10000):
        ys = [float(rng.randint(-2, 2)) for _ in range(rng.randint(2, 9))]
        cls = classify_trend(_series(ys), cfg).cls
        assert cls in (TrendClass.CONSTANT, reference_shape(ys)), ys


@pytest.mark.parametrize("ys, cls", [
    ([], TrendClass.CONSTANT),
    ([1.0], TrendClass.CONSTANT),
    ([2.0, 2.0], TrendClass.CONSTANT),
    ([1.0, 1.0, 2.0, 2.0], TrendClass.INCREASING),
    ([3.0, 2.0, 2.0], TrendClass.DECREASING),
    ([1.0, 3.0, 3.0, 2.0], TrendClass.PEAK),
    ([3.0, 1.0, 1.0, 2.0, 2.0], TrendClass.TROUGH),
    ([1.0, 2.0, 1.0, 2.0], TrendClass.FLUCTUATING),
    ([2.0, 1.0, 2.0, 1.0, 1.0], TrendClass.FLUCTUATING),
])
def test_shape_table(ys, cls):
    assert reference_shape(ys) == cls
    assert step_runs(ys).shape(0, max(len(ys) - 1, 0)) == cls


# ---------------------------------------------------------------------------
# The filtered search against the unfiltered loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg_name", sorted(CFGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_search_matches_reference(graphs, seed, cfg_name):
    graph, cfg = graphs[seed], CFGS[cfg_name]
    fixed = (None, node_ref("x"), object_ref("o"))  # EACH_NODE, one node, an object
    for cls in TrendClass:
        target = TrendLiteral(cls)
        for min_len in (1, 3, 9):
            space = SearchSpace(subset_family=SubsetFamily.EACH_NODE, window_min_len=min_len)
            for el in fixed:
                for thr in THRESHOLDS:
                    at = cfg if thr is None else cfg.replace(similarity_threshold=thr)
                    got = outcome(search, graph, at, target, "w", space, ref_key=el)
                    want = outcome(reference_pattern_search, graph, at, target, "w", space,
                                   ref_key=el)
                    assert got == want, (cls, min_len, el, thr)


@pytest.mark.parametrize("seed", SEEDS)
def test_fixed_interval_matches_reference(graphs, seed):
    graph, cfg = graphs[seed], Config()
    interval = graph.full_interval()
    for cls in TrendClass:
        got = search(graph, cfg, TrendLiteral(cls), "w", SearchSpace(), time_key=interval)
        assert got == reference_pattern_search(graph, cfg, TrendLiteral(cls), "w", SearchSpace(),
                                               time_key=interval)


def test_extreme_windows_are_classified_in_full(monkeypatch):
    # A window of node x holding its value 1e308 may be classified scaled,
    # so each one is classified; node y, the same steps at an ordinary
    # scale, has only its PEAK-shaped windows classified.
    records = [{"type": "node", "id": n, "start": 0, "end": 4} for n in "xy"]
    for t, v in enumerate([1.0, 3.0, 2.0, 2.0, 0.0]):
        records.append({"type": "attr", "elem": "node:x", "name": "w", "t": t,
                        "value": 1e308 if t == 1 else v})
        records.append({"type": "attr", "elem": "node:y", "name": "w", "t": t, "value": v})
    graph = load(json.dumps(r) for r in records)
    calls = []
    real = patterns.classify_trend

    def counting(samples, cfg):
        calls.append(samples)
        return real(samples, cfg)

    monkeypatch.setattr(patterns, "classify_trend", counting)
    target = TrendLiteral(TrendClass.PEAK)
    search(graph, Config(), target, "w", SearchSpace(), ref_key=node_ref("x"))
    assert [(s[0][0], s[-1][0]) for s in calls] == [
        (w.start, w.end) for w in time_windows(graph, None, 1) if w.start <= 1 <= w.end]
    calls.clear()
    found = search(graph, Config(), target, "w", SearchSpace(), ref_key=node_ref("y"))
    assert [(s[0][0], s[-1][0]) for s in calls] == [(0, 2), (0, 3), (0, 4)]
    assert [(m.time_key.start, m.time_key.end) for m in found] == [(0, 2), (0, 3), (0, 4)]


def test_filter_finds_scaled_match():
    # The scaled class INCREASING is not the shape of the raw values; the
    # window must still be found.
    records = [{"type": "node", "id": "a", "start": 0, "end": 4}]
    records += [{"type": "attr", "elem": "node:a", "name": "w", "t": t, "value": v}
                for t, v in enumerate(SCALED_NOT_SHAPE)]
    graph = load(json.dumps(r) for r in records)
    target = TrendLiteral(TrendClass.INCREASING)
    got = search(graph, Config(), target, "w", SearchSpace(), time_key=graph.full_interval())
    assert [m.payload.cls for m in got] == [TrendClass.INCREASING]
    assert got == reference_pattern_search(graph, Config(), target, "w", SearchSpace(),
                                           time_key=graph.full_interval())


# ---------------------------------------------------------------------------
# Errors and budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("attr, el, code", [
    ("nope", None, VALIDATION_ERROR),
    ("nope", node_ref("zz"), VALIDATION_ERROR),
    ("c", None, TYPE_ERROR),
    ("c", node_ref("zz"), TYPE_ERROR),
    ("w", node_ref("zz"), VALIDATION_ERROR),
    ("w", object_ref("zz"), VALIDATION_ERROR),
])
def test_errors_match_reference(graphs, attr, el, code):
    for graph in graphs[:5]:
        for cls in (TrendClass.PEAK, TrendClass.CONSTANT):
            got = outcome(search, graph, Config(), TrendLiteral(cls), attr, SearchSpace(),
                          ref_key=el)
            assert got == outcome(reference_pattern_search, graph, Config(), TrendLiteral(cls),
                                  attr, SearchSpace(), ref_key=el)
            assert got[:2] == ("error", code)


def test_no_jobs_raise_nothing(graphs):
    for graph in graphs[:5]:
        too_long = SearchSpace(window_min_len=graph.n_times + 1)
        for attr in ("nope", "c", "w"):
            for el in (None, node_ref("zz")):
                assert search(graph, Config(), TrendLiteral(TrendClass.PEAK), attr, too_long,
                              ref_key=el) == []


def test_cap_sweep_errors_identical(graphs):
    exceeded = 0
    target = TrendLiteral(TrendClass.PEAK)
    for graph in graphs[:10]:
        for min_len in (1, 3):
            space = SearchSpace(window_min_len=min_len)
            n_windows = len(time_windows(graph, None, min_len))
            counts = (n_windows, n_windows * len(element_candidates(graph, SubsetFamily.EACH_NODE)))
            for cap in sorted({1} | {c + d for c in counts for d in (-1, 0, 1) if c + d > 0}):
                cfg = Config(search_max_candidates=cap)
                for el in (None, node_ref("n0")):
                    got = outcome(search, graph, cfg, target, "w", space, ref_key=el)
                    assert got == outcome(reference_pattern_search, graph, cfg, target, "w",
                                          space, ref_key=el)
                    exceeded += got[:2] == ("error", SEARCH_SPACE_EXCEEDED)
    assert exceeded > 0


def test_budget_edges_pinned():
    # 6 nodes × 21 windows of 3 or more of the corpus graph's 8 time points
    graph = load_path(str(CORPUS_GRAPH))
    query = "SEARCH PEAK ON w OVER EACH_NODE WINDOWS 3"
    assert run_query(query, graph, Config(search_max_candidates=126))["bindings"]
    with pytest.raises(TgqError) as err:
        run_query(query, graph, Config(search_max_candidates=125))
    assert (err.value.code, err.value.details) == (SEARCH_SPACE_EXCEEDED, {"count": 126})
    assert run_query("SEARCH PEAK ON kind OF node:a WINDOWS 100", graph, Config())["bindings"] == []
    with pytest.raises(TgqError) as err:
        run_query("SEARCH PEAK ON kind OF node:a", graph, Config())
    assert err.value.code == TYPE_ERROR


# ---------------------------------------------------------------------------
# The run index against the per-window shape
# ---------------------------------------------------------------------------

COLUMN_VALUES = (None, None, 0.0, 1.0, 2.0, 2.0, 3.0, -1e308, 1e308)


def random_columns(seed, count, longest=12):
    rng = random.Random(seed)
    return [tuple(rng.choice(COLUMN_VALUES) for _ in range(rng.randint(1, longest)))
            for _ in range(count)]


def reference_filter(column, classes, min_len):
    """The windows the per-window filter classifies: shape among ``classes``
    or, if there is a class, a value beyond 2**500, in ``time_windows``
    order."""
    out = []
    for s in range(len(column)):
        for e in range(s + min_len - 1, len(column)):
            ys = [y for y in column[s:e + 1] if y is not None]
            if classes and (reference_shape(ys) in classes
                            or any(abs(y) > 2.0 ** 500 for y in ys)):
                out.append((s, e))
    return out


def test_run_index_shape_matches_reference_on_every_window():
    for column in random_columns(3, 400):
        runs = step_runs(column)
        for s in range(len(column)):
            for e in range(s, len(column)):
                ys = [y for y in column[s:e + 1] if y is not None]
                assert runs.shape(s, e) == reference_shape(ys), (column, s, e)
                assert (runs.first_extreme(s) <= e) == any(abs(y) > 2.0 ** 500 for y in ys)


def test_enumerated_windows_match_the_per_window_filter():
    columns = random_columns(4, 40)
    records = []
    for i, column in enumerate(columns):
        records.append({"type": "node", "id": f"v{i}", "start": 0, "end": 11})
        records += [{"type": "attr", "elem": f"node:v{i}", "name": "w", "t": t, "value": y}
                    for t, y in enumerate(column) if y is not None]
    graph = load(json.dumps(r) for r in records)
    cfg = Config(carry_forward_default=False)
    class_sets = [{cls} for cls in SHAPES] + [set(SHAPES), {TrendClass.PEAK, TrendClass.TROUGH},
                                              set()]
    for i, column in enumerate(columns):
        column = column + (None,) * (graph.n_times - len(column))
        ref = node_ref(f"v{i}")
        for min_len in (1, 2, 3, 5):
            windows = time_windows(graph, None, min_len)
            for classes in class_sets:
                got = shaped_window_trends(graph, cfg, ref, "w", classes, min_len)
                listed = reference_filter(column, classes, min_len)
                assert [(w.start, w.end) for w, _ in got] == listed
                assert got == [(w, p) for w, p in window_trends(graph, cfg, ref, windows, "w")
                               if (w.start, w.end) in listed]
    for cls in TrendClass:
        for min_len in (1, 2, 3, 5):
            space = SearchSpace(window_min_len=min_len)
            for ref in (node_ref("v0"), node_ref("v1")):
                got = search(graph, cfg, TrendLiteral(cls), "w", space, ref_key=ref)
                assert got == reference_pattern_search(graph, cfg, TrendLiteral(cls), "w", space,
                                                       ref_key=ref)


# ---------------------------------------------------------------------------
# One window over every node or edge, from the per-start index
# ---------------------------------------------------------------------------

N_TIMES = 12
CLASS_SUBSETS = [set(c) for r in range(len(SHAPES) + 1) for c in combinations(sorted(SHAPES), r)]
FAMILIES = {SubsetFamily.EACH_NODE: ElemKind.NODE, SubsetFamily.EACH_EDGE: ElemKind.EDGE}


def index_graph(seed: int):
    """Nodes v0..v11 (v4..v11 may have an existence gap) and edges e0..e11
    among v0..v3, each with a random column of ``w`` (gaps, ties, and for
    about a third of them ±1e308) where it is alive; v0 and e0 also hold a
    categorical ``c``."""
    rng = random.Random(seed)
    records, spans = [], {}
    for i in range(12):
        spans[f"node:v{i}"] = [(0, N_TIMES - 1)]
        if i >= 4 and rng.random() < 0.5:
            a = rng.randrange(N_TIMES - 2)
            spans[f"node:v{i}"] = [(0, a), (rng.randrange(a + 2, N_TIMES), N_TIMES - 1)]
        records += [{"type": "node", "id": f"v{i}", "start": s, "end": e}
                    for s, e in spans[f"node:v{i}"]]
    for i in range(12):
        src, dst = rng.sample(range(4), 2)
        records.append({"type": "edge", "id": f"e{i}", "src": f"v{src}", "dst": f"v{dst}",
                        "start": 0, "end": N_TIMES - 1})
        spans[f"edge:e{i}"] = [(0, N_TIMES - 1)]
    for elem, alive in spans.items():
        values = COLUMN_VALUES if rng.random() < 0.3 else COLUMN_VALUES[:-2]
        for s, e in alive:
            for t in range(s, e + 1):
                y = rng.choice(values)
                if y is not None:
                    records.append({"type": "attr", "elem": elem, "name": "w", "t": t, "value": y})
    records += [{"type": "attr", "elem": elem, "name": "c", "t": 0, "value": "hi"}
                for elem in ("node:v0", "edge:e0")]
    return load(json.dumps(r) for r in records)


def reference_window_scan(graph, cfg, elements, attr, window, classes):
    """The fixed-window loop the per-start index replaced: each element's
    window, classified where a class is sought and its shape is one of
    ``classes`` or it holds a value beyond 2**500."""
    if not elements:
        return []
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"trend needs a numeric attribute, '{attr}' is not")
    out = []
    for el in elements:
        column = graph.column(el, attr, cfg)
        graph.check_time(window.start, window.end)
        ys = [column[t] for t in window.indices() if column[t] is not None]
        if classes and (reference_shape(ys) in classes or any(abs(y) > 2.0 ** 500 for y in ys)):
            out.append((el, window, reference_trend(graph, cfg, el, window, attr)))
    return out


def window_scan(graph, cfg, family, attr, window, classes, ref_key=None):
    return list(_scopes(graph, cfg, "pattern search", Quadrant.Q3_TREND_OF_G, attr,
                        SearchSpace(subset_family=family), ref_key=ref_key,
                        time_key=window, classes=classes))


def reference_sign_changes(ys) -> int:
    rising = [b > a for a, b in zip(ys, ys[1:]) if a != b]
    return sum(x != y for x, y in zip(rising, rising[1:]))


@pytest.fixture(scope="module")
def index_graphs():
    return [index_graph(seed) for seed in range(3)]


@pytest.mark.parametrize("cfg_name", sorted(CFGS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_start_index_bounds_the_sign_changes(index_graphs, cfg_name, family):
    cfg = CFGS[cfg_name]
    for graph in index_graphs:
        columns = [graph.column(el, "w", cfg) for el in element_candidates(graph, family)]
        for s in range(N_TIMES):
            for j in (0, 1):
                ms, order = graph.family_index(FAMILIES[family], "w", cfg, start_index, s, j)
                assert list(ms) == sorted(ms) and sorted(order) == list(range(len(columns)))
                # an element holding a value beyond 2**500 from s on is never ruled out
                extreme = {i for i, col in enumerate(columns)
                           if any(y is not None and abs(y) > 2.0 ** 500 for y in col[s:])}
                for e in range(s, N_TIMES):
                    few = {i for i, col in enumerate(columns) if reference_sign_changes(
                        [y for y in col[s:e + 1] if y is not None]) <= j}
                    assert {pos for m, pos in zip(ms, order) if m > e} == few | extreme, (s, e, j)


def test_family_index_cache_keys_every_input(index_graphs):
    # Cached per (kind, attr, carry flag, build, args): a change in any one
    # builds anew, and the same inputs read the first build.
    graph = index_graphs[0]
    builds = []

    def first(graph, kind, attr, cfg, *args):
        builds.append(("first", kind, attr, cfg.carries_forward(attr), args))
        return len(builds)

    def second(graph, kind, attr, cfg, *args):
        builds.append(("second", kind, attr, cfg.carries_forward(attr), args))
        return len(builds)

    jobs = [(kind, attr, cfg, build, args) for kind in FAMILIES.values() for attr in ("w", "c")
            for cfg in CFGS.values() for build in (first, second) for args in ((0, 0), (0, 1))]
    got = [graph.family_index(kind, attr, cfg, build, *args)
           for kind, attr, cfg, build, args in jobs + jobs]
    assert got == list(range(1, len(jobs) + 1)) * 2
    assert len(set(builds)) == len(jobs)


@pytest.mark.parametrize("cfg_name", sorted(CFGS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_window_scan_matches_reference(monkeypatch, index_graphs, cfg_name, family):
    # Every subset of SHAPES, the empty one included, on random windows, over
    # the family and over each of its elements: the same trends, and
    # classify_trend called for exactly the listed windows.
    cfg = CFGS[cfg_name]
    calls = []
    real = patterns.classify_trend

    def counting(samples, cfg):
        calls.append(samples)
        return real(samples, cfg)

    monkeypatch.setattr(patterns, "classify_trend", counting)
    rng = random.Random(17)
    for graph in index_graphs:
        elements = element_candidates(graph, family)
        for classes in CLASS_SUBSETS:
            for window in rng.sample(time_windows(graph), 8):
                for el in [None] + elements:
                    calls.clear()
                    want = reference_window_scan(graph, cfg, [el] if el else elements, "w",
                                                 window, classes)
                    assert window_scan(graph, cfg, family, "w", window, classes, el) == want
                    assert len(calls) == len(want)


def test_empty_class_set_reads_no_element(monkeypatch, index_graphs):
    graph = index_graphs[0]
    reads = []
    for name in ("column", "column_index", "family_index"):
        monkeypatch.setattr(graph, name, lambda *args, name=name: reads.append(name))
    for family in FAMILIES:
        assert window_scan(graph, Config(), family, "w", TimeInterval(0, 11), set()) == []
    assert reads == []


def test_window_scan_errors_match_reference(index_graphs):
    no_edges = load(json.dumps(r) for r in [
        {"type": "node", "id": "a", "start": 0, "end": 3},
        {"type": "attr", "elem": "node:a", "name": "c", "t": 0, "value": "hi"},
        {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0}])
    cases = [(graph, family, attr, window) for graph in (index_graphs[0], no_edges)
             for family in FAMILIES for attr in ("w", "c", "nope")
             for window in (TimeInterval(0, 3), TimeInterval(2, 40))]
    codes = set()
    for graph, family, attr, window in cases:
        for classes in (set(), {TrendClass.PEAK}, {TrendClass.FLUCTUATING}):
            got = outcome(window_scan, graph, Config(), family, attr, window, classes)
            assert got == outcome(reference_window_scan, graph, Config(),
                                  element_candidates(graph, family), attr, window, classes)
            codes.add(got[1] if got[0] == "error" else None)
    assert codes == {TYPE_ERROR, VALIDATION_ERROR, None}


@pytest.mark.parametrize("family", ["EACH_NODE", "EACH_EDGE"])
def test_window_scan_budget_edge(family):
    graph = load_path(str(CORPUS_GRAPH))
    size = len(graph.nodes if family == "EACH_NODE" else graph.edges)
    query = f"SEARCH PEAK ON w OVER {family} DURING [0, 7]"
    assert "bindings" in run_query(query, graph, Config(search_max_candidates=size))
    with pytest.raises(TgqError) as err:
        run_query(query, graph, Config(search_max_candidates=size - 1))
    assert (err.value.code, err.value.details) == (SEARCH_SPACE_EXCEEDED, {"count": size})


@pytest.mark.parametrize("node, t2, scopes", [
    ("d", " AND T2 = [0, 7]", 6),  # CONSTANT: no class can be opposite
    ("f", " AND T2 = [0, 7]", 6),  # TROUGH against PEAK
    ("f", "", 6 * 36),  # every window of every node
])
def test_seek_budget_counts_every_scope(monkeypatch, node, t2, scopes):
    # Side 2 lists only the windows that can pair; the budget checks see
    # every (element, window) scope, as when each was a binding.
    graph = load_path(str(CORPUS_GRAPH))
    seen = []
    real = tasks.check_budget
    monkeypatch.setattr(tasks, "check_budget",
                        lambda count, cfg, what: seen.append((what, count)) or real(count, cfg, what))
    run_query(f"SEEK g2 WHERE TREND(w, g1) OPPOSITE TREND(w, g2) AND g1 = node:{node} "
              f"AND T1 = [0, 7]{t2}", graph, Config())
    assert seen == [("relation seeking", 1), ("relation seeking", scopes),
                    ("relation seeking", scopes), ("relation seeking (pairs)", scopes)]
