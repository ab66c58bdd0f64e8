"""Trend search against a class literal checked against classifying every window.

``reference_classify_trend`` is the trend rule as ``classify_trend`` wrote
it before the step-sign shape: monotone steps, then a single apex found
from the first and last position of the extremum. ``reference_shape`` is
the one-pass shape of a window's values that the run index of
``step_runs`` replaced. ``reference_pattern_search`` is the Q3 search loop
that classified every (element, window) job before scoring it. The
filtered search, and the windows it enumerates, must give the same
matches, raise the same errors and make the same budget checks.
"""

import json
import math
import random
from pathlib import Path

import pytest

from tgq import patterns
from tgq.config import Config
from tgq.dsl.planner import run_query
from tgq.errors import SEARCH_SPACE_EXCEEDED, TYPE_ERROR, VALIDATION_ERROR, TgqError
from tgq.graph import AttrKind, load, load_path, node_ref, object_ref
from tgq.patterns import (
    SHAPES,
    TrendClass,
    TrendLiteral,
    TrendPattern,
    _ls_slope,
    classify_trend,
    match_score,
    shaped_window_trends,
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
from tgq.tasks import Binding, Quadrant, pattern_search

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


def reference_pattern_search(graph, cfg, target, attr, space, fixed_element=None,
                             fixed_interval=None, threshold=None):
    thr = cfg.similarity_threshold if threshold is None else threshold
    elements = [fixed_element] if fixed_element else element_candidates(graph, space.subset_family)
    windows = time_windows(graph, fixed_interval, space.window_min_len)
    check_budget(len(elements) * len(windows), cfg, "pattern search")
    matches = []
    for el in elements:
        for window in windows:
            candidate = reference_trend(graph, cfg, el, window, attr)
            score, _ = match_score(target, candidate, cfg)
            if score >= thr:
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
                    got = outcome(search, graph, cfg, target, "w", space,
                                  fixed_element=el, threshold=thr)
                    want = outcome(reference_pattern_search, graph, cfg, target, "w", space,
                                   fixed_element=el, threshold=thr)
                    assert got == want, (cls, min_len, el, thr)


@pytest.mark.parametrize("seed", SEEDS)
def test_fixed_interval_matches_reference(graphs, seed):
    graph, cfg = graphs[seed], Config()
    interval = graph.full_interval()
    for cls in TrendClass:
        got = search(graph, cfg, TrendLiteral(cls), "w", SearchSpace(), fixed_interval=interval)
        assert got == reference_pattern_search(graph, cfg, TrendLiteral(cls), "w", SearchSpace(),
                                               fixed_interval=interval)


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
    search(graph, Config(), target, "w", SearchSpace(), fixed_element=node_ref("x"))
    assert [(s[0][0], s[-1][0]) for s in calls] == [
        (w.start, w.end) for w in time_windows(graph, None, 1) if w.contains(1)]
    calls.clear()
    found = search(graph, Config(), target, "w", SearchSpace(), fixed_element=node_ref("y"))
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
    got = search(graph, Config(), target, "w", SearchSpace(), fixed_interval=graph.full_interval())
    assert [m.payload.cls for m in got] == [TrendClass.INCREASING]
    assert got == reference_pattern_search(graph, Config(), target, "w", SearchSpace(),
                                           fixed_interval=graph.full_interval())


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
                          fixed_element=el)
            assert got == outcome(reference_pattern_search, graph, Config(), TrendLiteral(cls),
                                  attr, SearchSpace(), fixed_element=el)
            assert got[:2] == ("error", code)


def test_no_jobs_raise_nothing(graphs):
    for graph in graphs[:5]:
        too_long = SearchSpace(window_min_len=graph.n_times + 1)
        for attr in ("nope", "c", "w"):
            for el in (None, node_ref("zz")):
                assert search(graph, Config(), TrendLiteral(TrendClass.PEAK), attr, too_long,
                              fixed_element=el) == []


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
                    got = outcome(search, graph, cfg, target, "w", space, fixed_element=el)
                    assert got == outcome(reference_pattern_search, graph, cfg, target, "w",
                                          space, fixed_element=el)
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
    or a value beyond 2**500, in ``time_windows`` order."""
    out = []
    for s in range(len(column)):
        for e in range(s + min_len - 1, len(column)):
            ys = [y for y in column[s:e + 1] if y is not None]
            if reference_shape(ys) in classes or any(abs(y) > 2.0 ** 500 for y in ys):
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
    class_sets = [{cls} for cls in SHAPES] + [set(SHAPES), {TrendClass.PEAK, TrendClass.TROUGH}]
    for i, column in enumerate(columns):
        column = column + (None,) * (graph.n_times - len(column))
        ref = node_ref(f"v{i}")
        for min_len in (1, 2, 3, 5):
            windows = time_windows(graph, None, min_len)
            for classes in class_sets:
                got = shaped_window_trends(graph, cfg, ref, "w", classes, min_len)
                assert [(w.start, w.end) for w, _ in got] == reference_filter(
                    column, classes, min_len)
                assert got == [(w, p) for w, p in window_trends(
                    graph, cfg, ref, windows, "w", classes) if p is not None]
    for cls in TrendClass:
        for min_len in (1, 2, 3, 5):
            space = SearchSpace(window_min_len=min_len)
            for ref in (node_ref("v0"), node_ref("v1")):
                got = search(graph, cfg, TrendLiteral(cls), "w", space, fixed_element=ref)
                assert got == reference_pattern_search(graph, cfg, TrendLiteral(cls), "w", space,
                                                       fixed_element=ref)
