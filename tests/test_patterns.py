"""Behaviour classification and the approximate-match relation."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgq.config import Config
from tgq.errors import EMPTY_SCOPE, KIND_MISMATCH, TYPE_ERROR, TgqError
from tgq.graph import TimeInterval, load, node_ref
from tgq.patterns import (
    AspectAxis,
    DistClass,
    TrendClass,
    aspectual,
    classify_distribution,
    classify_trend,
    distribution,
    histogram_similarity,
    match_score,
    trend,
)

from conftest import jl


def series(values):
    return [(i, v) for i, v in enumerate(values)]


class TestTrend:
    def test_monotone_up(self, cfg):
        assert classify_trend(series([1, 2, 3, 4]), cfg).cls == TrendClass.INCREASING

    def test_monotone_down(self, cfg):
        assert classify_trend(series([4, 2, 1]), cfg).cls == TrendClass.DECREASING

    def test_constant(self, cfg):
        p = classify_trend(series([5, 5, 5]), cfg)
        assert p.cls == TrendClass.CONSTANT
        assert p.slope == 0.0

    def test_degenerate(self, cfg):
        assert classify_trend(series([3.0]), cfg).cls == TrendClass.DEGENERATE
        assert classify_trend([], cfg).cls == TrendClass.DEGENERATE

    def test_peak_from_rule_table(self, cfg):
        # Oracle: hand application of the class rules to every length-3
        # shape over values {1, 2, 4}: order statistics decide the class.
        p = classify_trend(series([1, 4, 2]), cfg)
        assert p.cls == TrendClass.PEAK
        assert p.extremum_pos == 0.5

    def test_length3_shape_table(self, cfg):
        # All strict orderings of three distinct values, classified by hand:
        table = [
            ([1, 2, 4], TrendClass.INCREASING),
            ([1, 4, 2], TrendClass.PEAK),
            ([2, 1, 4], TrendClass.TROUGH),
            ([2, 4, 1], TrendClass.PEAK),
            ([4, 1, 2], TrendClass.TROUGH),
            ([4, 2, 1], TrendClass.DECREASING),
        ]
        for values, expected in table:
            assert classify_trend(series(values), cfg).cls == expected, values

    def test_revisited_extremum_is_fluctuating(self, cfg):
        # Non-monotone, no single apex, and enough drift to clear the
        # constant band.
        assert classify_trend(series([0, 10, 5, 20]), cfg).cls == TrendClass.FLUCTUATING

    def test_zero_drift_zigzag_is_constant(self, cfg):
        # The constant rule fires first: a symmetric swing has LS slope 0.
        assert classify_trend(series([1, 5, 2, 5, 1]), cfg).cls == TrendClass.CONSTANT

    def test_plateau_peak(self, cfg):
        p = classify_trend(series([1, 3, 3, 0]), cfg)
        assert p.cls == TrendClass.PEAK
        assert p.extremum_pos == pytest.approx(1 / 3)

    def test_near_flat_is_constant(self, cfg):
        assert classify_trend(series([10, 10.1, 9.9, 10.05, 10]), cfg).cls == TrendClass.CONSTANT

    @given(
        st.lists(st.integers(-1000, 1000).map(float), min_size=2, max_size=30),
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        st.integers(-1000, 1000).map(float),
    )
    @settings(max_examples=300)
    def test_affine_invariance(self, values, alpha, beta):
        from hypothesis import assume

        cfg = Config()
        base = classify_trend(series(values), cfg)
        # Stay off the constant-band decision boundary, where float rounding
        # of the translated mean could legitimately tip the comparison.
        assume(abs(abs(base.slope) - cfg.slope_epsilon) > 1e-6)
        scaled = classify_trend(series([alpha * v + beta for v in values]), cfg)
        assert scaled.cls == base.cls

    def test_finite_extremes_do_not_overflow(self, cfg):
        # The least-squares sums overflow at this scale; the class and the
        # normalised slope are those of the same series scaled down.
        p = classify_trend(series([1e308, -1e308]), cfg)
        assert p.cls == TrendClass.DECREASING
        assert p == classify_trend(series([1.0, -1.0]), cfg)
        assert classify_trend(series([1e308, 1e308]), cfg) == classify_trend(series([1, 1]), cfg)
        assert classify_trend(series([-1e308, 0.0, 1e308]), cfg) == \
            classify_trend(series([-1, 0, 1]), cfg)

    def test_overflowing_product_does_not_raise(self, cfg):
        # (x - mx) * (y - my) overflows to +inf and -inf here, which fsum
        # cannot add; the trend is that of the series scaled down.
        values = [1e308, -5e307, -1e308, 2e-300, 1e308]
        p = classify_trend(series(values), cfg)
        assert p == classify_trend(series([v / 1e308 for v in values]), cfg)
        assert math.isfinite(p.slope)

    def test_deterministic(self, cfg):
        values = [random.Random(3).uniform(-5, 5) for _ in range(12)]
        assert classify_trend(series(values), cfg) == classify_trend(series(values), cfg)

    def test_graph_trend_and_type_error(self, mini_graph, cfg):
        p = trend(mini_graph, cfg, node_ref("a"), TimeInterval(0, 2), "w")
        assert p.cls == TrendClass.INCREASING
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 1},
            {"type": "attr", "elem": "node:a", "name": "color", "t": 0, "value": "red"},
        ]))
        with pytest.raises(TgqError) as e:
            trend(g, cfg, node_ref("a"), TimeInterval(0, 1), "color")
        assert e.value.code == TYPE_ERROR


class TestDistribution:
    def test_all_equal(self, cfg):
        d = classify_distribution([2, 2, 2], cfg)
        assert d.mean == 2 and d.stddev == 0
        assert d.class_hint == DistClass.CONCENTRATED
        assert d.histogram == (1.0,)

    def test_uniform_bins(self, cfg):
        # Oracle: direct bin count. With 8 bins over [1, 8] and values
        # 1..8, bin width 7/8 puts exactly one value per bin.
        d = classify_distribution(list(range(1, 9)), cfg)
        assert d.histogram == tuple([1 / 8] * 8)
        assert d.class_hint == DistClass.UNIFORM

    def test_single_value(self, cfg):
        d = classify_distribution([7.5], cfg)
        assert d.count == 1 and d.min == d.max == 7.5
        assert d.histogram == (1.0,)

    def test_bimodal(self, cfg):
        d = classify_distribution([1, 1, 1, 10, 10, 10], cfg)
        assert d.class_hint == DistClass.BIMODAL

    def test_skewed_right(self, cfg):
        d = classify_distribution([1, 1, 1, 1, 1, 1, 1, 10], cfg)
        assert d.class_hint == DistClass.SKEWED_RIGHT

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_histogram_normalized(self, values):
        d = classify_distribution(values, Config())
        assert abs(sum(d.histogram) - 1.0) <= 1e-9

    @pytest.mark.parametrize("values", [
        [1e308, 1e308], [-1e308, 1e308], [0.0, 1e120], [-1e308, 0.0, 0.0, 1e308, 1e308],
        [0.0, 5e-324], [-5e-324, 0.0, 5e-324],
    ])
    def test_finite_extremes_do_not_overflow(self, cfg, values):
        # The moments overflow at this scale, or the bin width underflows to 0;
        # histogram and hint are those of the values unit-scaled, and mean
        # and stddev scale back.
        d = classify_distribution(values, cfg)
        scale = max(abs(v) for v in values)
        small = classify_distribution([v / scale for v in values], cfg)
        assert (d.count, d.histogram, d.class_hint) == (small.count, small.histogram, small.class_hint)
        assert (d.min, d.max) == (min(values), max(values))
        assert (d.mean, d.stddev) == (small.mean * scale, small.stddev * scale)
        assert math.isfinite(d.mean) and math.isfinite(d.stddev)

    def test_empty_scope(self, mini_graph, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 2},
            {"type": "node", "id": "b", "start": 0, "end": 2},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 2, "value": 1.0},
        ]))
        with pytest.raises(TgqError) as e:
            distribution(g, cfg, [node_ref("a"), node_ref("b")], 0, "w")
        assert e.value.code == EMPTY_SCOPE


class TestAspectual:
    def make_graph(self):
        records = [
            {"type": "node", "id": n, "start": 0, "end": 3} for n in "abc"
        ]
        for n in "abc":
            for t in range(4):
                records.append({"type": "attr", "elem": f"node:{n}", "name": "w",
                                "t": t, "value": float(t)})
        return load(jl(records))

    def test_all_rising(self, cfg):
        g = self.make_graph()
        members = [node_ref(n) for n in "abc"]
        p = aspectual(g, cfg, members, TimeInterval(0, 3), "w", AspectAxis.TRENDS_OVER_GRAPH)
        assert p.frequency_dict() == {"INCREASING": 3}

    def test_constant_values_over_time(self, cfg):
        records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in "ab"]
        for t in range(4):
            records.append({"type": "attr", "elem": "node:a", "name": "w", "t": t, "value": 1.0})
            records.append({"type": "attr", "elem": "node:b", "name": "w", "t": t, "value": 5.0})
        g = load(jl(records))
        p = aspectual(g, cfg, [node_ref("a"), node_ref("b")], TimeInterval(0, 3),
                      "w", AspectAxis.DISTRIBUTION_OVER_TIME)
        assert p.mean_trend.cls == TrendClass.CONSTANT
        assert p.stddev_trend.cls == TrendClass.CONSTANT

    def test_matches_per_axis_recomputation(self, cfg):
        # Oracle: recompute both axes with explicit double loops.
        rng = random.Random(11)
        records = [{"type": "node", "id": f"n{i}", "start": 0, "end": 5} for i in range(5)]
        for i in range(5):
            for t in range(6):
                records.append({"type": "attr", "elem": f"node:n{i}", "name": "w",
                                "t": t, "value": rng.uniform(0, 10)})
        g = load(jl(records))
        members = [node_ref(f"n{i}") for i in range(5)]
        span = TimeInterval(0, 5)

        counts = {}
        for m in members:
            cls = trend(g, cfg, m, span, "w").cls.value
            counts[cls] = counts.get(cls, 0) + 1
        got = aspectual(g, cfg, members, span, "w", AspectAxis.TRENDS_OVER_GRAPH)
        assert got.frequency_dict() == counts
        assert sum(got.frequency_dict().values()) == len(members)

        means, stds = [], []
        for t in range(6):
            d = distribution(g, cfg, members, t, "w")
            means.append((t, d.mean))
            stds.append((t, d.stddev))
        got2 = aspectual(g, cfg, members, span, "w", AspectAxis.DISTRIBUTION_OVER_TIME)
        assert got2.mean_trend == classify_trend(means, cfg)
        assert got2.stddev_trend == classify_trend(stds, cfg)


class TestSimilarity:
    def test_identity(self, cfg):
        p = classify_trend(series([1, 2, 3]), cfg)
        assert match_score(p, p, cfg)[0] == 1.0
        d = classify_distribution([1, 2, 3, 4], cfg)
        assert match_score(d, d, cfg)[0] == 1.0

    def test_opposite_trends(self, cfg):
        up = classify_trend(series([1, 2, 3]), cfg)
        down = classify_trend(series([3, 2, 1]), cfg)
        assert match_score(up, down, cfg)[0] == 0.0
        assert match_score(up, down, Config())[1]
        peak = classify_trend(series([1, 4, 2]), cfg)
        trough = classify_trend(series([4, 1, 2]), cfg)
        assert match_score(peak, trough, Config())[1]
        assert not match_score(up, peak, Config())[1]

    def test_histogram_one_bin_delta(self):
        # Oracle: L1 by hand. Shares (.5, .5) vs (.75, .25): the bins differ
        # by 0.25 each, L1 = 0.5, similarity = 1 - 0.25 = 0.75.
        a = (0.5, 0.5)
        b = (0.75, 0.25)
        assert histogram_similarity(a, b) == 0.75

    def test_distribution_score_combines_weights(self, cfg):
        d1 = classify_distribution([0.0, 0.0, 1.0, 1.0], Config(histogram_bins=2))
        d2 = classify_distribution([0.0, 0.0, 0.0, 1.0], Config(histogram_bins=2))
        cfg2 = Config(histogram_bins=2)
        hist = histogram_similarity(d1.histogram, d2.histogram)
        assert hist == 0.75
        score = match_score(d1, d2, cfg2)[0]
        # location part: means .5 vs .25, stddevs .5 vs ~0.433, scale 1.0
        loc = ((1 - 0.25) + (1 - abs(d1.stddev - d2.stddev))) / 2
        assert score == pytest.approx(0.7 * hist + 0.3 * loc)

    def test_kind_mismatch(self, cfg):
        p = classify_trend(series([1, 2]), cfg)
        d = classify_distribution([1, 2], cfg)
        with pytest.raises(TgqError) as e:
            match_score(p, d, cfg)[0]
        assert e.value.code == KIND_MISMATCH

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    )
    @example(v1=[0.0], v2=[0.0, 5e-324])  # a range whose bin width underflows
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, v1, v2):
        cfg = Config()
        d1 = classify_distribution(v1, cfg)
        d2 = classify_distribution(v2, cfg)
        s12, _ = match_score(d1, d2, cfg)
        s21, _ = match_score(d2, d1, cfg)
        assert s12 == pytest.approx(s21)
        assert -1e-9 <= s12 <= 1 + 1e-9
