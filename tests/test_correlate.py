"""Correlation discovery; the Pearson oracle is independent arithmetic
from raw sums (including a by-hand cross-section on a small digraph)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgq.config import Config
from tgq.errors import (
    INSUFFICIENT_SAMPLES,
    LENGTH_MISMATCH,
    TgqError,
    UNKNOWN_SERIES,
    VALIDATION_ERROR,
    VARIANCE_ZERO,
)
from tgq.graph import TimeInterval, load, node_ref
from tgq.search import GroupCandidate
from tgq.correlate import (
    correlate_attributes,
    correlate_homogeneous,
    correlate_with_external,
    group_series,
    pearson,
)

from conftest import jl


def oracle_pearson(xs, ys):
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num = n * sxy - sx * sy
    den = math.sqrt(n * sxx - sx * sx) * math.sqrt(n * syy - sy * sy)
    return num / den


@pytest.fixture
def series_graph():
    """One node carrying two attributes recorded at every t=0..5."""
    a = [1.0, 2.0, 4.0, 3.0, 5.0, 6.0]
    records = [{"type": "node", "id": "n", "start": 0, "end": 5}]
    for t, v in enumerate(a):
        records.append({"type": "attr", "elem": "node:n", "name": "w", "t": t, "value": v})
        records.append({"type": "attr", "elem": "node:n", "name": "neg", "t": t, "value": -v})
        records.append({"type": "attr", "elem": "node:n", "name": "same", "t": t, "value": v})
        records.append({"type": "series", "name": "ext_copy", "t": t, "value": v})
        if t >= 1:
            records.append({"type": "series", "name": "ext_lag1", "t": t, "value": a[t - 1]})
    return load(jl(records))


class TestPearson:
    def test_self_correlation(self, series_graph, cfg):
        rep = correlate_attributes(
            series_graph, cfg, "w", "same",
            ref_key=node_ref("n"), time_key=TimeInterval(0, 5),
        )
        assert rep.coefficient == 1.0 and rep.classification == "POSITIVE"

    def test_negated(self, series_graph, cfg):
        rep = correlate_attributes(
            series_graph, cfg, "w", "neg",
            ref_key=node_ref("n"), time_key=TimeInterval(0, 5),
        )
        assert rep.coefficient == -1.0 and rep.classification == "NEGATIVE"

    def test_cross_section_matches_textbook(self, cfg):
        # In/out degree of a fixed digraph at one time, correlated across
        # nodes; expectation computed from the raw sums independently.
        arcs = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "a"), ("b", "d")]
        records = [{"type": "node", "id": n, "start": 0, "end": 0} for n in "abcd"]
        for i, (s, d) in enumerate(arcs):
            records.append({"type": "edge", "id": f"e{i}", "src": s, "dst": d,
                            "directed": True, "start": 0, "end": 0})
        nodes = "abcd"
        outdeg = {n: sum(1 for s, _ in arcs if s == n) for n in nodes}
        indeg = {n: sum(1 for _, d in arcs if d == n) for n in nodes}
        for n in nodes:
            records.append({"type": "attr", "elem": f"node:{n}", "name": "outdeg",
                            "t": 0, "value": float(outdeg[n])})
            records.append({"type": "attr", "elem": f"node:{n}", "name": "indeg",
                            "t": 0, "value": float(indeg[n])})
        g = load(jl(records))
        grp = GroupCandidate("all", tuple(node_ref(n) for n in nodes))
        rep = correlate_attributes(g, cfg, "outdeg", "indeg", ref_key=grp, time_key=0)
        expect = oracle_pearson([outdeg[n] for n in nodes], [indeg[n] for n in nodes])
        assert rep.coefficient == pytest.approx(expect, abs=1e-12)
        assert rep.n == 4

    def test_insufficient_samples(self, cfg):
        with pytest.raises(TgqError) as e:
            pearson([(1.0, 1.0), (2.0, 2.0)], 0, cfg)
        assert e.value.code == INSUFFICIENT_SAMPLES

    def test_variance_zero(self, cfg):
        with pytest.raises(TgqError) as e:
            pearson([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)], 0, cfg)
        assert e.value.code == VARIANCE_ZERO

    def test_tiny_variances_do_not_underflow(self, cfg):
        # sxx * syy underflows to 0.0 here although both are positive
        tiny = [(0.0, 0.0), (1e-120, 1e-120), (0.0, 0.0)]
        assert pearson(tiny, 0, cfg).coefficient == pytest.approx(1.0)
        flipped = [(a, -b) for a, b in tiny]
        assert pearson(flipped, 0, cfg).coefficient == pytest.approx(-1.0)

    @pytest.mark.parametrize("xs", [
        [1e308, 1e308, -1e308, 5e307, 1e308],
        [1e200, 3e200, -2e200, 0.0, 5e199],
        [1.7e308, -1.7e308, 1.7e308, -1.7e308, 0.0],
    ])
    def test_finite_extremes_do_not_overflow(self, cfg, xs):
        # The unscaled sums overflow; r is that of the series scaled down.
        ys = [1.0, 2.0, 0.5, 3.0, 1.5]
        r = pearson(list(zip(xs, ys)), 0, cfg).coefficient
        scale = max(abs(x) for x in xs)
        assert r == pytest.approx(oracle_pearson([x / scale for x in xs], ys), abs=1e-12)
        assert pearson(list(zip(ys, xs)), 0, cfg).coefficient == pytest.approx(r, abs=1e-12)

    def test_constant_extreme_series_is_variance_zero(self, cfg):
        with pytest.raises(TgqError) as e:
            pearson([(1e308, 1.0), (1e308, 2.0), (1e308, 3.0)], 0, cfg)
        assert e.value.code == VARIANCE_ZERO

    @given(st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=3, max_size=40,
    ))
    @settings(max_examples=200)
    def test_bounded_and_symmetric(self, pairs):
        cfg = Config()
        try:
            r1 = pearson(pairs, 0, cfg).coefficient
            r2 = pearson([(b, a) for a, b in pairs], 0, cfg).coefficient
        except TgqError as err:
            assert err.code == VARIANCE_ZERO
            return
        assert abs(r1) <= 1.0
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_affine_invariance(self):
        cfg = Config()
        rng = random.Random(17)
        xs = [rng.uniform(-10, 10) for _ in range(20)]
        ys = [rng.uniform(-10, 10) for _ in range(20)]
        base = pearson(list(zip(xs, ys)), 0, cfg).coefficient
        for alpha in (2.5, -3.0):
            scaled = pearson(list(zip([alpha * x + 1.0 for x in xs], ys)), 0, cfg).coefficient
            assert scaled == pytest.approx(math.copysign(1, alpha) * base, abs=1e-9)


class TestExternal:
    def test_copy_series(self, series_graph, cfg):
        rep = correlate_with_external(
            series_graph, cfg, node_ref("n"), "w", "ext_copy", TimeInterval(0, 5),
        )
        assert rep.coefficient == 1.0

    def test_unknown_series(self, series_graph, cfg):
        with pytest.raises(TgqError) as e:
            correlate_with_external(
                series_graph, cfg, node_ref("n"), "w", "nope", TimeInterval(0, 5),
            )
        assert e.value.code == UNKNOWN_SERIES

    def test_constant_series_is_variance_zero(self, cfg):
        records = [{"type": "node", "id": "n", "start": 0, "end": 3}]
        for t in range(4):
            records.append({"type": "attr", "elem": "node:n", "name": "w",
                            "t": t, "value": float(t)})
            records.append({"type": "series", "name": "flat", "t": t, "value": 7.0})
        g = load(jl(records))
        with pytest.raises(TgqError) as e:
            correlate_with_external(g, Config(), node_ref("n"), "w", "flat",
                                    TimeInterval(0, 3))
        assert e.value.code == VARIANCE_ZERO

    def test_lag_alignment(self, series_graph, cfg):
        # Oracle: manual shift; ext_lag1[t] = w[t-1], so pairing w[t] with
        # the series one step later recovers an exact match.
        rep = correlate_with_external(
            series_graph, cfg, node_ref("n"), "w", "ext_lag1", TimeInterval(0, 5), lag=1,
        )
        assert rep.coefficient == 1.0
        assert rep.n == 5


class TestHomogeneous:
    def test_identical_scope(self, series_graph, cfg):
        rep = correlate_homogeneous(
            series_graph, cfg, "w",
            node_ref("n"), TimeInterval(0, 5), node_ref("n"), TimeInterval(0, 5),
        )
        assert rep.coefficient == 1.0

    def test_scaled_subset_series(self, cfg):
        records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in "ab"]
        for t in range(4):
            v = float(t + 1)
            records.append({"type": "attr", "elem": "node:a", "name": "w", "t": t, "value": v})
            records.append({"type": "attr", "elem": "node:b", "name": "w", "t": t, "value": 2 * v})
        g = load(jl(records))
        rep = correlate_homogeneous(
            g, Config(), "w",
            node_ref("a"), TimeInterval(0, 3), node_ref("b"), TimeInterval(0, 3),
        )
        assert rep.coefficient == pytest.approx(1.0, abs=1e-12)

    def test_two_windows_match_oracle(self, series_graph, cfg):
        rep = correlate_homogeneous(
            series_graph, cfg, "w",
            node_ref("n"), TimeInterval(0, 2), node_ref("n"), TimeInterval(3, 5),
        )
        expect = oracle_pearson([1.0, 2.0, 4.0], [3.0, 5.0, 6.0])
        assert rep.coefficient == pytest.approx(expect, abs=1e-12)

    def test_length_mismatch(self, series_graph, cfg):
        with pytest.raises(TgqError) as e:
            correlate_homogeneous(
                series_graph, cfg, "w",
                node_ref("n"), TimeInterval(0, 2), node_ref("n"), TimeInterval(3, 4),
            )
        assert e.value.code == LENGTH_MISMATCH


class TestAggregation:
    def test_group_series_aggregations(self, cfg):
        from tgq.correlate import group_series
        from tgq.search import GroupCandidate

        records = [{"type": "node", "id": n, "start": 0, "end": 1} for n in "ab"]
        records += [
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 2.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 0, "value": 6.0},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 1, "value": 10.0},
        ]
        g = load(jl(records))
        grp = GroupCandidate("g", (node_ref("a"), node_ref("b")))
        span = TimeInterval(0, 1)
        # b carries 6.0 into t=1
        assert group_series(g, cfg, grp, "w", span, "mean") == {0: 4.0, 1: 8.0}
        assert group_series(g, cfg, grp, "w", span, "min") == {0: 2.0, 1: 6.0}
        assert group_series(g, cfg, grp, "w", span, "max") == {0: 6.0, 1: 10.0}
        assert group_series(g, cfg, grp, "w", span, "sum") == {0: 8.0, 1: 16.0}

    def test_group_series_mean_over_finite_extremes(self, cfg):
        # The members' sums overflow; their means are finite.
        records = [{"type": "node", "id": n, "start": 0, "end": 1} for n in "ab"]
        records += [
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1e308},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 0, "value": 1.5e308},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 1, "value": 1.7e308},
        ]
        g = load(jl(records))
        grp = GroupCandidate("g", (node_ref("a"), node_ref("b")))
        got = group_series(g, cfg, grp, "w", TimeInterval(0, 1), "mean")
        assert got == {0: pytest.approx(1.25e308), 1: pytest.approx(1.6e308)}
        assert all(math.isfinite(v) for v in got.values())

    @pytest.mark.parametrize("values", [[1, 2], [2.5, -1.0, 0.1], [1e307, 3e307], [7]])
    def test_mean_is_sum_over_len_when_finite(self, values):
        from tgq.graph import mean

        assert mean(values) == sum(values) / len(values)

    def test_unknown_aggregation(self, series_graph, cfg):
        from tgq.correlate import group_series
        from tgq.search import GroupCandidate

        grp = GroupCandidate("g", (node_ref("n"),))
        with pytest.raises(TgqError):
            group_series(series_graph, cfg, grp, "w", TimeInterval(0, 1), "mode")

    def test_agg_on_element_rejected(self, series_graph, cfg):
        from tgq.dsl.planner import run_query
        from tgq.errors import VALIDATION_ERROR

        with pytest.raises(TgqError) as e:
            run_query("CORRELATE w OF node:n AGG median WITH SERIES ext_copy",
                      series_graph, cfg)
        assert e.value.code == VALIDATION_ERROR


class TestPlannerDispatch:
    def test_cross_section_needs_subset(self, series_graph, cfg):
        from tgq.dsl.planner import run_query
        from tgq.errors import VALIDATION_ERROR

        with pytest.raises(TgqError) as e:
            run_query("CORRELATE w OF node:n AT t=0 WITH neg OF node:n AT t=0",
                      series_graph, cfg)
        assert e.value.code == VALIDATION_ERROR

    def test_lag_on_cross_section_rejected(self, cfg):
        records = [{"type": "node", "id": n, "start": 0, "end": 2} for n in "abc"]
        for n in "abc":
            for t in range(3):
                records.append({"type": "attr", "elem": f"node:{n}", "name": "w",
                                "t": t, "value": float(t)})
                records.append({"type": "attr", "elem": f"node:{n}", "name": "u",
                                "t": t, "value": float(t * 2)})
        records.append({"type": "subset", "name": "S",
                        "members": ["node:a", "node:b", "node:c"]})
        g = load(jl(records))
        from tgq.dsl.planner import run_query
        from tgq.errors import VALIDATION_ERROR

        with pytest.raises(TgqError) as e:
            run_query("CORRELATE w OF subset:S AT t=0 WITH u OF subset:S AT t=0 LAG 1",
                      g, cfg)
        assert e.value.code == VALIDATION_ERROR


class TestPerElement:
    """PERELEMENT reports each member with a coefficient and passes over a
    member with too few pairs or a flat series, unless no member has one."""

    @pytest.fixture
    def members_graph(self):
        # ok: w and u vary together; short: alive at two times; flat: u is constant
        records = [{"type": "node", "id": n, "start": 0, "end": 1 if n == "short" else 4}
                   for n in ("ok", "short", "flat")]
        for t in range(5):
            for n, w, u in (("ok", t, t * t), ("flat", t, 1.0)):
                records.append({"type": "attr", "elem": f"node:{n}", "name": "w",
                                "t": t, "value": float(w)})
                records.append({"type": "attr", "elem": f"node:{n}", "name": "u",
                                "t": t, "value": float(u)})
        for t in range(2):
            for name in ("w", "u"):
                records.append({"type": "attr", "elem": "node:short", "name": name,
                                "t": t, "value": float(t)})
        return load(jl(records))

    def run(self, graph, cfg, *names):
        group = GroupCandidate("g", tuple(node_ref(n) for n in names))
        return correlate_attributes(graph, cfg, "w", "u", TimeInterval(0, 4), group,
                                    per_element=True)

    def test_members_without_a_coefficient_are_skipped(self, members_graph, cfg):
        reports, skipped = self.run(members_graph, cfg, "short", "ok", "flat")
        assert [name for name, _ in reports] == ["node:ok"]
        assert reports[0][1].n == 5
        assert [(name, err.code) for name, err in skipped] == [
            ("node:short", INSUFFICIENT_SAMPLES), ("node:flat", VARIANCE_ZERO)]

    @pytest.mark.parametrize("names, code", [
        (("short", "flat"), INSUFFICIENT_SAMPLES),
        (("flat", "short"), VARIANCE_ZERO),
    ])
    def test_no_member_with_a_coefficient_raises_the_first_error(
            self, members_graph, cfg, names, code):
        with pytest.raises(TgqError) as e:
            self.run(members_graph, cfg, *names)
        assert e.value.code == code

    def test_other_errors_fail_the_whole_call(self, members_graph, cfg):
        group = GroupCandidate("g", (node_ref("ok"),))
        with pytest.raises(TgqError) as e:
            correlate_attributes(members_graph, cfg, "w", "u", TimeInterval(0, 9), group,
                                 per_element=True)
        assert (e.value.code, e.value.message) == (
            VALIDATION_ERROR, "time index 9 outside the domain")

    def test_skipped_members_become_warnings(self, members_graph, cfg):
        from tgq.dsl.planner import run_query

        envelope = run_query("CORRELATE w OF NODES WITH u OF NODES PERELEMENT",
                             members_graph, cfg)
        assert [row["element"] for row in envelope["bindings"]] == ["node:ok"]
        assert envelope["warnings"] == [  # in member order
            "node:flat: VARIANCE_ZERO: a series has zero variance",
            "node:short: INSUFFICIENT_SAMPLES: need at least 3 paired samples, got 2",
        ]
