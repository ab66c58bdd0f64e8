"""Task engine: lookups, characterisation, search, comparison, seeking.

Derived expectations here are frozen from independent brute-force oracles
(exhaustive scans and double loops), not from the operations under test.
"""

import pytest

from tgq.config import Config
from tgq.errors import (
    ABSENT_ELEMENT,
    SEARCH_SPACE_EXCEEDED,
    TgqError,
    UNRESOLVED_SIDE,
    VALIDATION_ERROR,
)
from tgq.correlate import correlate_attributes, element_series, group_series
from tgq.graph import TimeInterval, load, node_ref
from tgq.patterns import AspectAxis, TrendClass, TrendLiteral, distribution, trend
from tgq.relations import RelationFamily, RelationSpec
from tgq.search import SearchSpace, SubsetFamily, GroupCandidate
from tgq.tasks import (
    AuxRelation,
    BehaviorScope,
    FindSide,
    FixedSide,
    LiteralSide,
    LookupSide,
    Quadrant,
    ScopeSide,
    SeekSidePatterns,
    SeekSideValues,
    ValueConstraint,
    characterize,
    direct_compare,
    inverse_compare,
    inverse_lookup,
    pattern_search,
    relation_seek,
)

from conftest import jl, raising_value


@pytest.fixture
def shapes_graph():
    """Four nodes with distinct trend shapes over t=0..3."""
    values = {
        "up": [1, 2, 3, 4],
        "down": [4, 3, 2, 1],
        "flat": [2, 2, 2, 2],
        "spike": [1, 9, 1, 1],
    }
    records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in values]
    records.append({"type": "edge", "id": "e1", "src": "up", "dst": "down",
                    "start": 0, "end": 3})
    records.append({"type": "subset", "name": "S1",
                    "members": ["node:up", "node:down"]})
    records.append({"type": "subset", "name": "S2",
                    "members": ["node:flat", "node:spike"]})
    for n, series in values.items():
        for t, v in enumerate(series):
            records.append({"type": "attr", "elem": f"node:{n}", "name": "w",
                            "t": t, "value": float(v)})
    return load(jl(records))


class TestLookup:
    def test_direct(self, mini_graph, cfg):
        value, aggregated = mini_graph.value_at_info(2, node_ref("a"), "w", cfg)
        assert value == 3.0 and not aggregated

    def test_direct_absent(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 0},
            {"type": "node", "id": "b", "start": 0, "end": 2},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 2, "value": 1.0},
        ]))
        with pytest.raises(TgqError) as e:
            g.value_at_info(g.index_of(2), node_ref("a"), "w", cfg)
        assert e.value.code == ABSENT_ELEMENT

    def test_inverse_with_carry(self, mini_graph, cfg):
        # Oracle: exhaustive scan. a holds 1.0 at t0 (recorded) and t1
        # (carried); the value at t2 is 3.0; b never holds 1.0.
        hits = inverse_lookup(mini_graph, cfg, "w", ValueConstraint("eq", (1.0,)))
        assert [(t, str(r)) for t, r, _ in hits] == [(0, "node:a"), (1, "node:a")]

    def test_inverse_unsatisfiable(self, mini_graph, cfg):
        assert inverse_lookup(mini_graph, cfg, "w", ValueConstraint("gt", (50.0,))) == []

    def test_inverse_binding_patterns(self, mini_graph, cfg):
        only_t1 = inverse_lookup(mini_graph, cfg, "w", ValueConstraint("gt", (0.0,)), time_key=1)
        assert all(t == 1 for t, _, _ in only_t1)
        only_a = inverse_lookup(
            mini_graph, cfg, "w", ValueConstraint("gt", (0.0,)), ref_key=node_ref("a")
        )
        assert all(str(r) == "node:a" for _, r, _ in only_a)

    def test_round_trip_duality(self, shapes_graph, cfg):
        # Every defined (t, g) is recovered by an inverse lookup on its own
        # value, and every hit re-evaluates to a satisfying value.
        for t in range(shapes_graph.n_times):
            for ref in shapes_graph.all_refs():
                v = raising_value(shapes_graph, t, ref, "w", cfg)
                if v is None:
                    continue
                hits = inverse_lookup(shapes_graph, cfg, "w", ValueConstraint("eq", (v,)))
                assert (t, ref, v) in hits
        for t, ref, v in inverse_lookup(shapes_graph, cfg, "w", ValueConstraint("ge", (3.0,))):
            assert shapes_graph.value_at_info(t, ref, "w", cfg)[0] >= 3.0


class TestCharacterizeAndSearch:
    def test_q3(self, shapes_graph, cfg):
        scope = BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=node_ref("up"),
                              time_key=TimeInterval(0, 3))
        assert characterize(shapes_graph, cfg, scope, "w").cls == TrendClass.INCREASING

    def test_q2(self, shapes_graph, cfg):
        grp = GroupCandidate("subset:S2", shapes_graph.subsets["S2"].members)
        scope = BehaviorScope(Quadrant.Q2_DIST_AT_T, ref_key=grp, time_key=0)
        d = characterize(shapes_graph, cfg, scope, "w")
        assert d.count == 2 and d.min == 1.0 and d.max == 2.0

    def test_q4_matches_per_element_oracle(self, shapes_graph, cfg):
        from tgq.patterns import trend

        members = shapes_graph.subsets["S1"].members
        grp = GroupCandidate("subset:S1", members)
        scope = BehaviorScope(Quadrant.Q4_ASPECTUAL, ref_key=grp,
                              time_key=TimeInterval(0, 3),
                              axis=AspectAxis.TRENDS_OVER_GRAPH)
        got = characterize(shapes_graph, cfg, scope, "w").frequency_dict()
        expect = {}
        for m in members:
            cls = trend(shapes_graph, cfg, m, TimeInterval(0, 3), "w").cls.value
            expect[cls] = expect.get(cls, 0) + 1
        assert got == expect

    def test_search_each_node(self, shapes_graph, cfg):
        # Oracle: characterize every node over the full interval and filter.
        space = SearchSpace(SubsetFamily.EACH_NODE)
        matches = pattern_search(
            shapes_graph, cfg, TrendLiteral(TrendClass.INCREASING),
            Quadrant.Q3_TREND_OF_G, "w", space,
            time_key=TimeInterval(0, 3),
        )
        assert [m.ref_name for m in matches] == ["node:up"]

    def test_threshold_zero_returns_all(self, shapes_graph, cfg):
        space = SearchSpace(SubsetFamily.EACH_NODE)
        matches = pattern_search(
            shapes_graph, cfg.replace(similarity_threshold=0.0),
            TrendLiteral(TrendClass.INCREASING), Quadrant.Q3_TREND_OF_G, "w", space,
            time_key=TimeInterval(0, 3),
        )
        assert len(matches) == 4

    def test_monotone_threshold(self, shapes_graph, cfg):
        space = SearchSpace(SubsetFamily.EACH_NODE)
        sizes = []
        for thr in (0.0, 0.5, 0.9, 1.0):
            sizes.append(len(pattern_search(
                shapes_graph, cfg.replace(similarity_threshold=thr),
                TrendLiteral(TrendClass.INCREASING),
                Quadrant.Q3_TREND_OF_G, "w", space,
                time_key=TimeInterval(0, 3),
            )))
        assert sizes == sorted(sizes, reverse=True)

    def test_characterize_search_duality(self, shapes_graph, cfg):
        scope = BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=node_ref("down"),
                              time_key=TimeInterval(0, 3))
        p = characterize(shapes_graph, cfg, scope, "w")
        matches = pattern_search(
            shapes_graph, cfg, p, Quadrant.Q3_TREND_OF_G, "w",
            SearchSpace(SubsetFamily.EACH_NODE), time_key=TimeInterval(0, 3),
        )
        hit = [m for m in matches if m.ref_name == "node:down"]
        assert hit and hit[0].score == 1.0

    def test_budget_exceeded(self, shapes_graph):
        tight = Config(search_max_candidates=3)
        with pytest.raises(TgqError) as e:
            pattern_search(
                shapes_graph, tight, TrendLiteral(TrendClass.INCREASING),
                Quadrant.Q3_TREND_OF_G, "w", SearchSpace(SubsetFamily.EACH_NODE),
            )
        assert e.value.code == SEARCH_SPACE_EXCEEDED


class TestDirectCompare:
    def test_evolutionary(self, mini_graph, cfg):
        # Oracle: two direct lookups, 1.0 vs 3.0.
        report = direct_compare(
            mini_graph, cfg,
            LookupSide(0, node_ref("a"), "w"),
            LookupSide(2, node_ref("a"), "w"),
        )
        assert report.relation == "lt"
        assert report.label == "EVOLUTIONARY"

    def test_identity_is_static(self, mini_graph, cfg):
        report = direct_compare(
            mini_graph, cfg,
            LookupSide(0, node_ref("a"), "w"),
            LookupSide(0, node_ref("a"), "w"),
        )
        assert report.relation == "eq" and report.label == "STATIC"

    def test_contextual(self, mini_graph, cfg):
        report = direct_compare(
            mini_graph, cfg,
            LookupSide(1, node_ref("a"), "w"),
            LookupSide(1, node_ref("b"), "w"),
        )
        assert report.label == "CONTEXTUAL"

    def test_pattern_vs_literal(self, shapes_graph, cfg):
        scope = BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=node_ref("up"),
                              time_key=TimeInterval(0, 3))
        report = direct_compare(
            shapes_graph, cfg,
            ScopeSide(scope, "w"),
            LiteralSide(TrendLiteral(TrendClass.INCREASING)),
        )
        assert report.relation == "same" and report.score == 1.0

    def test_opposite_patterns(self, shapes_graph, cfg):
        up = ScopeSide(BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=node_ref("up"),
                                     time_key=TimeInterval(0, 3)), "w")
        down = ScopeSide(BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=node_ref("down"),
                                       time_key=TimeInterval(0, 3)), "w")
        report = direct_compare(shapes_graph, cfg, up, down)
        assert report.relation == "opposite" and report.opposite

    def test_explicit_relation(self, mini_graph, cfg):
        report = direct_compare(
            mini_graph, cfg,
            LookupSide(0, node_ref("a"), "w"),
            LiteralSide(2.5),
            relation=RelationSpec(RelationFamily.VALUE, "lt"),
        )
        assert report.holds is True and report.label == "STATIC"

    def test_different_attributes_per_side(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 1},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:a", "name": "u", "t": 0, "value": 4.0},
        ]))
        report = direct_compare(
            g, cfg, LookupSide(0, node_ref("a"), "w"), LookupSide(0, node_ref("a"), "u")
        )
        assert report.relation == "lt" and report.label == "STATIC"


class TestInverseCompare:
    def test_times_of_values(self, mini_graph, cfg):
        # Oracle: inverse lookups give t0/t1 for w=1.0 and t2 for w=3.0;
        # the first canonical pair is (t0, t2), which is "before".
        reports = inverse_compare(
            mini_graph, cfg,
            FindSide("w", ValueConstraint("eq", (1.0,)), ref_key=node_ref("a")),
            FindSide("w", ValueConstraint("eq", (3.0,)), ref_key=node_ref("a")),
        )
        assert len(reports) == 1
        assert reports[0].relations["temporal"] == "before"

    def test_same_constraint_same_time(self, mini_graph, cfg):
        side = FindSide("w", ValueConstraint("eq", (3.0,)), ref_key=node_ref("a"))
        reports = inverse_compare(mini_graph, cfg, side, side)
        assert reports[0].relations["temporal"] == "same"

    def test_unresolved_side(self, mini_graph, cfg):
        with pytest.raises(TgqError) as e:
            inverse_compare(
                mini_graph, cfg,
                FindSide("w", ValueConstraint("eq", (99.0,))),
                FindSide("w", ValueConstraint("eq", (1.0,))),
            )
        assert e.value.code == UNRESOLVED_SIDE

    def test_reduced_form_fixed_reference(self, mini_graph, cfg):
        reports = inverse_compare(
            mini_graph, cfg,
            FindSide("w", ValueConstraint("eq", (3.0,)), ref_key=node_ref("a")),
            FixedSide(time_key=0),
        )
        assert reports[0].relations["temporal"] == "after"

    def test_all_pairs_mode(self, mini_graph, cfg):
        reports = inverse_compare(
            mini_graph, cfg,
            FindSide("w", ValueConstraint("eq", (1.0,)), ref_key=node_ref("a")),
            FindSide("w", ValueConstraint("eq", (3.0,)), ref_key=node_ref("a")),
            all_pairs=True,
        )
        assert len(reports) == 2  # (t0, t2) and (t1, t2)

    def test_structural_family_needs_shared_time(self, mini_graph, cfg):
        from tgq.errors import MISSING_TIME_CONTEXT

        with pytest.raises(TgqError) as e:
            inverse_compare(
                mini_graph, cfg,
                FindSide("w", ValueConstraint("eq", (1.0,)), ref_key=node_ref("a")),
                FindSide("w", ValueConstraint("eq", (3.0,)), ref_key=node_ref("a")),
                families=("structural",),
            )
        assert e.value.code == MISSING_TIME_CONTEXT

    def test_structural_family_with_shared_time(self, cfg):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 1} for n in "ab"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 1},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 0, "value": 2.0},
        ]))
        reports = inverse_compare(
            g, cfg,
            FindSide("w", ValueConstraint("eq", (1.0,)), time_key=0),
            FindSide("w", ValueConstraint("eq", (2.0,)), time_key=0),
            families=("temporal", "graph", "structural"),
        )
        rel = reports[0].relations
        assert rel["temporal"] == "same"
        assert rel["structural"]["connected"] and rel["structural"]["distance"] == 1

    def test_reported_relations_reverify(self, mini_graph, cfg):
        # Every reported tag must hold when re-evaluated on the reported
        # reference witnesses.
        from tgq.relations import eval_relation

        reports = inverse_compare(
            mini_graph, cfg,
            FindSide("w", ValueConstraint("gt", (0.0,))),
            FindSide("w", ValueConstraint("gt", (0.0,))),
            all_pairs=True,
        )
        assert reports
        for rep in reports:
            tag = rep.relations["temporal"]
            t1 = mini_graph.index_of(rep.lhs["t"])
            t2 = mini_graph.index_of(rep.rhs["t"])
            spec = RelationSpec(RelationFamily.TEMPORAL_POINT, tag)
            assert eval_relation(spec, t1, t2, cfg)

    def test_set_relation_between_found_subsets(self, shapes_graph, cfg):
        lhs = FixedSide(time_key=0, ref_key=GroupCandidate(
            "subset:S1", shapes_graph.subsets["S1"].members))
        rhs = FixedSide(time_key=0, ref_key=GroupCandidate(
            "subset:S2", shapes_graph.subsets["S2"].members))
        reports = inverse_compare(shapes_graph, cfg, lhs, rhs)
        assert reports[0].relations["set"] == "disjoint"


class TestRelationSeek:
    def test_equal_values_at_fixed_time(self, cfg):
        # Oracle: double loop over nodes at t. a and b share 1.0.
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 1} for n in "abc"
        ] + [
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:c", "name": "w", "t": 0, "value": 2.0},
        ]))
        side = SeekSideValues("w", time_key=0)
        pairs = relation_seek(
            g, cfg, RelationSpec(RelationFamily.VALUE, "eq"), side, side,
        )
        assert [(str(p.lhs.ref_key), str(p.rhs.ref_key)) for p in pairs] == [("node:a", "node:b")]

    def test_no_distinct_pair_on_single_node(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 1},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
        ]))
        side = SeekSideValues("w", time_key=0)
        aux = (AuxRelation("time", RelationSpec(RelationFamily.TEMPORAL_POINT, "same")),)
        pairs = relation_seek(
            g, cfg, RelationSpec(RelationFamily.VALUE, "lt"), side, side, aux,
        )
        assert pairs == []

    def test_opposite_trends_with_adjacency(self, shapes_graph, cfg):
        # Oracle: exhaustive pair enumeration + trend + adjacency check.
        # Only up-down are adjacent, and their trends are opposite.
        side = SeekSidePatterns(
            Quadrant.Q3_TREND_OF_G, "w", time_key=TimeInterval(0, 3)
        )
        aux = (AuxRelation(
            "graph", RelationSpec(RelationFamily.STRUCTURAL, "adjacent"), t_context=0
        ),)
        pairs = relation_seek(
            shapes_graph, cfg, RelationSpec(RelationFamily.PATTERN, "opposite"),
            side, side, aux,
        )
        assert [(str(p.lhs.ref_key), str(p.rhs.ref_key)) for p in pairs] == [
            ("node:down", "node:up")
        ]

    def test_asymmetric_relation_orientation(self, cfg):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "ab"
        ] + [
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 0, "value": 5.0},
        ]))
        side = SeekSideValues("w", time_key=0)
        pairs = relation_seek(
            g, cfg, RelationSpec(RelationFamily.VALUE, "lt"), side, side,
        )
        assert [(str(p.lhs.ref_key), str(p.rhs.ref_key)) for p in pairs] == [
            ("node:a", "node:b")
        ]

    def test_value_side_budget_checked_before_bindings(self, mini_graph):
        # 3 times x 2 nodes = 6 candidate reads, 5 bindings; a cap of 5 must
        # reject the reads, not the 25 pairs built from the bindings.
        side = SeekSideValues("w")
        with pytest.raises(TgqError) as e:
            relation_seek(
                mini_graph, Config(search_max_candidates=5),
                RelationSpec(RelationFamily.VALUE, "eq"), side, side,
            )
        assert e.value.code == SEARCH_SPACE_EXCEEDED
        assert e.value.details["count"] == 3 * 2
        assert e.value.message == "relation seeking: 6 candidates exceed the cap of 5"

    @pytest.mark.parametrize("quadrant, patched, axis, count", [
        # 4 time points x 6 subsets; 10 windows x 6 subsets
        (Quadrant.Q2_DIST_AT_T, "distribution", None, 4 * 6),
        (Quadrant.Q4_ASPECTUAL, "aspectual", AspectAxis.DISTRIBUTION_OVER_TIME, 10 * 6),
    ])
    def test_pattern_side_budget_counts_groups_before_building(
            self, monkeypatch, quadrant, patched, axis, count):
        import tgq.tasks as tasks

        records = [{"type": "node", "id": f"n{i}", "start": 0, "end": 3} for i in range(6)]
        records += [{"type": "attr", "elem": f"node:n{i}", "name": "w", "t": t,
                     "value": float(i + t)} for i in range(6) for t in range(4)]
        records += [{"type": "subset", "name": f"S{i}",
                     "members": [f"node:n{i}", f"node:n{(i + 1) % 6}"]} for i in range(6)]
        g = load(jl(records))
        built = []
        real = getattr(tasks, patched)
        monkeypatch.setattr(tasks, patched, lambda *args: built.append(args) or real(*args))
        side = SeekSidePatterns(quadrant, "w", axis=axis)
        space = SearchSpace(subset_family=SubsetFamily.NAMED_SUBSETS)
        with pytest.raises(TgqError) as e:
            relation_seek(g, Config(search_max_candidates=5),
                          RelationSpec(RelationFamily.PATTERN, "same"), side, side, space=space)
        assert e.value.code == SEARCH_SPACE_EXCEEDED
        assert e.value.details["count"] == count
        assert e.value.message == f"relation seeking: {count} candidates exceed the cap of 5"
        assert built == []
        bindings = side.resolve_bindings(g, Config(search_max_candidates=count), space)
        assert len(bindings) == len(built) == count

    def test_matches_brute_force(self, shapes_graph, cfg):
        # Independent double enumeration over (t, node) bindings.
        side = SeekSideValues("w")
        got = relation_seek(
            shapes_graph, cfg, RelationSpec(RelationFamily.VALUE, "eq"), side, side,
        )
        expect = set()
        bindings = []
        for t in range(shapes_graph.n_times):
            for n in shapes_graph.node_ids():
                v = raising_value(shapes_graph, t, node_ref(n), "w", cfg)
                if v is not None:
                    bindings.append((t, n, v))
        for (t1, n1, v1) in bindings:
            for (t2, n2, v2) in bindings:
                if (t1, n1) == (t2, n2) or v1 != v2:
                    continue
                if (t2, n2, t1, n1) in {(a, b, c, d) for (a, b, c, d) in expect}:
                    continue
                expect.add((t1, n1, t2, n2))
        got_keys = {
            (p.lhs.time_key, p.lhs.ref_key.id, p.rhs.time_key, p.rhs.ref_key.id)
            for p in got
        }
        assert got_keys == expect


class TestTimeDomain:
    """Every scanning reader rejects a time index outside the domain with the
    check ``snapshot`` makes, instead of an IndexError or a read from the end."""

    READERS = {
        "trend": lambda g, cfg, t: trend(
            g, cfg, node_ref("a"), TimeInterval(min(t, 0), max(t, 0)), "w"),
        "distribution": lambda g, cfg, t: distribution(g, cfg, [node_ref("a")], t, "w"),
        "distribution_no_members": lambda g, cfg, t: distribution(g, cfg, [], t, "w"),
        "inverse_lookup_t": lambda g, cfg, t: inverse_lookup(
            g, cfg, "w", ValueConstraint("ge", (0.0,)), time_key=t),
        "inverse_lookup_interval": lambda g, cfg, t: inverse_lookup(
            g, cfg, "w", ValueConstraint("ge", (0.0,)), TimeInterval(min(t, 0), max(t, 0))),
        "element_series": lambda g, cfg, t: element_series(
            g, cfg, node_ref("a"), "w", TimeInterval(min(t, 0), max(t, 0))),
        "group_series": lambda g, cfg, t: group_series(
            g, cfg, GroupCandidate("g", (node_ref("a"), node_ref("b"))), "w",
            TimeInterval(min(t, 0), max(t, 0))),
        "cross_section": lambda g, cfg, t: correlate_attributes(
            g, cfg, "w", "w", t, GroupCandidate("g", (node_ref("a"), node_ref("b")))),
        "snapshot": lambda g, cfg, t: g.snapshot(t),
    }

    @pytest.mark.parametrize("t", [-1, 3, 5])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_out_of_domain_index_rejected(self, mini_graph, cfg, reader, t):
        with pytest.raises(TgqError) as e:
            self.READERS[reader](mini_graph, cfg, t)
        assert (e.value.code, e.value.message) == (
            VALIDATION_ERROR, f"time index {t} outside the domain")

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_last_index_is_in_the_domain(self, mini_graph, cfg, reader):
        try:
            self.READERS[reader](mini_graph, cfg, 2)
        except TgqError as err:  # too few samples or no members, not the domain
            assert err.code != VALIDATION_ERROR
