"""Structural engine: connection tasks and the four structural behaviours."""

import itertools
import re

import pytest

from tgq.dsl.planner import run_query
from tgq.errors import ABSENT_ELEMENT, FAMILY_MISMATCH, VALIDATION_ERROR, TgqError
from tgq.graph import TimeInterval, load, node_ref, object_ref
from tgq.patterns import TrendClass
from tgq.search import GroupCandidate, SearchSpace, SubsetFamily
from tgq.structure import (
    ConfigLiteral,
    ConnectionSpec,
    PresenceClass,
    PresenceLiteral,
    StructScope,
    StructScopeKind,
    classify_presence,
    config_over_time,
    connection_times,
    find_connected,
    find_connected_pairs,
    find_connection,
    pair_over_time,
    pairs_aggregate,
    snapshot_metrics,
    structural_search,
)
from tgq.tasks import ValueConstraint, direct_compare
from tgq.structure import StructScopeSide

from conftest import jl


@pytest.fixture
def wheel_graph():
    """a-b alive all 5 steps, b-c from t1..t3, c-d on t2 only, plus a
    weighted edge and a directed edge for predicate and direction tests."""
    return load(jl([
        {"type": "node", "id": n, "start": 0, "end": 4} for n in "abcd"
    ] + [
        {"type": "edge", "id": "ab", "src": "a", "dst": "b", "start": 0, "end": 4},
        {"type": "edge", "id": "bc", "src": "b", "dst": "c", "start": 1, "end": 3},
        {"type": "edge", "id": "cd", "src": "c", "dst": "d", "start": 2, "end": 2},
        {"type": "edge", "id": "ad", "src": "a", "dst": "d", "directed": True,
         "start": 0, "end": 4},
        {"type": "attr", "elem": "edge:ab", "name": "weight", "t": 0, "value": 5.0},
        {"type": "attr", "elem": "edge:bc", "name": "weight", "t": 1, "value": 2.0},
        {"type": "subset", "name": "ALL", "members": ["node:a", "node:b", "node:c", "node:d"]},
    ]))


class TestConnections:
    def test_direct_edge(self, wheel_graph, cfg):
        rep = find_connection(wheel_graph, cfg, node_ref("a"), node_ref("b"), 0)
        assert rep.adjacent and rep.distance == 1 and rep.edges == ("ab",)

    def test_two_hops(self, wheel_graph, cfg):
        # Oracle: BFS by hand, a-b-c at t=1.
        rep = find_connection(wheel_graph, cfg, node_ref("a"), node_ref("c"), 1)
        assert not rep.adjacent and rep.distance == 2 and rep.path == ("a", "b", "c")

    def test_none(self, wheel_graph, cfg):
        rep = find_connection(wheel_graph, cfg, node_ref("b"), node_ref("d"), 0)
        # at t=0 only ab and the directed ad exist; b reaches d through a
        assert rep.distance == 2
        g = load(jl([
            {"type": "node", "id": "x", "start": 0, "end": 0},
            {"type": "node", "id": "y", "start": 0, "end": 0},
        ]))
        rep2 = find_connection(g, cfg, node_ref("x"), node_ref("y"), 0)
        assert rep2.distance is None and not rep2.adjacent

    def test_absent_element(self, cfg):
        g = load(jl([
            {"type": "node", "id": "x", "start": 0, "end": 0},
            {"type": "node", "id": "y", "start": 1, "end": 1},
        ]))
        with pytest.raises(TgqError) as e:
            find_connection(g, cfg, node_ref("x"), node_ref("y"), 0)
        assert e.value.code == ABSENT_ELEMENT

    def test_neighbours_adjacent(self, wheel_graph, cfg):
        got = find_connected(wheel_graph, cfg, node_ref("b"), ConnectionSpec(), t=0)
        assert [(str(g), t) for g, t in got] == [("node:a", 0)]

    def test_neighbours_ball(self, wheel_graph, cfg):
        # Oracle: BFS levels at t=2: a-b, b-c, c-d, a->d all alive.
        spec = ConnectionSpec(mode="path", max_distance=2)
        got = find_connected(wheel_graph, cfg, node_ref("a"), spec, t=2)
        assert [str(g) for g, _ in got] == ["node:b", "node:c", "node:d"]

    def test_edge_predicate_filters(self, wheel_graph, cfg):
        heavy = ConnectionSpec(edge_attr="weight",
                               edge_constraint=ValueConstraint("gt", (4.0,)))
        got = find_connected(wheel_graph, cfg, node_ref("b"), heavy, t=1)
        assert [str(g) for g, _ in got] == ["node:a"]
        too_heavy = ConnectionSpec(edge_attr="weight",
                                   edge_constraint=ValueConstraint("gt", (9.0,)))
        assert find_connected(wheel_graph, cfg, node_ref("b"), too_heavy, t=1) == []

    def test_direction(self, wheel_graph, cfg):
        out_spec = ConnectionSpec(direction="out")
        got = find_connected(wheel_graph, cfg, node_ref("a"), out_spec, t=0)
        assert [str(g) for g, _ in got] == ["node:b", "node:d"]
        in_spec = ConnectionSpec(direction="in")
        got_in = find_connected(wheel_graph, cfg, node_ref("d"), in_spec, t=0)
        assert [str(g) for g, _ in got_in] == ["node:a"]

    def test_free_time_unions(self, wheel_graph, cfg):
        got = find_connected(wheel_graph, cfg, node_ref("c"), ConnectionSpec())
        assert (node_ref("d"), 2) in got and (node_ref("b"), 1) in got

    def test_pairs_equal_snapshot_edges(self, wheel_graph, cfg):
        # Oracle: the snapshot's deduplicated endpoint pairs.
        for t in range(wheel_graph.n_times):
            got = {
                (g1.id, g2.id)
                for g1, g2, ti in find_connected_pairs(wheel_graph, cfg, ConnectionSpec(), t=t)
            }
            expect = {
                tuple(sorted((src, dst)))
                for _, src, dst, _ in wheel_graph.snapshot(t).edges
            }
            assert got == expect

    def test_pairs_weight_filter(self, wheel_graph, cfg):
        # Oracle: scan the edge list for weight > 4 at t=0.
        heavy = ConnectionSpec(edge_attr="weight",
                               edge_constraint=ValueConstraint("gt", (4.0,)))
        got = find_connected_pairs(wheel_graph, cfg, heavy, t=0)
        assert [(g1.id, g2.id) for g1, g2, _ in got] == [("a", "b")]

    def test_pairs_empty_snapshot(self, cfg):
        g = load(jl([
            {"type": "node", "id": "x", "start": 0, "end": 1},
        ]))
        assert find_connected_pairs(g, cfg, ConnectionSpec(), t=0) == []

    def test_connection_times_interval(self, wheel_graph, cfg):
        assert connection_times(wheel_graph, cfg, node_ref("b"), node_ref("c"),
                                ConnectionSpec()) == [1, 2, 3]
        assert connection_times(wheel_graph, cfg, node_ref("b"), node_ref("c"),
                                ConnectionSpec(mode="path", max_distance=9)) == [1, 2, 3]

    def test_connection_times_never(self, cfg):
        g = load(jl([
            {"type": "node", "id": "x", "start": 0, "end": 2},
            {"type": "node", "id": "y", "start": 0, "end": 2},
        ]))
        assert connection_times(g, cfg, node_ref("x"), node_ref("y"), ConnectionSpec()) == []

    def test_times_match_per_t_bfs(self, wheel_graph, cfg):
        # Oracle: BFS at every t for distance <= 2 between a and c, with the
        # b relay only alive in the middle of the period.
        spec = ConnectionSpec(mode="path", max_distance=2)
        got = connection_times(wheel_graph, cfg, node_ref("a"), node_ref("c"), spec)
        expect = []
        for t in range(wheel_graph.n_times):
            snap = wheel_graph.snapshot(t)
            frontier, seen = ["a"], {"a"}
            for _ in range(2):
                nxt = []
                for u in frontier:
                    for v in snap.neighbours(u):
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            if "c" in seen:
                expect.append(t)
        assert got == expect

    def test_object_level_connection(self, cfg):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abcd"
        ] + [
            {"type": "edge", "id": "e1", "src": "b", "dst": "c", "start": 0, "end": 0},
            {"type": "object", "id": "o1", "nodes": ["a", "b"]},
            {"type": "object", "id": "o2", "nodes": ["c", "d"]},
        ]))
        rep = find_connection(g, cfg, object_ref("o1"), object_ref("o2"), 0)
        assert rep.adjacent and rep.distance == 1


PRESENCE_ORACLE = [
    (re.compile(r"^1+$"), PresenceClass.ALWAYS),
    (re.compile(r"^0+$"), PresenceClass.NEVER),
    (re.compile(r"^0+1+$"), PresenceClass.APPEARING),
    (re.compile(r"^1+0+$"), PresenceClass.DISAPPEARING),
]


def oracle_presence(bits: str) -> PresenceClass:
    for rx, cls in PRESENCE_ORACLE:
        if rx.match(bits):
            return cls
    return PresenceClass.INTERMITTENT


class TestStructuralPatterns:
    def test_presence_decision_table(self):
        # Exhaustive over all bitstrings of length <= 6 against the regex
        # oracle (the implementation is index arithmetic, not regex).
        for length in range(1, 7):
            for combo in itertools.product("01", repeat=length):
                bits = "".join(combo)
                assert classify_presence(bits) == oracle_presence(bits), bits

    def test_pair_always(self, wheel_graph, cfg):
        p = pair_over_time(wheel_graph, cfg, node_ref("a"), node_ref("b"),
                           TimeInterval(0, 4))
        assert p.presence_class == PresenceClass.ALWAYS
        assert p.presence_bits == "11111"

    def test_pair_appearing_and_bits(self, wheel_graph, cfg):
        p = pair_over_time(wheel_graph, cfg, node_ref("b"), node_ref("c"),
                           TimeInterval(0, 3))
        assert p.presence_bits == "0111"
        assert p.presence_class == PresenceClass.APPEARING

    def test_triangle_metrics(self, cfg):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abc"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 0, "end": 0},
            {"type": "edge", "id": "e3", "src": "c", "dst": "a", "start": 0, "end": 0},
        ]))
        metrics = snapshot_metrics(g, [node_ref(n) for n in "abc"], 0)
        assert metrics["density"] == 1.0
        assert metrics["triangles"] == 1.0
        assert metrics["components"] == 1.0
        assert metrics["mean_degree"] == 2.0

    def test_metrics_match_brute_force(self, wheel_graph):
        # Oracle: direct triple/quad enumeration over the snapshot pairs.
        members = [node_ref(n) for n in "abcd"]
        for t in range(wheel_graph.n_times):
            snap = wheel_graph.snapshot(t)
            pairs = {
                tuple(sorted((s, d))) for _, s, d, _ in snap.edges
            }
            names = list(snap.nodes)
            n = len(names)
            tri = sum(
                1 for trio in itertools.combinations(names, 3)
                if all(tuple(sorted(p)) in pairs for p in itertools.combinations(trio, 2))
            )
            metrics = snapshot_metrics(wheel_graph, members, t)
            assert metrics["triangles"] == tri
            assert metrics["density"] == (2 * len(pairs) / (n * (n - 1)) if n > 1 else 0.0)

    def test_growing_graph_density_trend(self, cfg):
        # Oracle: per-t density then the trend rules.
        records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in "abcd"]
        edges = [("ab", "a", "b", 0), ("bc", "b", "c", 1), ("cd", "c", "d", 2),
                 ("ad", "a", "d", 3)]
        for eid, s, d, start in edges:
            records.append({"type": "edge", "id": eid, "src": s, "dst": d,
                            "start": start, "end": 3})
        g = load(jl(records))
        p = config_over_time(g, cfg, [node_ref(n) for n in "abcd"], TimeInterval(0, 3))
        assert p.trends_dict()["density"] == TrendClass.INCREASING.value

    def test_pairs_aggregate_counts(self, wheel_graph, cfg):
        p = pairs_aggregate(wheel_graph, cfg, [node_ref(n) for n in "abcd"],
                            TimeInterval(0, 4))
        freq = dict(p.class_frequencies)
        assert sum(freq.values()) == 6  # C(4,2) unordered pairs


class TestStructuralSearch:
    def test_appearing_pair(self, wheel_graph, cfg):
        # Oracle: presence bitstrings for all pairs over the full period;
        # only b-c (edge born at t1, gone after t3) is 0...1...0 shaped;
        # over [0,3] restricted it is APPEARING.
        matches = structural_search(
            wheel_graph, cfg, PresenceLiteral(PresenceClass.APPEARING),
            SearchSpace(), time_key=TimeInterval(0, 3),
        )
        names = [m.ref_name for m in matches]
        assert "node:b|node:c" in names
        for m in matches:
            assert m.payload.presence_class == PresenceClass.APPEARING

    def test_density_one_finds_cliques(self, cfg):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abcxy"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 0, "end": 0},
            {"type": "edge", "id": "e3", "src": "c", "dst": "a", "start": 0, "end": 0},
            {"type": "edge", "id": "e4", "src": "x", "dst": "y", "start": 0, "end": 0},
            {"type": "subset", "name": "tri", "members": ["node:a", "node:b", "node:c"]},
            {"type": "subset", "name": "pair", "members": ["node:x", "node:y"]},
            {"type": "subset", "name": "mixed", "members": ["node:a", "node:x"]},
        ]))
        matches = structural_search(
            g, cfg.replace(similarity_threshold=1.0), ConfigLiteral((("density", 1.0),)),
            SearchSpace(subset_family=SubsetFamily.NAMED_SUBSETS),
            time_key=0,
        )
        assert [m.ref_name for m in matches] == ["subset:pair", "subset:tri"]

    def test_threshold_zero_returns_all(self, wheel_graph, cfg):
        matches = structural_search(
            wheel_graph, cfg.replace(similarity_threshold=0.0),
            PresenceLiteral(PresenceClass.ALWAYS),
            SearchSpace(), time_key=TimeInterval(0, 4),
        )
        assert len(matches) == 6

    def test_search_pairs_aggregate(self, wheel_graph, cfg):
        # Oracle: aggregate the per-pair presence classes of the one named
        # subset directly, then search for that exact table.
        target = pairs_aggregate(
            wheel_graph, cfg, wheel_graph.subsets["ALL"].members, TimeInterval(0, 4))
        matches = structural_search(
            wheel_graph, cfg.replace(similarity_threshold=1.0), target,
            SearchSpace(subset_family=SubsetFamily.NAMED_SUBSETS),
            time_key=TimeInterval(0, 4),
        )
        assert [m.ref_name for m in matches] == ["subset:ALL"]
        assert matches[0].payload.class_frequencies == target.class_frequencies

    def test_components_candidates_use_union_graph(self, cfg):
        # Over an interval, component candidates come from the graph whose
        # edges were alive at any covered time point. Oracle: hand union.
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 3} for n in "abcd"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 3, "end": 3},
            {"type": "edge", "id": "e3", "src": "c", "dst": "d", "start": 1, "end": 1},
        ]))
        from tgq.graph import TimeInterval as TI
        from tgq.search import group_candidates

        # indices for labels 0 and 1: union edges {e1, e3} -> {a,b}, {c,d}
        early = TI(g.index_of(0), g.index_of(1))
        comp = group_candidates(
            g, SearchSpace(subset_family=SubsetFamily.CONNECTED_COMPONENTS),
            context=early)
        assert [tuple(m.id for m in c.members) for c in comp] == [("a", "b"), ("c", "d")]
        # the whole domain: all edges -> one component
        comp_full = group_candidates(
            g, SearchSpace(subset_family=SubsetFamily.CONNECTED_COMPONENTS),
            context=g.full_interval())
        assert [tuple(m.id for m in c.members) for c in comp_full] == [
            ("a", "b", "c", "d")]

    def test_directed_two_hop_path(self, cfg):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abc"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "directed": True,
             "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "directed": True,
             "start": 0, "end": 0},
        ]))
        out2 = ConnectionSpec(mode="path", max_distance=2, direction="out")
        got = find_connected(g, cfg, node_ref("a"), out2, t=0)
        assert [str(x) for x, _ in got] == ["node:b", "node:c"]
        # against the arrows nothing is reachable from a
        in2 = ConnectionSpec(mode="path", max_distance=2, direction="in")
        assert find_connected(g, cfg, node_ref("a"), in2, t=0) == []

    def test_search_config_trend(self, cfg):
        # Growing graph from the density-trend test; search for the rising
        # density over named subsets.
        records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in "abcd"]
        for eid, s, d, start in [("ab", "a", "b", 0), ("bc", "b", "c", 1),
                                 ("cd", "c", "d", 2), ("ad", "a", "d", 3)]:
            records.append({"type": "edge", "id": eid, "src": s, "dst": d,
                            "start": start, "end": 3})
        records.append({"type": "subset", "name": "ALL",
                        "members": [f"node:{n}" for n in "abcd"]})
        g = load(jl(records))
        from tgq.structure import ConfigTrendLiteral

        matches = structural_search(
            g, cfg.replace(similarity_threshold=1.0),
            ConfigTrendLiteral((("density", "INCREASING"),)),
            SearchSpace(subset_family=SubsetFamily.NAMED_SUBSETS),
            time_key=TimeInterval(0, 3),
        )
        assert [m.ref_name for m in matches] == ["subset:ALL"]


    def test_structural_behaviours_need_node_members(self, cfg):
        # The corpus subsets hold nodes only. A named subset of edges is
        # rejected where a query names it, and where SUBSETS enumerates it
        # the snapshot kernel's FAMILY_MISMATCH passes through config_over_time.
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 1} for n in "ab"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 1},
            {"type": "subset", "name": "links", "members": ["edge:e1"]},
        ]))
        for text, code, message in [
            ("STRUCT CHARACTERIZE CONFIG OF subset:links AT t=0", VALIDATION_ERROR,
             "structural behaviours need node members (edge:e1 is not)"),
            ("STRUCT SEARCH CONFIGTREND density=INCREASING OVER SUBSETS", FAMILY_MISMATCH,
             "snapshot configuration is defined over node sets"),
        ]:
            with pytest.raises(TgqError) as e:
                run_query(text, g, cfg)
            assert (e.value.code, e.value.message) == (code, message)


class TestStructuralCompare:
    def test_same_pair_two_intervals(self, wheel_graph, cfg):
        lhs = StructScopeSide(StructScope(
            StructScopeKind.PAIR_OVER_TIME, g1=node_ref("a"), g2=node_ref("b"),
            time_key=TimeInterval(0, 1)))
        rhs = StructScopeSide(StructScope(
            StructScopeKind.PAIR_OVER_TIME, g1=node_ref("a"), g2=node_ref("b"),
            time_key=TimeInterval(3, 4)))
        report = direct_compare(wheel_graph, cfg, lhs, rhs)
        assert report.relation == "same" and report.score == 1.0
        assert report.label == "EVOLUTIONARY"

    def test_opposite_density_trends(self, cfg):
        # Oracle: two characterizations plus the similarity rules; growing
        # half vs shrinking half of the node set.
        records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in "abcdef"]
        grow = [("g1", "a", "b", 1), ("g2", "b", "c", 2), ("g3", "a", "c", 3)]
        for eid, s, d, start in grow:
            records.append({"type": "edge", "id": eid, "src": s, "dst": d,
                            "start": start, "end": 3})
        shrink = [("s1", "d", "e", 0, 0), ("s2", "e", "f", 0, 1), ("s3", "d", "f", 0, 2)]
        for eid, s, d, start, end in shrink:
            records.append({"type": "edge", "id": eid, "src": s, "dst": d,
                            "start": start, "end": end})
        records.append({"type": "subset", "name": "G1",
                        "members": ["node:a", "node:b", "node:c"]})
        records.append({"type": "subset", "name": "G2",
                        "members": ["node:d", "node:e", "node:f"]})
        g = load(jl(records))
        side = lambda name: StructScopeSide(StructScope(
            StructScopeKind.CONFIG_OVER_TIME,
            group=GroupCandidate(f"subset:{name}", g.subsets[name].members),
            time_key=TimeInterval(0, 3), metrics=("density",)))
        report = direct_compare(g, cfg, side("G1"), side("G2"))
        assert report.relation == "opposite" and report.opposite

    def test_seek_same_config_pairs(self, cfg):
        # Oracle: double loop over subsets at the fixed time.
        from tgq.relations import RelationFamily, RelationSpec
        from tgq.structure import SeekSideStructConfig
        from tgq.tasks import relation_seek

        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abcd"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "c", "dst": "d", "start": 0, "end": 0},
            {"type": "subset", "name": "P1", "members": ["node:a", "node:b"]},
            {"type": "subset", "name": "P2", "members": ["node:c", "node:d"]},
            {"type": "subset", "name": "P3", "members": ["node:a", "node:c"]},
        ]))
        side = SeekSideStructConfig(time_key=0)
        pairs = relation_seek(
            g, cfg, RelationSpec(RelationFamily.PATTERN, "same"), side, side,
            space=SearchSpace(subset_family=SubsetFamily.NAMED_SUBSETS),
        )
        got = {(p.lhs.ref_key.name, p.rhs.ref_key.name) for p in pairs}
        assert got == {("subset:P1", "subset:P2")}

    def test_seek_config_budget_checked_before_configurations(self, monkeypatch):
        # 2 times x 3 subsets = 6 configurations; a cap of 5 must reject them
        # before the first one is built.
        from tgq import structure
        from tgq.config import Config
        from tgq.errors import SEARCH_SPACE_EXCEEDED

        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 1} for n in "abcd"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 1},
            {"type": "subset", "name": "P1", "members": ["node:a", "node:b"]},
            {"type": "subset", "name": "P2", "members": ["node:c", "node:d"]},
            {"type": "subset", "name": "P3", "members": ["node:a", "node:c"]},
        ]))
        built = []
        real = structure.snapshot_config
        monkeypatch.setattr(structure, "snapshot_config",
                            lambda *args: built.append(args) or real(*args))
        side = structure.SeekSideStructConfig()
        space = SearchSpace(subset_family=SubsetFamily.NAMED_SUBSETS)
        with pytest.raises(TgqError) as e:
            side.resolve_bindings(g, Config(search_max_candidates=5), space)
        assert e.value.code == SEARCH_SPACE_EXCEEDED
        assert e.value.details["count"] == 2 * 3
        assert e.value.message == "relation seeking: 6 candidates exceed the cap of 5"
        assert built == []
        assert len(side.resolve_bindings(g, Config(search_max_candidates=6), space)) == 6
        assert len(built) == 6
