"""Relation families; the interval-algebra oracle is an independent
endpoint-comparison predicate table evaluated exhaustively."""

import itertools

import pytest

from tgq.config import Config
from tgq.errors import FAMILY_MISMATCH, MISSING_TIME_CONTEXT, TgqError
from tgq.graph import TimeInterval, load, node_ref, object_ref
from tgq.patterns import classify_trend, match_score
from tgq.relations import (
    ALLEN_INVERSE,
    RelationFamily,
    RelationSpec,
    allen_relation,
    are_adjacent,
    configuration_equal,
    eval_relation,
    point_relation,
    set_relation,
    shortest_connection,
)

from conftest import jl


# Oracle: each of the 13 relations as an independent predicate over the
# four endpoints (inclusive intervals; points are start == end).
ORACLE_PREDICATES = {
    "before": lambda s1, e1, s2, e2: e1 < s2,
    "after": lambda s1, e1, s2, e2: s1 > e2,
    "equals": lambda s1, e1, s2, e2: s1 == s2 and e1 == e2,
    "starts": lambda s1, e1, s2, e2: s1 == s2 and e1 < e2,
    "started_by": lambda s1, e1, s2, e2: s1 == s2 and e1 > e2,
    "finishes": lambda s1, e1, s2, e2: e1 == e2 and s1 > s2,
    "finished_by": lambda s1, e1, s2, e2: e1 == e2 and s1 < s2,
    "meets": lambda s1, e1, s2, e2: e1 == s2 and s1 < s2 and e1 < e2,
    "met_by": lambda s1, e1, s2, e2: s1 == e2 and s2 < s1 and e2 < e1,
    "overlaps": lambda s1, e1, s2, e2: s1 < s2 < e1 < e2,
    "overlapped_by": lambda s1, e1, s2, e2: s2 < s1 < e2 < e1,
    "during": lambda s1, e1, s2, e2: s1 > s2 and e1 < e2,
    "contains": lambda s1, e1, s2, e2: s1 < s2 and e1 > e2,
}


def all_intervals(t):
    return [TimeInterval(s, e) for s in range(t) for e in range(s, t)]


class TestAllen:
    def test_spec_examples(self):
        assert allen_relation(TimeInterval(0, 2), TimeInterval(3, 5)) == "before"
        assert allen_relation(TimeInterval(0, 4), TimeInterval(2, 6)) == "overlaps"
        assert allen_relation(TimeInterval(1, 3), TimeInterval(1, 5)) == "starts"
        assert allen_relation(TimeInterval(2, 4), TimeInterval(2, 4)) == "equals"

    def test_exhaustive_unique_tag(self):
        for i1, i2 in itertools.product(all_intervals(6), repeat=2):
            matches = [
                tag for tag, pred in ORACLE_PREDICATES.items()
                if pred(i1.start, i1.end, i2.start, i2.end)
            ]
            assert len(matches) == 1, (i1, i2, matches)
            assert allen_relation(i1, i2) == matches[0]

    def test_inverse_symmetry(self):
        for i1, i2 in itertools.product(all_intervals(6), repeat=2):
            assert allen_relation(i1, i2) == ALLEN_INVERSE[allen_relation(i2, i1)]

    def test_point_embedding(self):
        # A point against a proper interval can only land in five relations.
        allowed = {"before", "starts", "during", "finishes", "after"}
        for p in range(6):
            point = TimeInterval(p, p)
            for iv in all_intervals(6):
                if iv.start == iv.end:
                    continue
                assert allen_relation(point, iv) in allowed


class TestPointAndSet:
    def test_point_trichotomy(self):
        for t1 in range(5):
            for t2 in range(5):
                tags = [point_relation(t1, t2)]
                assert tags[0] in ("before", "same", "after")
                held = sum(
                    eval_relation(
                        RelationSpec(RelationFamily.TEMPORAL_POINT, op), t1, t2, Config()
                    )
                    for op in ("before", "same", "after")
                )
                assert held == 1

    def test_set_relations(self):
        assert set_relation({"a", "b"}, {"a", "b"}) == "equal"
        assert set_relation({"a"}, {"a", "b"}) == "subset"
        assert set_relation({"a", "b"}, {"b"}) == "superset"
        assert set_relation({"a"}, {"b"}) == "disjoint"
        assert set_relation({"a", "b"}, {"b", "c"}) == "overlapping"

    def test_set_consistency(self):
        cfg = Config()
        spec = lambda op: RelationSpec(RelationFamily.SET, op)
        for s1, s2 in [({"a"}, {"a"}), ({"a"}, {"b"}), ({"a", "b"}, {"b", "c"})]:
            equal = eval_relation(spec("equal"), s1, s2, cfg)
            subs = eval_relation(spec("subset"), s1, s2, cfg)
            sups = eval_relation(spec("superset"), s1, s2, cfg)
            disj = eval_relation(spec("disjoint"), s1, s2, cfg)
            over = eval_relation(spec("overlapping"), s1, s2, cfg)
            if equal:
                assert subs and sups
            if disj:
                assert not over


class TestValueAndPattern:
    def test_value_ops(self, cfg):
        spec = lambda op, *p: RelationSpec(RelationFamily.VALUE, op, p)
        assert eval_relation(spec("lt"), 1.0, 2.0, cfg)
        assert eval_relation(spec("within", 0.5), 1.0, 1.4, cfg)
        assert not eval_relation(spec("within", 0.2), 1.0, 1.4, cfg)
        assert eval_relation(spec("eq"), "red", "red", cfg)
        with pytest.raises(TgqError) as e:
            eval_relation(spec("lt"), "red", "blue", cfg)
        assert e.value.code == FAMILY_MISMATCH

    def test_pattern_ops(self, cfg):
        up = classify_trend([(0, 1), (1, 2)], cfg)
        down = classify_trend([(0, 2), (1, 1)], cfg)
        same = RelationSpec(RelationFamily.PATTERN, "same")
        opp = RelationSpec(RelationFamily.PATTERN, "opposite")
        assert eval_relation(same, up, up, cfg)
        assert eval_relation(opp, up, down, cfg)
        assert match_score(up, down, cfg)[0] == 0.0

    def test_bad_op_rejected(self):
        with pytest.raises(TgqError):
            RelationSpec(RelationFamily.VALUE, "overlaps")


class TestStructural:
    @pytest.fixture
    def graph(self):
        return load(jl([
            {"type": "node", "id": n, "start": 0, "end": 3} for n in "abcd"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 3},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 0, "end": 3},
        ]))

    def test_bfs_witness(self, graph):
        # Oracle: BFS by hand. a-b-c means distance 2 with path a,b,c.
        dist, path = shortest_connection(graph, 0, node_ref("a"), node_ref("c"))
        assert dist == 2
        assert path == ["a", "b", "c"]

    def test_adjacent(self, graph, cfg):
        flag, edges = are_adjacent(graph, 0, node_ref("a"), node_ref("b"))
        assert flag and edges == ["e1"]
        assert not are_adjacent(graph, 0, node_ref("a"), node_ref("c"))[0]

    def test_disconnected(self, graph):
        dist, path = shortest_connection(graph, 0, node_ref("a"), node_ref("d"))
        assert dist is None and path is None

    def test_distance_le(self, graph, cfg):
        spec = RelationSpec(RelationFamily.STRUCTURAL, "distance_le", (2,))
        assert eval_relation(spec, node_ref("a"), node_ref("c"), cfg, graph, 0)
        spec1 = RelationSpec(RelationFamily.STRUCTURAL, "distance_le", (1,))
        assert not eval_relation(spec1, node_ref("a"), node_ref("c"), cfg, graph, 0)

    def test_needs_time_context(self, graph, cfg):
        spec = RelationSpec(RelationFamily.STRUCTURAL, "adjacent")
        with pytest.raises(TgqError) as e:
            eval_relation(spec, node_ref("a"), node_ref("b"), cfg)
        assert e.value.code == MISSING_TIME_CONTEXT

    def test_connected_matches_bfs_oracle(self):
        import random

        rng = random.Random(5)
        n = 50
        records = [{"type": "node", "id": f"n{i}", "start": 0, "end": 2} for i in range(n)]
        adj = {i: set() for i in range(n)}
        eid = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.05:
                    records.append({"type": "edge", "id": f"e{eid}", "src": f"n{i}",
                                    "dst": f"n{j}", "start": 0, "end": 2})
                    adj[i].add(j)
                    adj[j].add(i)
                    eid += 1
        g = load(jl(records))

        def oracle_connected(i, j):
            seen, todo = {i}, [i]
            while todo:
                u = todo.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            return j in seen

        for i in range(n):
            for j in range(n):
                dist, _ = shortest_connection(g, 1, node_ref(f"n{i}"), node_ref(f"n{j}"))
                assert (dist is not None) == oracle_connected(i, j)


class TestConfigurationEqual:
    def test_isomorphic_triangles(self):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abcxyz"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 0, "end": 0},
            {"type": "edge", "id": "e3", "src": "c", "dst": "a", "start": 0, "end": 0},
            {"type": "edge", "id": "e4", "src": "x", "dst": "y", "start": 0, "end": 0},
            {"type": "edge", "id": "e5", "src": "y", "dst": "z", "start": 0, "end": 0},
            {"type": "edge", "id": "e6", "src": "z", "dst": "x", "start": 0, "end": 0},
            {"type": "object", "id": "t1", "nodes": ["a", "b", "c"]},
            {"type": "object", "id": "t2", "nodes": ["x", "y", "z"]},
        ]))
        assert configuration_equal(g, 0, object_ref("t1"), object_ref("t2"))

    def test_not_isomorphic(self):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abcxyz"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 0, "end": 0},
            {"type": "edge", "id": "e3", "src": "c", "dst": "a", "start": 0, "end": 0},
            {"type": "edge", "id": "e4", "src": "x", "dst": "y", "start": 0, "end": 0},
            {"type": "edge", "id": "e5", "src": "y", "dst": "z", "start": 0, "end": 0},
            {"type": "object", "id": "t1", "nodes": ["a", "b", "c"]},
            {"type": "object", "id": "p1", "nodes": ["x", "y", "z"]},
        ]))
        assert not configuration_equal(g, 0, object_ref("t1"), object_ref("p1"))

    def test_direction_matters(self):
        g = load(jl([
            {"type": "node", "id": n, "start": 0, "end": 0} for n in "abxy"
        ] + [
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "directed": True,
             "start": 0, "end": 0},
            {"type": "edge", "id": "e2", "src": "x", "dst": "y", "directed": False,
             "start": 0, "end": 0},
            {"type": "object", "id": "o1", "nodes": ["a", "b"]},
            {"type": "object", "id": "o2", "nodes": ["x", "y"]},
        ]))
        assert not configuration_equal(g, 0, object_ref("o1"), object_ref("o2"))

    def test_large_objects_compare_members(self):
        # Over 10 alive nodes a side, isomorphism is not tried: two 11-node
        # paths with different members compare unequal, although they are
        # isomorphic, and the same members compare equal.
        records = [{"type": "node", "id": f"n{i:02d}", "start": 0, "end": 0} for i in range(22)]
        records += [{"type": "edge", "id": f"e{i:02d}", "src": f"n{i:02d}", "dst": f"n{i + 1:02d}",
                     "start": 0, "end": 0} for i in range(21) if i != 10]
        records.append({"type": "object", "id": "big1", "nodes": [f"n{i:02d}" for i in range(11)]})
        records.append({"type": "object", "id": "big2",
                        "nodes": [f"n{i:02d}" for i in range(11, 22)]})
        records.append({"type": "object", "id": "big3",
                        "nodes": [f"n{i:02d}" for i in reversed(range(11))]})
        g = load(jl(records))
        assert not configuration_equal(g, 0, object_ref("big1"), object_ref("big2"))
        assert configuration_equal(g, 0, object_ref("big1"), object_ref("big3"))
        # the same two paths cut to 10 nodes are compared by isomorphism
        small = [r for r in records if r["type"] != "object" and "n10" not in r.values()
                 and "n21" not in r.values()]
        small.append({"type": "object", "id": "p1", "nodes": [f"n{i:02d}" for i in range(10)]})
        small.append({"type": "object", "id": "p2", "nodes": [f"n{i:02d}" for i in range(11, 21)]})
        assert configuration_equal(load(jl(small)), 0, object_ref("p1"), object_ref("p2"))
