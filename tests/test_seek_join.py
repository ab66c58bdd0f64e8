"""Relation seeking as a join, checked against the nested loop.

``reference_relation_seek`` is the pair loop ``tasks.relation_seek`` ran
before value equality became a hash join: every binding of the second side
is a candidate for every binding of the first. The join must return the
same pairs in the same order and raise the same errors.
"""

import json
from dataclasses import dataclass

import pytest

from tgq.config import Config
from tgq.errors import SEARCH_SPACE_EXCEEDED, TgqError
from tgq.graph import load, node_ref, object_ref
from tgq.relations import RelationFamily, RelationSpec
from tgq.search import SearchSpace, check_budget
from tgq.tasks import (
    AuxRelation,
    Binding,
    SeekPair,
    SeekSideValues,
    _main_relation_detail,
    relation_seek,
)

from randsuite import random_graph


def reference_relation_seek(graph, cfg, relation, side1, side2, aux=(), space=None):
    space = space or SearchSpace()
    b1 = side1.resolve_bindings(graph, cfg, space)
    b2 = side2.resolve_bindings(graph, cfg, space)
    check_budget(max(len(b1), len(b2)), cfg, "relation seeking")
    check_budget(len(b1) * len(b2), cfg, "relation seeking (pairs)")
    symmetric = side1 == side2

    def qualified(x, y):
        detail = _main_relation_detail(relation, x, y, cfg)
        if detail is None:
            return None
        for a in aux:
            if not a.holds(graph, cfg, x, y):
                return None
        return detail

    results = []
    for x in b1:
        for y in b2:
            if symmetric and (x.time_key, x.ref_name) == (y.time_key, y.ref_name):
                continue
            detail = qualified(x, y)
            if detail is None:
                continue
            if symmetric and (y.sort_key(), x.sort_key()) < (x.sort_key(), y.sort_key()):
                if qualified(y, x) is not None:
                    continue
            results.append(SeekPair(x, y, detail))
    results.sort(key=lambda p: (p.lhs.sort_key(), p.rhs.sort_key()))
    return results


def outcome(seek, *args):
    """The pairs ``seek`` returns, or the code, message and details of the
    error it raises."""
    try:
        return seek(*args)
    except TgqError as err:
        return (err.code, err.message, err.details)


def extended_graph(seed: int):
    """A randsuite graph replayed from its tables, plus a categorical
    attribute ``c`` and a boolean ``b`` recorded wherever ``w`` and ``u``
    are, and an object ``o`` of two nodes whose ``w`` is aggregated from
    its members."""
    raw = random_graph(seed)
    records = []
    for name, spans in raw.node_spans.items():
        for s, e in spans:
            # one record per point keeps every time label in the domain
            records += [{"type": "node", "id": name, "start": t, "end": t}
                        for t in range(s, e + 1)]
    for edge_id, src, dst, start, end in raw.edge_rows:
        records.append({"type": "edge", "id": edge_id, "src": src, "dst": dst,
                        "start": start, "end": end})
    for elem, attr, t, value in raw.attr_rows:
        records.append({"type": "attr", "elem": f"node:{elem}", "name": attr,
                        "t": t, "value": value})
        extra = ("c", ("lo", "mid", "hi")[int(value) // 3]) if attr == "w" else (
            "b", int(value) % 2 == 1)
        records.append({"type": "attr", "elem": f"node:{elem}", "name": extra[0],
                        "t": t, "value": extra[1]})
    for name, members in raw.subsets.items():
        records.append({"type": "subset", "name": name,
                        "members": [f"node:{m}" for m in members]})
    records.append({"type": "object", "id": "o", "nodes": sorted(raw.node_spans)[:2]})
    return load(json.dumps(r) for r in records)


EQ = RelationSpec(RelationFamily.VALUE, "eq")
W = SeekSideValues("w")
W0 = SeekSideValues("w", time_key=0)
W1 = SeekSideValues("w", time_key=1)
ADJACENT = RelationSpec(RelationFamily.STRUCTURAL, "adjacent")

# name -> (relation, side1, side2, aux)
CASES = {
    "eq symmetric": (EQ, W, W, ()),
    "eq symmetric at t": (EQ, W0, W0, ()),
    "eq asymmetric attributes": (EQ, W, SeekSideValues("u"), ()),
    "eq asymmetric times": (EQ, W0, W1, ()),
    "eq g1 != g2": (EQ, W, W, (AuxRelation("graph", RelationSpec(RelationFamily.VALUE, "ne")),)),
    "eq t1 before t2": (
        EQ, W, W, (AuxRelation("time", RelationSpec(RelationFamily.TEMPORAL_POINT, "before")),)),
    "eq adjacent at t": (EQ, W, W, (AuxRelation("graph", ADJACENT, t_context=0),)),
    # no time context: raises on the first equal pair at different times
    "eq adjacent without t": (EQ, W, W, (AuxRelation("graph", ADJACENT),)),
    "eq categorical": (EQ, SeekSideValues("c"), SeekSideValues("c"), ()),
    "eq bool against numeric": (EQ, SeekSideValues("b"), W, ()),
    "eq object aggregate": (EQ, SeekSideValues("w", ref_key=object_ref("o")), W, ()),
    "lt symmetric": (RelationSpec(RelationFamily.VALUE, "lt"), W0, W0, ()),
    "ne asymmetric": (RelationSpec(RelationFamily.VALUE, "ne"), W0, W1, ()),
}

SEEDS = range(30)


@pytest.fixture(scope="module")
def graphs():
    return [extended_graph(seed) for seed in SEEDS]


@pytest.mark.parametrize("name", sorted(CASES))
def test_join_matches_nested_loop(graphs, name):
    relation, side1, side2, aux = CASES[name]
    cfg = Config(search_max_candidates=1_000_000)
    raises = name == "eq adjacent without t"
    found = errors = 0
    for g in graphs:
        expected = outcome(reference_relation_seek, g, cfg, relation, side1, side2, aux)
        got = outcome(relation_seek, g, cfg, relation, side1, side2, aux)
        assert got == expected
        if isinstance(expected, tuple):
            errors += 1
        else:
            found += len(expected)
    assert found > 0
    assert (errors > 0) == raises


def test_bool_pairs_with_numeric_one(graphs):
    cfg = Config(search_max_candidates=1_000_000)
    relation, side1, side2, aux = CASES["eq bool against numeric"]
    payloads = {(p.lhs.payload, p.rhs.payload)
                for g in graphs for p in relation_seek(g, cfg, relation, side1, side2, aux)}
    assert payloads == {(True, 1.0), (False, 0.0)}


def test_budget_errors_identical(graphs):
    checks = set()
    for cap in (1, 5, 20, 60, 150, 400):
        cfg = Config(search_max_candidates=cap)
        for g in graphs:
            for side1, side2 in ((W, W), (W0, W1)):
                expected = outcome(reference_relation_seek, g, cfg, EQ, side1, side2)
                assert outcome(relation_seek, g, cfg, EQ, side1, side2) == expected
                if isinstance(expected, tuple):
                    assert expected[0] == SEARCH_SPACE_EXCEEDED
                    checks.add(expected[1].split(":")[0])
    assert checks == {"relation seeking", "relation seeking (pairs)"}


@dataclass(frozen=True)
class ListSide:
    """A seek side with fixed bindings, for payloads ingest cannot produce."""

    bindings: tuple

    def resolve_bindings(self, graph, cfg, space):
        return list(self.bindings)


def test_nan_and_cross_type_payloads(graphs):
    nan = float("nan")
    payloads = [nan, nan, float("nan"), 1.0, True, 1, "1", 0.0, -0.0, False, "", 2.5]
    side = ListSide(tuple(Binding(0, node_ref(f"n{i}"), p) for i, p in enumerate(payloads)))
    other = ListSide(side.bindings[::-1])
    cfg = Config()
    for s1, s2 in ((side, side), (side, other)):
        expected = reference_relation_seek(graphs[0], cfg, EQ, s1, s2)
        assert relation_seek(graphs[0], cfg, EQ, s1, s2) == expected
        assert expected
        assert all(p.lhs.payload == p.lhs.payload for p in expected)


@dataclass(frozen=True)
class RecordingAux:
    """An aux relation that holds for every pair and records each one."""

    calls: list

    def holds(self, graph, cfg, x, y):
        self.calls.append((x, y))
        return True


def test_aux_sees_same_pairs_in_same_order(graphs):
    # The first aux relation to raise depends on this order.
    cfg = Config(search_max_candidates=1_000_000)
    for g in graphs:
        for side1, side2 in ((W, W), (W0, W1), (SeekSideValues("b"), W)):
            expected, got = RecordingAux([]), RecordingAux([])
            reference_relation_seek(g, cfg, EQ, side1, side2, (expected,))
            relation_seek(g, cfg, EQ, side1, side2, (got,))
            assert got.calls == expected.calls
