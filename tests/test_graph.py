"""Store-level behaviour: ingest, data-function evaluation, snapshots."""

import random
from pathlib import Path

import pytest

from tgq.config import Config
from tgq.errors import (
    ABSENT_ELEMENT,
    CONSISTENCY_ERROR,
    MISSING_VALUE,
    SCHEMA_ERROR,
    TgqError,
    VALIDATION_ERROR,
)
from tgq.graph import (
    ElemKind, GraphElementRef, TimeInterval, _covered, _merge_intervals, edge_ref, load,
    load_path, node_ref, object_ref,
)

from conftest import jl
from graph_dump import dump, same_graph
from randsuite import random_graph


def codes(excinfo):
    return excinfo.value.code


class TestLoad:
    def test_counts(self):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 3},
            {"type": "node", "id": "b", "start": 0, "end": 3},
            {"type": "node", "id": "c", "start": 1, "end": 3},
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 2},
            {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 1, "end": 3},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 2, "value": 2},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 1, "value": 3},
            {"type": "attr", "elem": "node:c", "name": "w", "t": 3, "value": 4},
        ]))
        assert len(g.nodes) == 3
        assert len(g.edges) == 2
        assert g.time_labels == (0, 1, 2, 3)

    def test_empty_stream(self):
        g = load([])
        assert g.n_times == 0
        assert g.stats() == {
            "nodes": 0, "edges": 0, "objects": 0, "subsets": 0,
            "attributes": 0, "external_series": 0, "time_points": 0,
        }

    def test_attr_on_absent_element(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 2, "end": 5},
                {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            ]))
        assert codes(e) == CONSISTENCY_ERROR

    def test_edge_without_endpoint(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 0, "end": 5},
                {"type": "edge", "id": "e1", "src": "a", "dst": "ghost", "start": 0, "end": 5},
            ]))
        assert codes(e) == CONSISTENCY_ERROR

    def test_edge_outlives_endpoint(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 0, "end": 5},
                {"type": "node", "id": "b", "start": 0, "end": 3},
                {"type": "attr", "elem": "node:a", "name": "w", "t": 5, "value": 1},
                {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 5},
            ]))
        assert codes(e) == CONSISTENCY_ERROR

    def test_edge_outlives_endpoint_second_lifetime(self):
        # b lives over [10, 20] and [50, 60]; the edge's first interval fits
        # the first lifetime, its second outlives the second one at t=80.
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 10, "end": 90},
                {"type": "node", "id": "b", "start": 10, "end": 20},
                {"type": "node", "id": "b", "start": 50, "end": 60},
                {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 10, "end": 20},
                {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 50, "end": 80},
            ]))
        assert codes(e) == CONSISTENCY_ERROR
        assert e.value.message == "line 4: edge 'e1' is alive at t=80 but an endpoint is not"
        assert e.value.details["line"] == 4

    def test_endpoint_check_matches_pointwise_scan(self):
        # Oracle: visit every time index of every edge interval, in edge-id
        # order, and report the first point where an endpoint is not alive.
        rng = random.Random(11)
        for _ in range(300):
            t_max = rng.randint(1, 9)
            spans = {}
            # the anchor pins every label into the domain: labels = indices
            records = [{"type": "node", "id": "anchor", "start": t, "end": t}
                       for t in range(t_max)]
            for name in ("a", "b", "c"):
                spans[name] = []
                for _ in range(rng.randint(1, 3)):
                    s = rng.randrange(t_max)
                    e = rng.randint(s, t_max - 1)
                    spans[name].append((s, e))
                    records.append({"type": "node", "id": name, "start": s, "end": e})
            edges = {}  # id -> (endpoints, alive time points)
            first_line = {}  # id -> line of the edge's first record
            for i in range(rng.randint(1, 3)):
                src, dst = rng.sample(["a", "b", "c"], 2)
                edges[f"e{i}"] = ((src, dst), set())
                first_line[f"e{i}"] = len(records) + 1
                for _ in range(rng.randint(1, 2)):
                    s = rng.randrange(t_max)
                    e = rng.randint(s, t_max - 1)
                    edges[f"e{i}"][1].update(range(s, e + 1))
                    records.append({"type": "edge", "id": f"e{i}", "src": src,
                                    "dst": dst, "start": s, "end": e})
            expect = None
            for ident, (ends, alive) in sorted(edges.items()):
                bad = [
                    t for t in sorted(alive)
                    if not all(any(s <= t <= e for s, e in spans[n]) for n in ends)
                ]
                if bad:
                    expect = (f"line {first_line[ident]}: edge '{ident}' is alive "
                              f"at t={bad[0]} but an endpoint is not")
                    break
            if expect is None:
                load(jl(records))
                continue
            with pytest.raises(TgqError) as err:
                load(jl(records))
            assert err.value.message == expect

    def test_malformed_line_reports_number(self):
        lines = ['{"type":"node","id":"a","start":0,"end":1}', "{oops"]
        with pytest.raises(TgqError) as e:
            load(lines)
        assert codes(e) == SCHEMA_ERROR
        assert e.value.details["line"] == 2

    def test_value_kind_declared_once(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 0, "end": 2},
                {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
                {"type": "attr", "elem": "node:a", "name": "w", "t": 1, "value": "red"},
            ]))
        assert codes(e) == SCHEMA_ERROR

    def test_open_end_runs_to_last_timestamp(self):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0},
            {"type": "node", "id": "b", "start": 0, "end": 7},
        ]))
        assert g.nodes["a"] == ((0, 1),)
        assert g.time_labels == (0, 7)

    def test_conflicting_attr_values_rejected(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 0, "end": 2},
                {"type": "attr", "elem": "node:a", "name": "w", "t": 1, "value": 1.0},
                {"type": "attr", "elem": "node:a", "name": "w", "t": 1, "value": 2.0},
            ]))
        assert codes(e) == CONSISTENCY_ERROR

    def test_edge_redeclared_with_different_endpoints(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": n, "start": 0, "end": 3} for n in "abc"
            ] + [
                {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 1},
                {"type": "edge", "id": "e1", "src": "a", "dst": "c", "start": 2, "end": 3},
            ]))
        assert codes(e) == CONSISTENCY_ERROR

    def test_edge_churn_is_domain_relative(self, cfg):
        # With no timestamp between the two spans, the edge exists at every
        # domain point, so the spans coalesce.
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 9},
            {"type": "node", "id": "b", "start": 0, "end": 9},
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 2},
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 6, "end": 9},
        ]))
        assert g.edges["e1"].intervals == ((0, 3),)
        # A record at a timestamp inside the gap keeps the spans apart.
        g2 = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 9},
            {"type": "node", "id": "b", "start": 0, "end": 9},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 4, "value": 1.0},
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 2},
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 6, "end": 9},
        ]))
        assert g2.edges["e1"].intervals == ((0, 1), (3, 4))
        assert not g2.snapshot(2).edges  # label 4: the gap point

    def test_subset_mixed_kinds_rejected(self):
        with pytest.raises(TgqError) as e:
            load(jl([
                {"type": "node", "id": "a", "start": 0, "end": 1},
                {"type": "edge", "id": "e1", "src": "a", "dst": "a", "start": 0, "end": 1},
                {"type": "subset", "name": "S", "members": ["node:a", "edge:e1"]},
            ]))
        assert codes(e) == CONSISTENCY_ERROR

    def test_dump_load_roundtrip(self, mini_graph):
        again = load(dump(mini_graph).splitlines())
        assert same_graph(again, mini_graph)
        assert same_graph(load(dump(again).splitlines()), again)

    def test_dump_load_roundtrip_corpus(self):
        g = load_path(str(Path(__file__).parent / "data" / "corpus_graph.jsonl"))
        assert same_graph(load(dump(g).splitlines()), g)

    def test_csv_variant(self, tmp_path, cfg):
        csv_text = (
            "type,id,src,dst,directed,start,end,elem,name,t,value,members\n"
            "node,a,,,,0,2,,,,,\n"
            "node,b,,,,0,2,,,,,\n"
            "edge,e1,a,b,false,0,2,,,,,\n"
            "attr,,,,,,,node:a,w,0,1.5,\n"
            "attr,,,,,,,node:a,w,2,3.5,\n"
            "attr,,,,,,,node:b,color,1,red,\n"
            "subset,,,,,,,,S1,,,node:a;node:b\n"
        )
        path = tmp_path / "tiny.csv"
        path.write_text(csv_text)
        from tgq.graph import load_path, node_ref

        g = load_path(str(path))
        assert g.time_labels == (0, 1, 2)
        assert g.value_at_info(0, node_ref("a"), "w", cfg)[0] == 1.5
        assert g.value_at_info(1, node_ref("b"), "color", cfg)[0] == "red"
        assert "S1" in g.subsets

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge_int"])
    @pytest.mark.parametrize("site, record", [
        ("attribute value", {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": None}),
        ("series value", {"type": "series", "name": "s", "t": 0, "value": None}),
        ("time label", {"type": "attr", "elem": "node:a", "name": "w", "t": None, "value": 1.0}),
        ("time label", {"type": "node", "id": "b", "start": None, "end": 1}),
        ("time label", {"type": "node", "id": "b", "start": 0, "end": None}),
    ], ids=["attr_value", "series_value", "attr_t", "node_start", "node_end"])
    def test_non_finite_number_rejected(self, site, record, bad):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        field = next(key for key, value in record.items() if value is None)
        records = [{"type": "node", "id": "a", "start": 0, "end": 1}, {**record, field: bad}]
        with pytest.raises(TgqError) as e:
            load(jl(records))
        assert codes(e) == SCHEMA_ERROR
        assert e.value.message == f"line 2: {site} must be a finite number"
        assert e.value.details["line"] == 2

    @pytest.mark.parametrize("row", [
        "attr,,,,node:a,w,0,NaN",
        "attr,,,,node:a,w,0,-Infinity",
        "attr,,,,node:a,w,Infinity,1.0",
        "node,b,0,Infinity,,,,",
    ], ids=["attr_nan", "attr_-inf", "attr_t_inf", "node_end_inf"])
    def test_non_finite_number_rejected_in_csv(self, tmp_path, row):
        from tgq.graph import load_path

        path = tmp_path / "bad.csv"
        path.write_text("type,id,start,end,elem,name,t,value\nnode,a,0,1,,,,\n" + row + "\n")
        with pytest.raises(TgqError) as e:
            load_path(str(path))
        assert codes(e) == SCHEMA_ERROR
        assert e.value.details["line"] == 3
        assert e.value.message.startswith("line 3: ")
        assert "must be a finite number" in e.value.message

    @pytest.mark.parametrize("skipped", ["", ",,,,,,,"], ids=["blank", "empty_cells"])
    def test_csv_error_reports_file_line_after_skipped_row(self, tmp_path, skipped):
        from tgq.graph import load_path

        path = tmp_path / "bad.csv"
        path.write_text("type,id,start,end,elem,name,t,value\nnode,a,0,1,,,,\n"
                        + skipped + "\nattr,,,,node:a,w,0,NaN\n")
        with pytest.raises(TgqError) as e:
            load_path(str(path))
        assert e.value.details["line"] == 4
        assert e.value.message == "line 4: attribute value must be a finite number"


class TestEval:
    def test_recorded_value(self, mini_graph, cfg):
        assert mini_graph.value_at_info(0, node_ref("a"), "w", cfg)[0] == 1.0
        assert mini_graph.value_at_info(2, node_ref("a"), "w", cfg)[0] == 3.0

    def test_carry_forward(self, mini_graph, cfg):
        assert mini_graph.value_at_info(1, node_ref("a"), "w", cfg)[0] == 1.0

    def test_carry_forward_disabled(self, mini_graph):
        cfg = Config(carry_forward_default=False)
        with pytest.raises(TgqError) as e:
            mini_graph.value_at_info(1, node_ref("a"), "w", cfg)[0]
        assert codes(e) == MISSING_VALUE
        assert e.value.message == "no value of 'w' for node:a at t=1"

    def test_absent_element(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 1},
            {"type": "node", "id": "b", "start": 0, "end": 3},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 3, "value": 9.0},
        ]))
        with pytest.raises(TgqError) as e:
            g.value_at_info(g.index_of(3), node_ref("a"), "w", cfg)[0]
        assert codes(e) == ABSENT_ELEMENT
        assert e.value.message == "node:a does not exist at t=3"

    def test_carry_does_not_cross_churn_gap(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 1},
            {"type": "node", "id": "a", "start": 3, "end": 4},
            {"type": "node", "id": "b", "start": 0, "end": 4},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 2, "value": 0.0},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 1, "value": 5.0},
        ]))
        # a is gone at t=2; the value recorded at t=1 must not persist to t=3
        with pytest.raises(TgqError) as e:
            g.value_at_info(3, node_ref("a"), "w", cfg)[0]
        assert codes(e) == MISSING_VALUE

    def test_object_recorded_beats_aggregation(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 2},
            {"type": "node", "id": "b", "start": 0, "end": 2},
            {"type": "object", "id": "o", "nodes": ["a", "b"]},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
            {"type": "attr", "elem": "node:b", "name": "w", "t": 0, "value": 3.0},
            {"type": "attr", "elem": "object:o", "name": "w", "t": 1, "value": 10.0},
        ]))
        value, aggregated = g.value_at_info(0, object_ref("o"), "w", cfg)
        assert (value, aggregated) == (2.0, True)  # mean of members
        value, aggregated = g.value_at_info(1, object_ref("o"), "w", cfg)
        assert (value, aggregated) == (10.0, False)  # recorded object value

    def test_object_categorical_mode_tie_break(self, cfg):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 0},
            {"type": "node", "id": "b", "start": 0, "end": 0},
            {"type": "object", "id": "o", "nodes": ["a", "b"]},
            {"type": "attr", "elem": "node:a", "name": "color", "t": 0, "value": "red"},
            {"type": "attr", "elem": "node:b", "name": "color", "t": 0, "value": "blue"},
        ]))
        # tie between red and blue -> lexicographically smaller wins
        assert g.value_at_info(0, object_ref("o"), "color", cfg)[0] == "blue"

    def test_object_without_member_value(self):
        g = load(jl([
            {"type": "node", "id": "a", "start": 0, "end": 1},
            {"type": "node", "id": "b", "start": 0, "end": 1},
            {"type": "object", "id": "o", "nodes": ["a", "b"]},
            {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
        ]))
        cfg = Config(carry_forward_default=False)
        with pytest.raises(TgqError) as e:
            g.value_at_info(1, object_ref("o"), "w", cfg)[0]
        assert codes(e) == MISSING_VALUE
        assert e.value.message == "no member of object:o has a value of 'w' at t=1"


def _small_graphs():
    """Graphs whose values include an object, False, 0.0 and "", with churn."""
    yield load(jl([
        {"type": "node", "id": "a", "start": 0, "end": 1},
        {"type": "node", "id": "a", "start": 3, "end": 4},
        {"type": "node", "id": "b", "start": 0, "end": 4},
        {"type": "node", "id": "c", "start": 2, "end": 4},
        {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 1},
        {"type": "object", "id": "o", "nodes": ["a", "b"]},
        {"type": "object", "id": "p", "nodes": ["c"]},
        {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 0.0},
        {"type": "attr", "elem": "node:b", "name": "w", "t": 2, "value": -1.5},
        {"type": "attr", "elem": "edge:e1", "name": "w", "t": 1, "value": 0.0},
        {"type": "attr", "elem": "object:p", "name": "w", "t": 3, "value": 0.0},
        {"type": "attr", "elem": "node:a", "name": "ok", "t": 0, "value": False},
        {"type": "attr", "elem": "node:b", "name": "ok", "t": 1, "value": False},
        {"type": "attr", "elem": "node:c", "name": "ok", "t": 4, "value": True},
        {"type": "attr", "elem": "node:b", "name": "tag", "t": 0, "value": ""},
        {"type": "attr", "elem": "object:o", "name": "tag", "t": 4, "value": "x"},
    ]))
    for seed in range(20):
        yield random_graph(seed).graph


class TestTryValue:
    @pytest.mark.parametrize("carry", [True, False])
    def test_agrees_with_value_at(self, carry):
        cfg = Config(carry_forward_default=carry)
        hits = misses = 0
        for g in _small_graphs():
            refs = g.all_refs(kinds=(ElemKind.NODE, ElemKind.EDGE, ElemKind.OBJECT))
            for attr in g.attr_kinds:
                for t in range(g.n_times):
                    for ref in refs:
                        got = g.column(ref, attr, cfg)[t]
                        try:
                            want = g.value_at_info(t, ref, attr, cfg)[0]
                        except TgqError as err:
                            assert err.code in (ABSENT_ELEMENT, MISSING_VALUE)
                            assert got is None
                            misses += 1
                            continue
                        assert got is not None
                        assert got == want and type(got) is type(want)
                        hits += 1
        assert hits and misses

    def test_falsy_values_are_values(self, cfg):
        g = next(_small_graphs())
        assert g.column(node_ref("a"), "w", cfg)[0] == 0.0
        assert g.column(edge_ref("e1"), "w", cfg)[1] == 0.0
        assert g.column(object_ref("p"), "w", cfg)[3] == 0.0
        assert g.column(node_ref("a"), "ok", cfg)[0] is False
        assert g.column(node_ref("b"), "tag", cfg)[0] == ""
        # object o aggregates its members' mode: False from both a and b
        assert g.value_at_info(1, object_ref("o"), "ok", cfg) == (False, True)
        assert g.column(object_ref("o"), "ok", cfg)[1] is False
        assert g.column(node_ref("a"), "w", cfg)[2] is None  # absent
        assert g.column(node_ref("c"), "w", cfg)[2] is None  # no value

    def test_unknown_names_still_raise(self, cfg):
        g = next(_small_graphs())
        for ref, attr in [
            (node_ref("a"), "nope"),
            (node_ref("ghost"), "w"),
            (edge_ref("ghost"), "w"),
            (object_ref("ghost"), "w"),
        ]:
            with pytest.raises(TgqError) as e:
                g.column(ref, attr, cfg)[0]
            assert codes(e) == VALIDATION_ERROR
        for t in (-1, g.n_times):  # a point read out of the domain is no slot of a column
            with pytest.raises(TgqError) as e:
                g.value_at_info(t, node_ref("a"), "w", cfg)
            assert codes(e) == VALIDATION_ERROR


class TestSnapshot:
    def test_edge_membership_by_interval(self, chain_graph):
        assert all(e[0] != "e2" for e in chain_graph.snapshot(0).edges)
        assert any(e[0] == "e2" for e in chain_graph.snapshot(2).edges)

    def test_union_of_snapshots_covers_everything(self, chain_graph):
        nodes, edges = set(), set()
        for t in range(chain_graph.n_times):
            snap = chain_graph.snapshot(t)
            nodes.update(snap.nodes)
            edges.update(e[0] for e in snap.edges)
        assert nodes == set(chain_graph.nodes)
        assert edges == set(chain_graph.edges)

    def test_adjacency_matches_linear_scan(self, cfg):
        # Oracle: filter the raw edge list by interval membership at each t.
        rng = random.Random(7)
        n, t_max = 10, 6
        records = []
        for i in range(n):
            s = rng.randrange(t_max)
            records.append({"type": "node", "id": f"n{i}", "start": 0, "end": t_max - 1}
                           if i < 3 else
                           {"type": "node", "id": f"n{i}", "start": s, "end": t_max - 1})
        edge_specs = []
        eid = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    si = records[i]["start"]
                    sj = records[j]["start"]
                    lo = max(si, sj)
                    s = rng.randint(lo, t_max - 1)
                    e = rng.randint(s, t_max - 1)
                    edge_specs.append((f"e{eid}", f"n{i}", f"n{j}", s, e))
                    records.append({"type": "edge", "id": f"e{eid}", "src": f"n{i}",
                                    "dst": f"n{j}", "start": s, "end": e})
                    eid += 1
        g = load(jl(records))
        for t in range(g.n_times):
            label = g.label_of(t)
            expected = sorted(
                eid for (eid, _, _, s, e) in edge_specs if s <= label <= e
            )
            got = sorted(e[0] for e in g.snapshot(t).edges)
            assert got == expected


class TestAllRefs:
    def test_sorted_by_kind_then_id(self):
        for g in _small_graphs():
            want = ([node_ref(n) for n in sorted(g.nodes)]
                    + [edge_ref(e) for e in sorted(g.edges)]
                    + [object_ref(o) for o in sorted(g.objects)])
            assert g.all_refs(kinds=(ElemKind.NODE, ElemKind.EDGE, ElemKind.OBJECT)) == want
            assert g.all_refs() == want[:len(g.nodes) + len(g.edges)]
            assert g.all_refs((ElemKind.OBJECT, ElemKind.NODE)) == (
                want[:len(g.nodes)] + want[len(g.nodes) + len(g.edges):])

    def test_each_call_returns_a_fresh_list(self, chain_graph):
        first = chain_graph.all_refs()
        second = chain_graph.all_refs()
        assert first == second
        assert first is not second
        first.clear()
        assert chain_graph.all_refs() == second

    def test_load_builds_no_refs(self, chain_graph):
        assert chain_graph._refs == {}
        for g in _small_graphs():
            assert g._refs == {}


def test_interval_start_after_end_is_rejected():
    assert len(TimeInterval(1, 3)) == 3 and len(TimeInterval(2, 2)) == 1
    with pytest.raises(TgqError) as e:
        TimeInterval(3, 1)
    assert (e.value.code, e.value.message) == (VALIDATION_ERROR, "interval start 3 > end 1")


class TestRefs:
    def test_str_is_kind_colon_id(self):
        assert [str(node_ref("a")), str(edge_ref("e:1")), str(object_ref("O"))] == [
            "node:a", "edge:e:1", "object:O"]

    def test_refs_sort_by_kind_text_then_id(self):
        refs = [object_ref("a"), node_ref("b"), edge_ref("c"), node_ref("a"),
                edge_ref("a"), object_ref("0")]
        want = [edge_ref("a"), edge_ref("c"), node_ref("a"), node_ref("b"),
                object_ref("0"), object_ref("a")]
        assert sorted(refs) == want
        assert sorted(refs, key=lambda r: tuple(str(r).split(":", 1))) == want

    def test_parse_round_trips(self):
        for ref in (node_ref("a"), edge_ref("e:1"), object_ref("O")):
            assert GraphElementRef.parse(str(ref)) == ref
        assert GraphElementRef.parse("node:") == node_ref("")

    @pytest.mark.parametrize("token", ["subset:x", "Node:a", "a"])
    def test_parse_rejects_other_kinds(self, token):
        with pytest.raises(TgqError) as e:
            GraphElementRef.parse(token)
        assert e.value.code == SCHEMA_ERROR
        assert e.value.message == f"bad element reference '{token}' (want kind:id)"


def _graphs_with_objects():
    """The randsuite graphs, each with an object per subset and one of every
    node, then the corpus graph."""
    for seed in range(40):
        raw = random_graph(seed)
        objects = {**raw.subsets, "all": sorted(raw.node_spans)}
        yield load(jl([*raw.records, *({"type": "object", "id": ident, "nodes": nodes}
                                       for ident, nodes in objects.items())]))
    yield load_path(str(Path(__file__).parent / "data" / "corpus_graph.jsonl"))


def test_object_exists_where_its_merged_member_intervals_cover():
    checked = 0
    for g in _graphs_with_objects():
        for ident, members in g.objects.items():
            merged = _merge_intervals(iv for n in members.nodes for iv in g.nodes[n])
            want = [_covered(merged, t) for t in range(g.n_times)]
            for _ in range(2):  # merged on the first call, kept for the second
                assert [g.exists_at(object_ref(ident), t) for t in range(g.n_times)] == want
            checked += 1
    assert checked == 40 * 3 + 1
