"""Ingest checked against the reference loader.

``reference_load.py`` holds the loader as it was before ingest resolved each
distinct time label, element reference and element lifetime once per load.
On valid input the two must build equal graphs that dump the same lines; on
malformed input they must fail with the same first error (code, message and
line). Some messages changed on purpose and have tests of their own: a time
label that is a list or an object is rejected, a boolean time label and a
bad element reference at ingest name their line, and a record ``type`` that
is a list or an object, an edge ``directed`` that is not a boolean and an
object ``edges`` that is not a list are rejected with their line (the
reference loader crashes on the first, reads the second as its truth value,
and iterates the third: a string by character, an object by key, and a
number or a boolean not at all). Bytes that are not UTF-8 are rejected with
their line; the reference loader lets the UnicodeDecodeError out.
"""

import csv
import io
import json
import math
import random
import re
import sys
import weakref
from pathlib import Path

import pytest

from tgq.errors import CONSISTENCY_ERROR, SCHEMA_ERROR, TgqError
from tgq.graph import GraphElementRef, _csv_records, _load, load, load_path

from graph_dump import dump, same_graph
from randsuite import random_graph
from reference_load import reference_load

ROOT = Path(__file__).resolve().parent.parent
CORPUS_GRAPH = ROOT / "tests" / "data" / "corpus_graph.jsonl"


def numbered(lines):
    return list(enumerate(lines, start=1))


def assert_same_graph(pairs):
    got, want = _load(pairs), reference_load(pairs)
    assert same_graph(got, want)
    assert dump(got) == dump(want)
    assert list(got.attrs) == list(want.attrs)  # first-seen order too
    return got


def lines_of(records):
    """Dicts are written as JSON lines; strings and bytes are taken as they are."""
    return [r if isinstance(r, (str, bytes)) else json.dumps(r) for r in records]


def node(ident, start=0, end=2):
    rec = {"type": "node", "id": ident, "start": start}
    return rec if end is None else {**rec, "end": end}


def edge(ident, src, dst, start=0, end=2):
    return {"type": "edge", "id": ident, "src": src, "dst": dst, "start": start, "end": end}


def attr(elem, t, value, name="w"):
    return {"type": "attr", "elem": elem, "name": name, "t": t, "value": value}


# -- valid input ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_randsuite_graph(seed):
    assert_same_graph(numbered(lines_of(random_graph(seed).records)))


def test_corpus_graph():
    assert_same_graph(numbered(CORPUS_GRAPH.read_text().splitlines()))


def perfbench_dataset(workload: str):
    """The benchmark's dataset for ``workload`` at seed 1, from its generator."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    from run import WORKLOADS

    return gen.make_dataset(WORKLOADS[workload].scale, 1)


@pytest.mark.parametrize("workload", ["values", "structure", "cold_query"])
def test_perfbench_dataset(workload):
    assert_same_graph(numbered(perfbench_dataset(workload).lines()))


CSV_COLUMNS = ["type", "id", "src", "dst", "directed", "start", "end",
               "elem", "name", "t", "value", "members", "nodes", "edges"]


def csv_of(records) -> str:
    """Records as a CSV file: a string cell as it is, a member list joined
    with ';', any other cell (a list name or type too) as JSON."""
    out = io.StringIO()
    writer = csv.DictWriter(out, CSV_COLUMNS)
    writer.writeheader()
    for rec in records:
        writer.writerow({
            key: value if isinstance(value, str)
            else ";".join(value) if key in ("members", "nodes", "edges") and isinstance(value, list)
            else json.dumps(value)
            for key, value in rec.items()
        })
    return out.getvalue()


def test_csv_round_trip(tmp_path):
    records = perfbench_dataset("cold_query").records()
    text = csv_of(records)
    path = tmp_path / "cold_query.csv"
    path.write_text(text)
    got = assert_same_graph(list(_csv_records(text)))
    assert same_graph(load_path(str(path)), got)
    assert same_graph(got, load(lines_of(records)))


def test_each_decoded_record_is_dropped():
    # Records held by weak references only: the loader keeps the fields it
    # checks, so as each record is made, only the last one (still named by
    # the loop variables) is alive.
    class Record(dict):
        pass

    held, most_alive = [], 0

    def records():
        nonlocal most_alive
        for i in range(200):
            most_alive = max(most_alive, sum(ref() is not None for ref in held))
            rec = Record(node(f"n{i}") if i % 2 == 0 else attr(f"node:n{i - 1}", 1, float(i)))
            held.append(weakref.ref(rec))
            yield rec

    g = load(records())
    assert len(g.nodes) == 100 and len(g.attrs) == 100
    assert most_alive <= 1


VALID = {
    # 1 and 1.0 are one label, "1" another; strings sort after numbers
    "mixed_labels": [
        node("a", 0, "1"), node("b", 1.0, 2.5), edge("e", "a", "b", 1, 2.5),
        attr("node:a", 1, 1.0), attr("node:a", 1.0, 1.0), attr("node:a", "1", 2.0),
        attr("edge:e", 2.5, "x", name="c"), {"type": "series", "name": "s", "t": "1", "value": 3},
    ],
    # an equal value recorded twice keeps the later one: -0.0 dumps as -0.0
    "negative_zero_last_wins": [node("a"), attr("node:a", 0, 0.0), attr("node:a", 0, -0.0)],
    "open_end_and_churn": [
        node("a", 0, 1), node("a", 3, None), node("b", 0, 4), edge("e", "a", "b", 3, 4),
        attr("node:a", 4, True, name="flag"), attr("edge:e", 3, 1),
    ],
    "object_attrs": [
        node("a", 0, 1), node("b", 2, 3), node("c", 0, 3),
        {"type": "object", "id": "o", "nodes": ["a", "b"]},
        attr("object:o", 0, 1.0), attr("object:o", 3, 2.0), attr("node:c", 0, 5),
        {"type": "subset", "name": "S", "members": ["object:o"]},
        {"type": "subset", "name": "T", "members": ["node:c", "node:a", "node:c"]},
    ],
    "blank_lines": ["", node("a"), "   ", attr("node:a", 2, "red", name="c")],
    # a line that is not one object alone is decoded by json.loads, not the scanner
    "json_whitespace_around": [" \t" + json.dumps(node("a")) + "\r\n ", "\t",
                               json.dumps(attr("node:a", 1, 2.0)) + " "],
    "bytes_lines": [json.dumps(node("a")).encode(), b"\t",
                    json.dumps(attr("node:a", 0, 1.0)).encode(),
                    ("\t" + json.dumps(attr("node:a", 1, "\u00e9", name="c"))).encode()],
}


@pytest.mark.parametrize("decoded", [False, True], ids=["lines", "decoded"])
@pytest.mark.parametrize("case", VALID)
def test_valid_file(case, decoded):
    assert_same_graph(numbered(VALID[case] if decoded else lines_of(VALID[case])))


# -- malformed input -----------------------------------------------------------

MALFORMED = {
    "bad_json": [node("a"), '{"type": "node", "id": "b",'],
    "not_an_object": [node("a"), "[1, 2]"],
    "unknown_type": [node("a"), {"type": "vertex", "id": "b"}],
    "missing_type": [{"id": "a", "start": 0}],
    "missing_start": [{"type": "node", "id": "a"}],
    "missing_t": [node("a"), {"type": "attr", "elem": "node:a", "name": "w", "value": 1}],
    "nan_label": [node("a"), node("b", float("nan"), 1)],
    "huge_int_label": [node("a", 0, 10 ** 400)],
    "start_after_end": [node("a", 2, 0)],
    "missing_id": [{"type": "node", "start": 0}],
    "edge_redeclared": [node("a"), node("b"), edge("e", "a", "b"), edge("e", "b", "a")],
    "object_without_nodes": [node("a"), {"type": "object", "id": "o", "nodes": []}],
    "subset_without_members": [node("a"), {"type": "subset", "name": "S", "members": []}],
    "attr_missing_value": [node("a"), {"type": "attr", "elem": "node:a", "name": "w", "t": 0}],
    "attr_kind_changes": [node("a"), attr("node:a", 0, 1.0), attr("node:a", 1, "x")],
    "attr_unsupported_value": [node("a"), attr("node:a", 0, [1])],
    "attr_infinite_value": [node("a"), attr("node:a", 0, float("inf"))],
    "attr_nan_value": [node("a"), attr("node:a", 0, 1.0), attr("node:a", 1, float("nan"))],
    "attr_negative_infinity": [node("a"), attr("node:a", 0, -float("inf"))],
    "bom": [node("a"), "\ufeff" + json.dumps(node("b"))],
    "two_objects_on_a_line": [node("a"), '{"a":1}{"b":2}'],
    "object_then_text": [node("a"), '{"a":1} x'],
    "object_then_brace": [node("a"), '{"a":1}}'],
    "trailing_comma": [node("a"), '{"type": "node", "id": "b",}'],
    "value_missing_in_object": [node("a"), '{"type": "node", "id": }'],
    "array_of_records": [node("a"), "[" + json.dumps(node("b")) + "]"],
    "series_not_numeric": [{"type": "series", "name": "s", "t": 0, "value": "x"}],
    "series_duplicate_point": [{"type": "series", "name": "s", "t": 0, "value": 1},
                               {"type": "series", "name": "s", "t": 0.0, "value": 2}],
    "edge_unknown_node": [node("a"), edge("e", "a", "zz")],
    "edge_outlives_endpoint": [node("a", 0, 1), node("b", 0, 3), edge("e", "a", "b", 0, 2)],
    "object_unknown_node": [node("a"), {"type": "object", "id": "o", "nodes": ["a", "zz"]}],
    "object_unknown_edge": [node("a"), {"type": "object", "id": "o", "nodes": ["a"],
                                        "edges": ["zz"]}],
    "object_edge_joins_non_member": [node("a"), node("b"), edge("e", "a", "b"),
                                     {"type": "object", "id": "o", "nodes": ["a"],
                                      "edges": ["e"]}],
    "subset_mixes_kinds": [node("a"), node("b"), edge("e", "a", "b"),
                           {"type": "subset", "name": "S", "members": ["node:a", "edge:e"]}],
    "subset_unknown_member": [node("a"), {"type": "subset", "name": "S",
                                          "members": ["node:a", "node:zz"]}],
    "subset_unknown_object": [node("a"), {"type": "subset", "name": "S",
                                          "members": ["object:o"]}],
    "attr_unknown_node": [node("a"), attr("node:a", 0, 1), attr("node:zz", 0, 1)],
    "attr_unknown_edge": [node("a"), attr("edge:zz", 0, 1)],
    "attr_unknown_object": [node("a"), attr("object:zz", 0, 1)],
    "attr_node_absent": [node("a", 0, 1), node("b"), attr("node:a", 0, 1), attr("node:a", 2, 1)],
    "attr_node_in_churn_gap": [node("a", 0, 0), node("a", 2, 2), node("b"),
                               attr("node:a", 0, 1), attr("node:a", 1, 1)],
    "attr_edge_absent": [node("a"), node("b"), edge("e", "a", "b", 1, 2),
                         attr("edge:e", 1, 1), attr("edge:e", 0, 1)],
    "attr_object_absent": [node("a", 0, 0), node("b", 2, 2), node("c"),
                           {"type": "object", "id": "o", "nodes": ["a", "b"]},
                           attr("object:o", 2, 1), attr("object:o", 1, 1)],
    "attr_conflict": [node("a"), attr("node:a", 0, 1), attr("node:a", 0, 2)],
    # Two errors each: the one named in PINNED wins.
    "bad_json_after_unknown_type": [node("a"), {"type": "vertex"}, '{"type":'],
    "bad_label_after_bad_label": [node("a", float("inf"), 1), node("b", 0, float("nan"))],
    "label_after_missing_id": [{"type": "node", "start": 0}, node("a", float("inf"), 1)],
    "absent_before_conflict": [node("a", 0, 1), node("b"), attr("node:a", 0, 1),
                               attr("node:a", 2, 1), attr("node:a", 0, 2)],
    "conflict_before_absent": [node("a", 0, 1), node("b"), attr("node:a", 0, 1),
                               attr("node:a", 0, 2), attr("node:a", 2, 1)],
    "bad_ref_after_unknown_node": [node("a"), attr("node:zz", 0, 1), attr("nod:a", 0, 1)],
    "unknown_node_after_bad_ref": [node("a"), {"type": "subset", "name": "S", "members": ["a"]},
                                   {"type": "object", "id": "o", "nodes": ["zz"]}],
}

# The message, and the line, of the error that must win where a file has two.
PINNED = {
    "bad_json_after_unknown_type": ("line 3: invalid JSON", 3),
    "bad_label_after_bad_label": ("line 1: time label must be a finite number", 1),
    "label_after_missing_id": ("line 2: time label must be a finite number", 2),
    "absent_before_conflict": ("line 4: attribute 'w' recorded at t=2 but node:a", 4),
    "conflict_before_absent": ("line 4: conflicting values of 'w' for node:a", 4),
    # a reference is parsed as its record is read, before any element is resolved
    "bad_ref_after_unknown_node": ("line 3: bad element reference 'nod:a'", 3),
    # objects are resolved before subsets, whatever their lines
    "unknown_node_after_bad_ref": ("line 3: object 'o' references unknown node 'zz'", 3),
    # an edge's endpoint errors carry the line of its first record
    "edge_unknown_node": ("line 2: edge 'e' references unknown node 'zz'", 2),
    "edge_outlives_endpoint": ("line 3: edge 'e' is alive at t=2 but an endpoint is not", 3),
}

# The messages that gained their line: the line prefix and the line detail.
GAINED_LINE = re.compile(
    r"line (\d+): (bad element reference .*|boolean is not a valid timestamp"
    r"|edge '.*' references unknown node '.*'|edge '.*' is alive at t=.* but an endpoint is not)$"
)


def first_error(loader, pairs):
    with pytest.raises(TgqError) as e:
        loader(pairs)
    return e.value.code, e.value.message, e.value.details.get("line")


def as_before(error):
    """``error`` as the reference loader reports it."""
    code, message, line = error
    m = GAINED_LINE.match(message)
    return (code, m.group(2), None) if m and int(m.group(1)) == line else error


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file(case):
    pairs = numbered(lines_of(MALFORMED[case]))
    got = first_error(_load, pairs)
    assert as_before(got) == first_error(reference_load, pairs)
    if case in PINNED:
        prefix, line = PINNED[case]
        assert got[1].startswith(prefix) and got[2] == line


DEEP_OBJECT = '{"a":' * 100_000 + "1" + "}" * 100_000
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
LONG_INTEGER = '{"type": "node", "id": "b", "start": ' + "1" * 5000 + "}"


@pytest.mark.parametrize("text, reason", [
    (DEEP_OBJECT, "nesting too deep"), (DEEP_ARRAY, "nesting too deep"),
    (LONG_INTEGER, "number too long"),
], ids=["object", "array", "long_integer"])
def test_deep_nesting_and_long_integers_name_their_line(text, reason):
    """Past the recursion limit or int's digit limit, ``json.loads`` raises
    RecursionError or ValueError; the loader names the line instead, and
    the reference loader lets the error out."""
    pairs = numbered([json.dumps(node("a")), text])
    assert first_error(_load, pairs) == (SCHEMA_ERROR, f"line 2: invalid JSON ({reason})", 2)
    with pytest.raises((RecursionError, ValueError)) as want:
        json.loads(text)
    with pytest.raises(type(want.value)) as got:
        reference_load(pairs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cell, reason", [
    ('"' + "[" * 50_000 + "]" * 50_000 + '"', "nesting too deep"),
    ("1" * 5000, "number too long"),
], ids=["nesting", "long_integer"])
def test_deep_nesting_and_long_integers_in_csv_name_their_line(tmp_path, cell, reason):
    path = tmp_path / "bad.csv"
    path.write_text(f"type,id,start,end\nnode,a,0,1\nnode,b,{cell},1\n")
    with pytest.raises(TgqError) as e:
        load_path(str(path))
    assert (e.value.code, e.value.message, e.value.details["line"]) == (
        SCHEMA_ERROR, f"line 3: invalid CSV ({reason})", 3)


def test_invalid_utf8_names_its_line():
    pairs = numbered([json.dumps(node("a")).encode(), b'{"type": "node", "id": "\xff"}'])
    assert first_error(_load, pairs) == (
        SCHEMA_ERROR, "line 2: invalid UTF-8 (invalid start byte)", 2)
    with pytest.raises(UnicodeDecodeError):  # the reference loader lets it out
        reference_load(pairs)


# -- the messages that changed -------------------------------------------------

SITES = {
    "start": lambda bad: node("b", bad, 1),
    "end": lambda bad: node("b", 0, bad),
    "t": lambda bad: attr("node:a", bad, 1.0),
}


@pytest.mark.parametrize("bad", [[0], {"x": 1}, []], ids=["list", "object", "empty_list"])
@pytest.mark.parametrize("site", SITES)
def test_non_scalar_time_label_rejected(site, bad):
    with pytest.raises(TgqError) as e:
        load(lines_of([node("a", 0, 1), SITES[site](bad)]))
    assert e.value.code == SCHEMA_ERROR
    assert e.value.message == "line 2: time label must be a number or a string"
    assert e.value.details["line"] == 2


def test_non_scalar_time_label_rejected_in_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('type,id,start,end\nnode,a,0,1\nnode,b,"[0]",1\n')
    with pytest.raises(TgqError) as e:
        load_path(str(path))
    assert e.value.message == "line 3: time label must be a number or a string"
    assert e.value.details["line"] == 3


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("site", SITES)
def test_boolean_time_label_names_its_line(site, bad):
    pairs = numbered(lines_of([node("a", 0, 1), SITES[site](bad)]))
    assert first_error(_load, pairs) == (
        SCHEMA_ERROR, "line 2: boolean is not a valid timestamp", 2)
    assert first_error(reference_load, pairs) == (
        SCHEMA_ERROR, "boolean is not a valid timestamp", None)


def test_boolean_label_in_a_query_keeps_its_message():
    g = load(lines_of([node("a", 0, 1)]))
    with pytest.raises(TgqError) as e:
        g.index_of(True)
    assert e.value.message == "boolean is not a valid timestamp"
    assert "line" not in e.value.details


@pytest.mark.parametrize("records, line, token", [
    ([node("a"), attr("node:a", 0, 1), attr("nod:a", 1, 1)], 3, "nod:a"),
    ([node("a"), attr("a", 0, 1)], 2, "a"),
    ([node("a"), {"type": "subset", "name": "S", "members": ["node:a", "x"]}], 2, "x"),
], ids=["attr_kind", "attr_no_kind", "subset_member"])
def test_bad_element_reference_names_its_line(records, line, token):
    with pytest.raises(TgqError) as e:
        load(lines_of(records))
    assert e.value.code == SCHEMA_ERROR
    assert e.value.message == f"line {line}: bad element reference '{token}' (want kind:id)"
    assert e.value.details["line"] == line


def test_bad_element_reference_in_a_query_keeps_its_message():
    with pytest.raises(TgqError) as e:
        GraphElementRef.parse("nod:a")
    assert e.value.message == "bad element reference 'nod:a' (want kind:id)"
    assert e.value.details == {}


@pytest.mark.parametrize("records, code, message", [
    ([node("a"), attr("node:a", 0, 1), attr("node:a", 1, "x")], SCHEMA_ERROR,
     "line 3: attribute 'w' is numeric but got a categorical value"),
    ([node("a"), attr("node:a", 0, True), attr("node:a", 1, 2)], SCHEMA_ERROR,
     "line 3: attribute 'w' is boolean but got a numeric value"),
    ([node("a"), {"type": "subset", "name": "S", "members": ["edge:zz"]}], CONSISTENCY_ERROR,
     "line 2: subset 'S' references unknown edge 'zz'"),
    ([node("a"), attr("object:zz", 0, 1)], CONSISTENCY_ERROR,
     "line 2: attribute on unknown object 'zz'"),
], ids=["numeric_then_categorical", "boolean_then_numeric", "subset_unknown_edge",
        "attr_unknown_object"])
def test_messages_that_name_a_kind(records, code, message):
    with pytest.raises(TgqError) as e:
        load(lines_of(records))
    assert (e.value.code, e.value.message) == (code, message)


def test_unknown_element_on_a_repeated_token_names_its_first_record():
    # the lifetime table is built on the token's first use, so an unknown
    # element fails there and never gets a table
    with pytest.raises(TgqError) as e:
        load(lines_of([node("a"), attr("node:zz", 0, 1), attr("node:zz", 1, 1)]))
    assert (e.value.code, e.value.details["line"]) == (CONSISTENCY_ERROR, 2)


# -- name fields -------------------------------------------------------------------

NAME_SITES = {
    "id": lambda bad: node(bad),
    "src": lambda bad: edge("e", bad, "a"),
    "dst": lambda bad: edge("e", "a", bad),
    "name": lambda bad: {"type": "subset", "name": bad, "members": ["node:a"]},
    "elem": lambda bad: attr(bad, 0, 1.0),
}


@pytest.mark.parametrize("bad", [[1, 2], ["s"], {"id": "a"}, [], True, False],
                         ids=["list", "str_list", "object", "empty_list", "true", "false"])
@pytest.mark.parametrize("site", NAME_SITES)
def test_non_scalar_name_names_its_line(site, bad):
    with pytest.raises(TgqError) as e:
        load(lines_of([node("a"), NAME_SITES[site](bad)]))
    assert e.value.code == SCHEMA_ERROR
    assert e.value.message == f"line 2: '{site}' must be a string or a number"
    assert e.value.details["line"] == 2


def test_numeric_names_load_as_their_text():
    g = load(lines_of([node(1), node(2.5), edge(7, 1, "2.5"),
                       {"type": "subset", "name": 3, "members": ["node:1"]}]))
    assert sorted(g.nodes) == ["1", "2.5"]
    assert (g.edges["7"].src, g.edges["7"].dst) == ("1", "2.5")
    assert list(g.subsets) == ["3"]


@pytest.mark.parametrize("cell", ['"[1, 2]"', "true"], ids=["list", "true"])
def test_non_scalar_name_in_csv_names_its_line(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"type,id,start,end\nnode,a,0,1\nnode,{cell},0,1\n")
    with pytest.raises(TgqError) as e:
        load_path(str(path))
    assert e.value.message == "line 3: 'id' must be a string or a number"
    assert e.value.details["line"] == 3


# -- record type and edge direction ----------------------------------------------


@pytest.mark.parametrize("bad", [["node"], {"node": 1}, [], None, 3],
                         ids=["list", "object", "empty_list", "null", "number"])
def test_bad_record_type_names_its_line(bad):
    with pytest.raises(TgqError) as e:
        load(lines_of([node("a"), {"type": bad, "id": "b", "start": 0}]))
    assert e.value.code == SCHEMA_ERROR
    assert e.value.message == f"line 2: unknown record type {bad!r}"
    assert e.value.details["line"] == 2


@pytest.mark.parametrize("bad", ["false", "true", 0, 1, [True], {"directed": True}],
                         ids=["str_false", "str_true", "zero", "one", "list", "object"])
def test_non_boolean_directed_names_its_line(bad):
    rec = {**edge("e", "a", "b"), "directed": bad}
    with pytest.raises(TgqError) as e:
        load(lines_of([node("a"), node("b"), rec]))
    assert e.value.code == SCHEMA_ERROR
    assert e.value.message == "line 3: 'directed' must be true or false"
    assert e.value.details["line"] == 3


@pytest.mark.parametrize("value, directed", [(True, True), (False, False), (None, False)],
                         ids=["true", "false", "null"])
def test_boolean_or_null_directed_loads_like_the_reference(value, directed):
    pairs = numbered(lines_of([node("a"), node("b"), {**edge("e", "a", "b"), "directed": value}]))
    assert assert_same_graph(pairs).edges["e"].directed is directed


def test_non_boolean_directed_in_csv_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("type,id,src,dst,directed,start,end\nnode,a,,,,0,1\nnode,b,,,,0,1\n"
                    "edge,e,a,b,no,0,1\n")
    with pytest.raises(TgqError) as e:
        load_path(str(path))
    assert e.value.message == "line 4: 'directed' must be true or false"
    assert e.value.details["line"] == 4


# -- object edges ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [True, False, 5, 1.5, "e", "e1", {"e": 1}],
                         ids=["true", "false", "int", "float", "char", "string", "object"])
def test_non_list_object_edges_names_its_line(bad):
    rec = {"type": "object", "id": "O", "nodes": ["a", "b"], "edges": bad}
    with pytest.raises(TgqError) as e:
        load(lines_of([node("a"), node("b"), edge("e", "a", "b"), rec]))
    assert e.value.code == SCHEMA_ERROR
    assert e.value.message == "line 4: object 'edges' must be a list"
    assert e.value.details["line"] == 4


@pytest.mark.parametrize("edges", [["e"], [], None], ids=["list", "empty_list", "null"])
def test_list_or_null_object_edges_loads_like_the_reference(edges):
    rec = {"type": "object", "id": "O", "nodes": ["a", "b"], "edges": edges}
    assert_same_graph(numbered(lines_of([node("a"), node("b"), edge("e", "a", "b"), rec])))


# -- seeded files with several faults ------------------------------------------

# A valid record of each type that randsuite's records accept (node n0 lives
# at t=0), and the fields its checks require.
TEMPLATES = {
    "node": (node("n0", 0, 0), ["id", "start"]),
    "edge": (edge("ef", "n0", "n0", 0, 0), ["id", "src", "dst", "start"]),
    "object": ({"type": "object", "id": "Of", "nodes": ["n0"]}, ["id", "nodes"]),
    "subset": ({"type": "subset", "name": "Sf", "members": ["node:n0"]}, ["name", "members"]),
    "attr": (attr("node:n0", 0, 1.0, name="f"), ["elem", "name", "t", "value"]),
    "series": ({"type": "series", "name": "sf", "t": 0, "value": 1.0}, ["name", "t", "value"]),
}
NAMES = [(rtype, key) for rtype, (_, required) in TEMPLATES.items()
         for key in required if key in ("id", "src", "dst", "name", "elem")]
TIMES = [("node", "start"), ("node", "end"), ("edge", "start"), ("edge", "end"),
         ("attr", "t"), ("series", "t")]


def template(rtype):
    return dict(TEMPLATES[rtype][0])


def missing_field(rng, records):
    rtype = rng.choice(sorted(TEMPLATES))
    rec, key = template(rtype), rng.choice(TEMPLATES[rtype][1])
    if rng.random() < 0.5:
        del rec[key]
    else:
        rec[key] = None
    return rec


def list_name(rng, records):
    rtype, key = rng.choice(NAMES)
    return {**template(rtype), key: rng.choice([[1, 2], ["n0"], []])}


def bad_type(rng, records):
    return {**rng.choice(records), "type": rng.choice(["vertex", ["node"], ["attr", "edge"]])}


def boolean_time(rng, records):
    rtype, key = rng.choice(TIMES)
    return {**template(rtype), key: rng.random() < 0.5}


def non_finite(rng, records):
    rtype, key = rng.choice(TIMES + [("attr", "value"), ("series", "value")])
    return {**template(rtype), key: rng.choice([math.nan, math.inf, -math.inf])}


def unknown_element(rng, records):
    return rng.choice([
        {**template("attr"), "elem": rng.choice(["node:zz", "edge:zz", "object:zz"])},
        {**template("subset"), "members": ["node:n0", "node:zz"]},
        {**template("object"), "nodes": ["n0", "zz"]},
    ])


def conflicting_value(rng, records):
    rec = rng.choice([r for r in records if r["type"] == "attr"])
    return {**rec, "value": rec["value"] + 1}


def edge_to_unknown_node(rng, records):
    return {**template("edge"), rng.choice(["src", "dst"]): "zz"}


FAULTS = [missing_field, list_name, bad_type, boolean_time, non_finite, unknown_element,
          conflicting_value, edge_to_unknown_node]


def faulty_records(seed):
    """randsuite's graph ``seed`` with 1-3 faulty records put in at random
    lines, and the faults chosen."""
    rng = random.Random(seed)
    records = list(random_graph(seed).records)
    chosen = [rng.choice(FAULTS) for _ in range(rng.randint(1, 3))]
    for fault in chosen:
        records.insert(rng.randint(0, len(records)), fault(rng, records))
    return records, chosen


def reference_first_error(pairs):
    """The reference loader's first error. A list ``type`` crashes it as it
    reaches the first such record; the loader rejects that record instead."""
    try:
        reference_load(pairs)
    except TgqError as err:
        return err.code, err.message, err.details.get("line")
    except TypeError:
        decoded = ((n, json.loads(r) if isinstance(r, str) else r) for n, r in pairs)
        line, rtype = next((n, r["type"]) for n, r in decoded if isinstance(r.get("type"), list))
        return SCHEMA_ERROR, f"line {line}: unknown record type {rtype!r}", line
    pytest.fail("the reference loader took a faulty file")


def test_every_fault_is_planted():
    planted = {fault for seed in range(30) for fault in faulty_records(seed)[1]}
    assert planted == set(FAULTS)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("seed", range(30))
def test_several_faults_fail_like_the_reference(seed, fmt):
    records = faulty_records(seed)[0]
    pairs = list(_csv_records(csv_of(records))) if fmt == "csv" else numbered(lines_of(records))
    assert as_before(first_error(_load, pairs)) == reference_first_error(pairs)
