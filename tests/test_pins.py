"""Envelopes of query forms the corpus does not reach, pinned byte for byte.

``data/pin_queries.txt`` lists direct comparisons with SAME / DIFFERENT /
OPPOSITE over every side kind, relation seeking with DISTANCE and
CONNECTED side relations, connection tasks with objects and directions,
structural characterisation over sets with several components, and
stand-alone lookups and characterisations. ``data/pin_expected.jsonl``
holds the line ``tgq corpus`` prints for each: elapsed_ms pinned to 0, a
failure as an error envelope. A change that alters one changes an answer.
"""

import json
from pathlib import Path

import pytest

from tgq.config import Config
from tgq.dsl.planner import run_query
from tgq.errors import TgqError
from tgq.graph import load_path

DATA = Path(__file__).parent / "data"
QUERIES = [line.strip() for line in (DATA / "pin_queries.txt").read_text().splitlines()
           if line.strip() and not line.startswith("#")]
EXPECTED = (DATA / "pin_expected.jsonl").read_text().splitlines()


@pytest.fixture(scope="module")
def graph():
    return load_path(str(DATA / "corpus_graph.jsonl"))


def corpus_line(text: str, graph) -> str:
    try:
        envelope = run_query(text, graph, Config())
        envelope["elapsed_ms"] = 0
    except TgqError as err:
        envelope = {"query": text, "error": {"code": err.code, "message": err.message}}
    return json.dumps(envelope, allow_nan=False)


def test_one_envelope_per_query():
    assert len(QUERIES) == len(EXPECTED)


@pytest.mark.parametrize("index", range(len(QUERIES)), ids=lambda i: f"q{i:03d}")
def test_envelope_unchanged(graph, index):
    assert corpus_line(QUERIES[index], graph) == EXPECTED[index], QUERIES[index]


# A structural literal may stand on either side of COMPARE: each query and
# its mirror must agree on everything but which side is which.
MIRRORED = [
    ("STRUCT PAIR(node:e, node:f) DURING [0, 7]", "APPEARING", "OPPOSITE"),
    ("STRUCT PAIR(object:O1, node:c) USING PATH <= 2 DURING [0, 7]", "ALWAYS", "SAME"),
    ("STRUCT CONFIG OF subset:S4 AT t=6", "CONFIG components=2.0", "SAME"),
    ("STRUCT CONFIGTREND OF subset:S1 DURING [0, 7]", "CONFIGTREND density=INCREASING", "SAME"),
]


@pytest.mark.parametrize("pattern, literal, relation", MIRRORED)
def test_structural_literal_on_either_side(graph, pattern, literal, relation):
    forward = f"COMPARE {pattern} WITH {literal} USING {relation}"
    assert forward in QUERIES
    answers = []
    for text in (forward, f"COMPARE {literal} WITH {pattern} USING {relation}"):
        (binding,) = run_query(text, graph, Config())["bindings"]
        answers.append({key: binding[key]
                        for key in ("relation", "holds", "score", "opposite", "label")})
    assert answers[0] == answers[1]
