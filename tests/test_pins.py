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
