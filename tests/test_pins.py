"""Envelopes of query forms the corpus does not reach, pinned byte for byte.

``data/pin_queries.txt`` lists direct comparisons with SAME / DIFFERENT /
OPPOSITE over every side kind, relation seeking with DISTANCE and
CONNECTED side relations, connection tasks with objects and directions,
structural characterisation over sets with several components,
stand-alone lookups and characterisations, trend searches and seeks
over one window of every node or edge, value seeks and distributions over
every node or edge at one time point, WITHIN tolerances below zero,
duplicate FIND and SEEK targets, PERELEMENT correlations with members that
have no coefficient, a time point written in non-ASCII digits and a
string left open, and one query for each error the parser, the validator
and the planner can reach.
``data/pin_expected.jsonl`` holds the line ``tgq corpus`` prints for each:
elapsed_ms pinned to 0, a failure as an error envelope. A change that alters one changes an answer.
"""

import json
from pathlib import Path

import pytest

from tgq.config import Config
from tgq.dsl.planner import run_query
from tgq.errors import KIND_MISMATCH, TgqError
from tgq.graph import load_path

DATA = Path(__file__).parent / "data"
QUERIES = [line.strip()
           for line in (DATA / "pin_queries.txt").read_text(encoding="utf-8").splitlines()
           if line.strip() and not line.startswith("#")]
EXPECTED = (DATA / "pin_expected.jsonl").read_text(encoding="utf-8").splitlines()


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


# A literal may stand on either side of COMPARE: each query and its mirror
# must agree on everything but which side is which.
MIRRORED = [
    ("STRUCT PAIR(node:e, node:f) DURING [0, 7]", "APPEARING", "OPPOSITE"),
    ("STRUCT PAIR(object:O1, node:c) USING PATH <= 2 DURING [0, 7]", "ALWAYS", "SAME"),
    ("STRUCT CONFIG OF subset:S4 AT t=6", "CONFIG components=2.0", "SAME"),
    ("STRUCT CONFIGTREND OF subset:S1 DURING [0, 7]", "CONFIGTREND density=INCREASING", "SAME"),
    ("STRUCT PAIRS OF subset:S1 DURING [0, 7]", "PAIRSAGG {ALWAYS: 1, INTERMITTENT: 2}", "SAME"),
    ("TREND ON w OF node:a DURING [0, 7]", "DECREASING", "OPPOSITE"),
    ("DIST ON w OF NODES AT t=3", "DIST CONCENTRATED", "SAME"),
    ("DIST ON u OF subset:S1 AT t=0", "DIST BIMODAL", "DIFFERENT"),
    ("ASPECT TRENDS_OVER_GRAPH ON w OF subset:S1 DURING [0, 7]",
     "ASPECT TRENDS_OVER_GRAPH {CONSTANT: 3}", "DIFFERENT"),
    ("ASPECT DISTRIBUTION_OVER_TIME ON w OF subset:S3 DURING [0, 3]",
     "ASPECT DISTRIBUTION_OVER_TIME CONSTANT DECREASING", "SAME"),
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


# Two literals of each kind, the relation and score of the first with the
# second, and the pattern type a literal is scored as. A DIST literal pins
# only its class hint and is named as it is.
LITERAL_PAIRS = {
    "trend": ("INCREASING", "DECREASING", "opposite", 0.0, "TrendPattern"),
    "dist": ("DIST UNIFORM", "DIST BIMODAL", "different", 0.0, "DistLiteral"),
    "aspect_graph": ("ASPECT TRENDS_OVER_GRAPH {INCREASING: 2}",
                     "ASPECT TRENDS_OVER_GRAPH {INCREASING: 1, PEAK: 1}", "different", 0.5,
                     "AspectualPattern"),
    "aspect_time": ("ASPECT DISTRIBUTION_OVER_TIME INCREASING CONSTANT",
                    "ASPECT DISTRIBUTION_OVER_TIME DECREASING CONSTANT", "different", 0.5,
                    "AspectualPattern"),
    "presence": ("APPEARING", "DISAPPEARING", "opposite", 0.0, "StructuralPattern"),
    "config": ("CONFIG density=0.5", "CONFIG density=1.0", "different", 0.5,
               "StructuralPattern"),
    "configtrend": ("CONFIGTREND density=INCREASING", "CONFIGTREND density=DECREASING",
                    "opposite", 0.0, "StructuralPattern"),
    "pairsagg": ("PAIRSAGG {ALWAYS: 1}", "PAIRSAGG {ALWAYS: 1, NEVER: 1}", "different", 0.5,
                 "StructuralPattern"),
}


def compared(graph, lhs, rhs) -> tuple:
    (binding,) = run_query(f"COMPARE {lhs} WITH {rhs}", graph, Config())["bindings"]
    return binding["relation"], binding["score"], binding["opposite"]


@pytest.mark.parametrize("kind", LITERAL_PAIRS)
def test_same_kind_literals_answer(graph, kind):
    first, second, relation, score, _ = LITERAL_PAIRS[kind]
    assert compared(graph, first, first) == ("same", 1.0, False)
    assert compared(graph, first, second) == (relation, score, relation == "opposite")
    assert compared(graph, second, first) == (relation, score, relation == "opposite")


@pytest.mark.parametrize("lhs, rhs", [(a, b) for a in LITERAL_PAIRS for b in LITERAL_PAIRS
                                      if a != b])
def test_cross_kind_literals_mismatch(graph, lhs, rhs):
    with pytest.raises(TgqError) as err:
        compared(graph, LITERAL_PAIRS[lhs][0], LITERAL_PAIRS[rhs][0])
    assert err.value.code == KIND_MISMATCH
    # The literal is the target and is named first; PAIRSAGG is a pattern.
    first, second = (rhs, lhs) if lhs == "pairsagg" else (lhs, rhs)
    names = LITERAL_PAIRS[first][-1], LITERAL_PAIRS[second][-1]
    assert err.value.message == {
        ("AspectualPattern",) * 2: "aspectual patterns have different axes",
        ("StructuralPattern",) * 2: "structural patterns describe different behaviours",
    }.get(names, "cannot compare %s with %s" % names)
