"""The query batches that the cross-query relations run over, and their answers.

Three batches, each a graph, a config and a list of query texts:

- the golden corpus (``data/corpus_queries.txt`` on the corpus graph);
- the pins (``data/pin_queries.txt`` on the corpus graph);
- a fixed batch of ``test_dsl.random_query`` queries, bound to the ids,
  subsets and attributes of one randsuite graph.

Run as a script, it prints the ``tgq corpus`` output for the golden corpus,
then one answer line per pin and per random query:

    PYTHONPATH=src python tests/answer_batches.py

Pytest does not collect this file.
"""

import json
import random
import sys
from pathlib import Path

from tgq.cli import main as cli_main
from tgq.config import Config
from tgq.dsl.planner import run_query
from tgq.errors import TgqError
from tgq.graph import load_path

import test_dsl
from randsuite import random_graph

DATA = Path(__file__).parent / "data"
CORPUS_GRAPH = DATA / "corpus_graph.jsonl"
CORPUS_QUERIES = DATA / "corpus_queries.txt"
RANDOM_GRAPH_SEED = 6  # 12 nodes, 21 edges, 8 time points
RANDOM_QUERY_SEED = 32
RANDOM_QUERIES = 1000


def query_lines(path: Path) -> list:
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")]


def bound_names(graph) -> dict:
    """The ``test_dsl`` names that point the random query generator at the
    graph's own ids, subsets and attributes."""
    nodes = sorted(graph.nodes)
    return {"NODE_IDS": nodes[:3] + nodes[-2:],
            "ATTRS": sorted(graph.attr_kinds) + ["nope"],
            "SUBSETS": sorted(graph.subsets) or ["S1"]}


def random_texts(graph, count: int, seed: int) -> list:
    """``count`` canonical texts of random queries over the graph's own names."""
    names = bound_names(graph)
    saved = {name: getattr(test_dsl, name) for name in names}
    try:
        for name, value in names.items():
            setattr(test_dsl, name, value)
        rng = random.Random(seed)
        return [test_dsl.random_query(rng).pp() for _ in range(count)]
    finally:
        for name, value in saved.items():
            setattr(test_dsl, name, value)


def batches() -> dict:
    """name -> (graph, cfg, query texts)."""
    corpus = load_path(str(CORPUS_GRAPH))
    rand = random_graph(RANDOM_GRAPH_SEED).graph
    return {
        "corpus": (corpus, Config(), query_lines(CORPUS_QUERIES)),
        "pins": (corpus, Config(), query_lines(DATA / "pin_queries.txt")),
        "random": (rand, Config(search_max_candidates=2000),
                   random_texts(rand, RANDOM_QUERIES, RANDOM_QUERY_SEED)),
    }


def answer(text: str, graph, cfg) -> dict:
    """The envelope without ``elapsed_ms``, or the error as an envelope."""
    try:
        envelope = run_query(text, graph, cfg)
    except TgqError as err:
        return {"query": text, "error": {"code": err.code, "message": err.message}}
    del envelope["elapsed_ms"]
    return envelope


def main() -> int:
    code = cli_main(["corpus", str(CORPUS_GRAPH), str(CORPUS_QUERIES)])
    named = batches()
    for name in ("pins", "random"):
        graph, cfg, texts = named[name]
        for text in texts:
            print(json.dumps(answer(text, graph, cfg), allow_nan=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
