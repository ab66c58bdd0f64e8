"""Crash freedom: malformed input and any valid query end in an answer or a
``TgqError``, never in another exception.

Two seeded slices of larger sweeps (QuickCheck-style, Claessen & Hughes,
ICFP 2000):

- ingest: one field of one corpus record replaced by a value of another
  JSON type or an extreme number, loaded as JSON lines and as CSV; and
  the corpus file's bytes with an invalid UTF-8 byte, a truncated
  multibyte sequence or a NUL written into them;
- queries: ``test_dsl.random_query`` bound to the ids, subsets and
  attributes of real graphs. Each envelope must serialise as strict JSON
  and each query's canonical text must parse back to the same tree.
"""

import csv
import io
import json
import random
from pathlib import Path

import pytest

import test_dsl
from tgq.config import Config
from tgq.dsl import parse
from tgq.dsl.planner import run_query
from tgq.errors import TgqError
from tgq.graph import TemporalGraph, load, load_path

from answer_batches import bound_names
from randsuite import random_graph

CORPUS = Path(__file__).parent / "data" / "corpus_graph.jsonl"
MUTANTS = (None, True, False, [], ["a", 1], {}, {"t": 0}, "", "x", 0, -1, 2.5, 1e308, 10 ** 400)


def corpus_records():
    return [json.loads(line) for line in CORPUS.read_text().splitlines() if line.strip()]


def mutations(count: int, seed: int):
    """``count`` corpus record lists, each with one field of one record replaced."""
    records = corpus_records()
    cases = [(i, field, value) for i, rec in enumerate(records) for field in rec
             for value in MUTANTS]
    for i, field, value in random.Random(seed).sample(cases, count):
        mutated = [dict(rec) for rec in records]
        mutated[i][field] = value
        yield mutated


def as_csv(records) -> str:
    """CSV ingest text: list cells ';'-joined, other cells as JSON text."""
    fields = sorted({key for rec in records for key in rec})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({key: ";".join(map(str, value)) if isinstance(value, list)
                         else value if isinstance(value, str) else json.dumps(value)
                         for key, value in rec.items()})
    return out.getvalue()


def loads_or_fails(fn, *args):
    try:
        assert isinstance(fn(*args), TemporalGraph)
    except TgqError:
        pass


def test_mutated_records_load_or_fail_cleanly():
    for records in mutations(400, seed=1):
        loads_or_fails(load, [json.dumps(rec) for rec in records])


def test_mutated_csv_loads_or_fails_cleanly(tmp_path):
    path = tmp_path / "mutant.csv"
    for records in mutations(60, seed=2):
        path.write_text(as_csv(records))
        loads_or_fails(load_path, str(path))


# Bytes that are not UTF-8 (a lone continuation or invalid byte, an overlong
# form, multibyte sequences cut short), a NUL, and a valid two-byte character.
BYTE_MUTANTS = (b"\xff", b"\x80", b"\xc0\xaf", b"\xe2\x82", b"\xf0\x9f\x98", b"\x00",
                "\u00e9".encode())


def byte_mutations(data: bytes, count: int, seed: int):
    """``count`` copies of ``data``, each with one mutant written over or in
    front of the bytes at one position (the end included)."""
    rng = random.Random(seed)
    for _ in range(count):
        pos = rng.randrange(len(data) + 1)
        mutant = rng.choice(BYTE_MUTANTS)
        yield data[:pos] + mutant + data[pos + rng.choice((0, len(mutant))):]


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_byte_mutations_load_or_fail_cleanly(tmp_path, suffix):
    data = (CORPUS.read_bytes() if suffix == ".jsonl"
            else as_csv(corpus_records()).encode())
    path = tmp_path / f"mutant{suffix}"
    undecodable = 0
    for mutated in byte_mutations(data, 80, seed=4):
        path.write_bytes(mutated)
        loads_or_fails(load_path, str(path))
        if suffix == ".jsonl":
            loads_or_fails(load, mutated.splitlines())
        try:
            mutated.decode("utf-8")
        except UnicodeDecodeError:
            undecodable += 1
    assert undecodable > 40


def bind(monkeypatch, graph):
    """Point the random query generator at the graph's own names."""
    for name, value in bound_names(graph).items():
        monkeypatch.setattr(test_dsl, name, value)


def run_random_queries(graph, count: int, seed: int):
    rng = random.Random(seed)
    cfg = Config(search_max_candidates=2000)
    answered = 0
    for _ in range(count):
        node = test_dsl.random_query(rng)
        text = node.pp()
        assert parse(text) == node, text
        try:
            envelope = run_query(text, graph, cfg)
        except TgqError:
            continue
        json.dumps(envelope, allow_nan=False)
        answered += 1
    return answered


def test_random_queries_on_the_corpus_graph(monkeypatch):
    graph = load_path(str(CORPUS))
    bind(monkeypatch, graph)
    assert run_random_queries(graph, 1000, seed=3) > 0


@pytest.mark.parametrize("seed", range(5))
def test_random_queries_on_random_graphs(monkeypatch, seed):
    graph = random_graph(seed).graph
    bind(monkeypatch, graph)
    assert run_random_queries(graph, 300, seed=10 + seed) > 0
