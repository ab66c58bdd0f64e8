"""``patterns.match_score`` against the scorers it replaced.

``reference_scorer`` holds the four entry points the engine had before one
scorer served search, comparison and seek. The behaviours scored here are
every pattern of the eight kinds characterised on the seeded random graphs
and on the corpus graph, one or more literals of each kind, and plain
values, in both orders (``scored_pairs``). Wherever a reference scores a pair, the
one scorer gives the same score and opposite flag; wherever every
reference raises, it raises the same code, or it answers a pair of two
literals of one kind, which it scores as their patterns.
"""

import itertools
from pathlib import Path

import pytest

from tgq.config import Config
from tgq.errors import KIND_MISMATCH, TgqError
from tgq.graph import TimeInterval, load_path, node_ref
from tgq.patterns import (
    AspectAxis,
    AspectFreqLiteral,
    AspectTrendLiteral,
    DistClass,
    DistLiteral,
    TrendClass,
    TrendLiteral,
    aspectual,
    distribution,
    match_score,
    trend,
)
from tgq.structure import (
    ConfigLiteral,
    ConfigTrendLiteral,
    PresenceClass,
    PresenceLiteral,
    StructScopeKind,
    StructuralPattern,
    config_over_time,
    pair_over_time,
    pairs_aggregate,
    snapshot_config,
)

import reference_scorer as ref
from randsuite import random_graph

CORPUS = Path(__file__).parent / "data" / "corpus_graph.jsonl"
REFERENCES = (ref.pattern_pair_detail, ref.match_score, ref.similarity_detail,
              ref.struct_match_score)


def characterised(graph) -> set:
    """Every pattern of each of the eight kinds over the graph's nodes, its
    subsets and the node set, on every window and time point."""
    cfg = Config()
    nodes = [node_ref(n) for n in graph.node_ids()]
    groups = [s.members for s in graph.subsets.values()] + [tuple(nodes)]
    windows = [TimeInterval(s, e) for s, e in itertools.combinations(range(graph.n_times), 2)]
    attrs = sorted(a for a in ("w", "u") if a in graph.attr_kinds)
    calls = [lambda n=n, w=w, a=a: trend(graph, cfg, n, w, a)
             for n in nodes for w in windows for a in attrs]
    calls += [lambda g=g, t=t, a=a: distribution(graph, cfg, g, t, a)
              for g in groups for t in range(graph.n_times) for a in attrs]
    calls += [lambda g=g, w=w, a=a, x=x: aspectual(graph, cfg, g, w, a, x)
              for g in groups for w in windows for a in attrs for x in AspectAxis]
    calls += [lambda p=p, w=w: pair_over_time(graph, cfg, p[0], p[1], w)
              for p in itertools.combinations(nodes, 2) for w in windows]
    calls += [lambda g=g, t=t: snapshot_config(graph, cfg, g, t)
              for g in groups for t in range(graph.n_times)]
    calls += [lambda g=g, w=w: pairs_aggregate(graph, cfg, g, w) for g in groups for w in windows]
    calls += [lambda g=g, w=w: config_over_time(graph, cfg, g, w) for g in groups for w in windows]
    out = set()
    for call in calls:
        try:
            out.add(call())
        except TgqError:  # an empty scope or a one-member pair table
            pass
    return out


LITERALS = (
    [TrendLiteral(c) for c in TrendClass]
    + [DistLiteral(c) for c in DistClass]
    + [AspectFreqLiteral((("INCREASING", 2),)),
       AspectFreqLiteral((("CONSTANT", 1), ("DECREASING", 1), ("PEAK", 3))),
       AspectTrendLiteral(TrendClass.INCREASING, TrendClass.CONSTANT),
       AspectTrendLiteral(TrendClass.DECREASING, TrendClass.PEAK)]
    + [PresenceLiteral(c) for c in PresenceClass]
    + [ConfigLiteral((("density", 0.5),)),
       ConfigLiteral((("components", 2.0), ("density", 1.0), ("triangles", 0.0))),
       ConfigTrendLiteral((("density", "INCREASING"),)),
       ConfigTrendLiteral((("components", "DECREASING"), ("density", "CONSTANT"))),
       StructuralPattern(StructScopeKind.PAIRS_AGGREGATE, class_frequencies=(("ALWAYS", 1),)),
       StructuralPattern(StructScopeKind.PAIRS_AGGREGATE,
                         class_frequencies=(("INTERMITTENT", 2), ("NEVER", 1)))]
)
VALUES = [3.0, "red", True]
LITERAL_KINDS = (TrendLiteral, DistLiteral, AspectFreqLiteral, AspectTrendLiteral,
                 PresenceLiteral, ConfigLiteral, ConfigTrendLiteral)


@pytest.fixture(scope="module")
def patterns() -> list:
    found = characterised(load_path(str(CORPUS)))
    for seed in range(6):
        found |= characterised(random_graph(seed).graph)
    return sorted(found, key=repr)


def kind(behaviour) -> tuple:
    return (type(behaviour), getattr(behaviour, "axis", None),
            getattr(behaviour, "scope", None))


def test_every_kind_is_characterised(patterns):
    assert len(set(map(kind, patterns))) == 8


def scored_pairs(patterns) -> list:
    """Every pair of patterns of one kind, and every pair with a probe on
    either side: the first and last pattern of each kind, each literal and
    each plain value. Patterns of two kinds never score, so a probe of
    each stands for them all."""
    by_kind: dict = {}
    for p in patterns:
        by_kind.setdefault(kind(p), []).append(p)
    probes = [ps[i] for ps in by_kind.values() for i in (0, -1)] + LITERALS + VALUES
    pairs = [pair for ps in by_kind.values() for pair in itertools.product(ps, repeat=2)]
    pairs += [(a, b) for a in probes for b in patterns + probes]
    return pairs + [(b, a) for a in probes for b in patterns]


def test_one_scorer_agrees_with_the_references(patterns):
    cfg = Config()
    scored = answered_anew = 0
    for a, b in scored_pairs(patterns):
        answers, codes = set(), set()
        for reference in REFERENCES:
            try:
                answers.add(reference(a, b, cfg))
            except TgqError as err:
                codes.add(err.code)
        try:
            got = match_score(a, b, cfg)
        except TgqError as err:
            assert not answers, (a, b)
            assert err.code in codes, (a, b)
            continue
        if answers:
            assert answers == {got}, (a, b)
            scored += 1
        else:  # a pair of literals of one kind, which no reference scored
            assert type(a) is type(b) and isinstance(a, LITERAL_KINDS), (a, b)
            assert codes == {KIND_MISMATCH}
            answered_anew += 1
    assert scored > 100_000 and answered_anew > 0
