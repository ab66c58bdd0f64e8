"""Acceptance suite: one test per criterion, each printing a PASS line.

Oracles here are independent of the code paths they check: exhaustive
scans, double loops, Floyd-Warshall, endpoint predicate tables, and regex
presence classification.
"""

import itertools
import json
import math
import random
import re
import time
from pathlib import Path

import pytest

from tgq.cli import main
from tgq.config import Config
from tgq.correlate import pearson
from tgq.dsl import parse, plan
from tgq.graph import TimeInterval, load, node_ref
from tgq.patterns import TrendClass, classify_trend, match_score
from tgq.relations import (
    ALLEN_INVERSE,
    RelationFamily,
    RelationSpec,
    allen_relation,
)
from tgq.search import GroupCandidate, SearchSpace, SubsetFamily
from tgq.structure import (
    ConnectionSpec,
    classify_presence,
    connection_times,
    find_connected_pairs,
    snapshot_metrics,
)
from tgq.tasks import (
    BehaviorScope,
    Quadrant,
    SeekSideValues,
    ValueConstraint,
    characterize,
    inverse_lookup,
    pattern_search,
    relation_seek,
)

from conftest import raising_value
from randsuite import random_graph
from test_dsl import random_query

DATA = Path(__file__).parent / "data"
GRAPH_PATH = str(DATA / "corpus_graph.jsonl")
QUERIES_PATH = str(DATA / "corpus_queries.txt")

CFG = Config()
N_RANDOM_GRAPHS = 50


@pytest.fixture(scope="module")
def suite():
    return [random_graph(seed) for seed in range(N_RANDOM_GRAPHS)]


def read_corpus():
    """[(cell tag, query)] from the tagged corpus file."""
    entries = []
    cell = None
    for raw in Path(QUERIES_PATH).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        tag = re.fullmatch(r"#\s*\[([A-Z0-9:_.]+)\]", line)
        if tag:
            cell = tag.group(1)
            continue
        if line.startswith("#"):
            continue
        entries.append((cell, line))
        cell = None
    return entries


def expected_cells():
    """The audited task grid.

    Comparison and seeking cells are binding patterns: rows are the
    time-reference states (both fixed equal / both fixed different / one
    fixed / both free), columns the graph-reference states (same /
    different / one fixed / both free). The same-reference same-time
    seeking cell is not applicable (nothing left to seek).
    """
    cells = {f"LOOKUP:Q{i}" for i in range(1, 5)}
    for quadrant in ("Q2", "Q3", "Q4"):
        for binding in ("CHARAC", "SEARCH_G", "SEARCH_T", "SEARCH_GT"):
            cells.add(f"LOOKUP:{quadrant}:{binding}")
    for grid in ("ELEM", "Q2", "Q3", "Q4"):
        for r in range(1, 5):
            for c in range(1, 5):
                cells.add(f"CMP:{grid}:R{r}C{c}")
                if (r, c) != (1, 1):
                    cells.add(f"SEEK:{grid}:R{r}C{c}")
    for r in range(1, 3):
        for c in range(1, 4):
            cells.add(f"CONN:R{r}C{c}")
    cells.update(f"STRUCT:B{i}" for i in range(1, 5))
    return cells


def test_criterion_1_matrix_coverage():
    """Every task-matrix cell has an executable corpus query."""
    started = time.monotonic()
    from tgq.graph import load_path

    graph = load_path(GRAPH_PATH)
    entries = read_corpus()
    covered = {cell for cell, _ in entries if cell and not cell.startswith("EXTRA")}
    missing = expected_cells() - covered
    assert not missing, f"uncovered task-matrix cells: {sorted(missing)}"
    for cell, query in entries:
        planned = plan(parse(query), graph, CFG)
        planned.run()  # must execute, not only plan
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: {len(expected_cells())} cells covered by "
          f"{len(entries)} queries in {elapsed:.1f}s")


def _binding_keys(pairs):
    out = set()
    for p in pairs:
        out.add((p.lhs.time_key, str(p.lhs.ref_key), p.rhs.time_key, str(p.rhs.ref_key)))
    return out


def test_criterion_2_oracle_equivalence(suite):
    """Five operations match independent brute-force enumeration on the
    random suite."""
    started = time.monotonic()
    for raw in suite:
        g = raw.graph
        nodes = [node_ref(n) for n in sorted(raw.node_spans)]

        # inverse lookup vs exhaustive (t, element) scan
        constraint = ValueConstraint("ge", (3.0,))
        got = {(t, str(r)) for t, r, _ in inverse_lookup(g, CFG, "w", constraint)}
        expect = set()
        for t in range(g.n_times):
            for ref in g.all_refs():
                value = raising_value(g, t, ref, "w", CFG)
                if value is not None and value >= 3.0:
                    expect.add((t, str(ref)))
        assert got == expect

        # pattern search (EACH_NODE) vs characterize-and-filter
        full = g.full_interval()
        from tgq.patterns import TrendLiteral

        target = TrendLiteral(TrendClass.INCREASING)
        matches = pattern_search(
            g, CFG, target, Quadrant.Q3_TREND_OF_G, "w",
            SearchSpace(SubsetFamily.EACH_NODE), time_key=full,
        )
        got_names = {m.ref_name for m in matches}
        expect_names = set()
        for ref in nodes:
            scope = BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=ref, time_key=full)
            p = characterize(g, CFG, scope, "w")
            score, _ = match_score(target, p, CFG)
            if score >= CFG.similarity_threshold:
                expect_names.add(str(ref))
        assert got_names == expect_names

        # relation seeking vs double enumeration with the same orientation rule
        side = SeekSideValues("w")
        got_pairs = _binding_keys(relation_seek(
            g, CFG, RelationSpec(RelationFamily.VALUE, "eq"), side, side,
        ))
        bindings = []
        for t in range(g.n_times):
            for ref in nodes:
                value = raising_value(g, t, ref, "w", CFG)
                if value is not None:
                    bindings.append((t, str(ref), value))
        expect_pairs = set()
        for (t1, g1, v1) in bindings:
            for (t2, g2, v2) in bindings:
                if (t1, g1) == (t2, g2) or v1 != v2:
                    continue
                if (t1, g1) > (t2, g2):
                    continue  # the mirrored pair carries the same information
                expect_pairs.add((t1, g1, t2, g2))
        assert got_pairs == expect_pairs

        # connected pairs vs raw edge-record scan
        for t in range(g.n_times):
            got_adj = {
                (a.id, b.id)
                for a, b, _ in find_connected_pairs(g, CFG, ConnectionSpec(), t=t)
            }
            expect_adj = {
                tuple(sorted((src, dst)))
                for _, src, dst, s, e in raw.edge_rows
                if s <= t <= e
            }
            assert got_adj == expect_adj

        # connection times vs per-time interval cover
        for _, src, dst, s, e in raw.edge_rows[:3]:
            got_times = connection_times(g, CFG, node_ref(src), node_ref(dst),
                                         ConnectionSpec())
            expect_times = sorted({
                t for _, s2, d2, s0, e0 in raw.edge_rows
                if {s2, d2} == {src, dst}
                for t in range(s0, e0 + 1)
            })
            assert got_times == expect_times
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: 5 operations x {len(suite)} random graphs "
          f"match brute force in {elapsed:.1f}s")


def test_criterion_3_lookup_duality(suite):
    """Direct and inverse lookup round-trip with zero mismatches."""
    checked = 0
    for raw in suite:
        g = raw.graph
        for attr in ("w", "u"):
            for t in range(g.n_times):
                for ref in g.all_refs():
                    value = raising_value(g, t, ref, attr, CFG)
                    if value is None:
                        continue
                    hits = inverse_lookup(g, CFG, attr, ValueConstraint("eq", (value,)))
                    assert (t, ref, value) in hits
                    checked += 1
                    for ht, href, hv in hits:
                        assert g.value_at_info(ht, href, attr, CFG)[0] == value
    print(f"\nACCEPTANCE 3 PASS: {checked} defined (t, g, attr) triples round-trip")


def test_criterion_4_characterize_search_duality(suite):
    """Searching a characterized pattern over a family containing the scope
    returns the scope with score 1.0."""
    checked = 0
    for raw in suite:
        g = raw.graph
        full = g.full_interval()
        for name in sorted(raw.node_spans):
            scope = BehaviorScope(Quadrant.Q3_TREND_OF_G, ref_key=node_ref(name),
                                  time_key=full)
            p = characterize(g, CFG, scope, "w")
            matches = pattern_search(
                g, CFG, p, Quadrant.Q3_TREND_OF_G, "w",
                SearchSpace(SubsetFamily.EACH_NODE), time_key=full,
            )
            hit = [m for m in matches if m.ref_name == f"node:{name}"]
            assert hit and hit[0].score == 1.0
            checked += 1
        for sname, members in raw.subsets.items():
            grp = GroupCandidate(f"subset:{sname}", g.subsets[sname].members)
            for t in range(g.n_times):
                scope = BehaviorScope(Quadrant.Q2_DIST_AT_T, ref_key=grp, time_key=t)
                try:
                    p = characterize(g, CFG, scope, "w")
                except Exception:
                    continue  # no member carries a value here
                matches = pattern_search(
                    g, CFG, p, Quadrant.Q2_DIST_AT_T, "w",
                    SearchSpace(SubsetFamily.NAMED_SUBSETS), time_key=t,
                )
                hit = [m for m in matches if m.ref_name == f"subset:{sname}"]
                assert hit and hit[0].score == 1.0
                checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} scopes recovered with score 1.0")


ALLEN_ORACLE = {
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


def test_criterion_5_allen_algebra():
    """Exactly one of the 13 relations holds per pair, inverses agree."""
    intervals = [TimeInterval(s, e) for s in range(10) for e in range(s, 10)]
    pairs = exclusivity_violations = inverse_violations = 0
    for i1, i2 in itertools.product(intervals, repeat=2):
        pairs += 1
        held = [tag for tag, pred in ALLEN_ORACLE.items()
                if pred(i1.start, i1.end, i2.start, i2.end)]
        tag = allen_relation(i1, i2)
        if len(held) != 1 or held[0] != tag:
            exclusivity_violations += 1
        if tag != ALLEN_INVERSE[allen_relation(i2, i1)]:
            inverse_violations += 1
    assert exclusivity_violations == 0
    assert inverse_violations == 0
    print(f"\nACCEPTANCE 5 PASS: {pairs} interval pairs, 0 violations")


def _floyd_warshall(nodes, pairs):
    inf = math.inf
    dist = {(a, b): (0 if a == b else inf) for a in nodes for b in nodes}
    for a, b in pairs:
        dist[(a, b)] = min(dist[(a, b)], 1)
        dist[(b, a)] = min(dist[(b, a)], 1)
    for k in nodes:
        for i in nodes:
            ik = dist[(i, k)]
            if ik is inf:
                continue
            for j in nodes:
                alt = ik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def test_criterion_6_structural_oracles(suite):
    """Shortest paths match Floyd-Warshall, triangles match brute triples,
    presence classes match the decision table."""
    from tgq.relations import shortest_connection

    # a denser 30-node graph on top of the random suite
    rng = random.Random(303)
    records = [{"type": "node", "id": f"m{i}", "start": 0, "end": 1} for i in range(30)]
    for i in range(30):
        for j in range(i + 1, 30):
            if rng.random() < 0.08:
                records.append({"type": "edge", "id": f"e{i}_{j}", "src": f"m{i}",
                                "dst": f"m{j}", "start": 0, "end": 1})
    big = load(json.dumps(r) for r in records)

    graphs = [raw.graph for raw in suite[:10]] + [big]
    snapshots = 0
    for g in graphs:
        for t in range(g.n_times):
            snap = g.snapshot(t)
            names = list(snap.nodes)
            pairs = {tuple(sorted((s, d))) for _, s, d, _ in snap.edges if s != d}
            fw = _floyd_warshall(names, pairs)
            for a in names:
                for b in names:
                    got, _ = shortest_connection(g, t, node_ref(a), node_ref(b))
                    expect = fw[(a, b)]
                    assert (got if got is not None else math.inf) == expect
            members = [node_ref(n) for n in names]
            if names:
                metrics = snapshot_metrics(g, members, t)
                tri = sum(
                    1 for trio in itertools.combinations(names, 3)
                    if all(tuple(sorted(p)) in pairs
                           for p in itertools.combinations(trio, 2))
                )
                assert metrics["triangles"] == tri
            snapshots += 1

    checked_bits = 0
    for length in range(1, 7):
        for combo in itertools.product("01", repeat=length):
            bits = "".join(combo)
            if re.fullmatch(r"1+", bits):
                expect = "ALWAYS"
            elif re.fullmatch(r"0+", bits):
                expect = "NEVER"
            elif re.fullmatch(r"0+1+", bits):
                expect = "APPEARING"
            elif re.fullmatch(r"1+0+", bits):
                expect = "DISAPPEARING"
            else:
                expect = "INTERMITTENT"
            assert classify_presence(bits).value == expect
            checked_bits += 1
    print(f"\nACCEPTANCE 6 PASS: {snapshots} snapshots vs Floyd-Warshall and "
          f"triangle oracles; {checked_bits} presence bitstrings")


def test_criterion_7_numeric_properties():
    """Trend affine invariance; Pearson bounds, affine invariance, and
    lag consistency, all within 1e-9."""
    rng = random.Random(7001)
    for _ in range(1000):
        values = [rng.uniform(-100, 100) for _ in range(rng.randint(2, 24))]
        alpha = rng.uniform(0.1, 10.0)
        beta = rng.uniform(-100, 100)
        base = classify_trend(list(enumerate(values)), CFG)
        scaled = classify_trend(
            [(i, alpha * v + beta) for i, v in enumerate(values)], CFG)
        assert scaled.cls == base.cls

    for trial in range(200):
        n = rng.randint(3, 40)
        xs = [rng.uniform(-50, 50) for _ in range(n)]
        ys = [rng.uniform(-50, 50) for _ in range(n)]
        r = pearson(list(zip(xs, ys)), 0, CFG).coefficient
        assert abs(r) <= 1.0
        alpha = rng.choice([-4.0, -0.5, 0.25, 3.0])
        beta = rng.uniform(-10, 10)
        r2 = pearson(list(zip([alpha * x + beta for x in xs], ys)), 0, CFG).coefficient
        assert abs(r2 - math.copysign(1.0, alpha) * r) <= 1e-9

    for trial in range(50):
        n = rng.randint(8, 30)
        series = {t: rng.uniform(-10, 10) for t in range(n)}
        k = rng.randint(0, 3)
        shifted = {t + k: v for t, v in series.items()}
        pairs = [(series[t], shifted[t + k]) for t in sorted(series)]
        r = pearson(pairs, k, CFG).coefficient
        assert abs(r - 1.0) <= 1e-9
    print("\nACCEPTANCE 7 PASS: 1000 affine trend cases, 200 Pearson cases, "
          "50 lag cases within 1e-9")


def test_criterion_8_parser_robustness():
    """No crash on 10k random byte strings; round-trip identity on the
    corpus and 1000 generated syntax trees."""
    from tgq.errors import TgqError

    rng = random.Random(8001)
    for _ in range(10_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        try:
            parse(raw.decode("utf-8", "replace"))
        except TgqError:
            pass
    for _, query in read_corpus():
        node = parse(query)
        assert parse(node.pp()) == node
    gen = random.Random(8002)
    for _ in range(1000):
        node = random_query(gen)
        assert parse(node.pp()) == node
    print("\nACCEPTANCE 8 PASS: 10000 fuzz inputs, corpus + 1000 generated "
          "trees round-trip")


def test_criterion_9_determinism(capsys):
    """Two corpus runs produce byte-identical envelopes, equal to the
    checked-in golden output."""
    assert main(["corpus", GRAPH_PATH, QUERIES_PATH]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", GRAPH_PATH, QUERIES_PATH]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.encode("utf-8") == (DATA / "corpus_expected.jsonl").read_bytes()
    assert first.count("\n") >= 150
    print(f"\nACCEPTANCE 9 PASS: {first.count(chr(10))} envelopes byte-identical "
          "across runs and to the golden file")
