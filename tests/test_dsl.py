"""Parser, validation, and planning behaviour, including round-trip
identity over generated syntax trees and robustness against junk input."""

import random
from pathlib import Path

import pytest

from tgq.dsl import parse
from tgq.dsl import ast
from tgq.dsl.planner import plan, run_query
from tgq.errors import PLAN_ERROR, ParseError, TgqError, VALIDATION_ERROR
from tgq.graph import load_path
from tgq.patterns import (
    AspectFreqLiteral, AspectTrendLiteral, DistClass, DistLiteral, TrendClass, TrendLiteral,
)
from tgq.structure import (
    ConfigLiteral, ConfigTrendLiteral, PresenceClass, PresenceLiteral, StructScopeKind,
    StructuralPattern,
)

DATA = Path(__file__).parent / "data"
LOOKUP_SUBSET = "LOOKUP takes a single element; use CHARACTERIZE for subsets"
FOR_SUBSET = "FOR takes a single element (node:, edge:, object:); use IN for subsets"


@pytest.fixture(scope="module")
def corpus_graph():
    return load_path(str(DATA / "corpus_graph.jsonl"))


def corpus_queries():
    out = []
    for line in (DATA / "corpus_queries.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


class TestParse:
    def test_lookup_exemplar(self):
        node = parse("LOOKUP w OF node:a AT t=2")
        assert node == ast.Lookup(ast.SideLookup("w", ast.Ref("node", "a"), ast.TimeRef(2)))

    def test_find_exemplar(self):
        node = parse("FIND t,g WHERE w > 50")
        assert node.targets == ("t", "g")
        assert node.predicate == ast.Predicate("w", "gt", (50,))

    def test_keywords_case_insensitive(self):
        assert parse("lookup w of node:a at t=2") == parse("LOOKUP w OF node:a AT t=2")

    def test_bare_time_label_accepted(self):
        assert parse("LOOKUP w OF node:a AT 2") == parse("LOOKUP w OF node:a AT t=2")

    def test_string_labels(self):
        node = parse('LOOKUP w OF node:a AT t="mar"')
        assert node.side.at == ast.TimeRef("mar")
        assert parse(node.pp()) == node

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as e:
            parse("LOOKUP w FROM node:a")
        assert e.value.line == 1
        assert e.value.col == 10
        assert "OF" in e.value.expected

    def test_query_must_be_text(self):
        with pytest.raises(ParseError) as e:
            parse(None)
        assert e.value.message == "query must be text at line 1, col 1"

    def test_error_on_unknown_ref_kind(self):
        with pytest.raises(ParseError):
            parse("LOOKUP w OF vertex:a AT t=2")

    def test_validation_missing_interval_quadrant_rule(self):
        with pytest.raises(TgqError) as e:
            parse("CHARACTERIZE DIST ON w OF subset:S1")
        assert e.value.code == VALIDATION_ERROR

    def test_validation_trend_needs_element(self):
        with pytest.raises(TgqError) as e:
            parse("CHARACTERIZE TREND ON w OF subset:S1 DURING [0, 3]")
        assert e.value.code == VALIDATION_ERROR

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse("LOOKUP w OF node:a AT t=2 banana")

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", pytest.param("1" + "0" * 400, id="10**400")])
    def test_non_finite_number_rejected(self, literal):
        with pytest.raises(ParseError) as e:
            parse(f"FIND t,g WHERE w > {literal}")
        assert e.value.code == "PARSE_ERROR"
        assert (e.value.line, e.value.col) == (1, 20)
        assert e.value.message == f"number {literal} is not finite at line 1, col 20"

    @pytest.mark.parametrize("literal", ["1e300", "-1.5e-300", "1.7976931348623157e308", "12"])
    def test_finite_number_round_trips(self, literal):
        node = parse(f"FIND t,g WHERE w > {literal}")
        assert parse(node.pp()) == node


class TestRoundTrip:
    def test_corpus_round_trip(self):
        for query in corpus_queries():
            node = parse(query)
            again = parse(node.pp())
            assert node == again, query

    @pytest.mark.parametrize("text, printed", [
        ("é", '"é"'), ("a\tb", '"a\tb"'), ("two\nlines", '"two\nlines"'),
        ('q"uote', '"q\\"uote"'), ("back\\slash", '"back\\\\slash"'),
        ('\\"\t\né', '"\\\\\\"\t\né"'),
    ])
    def test_string_round_trip(self, text, printed):
        """A string escapes only backslash and quote, the tokenizer's rule,
        so it prints as written and reads back as itself."""
        lookup = ast.Lookup(ast.SideLookup("w", ast.Ref("node", "a"), ast.TimeRef(text)))
        find = ast.Find(("t",), ast.Predicate("w", "eq", (text,)))
        for node in (lookup, find):
            assert node.pp().endswith(printed)
            assert parse(node.pp()) == node, node.pp()

    def test_generated_round_trip(self):
        rng = random.Random(2024)
        for _ in range(1000):
            node = random_query(rng)
            text = node.pp()
            again = parse(text)
            assert node == again, text


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = random.Random(99)
        for _ in range(10_000):
            length = rng.randrange(0, 60)
            raw = bytes(rng.randrange(256) for _ in range(length))
            text = raw.decode("utf-8", "replace")
            try:
                parse(text)
            except TgqError:
                pass  # ParseError / validation errors are the contract

    def test_keyword_prefix_mutations(self):
        rng = random.Random(7)
        seeds = corpus_queries()[:20]
        for _ in range(500):
            base = rng.choice(seeds)
            pos = rng.randrange(len(base))
            mutated = base[:pos] + rng.choice("()[]{},=<>!\"'x0") + base[pos:]
            try:
                parse(mutated)
            except TgqError:
                pass


class TestPlan:
    def test_characterize_dispatch(self, corpus_graph, cfg):
        env = run_query("CHARACTERIZE TREND ON w OF node:a DURING [0, 7]",
                        corpus_graph, cfg)
        assert env["bindings"][0]["pattern"]["class"] == "INCREASING"

    def test_free_subset_without_family_is_plan_error(self, corpus_graph, cfg):
        # The grammar forces OVER/OF on SEARCH, so build the unbounded AST
        # directly: a free subset reference with no enumerable family.
        node = ast.Search(DistLiteral(DistClass.UNIFORM), "w", None, None)
        with pytest.raises(TgqError) as e:
            plan(node, corpus_graph, cfg)
        assert e.value.code == PLAN_ERROR

    def test_seek_group_without_family_is_plan_error(self, corpus_graph, cfg):
        with pytest.raises(TgqError) as e:
            run_query(
                "SEEK G1,G2 WHERE DIST(w, G1) SAME DIST(w, G2) AND t1 = 0 AND t2 = 0",
                corpus_graph, cfg,
            )
        assert e.value.code == PLAN_ERROR

    def test_unknown_time_label(self, corpus_graph, cfg):
        with pytest.raises(TgqError) as e:
            run_query("LOOKUP w OF node:a AT t=99", corpus_graph, cfg)
        assert e.value.code == VALIDATION_ERROR

    def test_unknown_element(self, corpus_graph, cfg):
        with pytest.raises(TgqError) as e:
            run_query("LOOKUP w OF node:zz AT t=0", corpus_graph, cfg)
        assert e.value.code == VALIDATION_ERROR

    @pytest.mark.parametrize("query", [
        "SEARCH PEAK ON w OF node:c WINDOWS {n}",
        "SEARCH DECREASING ON w OVER EACH_NODE WINDOWS {n}",
        "STRUCT SEARCH APPEARING OVER PAIRS WINDOWS {n}",
    ])
    @pytest.mark.parametrize("n", [0, -1])
    def test_windows_below_one_rejected(self, corpus_graph, cfg, query, n):
        with pytest.raises(TgqError) as e:
            run_query(query.format(n=n), corpus_graph, cfg)
        assert (e.value.code, e.value.message) == (VALIDATION_ERROR, "window length must be >= 1")

    @pytest.mark.parametrize("literal", ["2.5", "2.0", "2e0", "w"])
    def test_windows_needs_an_integer_literal(self, literal):
        with pytest.raises(ParseError) as e:
            parse(f"SEARCH PEAK ON w OF node:c WINDOWS {literal}")
        assert (e.value.line, e.value.col) == (1, 36)
        assert e.value.expected == {"integer"}

    @pytest.mark.parametrize("query", [
        "NEIGHBORS(node:a, PATH <= 1.5) AT t=0",
        "SEARCH DIST CONCENTRATED ON w OVER KHOP 1.5 AT t=0",
        "SEEK g1,g2 WHERE w(g1) = w(g2) AND DISTANCE(g1, g2) <= 2e0",
        "CORRELATE w OF node:a WITH u OF node:a LAG 1.0",
        "SEARCH ASPECT TRENDS_OVER_GRAPH {INCREASING: 1.5} ON w OVER SUBSETS",
        "STRUCT SEARCH PAIRSAGG {ALWAYS: 2.5} OVER SUBSETS",
    ])
    def test_integer_positions_reject_other_numbers(self, query):
        with pytest.raises(ParseError) as e:
            parse(query)
        assert e.value.expected == {"integer"}

    @pytest.mark.parametrize("query, expected", [
        ('SEARCH "increasing" ON w OVER EACH_NODE',
         {c.value for c in TrendClass} | {"DIST", "ASPECT"}),
        ('STRUCT SEARCH "always" OVER PAIRS',
         {c.value for c in PresenceClass} | {"CONFIG", "CONFIGTREND", "PAIRSAGG"}),
    ])
    def test_quoted_string_is_no_class_keyword(self, query, expected):
        with pytest.raises(ParseError) as e:
            parse(query)
        assert e.value.expected == expected

    @pytest.mark.parametrize("query, message", [
        ("LOOKUP w OF subset:S1 AT t=0", LOOKUP_SUBSET),
        ("COMPARE w OF subset:S1 AT t=0 WITH 3", LOOKUP_SUBSET),
        ("FIND t WHERE w > 1 FOR subset:S1", FOR_SUBSET),
        ("COMPARE FIND t WHERE w > 1 FOR subset:S1 WITH T=0", FOR_SUBSET),
        ("SEARCH DIST CONCENTRATED ON w OVER KHOP 0 AT t=0", "k-hop radius must be >= 1"),
        ("SEARCH DIST CONCENTRATED ON w OVER KHOP 1 node:zzz AT t=0", "unknown node 'zzz'"),
        ("STRUCT SEARCH CONFIG density=0.5 OVER KHOP 1 node:zzz AT t=0", "unknown node 'zzz'"),
        ("SEARCH DIST CONCENTRATED ON w OVER KHOP 1 edge:e1 AT t=0",
         "the KHOP centre is a node, not edge:e1"),
        ("SEEK G1,G2 WHERE DIST(w, G1) SAME DIST(w, G2) AND t1 = 0 AND t2 = 0 "
         "OVER KHOP 1 subset:S1", "the KHOP centre is a node, not subset:S1"),
        ("SEEK g1,g2 WHERE w(g1) = w(g2) AND DISTANCE(g1, g2) <= -1 AND t1 = 0 AND t2 = 0",
         "max distance must be >= 0"),
        ("COMPARE w OF node:a AT t=0 WITH w OF node:c AT t=0 USING WITHIN(-1.0)",
         "WITHIN tolerance must be >= 0"),
        ("SEEK g2 WHERE w(g1) WITHIN(-1e-300) w(g2) AND g1 = node:a AND t1 = 0 AND t2 = 0",
         "WITHIN tolerance must be >= 0"),
    ])
    def test_bad_references_and_radius_rejected(self, corpus_graph, cfg, query, message):
        with pytest.raises(TgqError) as e:
            run_query(query, corpus_graph, cfg)
        assert (e.value.code, e.value.message) == (VALIDATION_ERROR, message)

    def test_windows_integer_round_trips(self):
        node = parse("SEARCH PEAK ON w OF node:c WINDOWS 2")
        assert node.windows == 2
        assert node.pp().endswith("WINDOWS 2")

    def test_every_corpus_query_plans(self, corpus_graph, cfg):
        for query in corpus_queries():
            planned = plan(parse(query), corpus_graph, cfg)
            assert planned.query_text


# ---------------------------------------------------------------------------
# Random AST generation (valid by construction)
# ---------------------------------------------------------------------------

ATTRS = ["w", "u", "weight", "kind_attr", "score_1"]
NODE_IDS = ["a", "b", "c", "node-7", "x.y"]
SUBSETS = ["S1", "S2", "Big_one"]
TRENDS = ["INCREASING", "DECREASING", "CONSTANT", "PEAK", "TROUGH",
          "FLUCTUATING", "DEGENERATE"]
DISTS = ["UNIFORM", "CONCENTRATED", "BIMODAL", "SKEWED_LEFT", "SKEWED_RIGHT"]
PRESENCE = ["ALWAYS", "NEVER", "APPEARING", "DISAPPEARING", "INTERMITTENT"]
METRICS = ["density", "components", "triangles", "mean_degree", "cliques4"]


def rand_label(rng):
    if rng.random() < 0.8:
        return rng.randrange(0, 20)
    return rng.choice(["jan", "feb", "mar with space", 'q"uote'])


def rand_time(rng):
    return ast.TimeRef(rand_label(rng))


def rand_interval(rng):
    a, b = sorted((rng.randrange(0, 10), rng.randrange(0, 10)))
    return ast.IntervalRef(a, b)


def rand_elem(rng, kinds=("node", "edge", "object")):
    return ast.Ref(rng.choice(kinds), rng.choice(NODE_IDS))


def rand_group(rng):
    kind = rng.choice(["subset", "nodes", "edges"])
    if kind == "subset":
        return ast.GroupRef("subset", rng.choice(SUBSETS))
    return ast.GroupRef(kind)


def rand_value(rng):
    pick = rng.random()
    if pick < 0.4:
        return round(rng.uniform(-100, 100), 3)
    if pick < 0.6:
        return rng.randrange(-50, 50)
    if pick < 0.8:
        return rng.choice(["red", "blue", "tag with space"])
    return rng.choice([True, False])


def rand_predicate(rng):
    op = rng.choice(["eq", "ne", "lt", "le", "gt", "ge", "in", "between"])
    attr = rng.choice(ATTRS)
    if op == "in":
        return ast.Predicate(attr, "in", tuple(rand_value(rng) for _ in range(rng.randrange(1, 4))))
    if op == "between":
        lo, hi = sorted((rng.uniform(0, 10), rng.uniform(0, 10)))
        return ast.Predicate(attr, "between", (round(lo, 2), round(hi, 2)))
    return ast.Predicate(attr, op, (rand_value(rng),))


def rand_family(rng, group_only=False):
    names = ["SUBSETS", "COMPONENTS", "KHOP"] if group_only else \
        ["EACH_NODE", "EACH_EDGE", "SUBSETS", "COMPONENTS", "KHOP"]
    name = rng.choice(names)
    if name == "KHOP":
        center = rand_elem(rng, ("node",)) if rng.random() < 0.5 else None
        return ast.FamilySpec("KHOP", rng.randrange(1, 4), center)
    return ast.FamilySpec(name)


def rand_attr_pattern(rng, kind=None):
    kind = kind or rng.choice(["trend", "dist", "freq", "aspect_trend"])
    if kind == "trend":
        return TrendLiteral(TrendClass(rng.choice(TRENDS)))
    if kind == "dist":
        return DistLiteral(DistClass(rng.choice(DISTS)))
    if kind == "freq":
        classes = rng.sample(TRENDS, rng.randrange(1, 4))
        return AspectFreqLiteral(tuple(sorted((c, rng.randrange(1, 5)) for c in classes)))
    return AspectTrendLiteral(TrendClass(rng.choice(TRENDS)), TrendClass(rng.choice(TRENDS)))


def rand_conn_spec(rng):
    mode = rng.choice(["ADJACENT", "PATH"])
    k = rng.randrange(1, 5) if (mode == "PATH" and rng.random() < 0.6) else None
    direction = rng.choice([None, "OUT", "IN"])
    pred = rand_predicate(rng) if rng.random() < 0.4 else None
    return ast.ConnSpecLit(mode, k, direction, pred)


def rand_query_lookup(rng):
    return ast.Lookup(ast.SideLookup(rng.choice(ATTRS), rand_elem(rng), rand_time(rng)))


def rand_query_find(rng):
    shape = rng.randrange(4)
    if shape == 0:
        return ast.Find(("t", "g"), rand_predicate(rng))
    if shape == 1:
        return ast.Find(("g",), rand_predicate(rng), at=rand_time(rng),
                        in_group=rand_group(rng) if rng.random() < 0.5 else None)
    if shape == 2:
        return ast.Find(("t",), rand_predicate(rng), for_ref=rand_elem(rng),
                        during=rand_interval(rng) if rng.random() < 0.5 else None)
    return ast.Find(("t", "g"), rand_predicate(rng), during=rand_interval(rng))


def rand_query_characterize(rng):
    kind = rng.choice(["TREND", "DIST", "ASPECT"])
    if kind == "TREND":
        return ast.Characterize(ast.SideCharac(
            "TREND", None, rng.choice(ATTRS), target=rand_elem(rng),
            during=rand_interval(rng) if rng.random() < 0.7 else None))
    if kind == "DIST":
        return ast.Characterize(ast.SideCharac("DIST", None, rng.choice(ATTRS),
                                               target=rand_group(rng), at=rand_time(rng)))
    axis = rng.choice(["TRENDS_OVER_GRAPH", "DISTRIBUTION_OVER_TIME"])
    return ast.Characterize(ast.SideCharac(
        "ASPECT", axis, rng.choice(ATTRS), target=rand_group(rng),
        during=rand_interval(rng) if rng.random() < 0.7 else None))


def rand_query_search(rng):
    kind = rng.choice(["trend", "dist", "freq", "aspect_trend"])
    pattern = rand_attr_pattern(rng, kind)
    fixed = rng.random() < 0.3
    if kind == "trend":
        of_target = rand_elem(rng) if fixed else None
        family = None if fixed else ast.FamilySpec(rng.choice(["EACH_NODE", "EACH_EDGE"]))
        return ast.Search(pattern, rng.choice(ATTRS), family, of_target,
                          during=rand_interval(rng) if rng.random() < 0.4 else None,
                          windows=rng.randrange(1, 5) if rng.random() < 0.4 else None)
    if kind == "dist":
        of_target = rand_group(rng) if fixed else None
        family = None if fixed else rand_family(rng)
        return ast.Search(pattern, rng.choice(ATTRS), family, of_target,
                          at=rand_time(rng) if rng.random() < 0.5 else None)
    of_target = rand_group(rng) if fixed else None
    family = None if fixed else rand_family(rng)
    return ast.Search(pattern, rng.choice(ATTRS), family, of_target,
                      during=rand_interval(rng) if rng.random() < 0.4 else None,
                      windows=rng.randrange(1, 6) if rng.random() < 0.4 else None)


def rand_side_direct(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return ast.SideLookup(rng.choice(ATTRS), rand_elem(rng), rand_time(rng))
    if pick == 1:
        return rand_query_characterize(rng).side
    if pick == 2:
        return ast.SideValue(rand_value(rng))
    return ast.SidePattern(rand_attr_pattern(rng))


def rand_side_binding(rng):
    pick = rng.randrange(5)
    if pick == 0:
        return ast.SideFind(rand_query_find(rng))
    if pick == 1:
        return ast.SideSearch(rand_query_search(rng))
    if pick == 2:
        return ast.SideTime(rand_time(rng))
    if pick == 3:
        return ast.SideInterval(rand_interval(rng))
    at = rand_time(rng) if rng.random() < 0.5 else None
    during = None if at is not None else (rand_interval(rng) if rng.random() < 0.5 else None)
    ref = rand_elem(rng) if rng.random() < 0.5 else rand_group(rng)
    return ast.SideRef(ref, at, during)


def rand_query_compare(rng):
    if rng.random() < 0.5:
        lhs, rhs = rand_side_direct(rng), rand_side_direct(rng)
        relation = None
        if rng.random() < 0.4:
            op = rng.choice(["eq", "ne", "lt", "le", "gt", "ge", "SAME",
                             "DIFFERENT", "OPPOSITE", "within"])
            relation = ast.RelOp(op, round(rng.uniform(0, 5), 2) if op == "within" else None)
        return ast.Compare(lhs, rhs, relation)
    lhs, rhs = rand_side_binding(rng), rand_side_binding(rng)
    families = tuple(sorted(set(
        rng.choice(["TEMPORAL", "GRAPH", "STRUCTURAL"])
        for _ in range(rng.randrange(0, 3))
    )))
    return ast.Compare(lhs, rhs, None, families, rng.random() < 0.3)


def rand_query_seek(rng):
    kind = rng.choice(["VALUE", "TREND", "DIST", "ASPECT"])
    point = kind in ("VALUE", "DIST")
    tvars = ("t1", "t2") if point else ("T1", "T2")
    gvars = ("g1", "g2") if kind in ("VALUE", "TREND") else ("G1", "G2")
    axis = "TRENDS_OVER_GRAPH" if kind == "ASPECT" else None
    attr = rng.choice(ATTRS)
    lhs = ast.Term(kind, gvars[0], None if kind in ("CONFIG",) else attr, axis)
    rhs = ast.Term(kind, gvars[1], None if kind in ("CONFIG",) else attr, axis)
    rel = ast.RelOp(rng.choice(["eq", "lt", "gt"]) if kind == "VALUE"
                    else rng.choice(["SAME", "DIFFERENT", "OPPOSITE"]))
    clauses = []
    targets = []
    for i, var in enumerate(tvars):
        if rng.random() < 0.6:
            value = rand_time(rng) if point else rand_interval(rng)
            clauses.append(ast.Assign(var, value))
        else:
            targets.append(var)
    for i, var in enumerate(gvars):
        if rng.random() < 0.4:
            value = (rand_elem(rng, ("node",)) if gvars[0] == "g1"
                     else ast.GroupRef("subset", rng.choice(SUBSETS)))
            clauses.append(ast.Assign(var, value))
        else:
            targets.append(var)
    if not targets:
        targets = ["y1", "y2"] if kind == "VALUE" else ["P1", "P2"]
    if rng.random() < 0.4:
        op = (rng.choice(["before", "sametime", "after"]) if point
              else rng.choice(["before", "meets", "overlaps", "equals"]))
        clauses.append(ast.RefRel(tvars[0], op, tvars[1]))
    if rng.random() < 0.3 and gvars[0] == "g1":
        clauses.append(ast.StructRel("ADJACENT", gvars[0], gvars[1], rand_label(rng)))
    family = rand_family(rng, group_only=gvars[0] == "G1") if rng.random() < 0.5 or gvars[0] == "G1" else None
    windows = rng.randrange(1, 5) if (not point and rng.random() < 0.5) else None
    return ast.Seek(tuple(targets), ast.SeekPredNode(lhs, rel, rhs),
                    tuple(clauses), family, windows)


def rand_query_struct(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return ast.Connection(rand_elem(rng, ("node", "object")),
                              rand_elem(rng, ("node", "object")),
                              rand_time(rng) if rng.random() < 0.6 else None)
    if pick == 1:
        return ast.Neighbors(rand_elem(rng, ("node", "object")), rand_conn_spec(rng),
                             rand_time(rng) if rng.random() < 0.6 else None)
    if pick == 2:
        return ast.Pairs(rand_conn_spec(rng),
                         rand_time(rng) if rng.random() < 0.6 else None)
    if pick == 3:
        spec = rand_conn_spec(rng) if rng.random() < 0.5 else ast.ConnSpecLit()
        return ast.Times(rand_elem(rng, ("node", "object")),
                         rand_elem(rng, ("node", "object")), spec)
    if pick == 4:
        kind = rng.choice(["PAIR", "CONFIG", "PAIRS", "CONFIGTREND"])
        if kind == "PAIR":
            scope = ast.StructScopeNode(
                "PAIR", rand_elem(rng, ("node", "object")),
                rand_elem(rng, ("node", "object")),
                conn=rand_conn_spec(rng) if rng.random() < 0.4 else None,
                during=rand_interval(rng) if rng.random() < 0.6 else None)
        elif kind == "CONFIG":
            scope = ast.StructScopeNode(
                "CONFIG", group=ast.GroupRef("subset", rng.choice(SUBSETS)),
                at=rand_time(rng))
        else:
            metrics = (tuple(sorted(rng.sample(METRICS, rng.randrange(1, 3))))
                       if kind == "CONFIGTREND" and rng.random() < 0.5 else None)
            scope = ast.StructScopeNode(
                kind, group=ast.GroupRef("subset", rng.choice(SUBSETS)),
                during=rand_interval(rng) if rng.random() < 0.6 else None,
                conn=rand_conn_spec(rng) if kind == "PAIRS" and rng.random() < 0.4 else None,
                metrics=metrics)
        return ast.StructCharacterize(scope)
    kind = rng.choice(["presence", "config", "configtrend", "pairsagg"])
    if kind == "presence":
        return ast.StructSearch(PresenceLiteral(PresenceClass(rng.choice(PRESENCE))),
                                ast.FamilySpec("PAIRS"),
                                during=rand_interval(rng) if rng.random() < 0.5 else None,
                                windows=rng.randrange(1, 5) if rng.random() < 0.4 else None)
    family = rand_family(rng, group_only=True)
    if kind == "config":
        metrics = tuple(sorted(
            (m, round(rng.uniform(0, 3), 2)) for m in rng.sample(METRICS, rng.randrange(1, 3))
        ))
        return ast.StructSearch(ConfigLiteral(metrics), family,
                                at=rand_time(rng) if rng.random() < 0.5 else None)
    if kind == "configtrend":
        trends = tuple(sorted(
            (m, rng.choice(TRENDS)) for m in rng.sample(METRICS, rng.randrange(1, 3))
        ))
        return ast.StructSearch(ConfigTrendLiteral(trends), family,
                                during=rand_interval(rng) if rng.random() < 0.5 else None)
    classes = rng.sample(PRESENCE, rng.randrange(1, 3))
    entries = tuple(sorted((c, rng.randrange(1, 5)) for c in classes))
    return ast.StructSearch(StructuralPattern(StructScopeKind.PAIRS_AGGREGATE,
                                              class_frequencies=entries), family,
                            during=rand_interval(rng) if rng.random() < 0.5 else None)


def rand_series(rng, attr):
    if rng.random() < 0.25:
        return ast.ExternalSeries(rng.choice(["ext1", "ext2", "vax"]))
    group = rng.random() < 0.5
    target = rand_group(rng) if group else rand_elem(rng, ("node",))
    at = rand_time(rng) if rng.random() < 0.3 else None
    during = None if at is not None else (rand_interval(rng) if rng.random() < 0.6 else None)
    agg = rng.choice(["mean", "median", "min", "max", "sum"]) \
        if group and rng.random() < 0.3 else None
    return ast.GraphSeries(attr, target, at, during, agg)


def rand_query_correlate(rng):
    attr = rng.choice(ATTRS)
    lhs = ast.GraphSeries(attr, rand_elem(rng, ("node",)) if rng.random() < 0.5
                          else rand_group(rng),
                          during=rand_interval(rng) if rng.random() < 0.6 else None)
    rhs = rand_series(rng, rng.choice(ATTRS))
    lag = rng.randrange(0, 4) if rng.random() < 0.4 else 0
    mode = None
    if isinstance(rhs, ast.GraphSeries) and rhs.at is None and lhs.at is None:
        mode = rng.choice([None, "POOLED", "PERELEMENT"])
    return ast.Correlate(lhs, rhs, lag, mode)


GENERATORS = [
    rand_query_lookup, rand_query_find, rand_query_characterize,
    rand_query_search, rand_query_compare, rand_query_seek,
    rand_query_struct, rand_query_correlate,
]


def random_query(rng):
    return rng.choice(GENERATORS)(rng)
