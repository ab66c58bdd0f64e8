"""Hand-written recursive-descent parser for the query language.

The tokenizer takes each token and the whitespace before it in one regex
match, the named group that matched giving its kind, and counts newlines only
in that whitespace and inside strings: each token carries its 1-based line
and column (in characters), so syntax errors point at the offending spot and
carry the token set the parser would have accepted. Keywords are
case-insensitive; identifiers and reference ids are case-sensitive.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..correlate import AGGREGATIONS
from ..errors import ParseError
from ..patterns import (
    AspectAxis,
    AspectFreqLiteral,
    AspectTrendLiteral,
    DistClass,
    DistLiteral,
    TrendClass,
    TrendLiteral,
)
from ..relations import ALLEN_OPS
from ..search import SubsetFamily
from ..structure import (
    METRIC_NAMES,
    ConfigLiteral,
    ConfigTrendLiteral,
    PresenceClass,
    PresenceLiteral,
    StructScopeKind,
    StructuralPattern,
)
from . import ast
from .validate import validate

# EOF matches at the end of the text and BAD, empty, where no token starts.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
    | (?P<REF>[A-Za-z_][A-Za-z0-9_]*:[A-Za-z0-9_.\-]+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP><=|>=|!=|=|<|>|\(|\)|\[|\]|\{|\}|,|:)
    | (?P<EOF>\Z)
    | (?P<BAD>)
    )
    """,
    re.VERBOSE,
)

# The closed vocabularies are the engine's: its enums and name tables.
TREND_CLASSES = {c.value for c in TrendClass}
DIST_CLASSES = {c.value for c in DistClass}
PRESENCE_CLASSES = {c.value for c in PresenceClass}
AXES = {a.value for a in AspectAxis}
FAMILIES = {f.value for f in SubsetFamily} | {"PAIRS"}
METRICS = set(METRIC_NAMES)
AGGS = set(AGGREGATIONS)
REF_KINDS = {"node", "edge", "object", "subset"}
SET_WORDS = {"SETEQ", "SUBSETOF", "SUPERSETOF", "DISJOINT", "INTERSECTS"}
TIME_WORDS = {"SAMETIME"} | {op.upper() for op in ALLEN_OPS}
STRUCT_FUNCS = {"ADJACENT", "CONNECTED", "DISTANCE", "CONFIGEQUAL"}
CMP_OPS = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


class Token(NamedTuple):
    kind: str  # IDENT | NUMBER | STRING | REF | OP | EOF
    value: object
    line: int
    col: int

    @property
    def upper(self) -> str:
        return self.value.upper() if isinstance(self.value, str) else ""


def tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0  # line_start: the index of the line's first character
    pos = counted = 0  # newlines before index `counted` are in `line`
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = start
        col = start - line_start + 1
        raw = text[start:pos]
        if kind in ("IDENT", "OP", "REF"):
            value = raw
        elif kind == "NUMBER":
            value = float(raw)
            if not math.isfinite(value):
                raise ParseError(f"number {raw} is not finite", line, col, found=raw)
            if not ("." in raw or "e" in raw or "E" in raw):
                value = int(raw)
        elif kind == "STRING":
            value = re.sub(r"\\(.)", r"\1", raw[1:-1])
        elif kind == "EOF":
            tokens.append(Token(kind, None, line, col))
            return tokens
        else:  # BAD
            raise ParseError(f"unexpected character {text[start]!r}", line, col,
                             found=text[start])
        tokens.append(Token(kind, value, line, col))


def parse(text: str):
    """Parse a query to its AST and validate it.

    Raises ParseError for syntax problems (with position and expectations)
    and TgqError(VALIDATION_ERROR) for well-formed but inconsistent asts.
    """
    if not isinstance(text, str):
        raise ParseError("query must be text", 1, 1)
    node = _Parser(tokenize(text)).parse_query()
    validate(node)
    return node


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- plumbing ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if ahead:  # advance stops at EOF, the last token: only a lookahead overruns
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, expected) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "EOF" else str(tok.value)
        return ParseError(f"unexpected {found!r}", tok.line, tok.col,
                          expected=set(expected), found=found)

    def at_kw(self, *words) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.upper in words

    def take_kw(self, *words) -> bool:
        if self.at_kw(*words):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.take_kw(word):
            raise self.error({word})

    def at_op(self, *ops) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def take_op(self, *ops) -> bool:
        if self.at_op(*ops):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.take_op(op):
            raise self.error({op})

    def expect_kind(self, kind: str) -> Token:
        if self.peek().kind != kind:
            raise self.error({kind})
        return self.advance()

    def expect_eof(self) -> None:
        if self.peek().kind != "EOF":
            raise self.error({"end of query"})

    # -- shared pieces ------------------------------------------------------

    def ident(self, what: str = "identifier") -> str:
        if self.peek().kind != "IDENT":
            raise self.error({what})
        return self.advance().value

    def comma_list(self, read) -> tuple:
        """One or more of what ``read`` reads, separated by commas."""
        out = [read()]
        while self.take_op(","):
            out.append(read())
        return tuple(out)

    def word(self, vocab, fold: bool = True) -> str:
        """The next identifier if it is in ``vocab``: upper-cased for keyword
        vocabularies (``fold``), as written for case-sensitive names."""
        tok = self.peek()
        word = tok.upper if fold else tok.value
        if tok.kind != "IDENT" or word not in vocab:
            raise self.error(vocab)
        self.advance()
        return word

    def integer(self) -> int:
        """A NUMBER with no fraction or exponent."""
        if not isinstance(self.peek().value, int):
            raise self.error({"integer"})
        return self.advance().value

    def elem_ref(self) -> ast.Ref:
        tok = self.expect_kind("REF")
        kind, _, ident = tok.value.partition(":")
        if kind not in REF_KINDS:
            raise ParseError(f"unknown reference kind '{kind}'", tok.line, tok.col,
                             expected=REF_KINDS, found=kind)
        return ast.Ref(kind, ident)

    def group_ref(self) -> ast.GroupRef:
        if self.take_kw("NODES"):
            return ast.GroupRef("nodes")
        if self.take_kw("EDGES"):
            return ast.GroupRef("edges")
        tok = self.peek()
        if tok.kind == "REF" and tok.value.partition(":")[0] in REF_KINDS - {"subset"}:
            raise self.error({"subset:<name>", "NODES", "EDGES"})  # an element
        return ast.GroupRef("subset", self.elem_ref().id)

    def any_target(self):
        """An element reference or a group reference."""
        if self.at_kw("NODES", "EDGES"):
            return self.group_ref()
        ref = self.elem_ref()
        if ref.kind == "subset":
            return ast.GroupRef("subset", ref.id)
        return ref

    def label(self):
        if self.peek().kind in ("NUMBER", "STRING"):
            return self.advance().value
        raise self.error({"time label"})

    def time_ref(self) -> ast.TimeRef:
        # canonical `t=2`; a bare label is accepted
        if self.peek().kind == "IDENT" and self.peek().upper == "T" \
                and self.peek(1).kind == "OP" and self.peek(1).value == "=":
            self.advance()
            self.advance()
        return ast.TimeRef(self.label())

    def interval_ref(self) -> ast.IntervalRef:
        self.expect_op("[")
        start = self.label()
        self.expect_op(",")
        end = self.label()
        self.expect_op("]")
        return ast.IntervalRef(start, end)

    def value(self):
        tok = self.peek()
        if tok.kind in ("NUMBER", "STRING"):
            return self.advance().value
        if self.take_kw("TRUE"):
            return True
        if self.take_kw("FALSE"):
            return False
        raise self.error({"value"})

    def predicate(self) -> ast.Predicate:
        attr = self.ident("attribute")
        if self.take_kw("IN"):
            self.expect_op("{")
            values = self.comma_list(self.value)
            self.expect_op("}")
            return ast.Predicate(attr, "in", values)
        if self.take_kw("BETWEEN"):
            lo = self.value()
            self.expect_kw("AND")
            hi = self.value()
            return ast.Predicate(attr, "between", (lo, hi))
        tok = self.peek()
        if tok.kind == "OP" and tok.value in CMP_OPS:
            self.advance()
            return ast.Predicate(attr, CMP_OPS[tok.value], (self.value(),))
        raise self.error(set(CMP_OPS) | {"IN", "BETWEEN"})

    def family(self) -> ast.FamilySpec:
        name = self.word(FAMILIES)
        if name == "KHOP":
            k = self.integer()
            center = self.elem_ref() if self.peek().kind == "REF" else None
            return ast.FamilySpec("KHOP", k, center)
        return ast.FamilySpec(name)

    def conn_spec(self) -> ast.ConnSpecLit:
        if self.take_kw("ADJACENT"):
            mode, k = "ADJACENT", None
        elif self.take_kw("PATH"):
            mode = "PATH"
            k = None
            if self.take_op("<="):
                k = self.integer()
        else:
            raise self.error({"ADJACENT", "PATH"})
        direction = None
        if self.take_kw("DIR"):
            if self.take_kw("OUT"):
                direction = "OUT"
            elif self.take_kw("IN"):
                direction = "IN"
            else:
                raise self.error({"OUT", "IN"})
        pred = None
        if self.take_kw("WITH"):
            pred = self.predicate()
        return ast.ConnSpecLit(mode, k, direction, pred)

    # -- tail clauses -------------------------------------------------------

    def tail_clauses(self, allowed: str) -> dict:
        """AT / FOR / IN / DURING / WINDOWS / OVER in any order."""
        out: dict = {}
        while True:
            if "a" in allowed and self.at_kw("AT") and "at" not in out:
                self.advance()
                out["at"] = self.time_ref()
            elif "f" in allowed and self.at_kw("FOR") and "for_ref" not in out:
                self.advance()
                out["for_ref"] = self.elem_ref()
            elif "i" in allowed and self.at_kw("IN") and "in_group" not in out:
                self.advance()
                out["in_group"] = self.group_ref()
            elif "d" in allowed and self.at_kw("DURING") and "during" not in out:
                self.advance()
                out["during"] = self.interval_ref()
            elif "w" in allowed and self.at_kw("WINDOWS") and "windows" not in out:
                self.advance()
                out["windows"] = self.integer()
            elif "o" in allowed and self.at_kw("OVER") and "family" not in out:
                self.advance()
                out["family"] = self.family()
            else:
                return out

    # -- pattern literals -----------------------------------------------------

    def attr_pattern_literal(self):
        if self.at_kw(*TREND_CLASSES):
            return TrendLiteral(TrendClass(self.advance().upper))
        if self.take_kw("DIST"):
            return DistLiteral(DistClass(self.word(DIST_CLASSES)))
        if self.take_kw("ASPECT"):
            if self.word(AXES) == "TRENDS_OVER_GRAPH":
                return AspectFreqLiteral(self.freq_entries(TREND_CLASSES))
            mean_cls = TrendClass(self.word(TREND_CLASSES))
            return AspectTrendLiteral(mean_cls, TrendClass(self.word(TREND_CLASSES)))
        raise self.error(TREND_CLASSES | {"DIST", "ASPECT"})

    def entries(self, key, sep: str, read) -> tuple:
        """``key sep value, ...`` sorted, ``key`` and ``read`` reading one of each."""
        out = []
        while True:
            name = key()
            self.expect_op(sep)
            out.append((name, read()))
            if not self.take_op(","):
                return tuple(sorted(out))

    def freq_entries(self, classes) -> tuple:
        self.expect_op("{")
        out = self.entries(lambda: self.word(classes), ":", self.integer)
        self.expect_op("}")
        return out

    def metric_entries(self, read) -> tuple:
        return self.entries(lambda: self.word(METRICS, fold=False), "=", read)

    def struct_pattern_literal(self):
        if self.at_kw(*PRESENCE_CLASSES):
            return PresenceLiteral(PresenceClass(self.advance().upper))
        if self.take_kw("CONFIG"):
            return ConfigLiteral(self.metric_entries(
                lambda: float(self.expect_kind("NUMBER").value)))
        if self.take_kw("CONFIGTREND"):
            return ConfigTrendLiteral(self.metric_entries(lambda: self.word(TREND_CLASSES)))
        if self.take_kw("PAIRSAGG"):
            return StructuralPattern(StructScopeKind.PAIRS_AGGREGATE,
                                     class_frequencies=self.freq_entries(PRESENCE_CLASSES))
        raise self.error(PRESENCE_CLASSES | {"CONFIG", "CONFIGTREND", "PAIRSAGG"})

    # -- queries ---------------------------------------------------------------

    def parse_query(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error({"a query keyword"})
        handler = _QUERY_HANDLERS.get(tok.upper)
        if handler is None:
            raise self.error(set(_QUERY_HANDLERS))
        node = handler(self)
        self.expect_eof()
        return node

    def q_lookup(self) -> ast.Lookup:
        self.expect_kw("LOOKUP")
        return ast.Lookup(self.lookup_side())

    def q_find(self) -> ast.Find:
        self.expect_kw("FIND")
        targets = self.comma_list(lambda: self.ident("target"))
        self.expect_kw("WHERE")
        pred = self.predicate()
        tail = self.tail_clauses("afid")
        return ast.Find(targets, pred, **tail)

    def q_characterize(self) -> ast.Characterize:
        self.expect_kw("CHARACTERIZE")
        return ast.Characterize(self.charac_side())

    def q_search(self) -> ast.Search:
        self.expect_kw("SEARCH")
        pattern = self.attr_pattern_literal()
        self.expect_kw("ON")
        attr = self.ident("attribute")
        family = of_target = None
        if self.take_kw("OVER"):
            family = self.family()
        elif self.take_kw("OF"):
            of_target = self.any_target()
        else:
            raise self.error({"OVER", "OF"})
        tail = self.tail_clauses("adw")
        return ast.Search(pattern, attr, family, of_target, **tail)

    # comparison

    def q_compare(self) -> ast.Compare:
        self.expect_kw("COMPARE")
        lhs = self.compare_side()
        self.expect_kw("WITH")
        rhs = self.compare_side()
        relation = None
        families: list = []
        while self.take_kw("USING"):
            got = self.using_clause()
            if isinstance(got, ast.RelOp):
                relation = got
            else:
                families.extend(got)
        all_pairs = self.take_kw("ALLPAIRS")
        return ast.Compare(lhs, rhs, relation, tuple(families), all_pairs)

    def using_clause(self):
        if self.at_op(*CMP_OPS) or self.at_kw("SAME", "DIFFERENT", "OPPOSITE", "WITHIN"):
            return self.seek_relop()
        families = []
        while True:
            if self.at_kw("TEMPORAL", "GRAPH", "STRUCTURAL"):
                families.append(self.advance().upper)
            elif self.take_kw("SET"):
                families.append("GRAPH")
            else:
                raise self.error(
                    {"TEMPORAL", "GRAPH", "SET", "STRUCTURAL", "SAME", "DIFFERENT",
                     "OPPOSITE", "WITHIN"} | set(CMP_OPS)
                )
            if not self.take_op(","):
                return families

    def compare_side(self):
        tok = self.peek()
        if tok.kind == "NUMBER" or tok.kind == "STRING" or self.at_kw("TRUE", "FALSE"):
            return ast.SideValue(self.value())
        if self.at_op("["):
            return ast.SideInterval(self.interval_ref())
        if tok.kind == "REF":
            ref = self.any_target()
            tail = self.tail_clauses("ad")
            return ast.SideRef(ref, **tail)
        if self.at_kw("NODES", "EDGES"):
            group = self.group_ref()
            tail = self.tail_clauses("ad")
            return ast.SideRef(group, **tail)
        if tok.kind == "IDENT" and tok.upper == "T" \
                and self.peek(1).kind == "OP" and self.peek(1).value == "=":
            self.advance()
            self.advance()
            return ast.SideTime(ast.TimeRef(self.label()))
        if self.at_kw("FIND"):
            return ast.SideFind(self.q_find())
        if self.at_kw("SEARCH"):
            return ast.SideSearch(self.q_search())
        if self.at_kw("STRUCT"):
            self.advance()
            return ast.SideStruct(self.struct_scope())
        if tok.upper in TREND_CLASSES:
            return ast.SidePattern(self.attr_pattern_literal())
        if tok.upper in PRESENCE_CLASSES or self.at_kw("CONFIG", "CONFIGTREND", "PAIRSAGG"):
            return ast.SidePattern(self.struct_pattern_literal())
        if self.at_kw("DIST"):
            if self.peek(1).kind == "IDENT" and self.peek(1).upper in DIST_CLASSES:
                return ast.SidePattern(self.attr_pattern_literal())
            return self.charac_side()
        if self.at_kw("ASPECT"):
            # literal when the axis is followed by a brace or a trend class
            after_axis = self.peek(2)
            if after_axis.kind == "OP" and after_axis.value == "{":
                return ast.SidePattern(self.attr_pattern_literal())
            if after_axis.kind == "IDENT" and after_axis.upper in TREND_CLASSES:
                return ast.SidePattern(self.attr_pattern_literal())
            return self.charac_side()
        if self.at_kw("TREND"):
            return self.charac_side()
        if tok.kind == "IDENT":
            return self.lookup_side()
        raise self.error({"a comparison side"})

    def lookup_side(self) -> ast.SideLookup:
        attr = self.ident("attribute")
        self.expect_kw("OF")
        ref = self.elem_ref()
        self.expect_kw("AT")
        return ast.SideLookup(attr, ref, self.time_ref())

    def charac_side(self) -> ast.SideCharac:
        kind = self.word({"TREND", "DIST", "ASPECT"})
        axis = self.word(AXES) if kind == "ASPECT" else None
        self.expect_kw("ON")
        attr = self.ident("attribute")
        self.expect_kw("OF")
        target = self.any_target()
        return ast.SideCharac(kind, axis, attr, target, **self.tail_clauses("ad"))

    # relation seeking

    def q_seek(self) -> ast.Seek:
        self.expect_kw("SEEK")
        targets = self.comma_list(lambda: self.ident("target"))
        self.expect_kw("WHERE")
        main = self.seek_pred()
        clauses = []
        while self.take_kw("AND"):
            clauses.append(self.seek_clause())
        tail = self.tail_clauses("wo")
        return ast.Seek(targets, main, tuple(clauses),
                        tail.get("family"), tail.get("windows"))

    def seek_pred(self) -> ast.SeekPredNode:
        lhs = self.seek_term()
        rel = self.seek_relop()
        rhs = self.seek_term()
        return ast.SeekPredNode(lhs, rel, rhs)

    def seek_term(self) -> ast.Term:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error({"a term"})
        word = tok.upper
        self.advance()
        self.expect_op("(")
        if word in ("TREND", "DIST", "ASPECT"):
            axis = None
            if word == "ASPECT":
                axis = self.word(AXES)
                self.expect_op(",")
            attr = self.ident("attribute")
            self.expect_op(",")
            term = ast.Term(word, self.ident("variable"), attr, axis)
        elif word in ("CONFIG", "CONFIGTREND"):
            term = ast.Term(word, self.ident("variable"))
        else:
            term = ast.Term("VALUE", self.ident("variable"), tok.value)
        self.expect_op(")")
        return term

    def seek_relop(self) -> ast.RelOp:
        tok = self.peek()
        if tok.kind == "OP" and tok.value in CMP_OPS:
            self.advance()
            return ast.RelOp(CMP_OPS[tok.value])
        if self.at_kw("SAME", "DIFFERENT", "OPPOSITE"):
            return ast.RelOp(self.advance().upper)
        if self.take_kw("WITHIN"):
            self.expect_op("(")
            delta = float(self.expect_kind("NUMBER").value)
            self.expect_op(")")
            return ast.RelOp("within", delta)
        raise self.error(set(CMP_OPS) | {"SAME", "DIFFERENT", "OPPOSITE", "WITHIN"})

    def seek_clause(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.upper in STRUCT_FUNCS:
            op = self.advance().upper
            self.expect_op("(")
            var1 = self.ident("variable")
            self.expect_op(",")
            var2 = self.ident("variable")
            t = None
            if self.take_op(","):
                t = self.label()
            self.expect_op(")")
            k = None
            if op == "DISTANCE":
                self.expect_op("<=")
                k = self.integer()
            return ast.StructRel(op, var1, var2, t, k)
        var1 = self.ident("variable")
        tok = self.peek()
        if tok.kind == "IDENT" and (tok.upper in TIME_WORDS or tok.upper in SET_WORDS):
            op = self.advance().upper.lower()
            var2 = self.ident("variable")
            return ast.RefRel(var1, op, var2)
        if self.take_op("!="):
            return ast.RefRel(var1, "ne", self.ident("variable"))
        self.expect_op("=")
        nxt = self.peek()
        if nxt.kind == "IDENT" and nxt.upper not in ("TRUE", "FALSE"):
            return ast.RefRel(var1, "eq", self.ident("variable"))
        if nxt.kind == "REF":
            ref = self.any_target()
            return ast.Assign(var1, ref)
        if nxt.kind == "OP" and nxt.value == "[":
            return ast.Assign(var1, self.interval_ref())
        return ast.Assign(var1, ast.TimeRef(self.label()))

    # structural queries

    def q_connected(self) -> ast.Connection:
        self.expect_kw("CONNECTED")
        self.expect_op("(")
        g1 = self.elem_ref()
        self.expect_op(",")
        g2 = self.elem_ref()
        self.expect_op(")")
        tail = self.tail_clauses("a")
        return ast.Connection(g1, g2, **tail)

    def q_neighbors(self) -> ast.Neighbors:
        self.expect_kw("NEIGHBORS")
        self.expect_op("(")
        g1 = self.elem_ref()
        self.expect_op(",")
        spec = self.conn_spec()
        self.expect_op(")")
        tail = self.tail_clauses("a")
        return ast.Neighbors(g1, spec, **tail)

    def q_pairs(self) -> ast.Pairs:
        self.expect_kw("PAIRS")
        self.expect_op("(")
        spec = self.conn_spec()
        self.expect_op(")")
        tail = self.tail_clauses("a")
        return ast.Pairs(spec, **tail)

    def q_times(self) -> ast.Times:
        self.expect_kw("TIMES")
        self.expect_kw("WHERE")
        self.expect_kw("CONNECTED")
        self.expect_op("(")
        g1 = self.elem_ref()
        self.expect_op(",")
        g2 = self.elem_ref()
        spec = ast.ConnSpecLit()
        if self.take_op(","):
            spec = self.conn_spec()
        self.expect_op(")")
        return ast.Times(g1, g2, spec)

    def q_struct(self):
        self.expect_kw("STRUCT")
        if self.take_kw("CHARACTERIZE"):
            return ast.StructCharacterize(self.struct_scope())
        if self.take_kw("SEARCH"):
            pattern = self.struct_pattern_literal()
            self.expect_kw("OVER")
            family = self.family()
            tail = self.tail_clauses("adw")
            return ast.StructSearch(pattern, family, **tail)
        raise self.error({"CHARACTERIZE", "SEARCH"})

    def struct_scope(self) -> ast.StructScopeNode:
        if self.take_kw("PAIR"):
            self.expect_op("(")
            g1 = self.elem_ref()
            self.expect_op(",")
            g2 = self.elem_ref()
            self.expect_op(")")
            conn = None
            if self.take_kw("USING"):
                conn = self.conn_spec()
            tail = self.tail_clauses("ad")
            return ast.StructScopeNode("PAIR", g1, g2, None, conn=conn, **tail)
        if self.take_kw("CONFIG"):
            kind, metrics = "CONFIG", None
        elif self.take_kw("CONFIGTREND"):
            kind = "CONFIGTREND"
            metrics = None
            if not self.at_kw("OF"):
                metrics = self.comma_list(lambda: self.word(METRICS, fold=False))
        elif self.take_kw("PAIRS"):
            kind, metrics = "PAIRS", None
        else:
            raise self.error({"PAIR", "CONFIG", "PAIRS", "CONFIGTREND"})
        self.expect_kw("OF")
        group = self.group_ref()
        conn = None
        if kind == "PAIRS" and self.take_kw("USING"):
            conn = self.conn_spec()
        tail = self.tail_clauses("ad")
        return ast.StructScopeNode(kind, None, None, group, conn=conn,
                                   metrics=metrics, **tail)

    # correlation

    def q_correlate(self) -> ast.Correlate:
        self.expect_kw("CORRELATE")
        lhs = self.series_spec()
        self.expect_kw("WITH")
        rhs = self.series_spec()
        lag = 0
        if self.take_kw("LAG"):
            lag = self.integer()
        mode = None
        if self.at_kw("POOLED", "PERELEMENT"):
            mode = self.advance().upper
        return ast.Correlate(lhs, rhs, lag, mode)

    def series_spec(self):
        if self.take_kw("SERIES"):
            return ast.ExternalSeries(self.ident("series name"))
        attr = self.ident("attribute")
        self.expect_kw("OF")
        target = self.any_target()
        agg = None
        if self.take_kw("AGG"):
            agg = self.word(AGGS, fold=False)
        tail = self.tail_clauses("ad")
        return ast.GraphSeries(attr, target, agg=agg, **tail)


_QUERY_HANDLERS = {
    "LOOKUP": _Parser.q_lookup,
    "FIND": _Parser.q_find,
    "CHARACTERIZE": _Parser.q_characterize,
    "SEARCH": _Parser.q_search,
    "COMPARE": _Parser.q_compare,
    "SEEK": _Parser.q_seek,
    "CONNECTED": _Parser.q_connected,
    "NEIGHBORS": _Parser.q_neighbors,
    "PAIRS": _Parser.q_pairs,
    "TIMES": _Parser.q_times,
    "STRUCT": _Parser.q_struct,
    "CORRELATE": _Parser.q_correlate,
}
