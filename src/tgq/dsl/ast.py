"""Query AST: one constructor per task family.

Nodes store surface-level tokens (time labels, reference ids) rather than
resolved indices; the planner binds them to the loaded graph. Pattern
literals are the engine's own literal types (``patterns``, ``structure``).
Every node and literal pretty-prints to a canonical form that reparses to an
equal node, which is what the round-trip tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def format_value(v) -> str:
    """A value or a time label in the form the tokenizer reads back: a string
    escapes only ``\\`` and ``"``, the two characters its rule treats apart."""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


# -- references ---------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    kind: str  # node | edge | object | subset
    id: str

    def pp(self) -> str:
        return f"{self.kind}:{self.id}"


@dataclass(frozen=True)
class GroupRef:
    kind: str  # subset | nodes | edges
    name: Optional[str] = None

    def pp(self) -> str:
        if self.kind == "subset":
            return f"subset:{self.name}"
        return self.kind.upper()


@dataclass(frozen=True)
class TimeRef:
    label: object

    def pp(self) -> str:
        return f"t={format_value(self.label)}"


@dataclass(frozen=True)
class IntervalRef:
    start: object
    end: object

    def pp(self) -> str:
        return f"[{format_value(self.start)}, {format_value(self.end)}]"


_CMP_TOKENS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


@dataclass(frozen=True)
class Predicate:
    attr: str
    op: str  # eq ne lt le gt ge in between
    values: tuple

    def pp(self) -> str:
        if self.op == "in":
            inner = ", ".join(format_value(v) for v in self.values)
            return f"{self.attr} IN {{{inner}}}"
        if self.op == "between":
            return (f"{self.attr} BETWEEN {format_value(self.values[0])} "
                    f"AND {format_value(self.values[1])}")
        return f"{self.attr} {_CMP_TOKENS[self.op]} {format_value(self.values[0])}"


# -- shared clause shapes -----------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    name: str  # EACH_NODE | EACH_EDGE | SUBSETS | COMPONENTS | KHOP | PAIRS
    k: Optional[int] = None
    center: Optional[Ref] = None

    def pp(self) -> str:
        if self.name == "KHOP":
            out = f"KHOP {self.k}"
            if self.center is not None:
                out += f" {self.center.pp()}"
            return out
        return self.name


@dataclass(frozen=True)
class ConnSpecLit:
    mode: str = "ADJACENT"  # ADJACENT | PATH
    k: Optional[int] = None
    direction: Optional[str] = None  # OUT | IN
    pred: Optional[Predicate] = None

    def pp(self) -> str:
        out = self.mode
        if self.k is not None:
            out += f" <= {self.k}"
        if self.direction is not None:
            out += f" DIR {self.direction}"
        if self.pred is not None:
            out += f" WITH {self.pred.pp()}"
        return out


def _tail(at=None, for_ref=None, in_group=None, during=None, windows=None,
          over=None) -> str:
    parts = []
    if at is not None:
        parts.append(f"AT {at.pp()}")
    if for_ref is not None:
        parts.append(f"FOR {for_ref.pp()}")
    if in_group is not None:
        parts.append(f"IN {in_group.pp()}")
    if during is not None:
        parts.append(f"DURING {during.pp()}")
    if windows is not None:
        parts.append(f"WINDOWS {windows}")
    if over is not None:
        parts.append(f"OVER {over.pp()}")
    return (" " + " ".join(parts)) if parts else ""


# -- queries ------------------------------------------------------------------


@dataclass(frozen=True)
class Lookup:
    side: SideLookup

    def pp(self) -> str:
        return f"LOOKUP {self.side.pp()}"


@dataclass(frozen=True)
class Find:
    targets: tuple  # variable names among (t, g)
    predicate: Predicate
    at: Optional[TimeRef] = None
    for_ref: Optional[Ref] = None
    in_group: Optional[GroupRef] = None
    during: Optional[IntervalRef] = None

    def pp(self) -> str:
        head = f"FIND {','.join(self.targets)} WHERE {self.predicate.pp()}"
        return head + _tail(self.at, self.for_ref, self.in_group, self.during)


@dataclass(frozen=True)
class Characterize:
    side: SideCharac

    def pp(self) -> str:
        return f"CHARACTERIZE {self.side.pp()}"


@dataclass(frozen=True)
class Search:
    pattern: object  # TrendLiteral | DistLiteral | AspectFreqLiteral | AspectTrendLiteral
    attr: str
    family: Optional[FamilySpec] = None
    of_target: Optional[object] = None  # Ref | GroupRef: fixed reference, free time
    at: Optional[TimeRef] = None
    during: Optional[IntervalRef] = None
    windows: Optional[int] = None

    def pp(self) -> str:
        where = (f"OVER {self.family.pp()}" if self.family is not None
                 else f"OF {self.of_target.pp()}")
        return (f"SEARCH {self.pattern.pp()} ON {self.attr} {where}"
                + _tail(self.at, None, None, self.during, self.windows))


# comparison sides


@dataclass(frozen=True)
class SideLookup:
    attr: str
    ref: Ref
    at: TimeRef

    def pp(self) -> str:
        return f"{self.attr} OF {self.ref.pp()} AT {self.at.pp()}"


@dataclass(frozen=True)
class SideCharac:
    kind: str  # TREND | DIST | ASPECT
    axis: Optional[str]  # TRENDS_OVER_GRAPH | DISTRIBUTION_OVER_TIME
    attr: str
    target: object  # Ref | GroupRef
    at: Optional[TimeRef] = None
    during: Optional[IntervalRef] = None

    def pp(self) -> str:
        kind = self.kind if self.axis is None else f"{self.kind} {self.axis}"
        return (f"{kind} ON {self.attr} OF {self.target.pp()}"
                + _tail(self.at, None, None, self.during))


@dataclass(frozen=True)
class SideFind:
    find: Find

    def pp(self) -> str:
        return self.find.pp()


@dataclass(frozen=True)
class SideSearch:
    search: Search

    def pp(self) -> str:
        return self.search.pp()


@dataclass(frozen=True)
class SideValue:
    value: object

    def pp(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class SidePattern:
    pattern: object

    def pp(self) -> str:
        return self.pattern.pp()


@dataclass(frozen=True)
class SideTime:
    at: TimeRef

    def pp(self) -> str:
        return f"T={format_value(self.at.label)}"


@dataclass(frozen=True)
class SideInterval:
    interval: IntervalRef

    def pp(self) -> str:
        return self.interval.pp()


@dataclass(frozen=True)
class SideRef:
    ref: object  # Ref | GroupRef
    at: Optional[TimeRef] = None
    during: Optional[IntervalRef] = None

    def pp(self) -> str:
        return self.ref.pp() + _tail(self.at, None, None, self.during)


@dataclass(frozen=True)
class StructScopeNode:
    kind: str  # PAIR | CONFIG | PAIRS | CONFIGTREND
    g1: Optional[Ref] = None
    g2: Optional[Ref] = None
    group: Optional[GroupRef] = None
    at: Optional[TimeRef] = None
    during: Optional[IntervalRef] = None
    conn: Optional[ConnSpecLit] = None
    metrics: Optional[tuple] = None  # CONFIGTREND metric restriction

    def pp(self) -> str:
        if self.kind == "PAIR":
            out = f"PAIR({self.g1.pp()}, {self.g2.pp()})"
        else:
            out = f"{self.kind}"
            if self.metrics:
                out += " " + ",".join(self.metrics)
            out += f" OF {self.group.pp()}"
        if self.conn is not None:
            out += f" USING {self.conn.pp()}"
        return out + _tail(self.at, None, None, self.during)


@dataclass(frozen=True)
class SideStruct:
    scope: StructScopeNode

    def pp(self) -> str:
        return f"STRUCT {self.scope.pp()}"


@dataclass(frozen=True)
class RelOp:
    op: str  # cmp token name, SAME/DIFFERENT/OPPOSITE, or WITHIN
    delta: Optional[float] = None

    def pp(self) -> str:
        if self.op == "within":
            return f"WITHIN({format_value(self.delta)})"
        return _CMP_TOKENS.get(self.op, self.op.upper())


@dataclass(frozen=True)
class Compare:
    lhs: object
    rhs: object
    relation: Optional[RelOp] = None
    families: tuple = ()  # TEMPORAL | GRAPH | STRUCTURAL, inverse mode only
    all_pairs: bool = False

    def pp(self) -> str:
        out = f"COMPARE {self.lhs.pp()} WITH {self.rhs.pp()}"
        if self.relation is not None:
            out += f" USING {self.relation.pp()}"
        if self.families:
            out += f" USING {','.join(self.families)}"
        if self.all_pairs:
            out += " ALLPAIRS"
        return out


# relation seeking


@dataclass(frozen=True)
class Term:
    kind: str  # VALUE | TREND | DIST | ASPECT | CONFIG | CONFIGTREND
    var: str
    attr: Optional[str] = None
    axis: Optional[str] = None

    def pp(self) -> str:
        if self.kind == "VALUE":
            return f"{self.attr}({self.var})"
        if self.kind == "ASPECT":
            return f"ASPECT({self.axis}, {self.attr}, {self.var})"
        if self.kind in ("CONFIG", "CONFIGTREND"):
            return f"{self.kind}({self.var})"
        return f"{self.kind}({self.attr}, {self.var})"


@dataclass(frozen=True)
class SeekPredNode:
    lhs: Term
    rel: RelOp
    rhs: Term

    def pp(self) -> str:
        return f"{self.lhs.pp()} {self.rel.pp()} {self.rhs.pp()}"


@dataclass(frozen=True)
class Assign:
    var: str
    value: object  # TimeRef | IntervalRef | Ref | GroupRef

    def pp(self) -> str:
        if isinstance(self.value, TimeRef):
            return f"{self.var} = {format_value(self.value.label)}"
        return f"{self.var} = {self.value.pp()}"


@dataclass(frozen=True)
class RefRel:
    var1: str
    op: str  # BEFORE/SAMETIME/AFTER, allen tags, = !=, set ops
    var2: str

    def pp(self) -> str:
        token = {"eq": "=", "ne": "!="}.get(self.op, self.op.upper())
        return f"{self.var1} {token} {self.var2}"


@dataclass(frozen=True)
class StructRel:
    op: str  # ADJACENT | CONNECTED | DISTANCE | CONFIGEQUAL
    var1: str
    var2: str
    t: Optional[object] = None  # time label
    k: Optional[int] = None  # DISTANCE bound

    def pp(self) -> str:
        args = f"{self.var1}, {self.var2}"
        if self.t is not None:
            args += f", {format_value(self.t)}"
        out = f"{self.op}({args})"
        if self.k is not None:
            out += f" <= {self.k}"
        return out


@dataclass(frozen=True)
class Seek:
    targets: tuple
    main: SeekPredNode
    clauses: tuple = ()  # Assign | RefRel | StructRel
    family: Optional[FamilySpec] = None
    windows: Optional[int] = None

    def pp(self) -> str:
        out = f"SEEK {','.join(self.targets)} WHERE {self.main.pp()}"
        for clause in self.clauses:
            out += f" AND {clause.pp()}"
        return out + _tail(None, None, None, None, self.windows, self.family)


# structural queries


@dataclass(frozen=True)
class Connection:
    g1: Ref
    g2: Ref
    at: Optional[TimeRef] = None

    def pp(self) -> str:
        return f"CONNECTED({self.g1.pp()}, {self.g2.pp()})" + _tail(self.at)


@dataclass(frozen=True)
class Neighbors:
    g1: Ref
    spec: ConnSpecLit
    at: Optional[TimeRef] = None

    def pp(self) -> str:
        return f"NEIGHBORS({self.g1.pp()}, {self.spec.pp()})" + _tail(self.at)


@dataclass(frozen=True)
class Pairs:
    spec: ConnSpecLit
    at: Optional[TimeRef] = None

    def pp(self) -> str:
        return f"PAIRS({self.spec.pp()})" + _tail(self.at)


@dataclass(frozen=True)
class Times:
    g1: Ref
    g2: Ref
    spec: ConnSpecLit = ConnSpecLit()

    def pp(self) -> str:
        inner = f"{self.g1.pp()}, {self.g2.pp()}"
        if self.spec != ConnSpecLit():
            inner += f", {self.spec.pp()}"
        return f"TIMES WHERE CONNECTED({inner})"


@dataclass(frozen=True)
class StructCharacterize:
    scope: StructScopeNode

    def pp(self) -> str:
        return f"STRUCT CHARACTERIZE {self.scope.pp()}"


@dataclass(frozen=True)
class StructSearch:
    pattern: object  # PresenceLiteral | ConfigLiteral | ConfigTrendLiteral | StructuralPattern
    family: FamilySpec
    at: Optional[TimeRef] = None
    during: Optional[IntervalRef] = None
    windows: Optional[int] = None

    def pp(self) -> str:
        return (f"STRUCT SEARCH {self.pattern.pp()} OVER {self.family.pp()}"
                + _tail(self.at, None, None, self.during, self.windows))


# correlation


@dataclass(frozen=True)
class GraphSeries:
    attr: str
    target: object  # Ref | GroupRef
    at: Optional[TimeRef] = None
    during: Optional[IntervalRef] = None
    agg: Optional[str] = None  # mean | median | min | max | sum

    def pp(self) -> str:
        out = f"{self.attr} OF {self.target.pp()}"
        if self.agg is not None:
            out += f" AGG {self.agg}"
        return out + _tail(self.at, None, None, self.during)


@dataclass(frozen=True)
class ExternalSeries:
    name: str

    def pp(self) -> str:
        return f"SERIES {self.name}"


@dataclass(frozen=True)
class Correlate:
    lhs: object
    rhs: object
    lag: int = 0
    mode: Optional[str] = None  # POOLED | PERELEMENT

    def pp(self) -> str:
        out = f"CORRELATE {self.lhs.pp()} WITH {self.rhs.pp()}"
        if self.lag:
            out += f" LAG {self.lag}"
        if self.mode is not None:
            out += f" {self.mode}"
        return out
