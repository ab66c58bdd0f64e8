"""AST-level validation: quadrant field rules and side-shape consistency.

These checks need no graph; reference resolution happens in the planner.
"""

from __future__ import annotations

from ..errors import TgqError, VALIDATION_ERROR
from ..patterns import DistLiteral, TrendLiteral
from ..relations import ALLEN_OPS
from ..structure import ConfigLiteral, PresenceLiteral
from . import ast

BINDING_SIDES = (ast.SideFind, ast.SideSearch, ast.SideTime, ast.SideInterval,
                 ast.SideRef)

_POINT_TIME_OPS = {"before", "sametime", "after"}
_ALLEN_OPS = set(ALLEN_OPS)
_SET_OPS = {"seteq", "subsetof", "supersetof", "disjoint", "intersects"}


def _fail(msg: str):
    raise TgqError(VALIDATION_ERROR, msg)


def validate(node) -> None:
    _HANDLERS[type(node)](node)


def _v_lookup(side: ast.SideLookup) -> None:
    if side.ref.kind == "subset":
        _fail("LOOKUP takes a single element; use CHARACTERIZE for subsets")


def _v_find(node: ast.Find) -> None:
    bad = [v for v in node.targets if v not in ("t", "g")]
    if bad:
        _fail(f"FIND targets must be among t,g (got {','.join(bad)})")
    if "t" in node.targets and node.at is not None:
        _fail("t is both a target and fixed with AT")
    if "g" in node.targets and node.for_ref is not None:
        _fail("g is both a target and fixed with FOR")
    if node.at is not None and node.during is not None:
        _fail("AT and DURING are mutually exclusive")
    if node.for_ref is not None and node.in_group is not None:
        _fail("FOR and IN are mutually exclusive")
    if node.for_ref is not None and node.for_ref.kind == "subset":
        _fail("FOR takes a single element (node:, edge:, object:); use IN for subsets")


def _v_charac(side: ast.SideCharac, what: str) -> None:
    if side.kind == "TREND":
        if not isinstance(side.target, ast.Ref):
            _fail(f"{what} TREND needs a single element (node:, edge:, object:)")
        if side.at is not None:
            _fail(f"{what} TREND runs over an interval, not a single time point")
    elif side.kind == "DIST":
        if not isinstance(side.target, ast.GroupRef):
            _fail(f"{what} DIST needs a subset (subset:, NODES, EDGES)")
        if side.at is None:
            _fail(f"{what} DIST needs a time point (AT t=...)")
        if side.during is not None:
            _fail(f"{what} DIST is a single-time behaviour")
    else:
        if not isinstance(side.target, ast.GroupRef):
            _fail(f"{what} ASPECT needs a subset")
        if side.at is not None:
            _fail(f"{what} ASPECT runs over an interval")


def _v_search(node: ast.Search) -> None:
    pattern = node.pattern
    if isinstance(pattern, TrendLiteral):
        if node.family is not None and node.family.name not in ("EACH_NODE", "EACH_EDGE"):
            _fail("trend search enumerates single elements (EACH_NODE or EACH_EDGE)")
        if node.of_target is not None and not isinstance(node.of_target, ast.Ref):
            _fail("trend search pins a single element, not a subset")
        if node.at is not None:
            _fail("trend search runs over intervals, not a single time point")
    elif isinstance(pattern, DistLiteral):
        if node.during is not None or node.windows is not None:
            _fail("distribution search binds single time points (use AT or leave free)")
        if node.family is not None and node.family.name == "PAIRS":
            _fail("PAIRS is a structural family")
        if node.of_target is not None and not isinstance(node.of_target, ast.GroupRef):
            _fail("distribution search pins a subset")
    else:
        if node.at is not None:
            _fail("aspectual search runs over intervals")
        if node.family is not None and node.family.name == "PAIRS":
            _fail("PAIRS is a structural family")
        if node.of_target is not None and not isinstance(node.of_target, ast.GroupRef):
            _fail("aspectual search pins a subset")


def _v_compare(node: ast.Compare) -> None:
    binding = [isinstance(s, BINDING_SIDES) for s in (node.lhs, node.rhs)]
    if any(binding):
        if not all(binding):
            _fail("inverse comparison needs found or fixed references on both sides")
        if node.relation is not None:
            _fail("USING a value/pattern relation applies to direct comparison only")
    else:
        if node.families:
            _fail("USING relation families applies to inverse comparison only")
        if node.all_pairs:
            _fail("ALLPAIRS applies to inverse comparison only")
    for side in (node.lhs, node.rhs):
        if isinstance(side, ast.SideLookup):
            _v_lookup(side)
        if isinstance(side, ast.SideCharac):
            _v_charac(side, "comparison side")
        if isinstance(side, ast.SideFind):
            _v_find(side.find)
        if isinstance(side, ast.SideSearch):
            _v_search(side.search)
        if isinstance(side, ast.SideStruct):
            _v_struct_scope(side.scope)


_TIME_VARS_POINT = {"t1", "t2"}
_TIME_VARS_INTERVAL = {"T1", "T2"}
_POINT_TERMS = {"VALUE", "DIST", "CONFIG"}
_ELEMENT_TERMS = {"VALUE", "TREND"}  # a reference variable takes an element
_GROUP_TERMS = {"DIST", "ASPECT", "CONFIG"}  # ... or a subset


def _v_seek(node: ast.Seek) -> None:
    main = node.main
    if main.lhs.kind != main.rhs.kind:
        _fail("relation seeking relates two terms of the same kind")
    if main.lhs.kind == "VALUE":
        if main.rel.op in ("SAME", "DIFFERENT", "OPPOSITE"):
            _fail("SAME/DIFFERENT/OPPOSITE relate patterns, not values")
    else:
        if main.rel.op not in ("SAME", "DIFFERENT", "OPPOSITE"):
            _fail("patterns relate via SAME/DIFFERENT/OPPOSITE")
    point_time = main.lhs.kind in _POINT_TERMS
    time_vars = _TIME_VARS_POINT if point_time else _TIME_VARS_INTERVAL
    known = {main.lhs.var, main.rhs.var} | time_vars
    # the sought values/patterns are always free and may be declared
    payload_vars = {"y1", "y2"} if main.lhs.kind == "VALUE" else {"P1", "P2"}
    for v in node.targets:
        if v not in known | payload_vars:
            _fail(f"SEEK target '{v}' is not used by the predicate "
                  f"(reference variables: {', '.join(sorted(known | payload_vars))})")
    assigned = set()
    for clause in node.clauses:
        if isinstance(clause, ast.Assign):
            if clause.var not in known:
                _fail(f"assignment to unknown variable '{clause.var}'")
            if clause.var in node.targets:
                _fail(f"'{clause.var}' is both a target and assigned")
            if clause.var in assigned:
                _fail(f"'{clause.var}' assigned twice")
            assigned.add(clause.var)
            if clause.var in time_vars:
                want = ast.IntervalRef if not point_time else ast.TimeRef
                if not isinstance(clause.value, want):
                    _fail(f"'{clause.var}' needs a "
                          f"{'time interval' if not point_time else 'time point'}")
            elif isinstance(clause.value, (ast.TimeRef, ast.IntervalRef)):
                _fail(f"'{clause.var}' is a graph reference variable")
            elif main.lhs.kind in _ELEMENT_TERMS and isinstance(clause.value, ast.GroupRef):
                _fail(f"'{clause.var}' of a {main.lhs.kind} term takes a single element "
                      "(node:, edge:, object:)")
            elif main.lhs.kind in _GROUP_TERMS and isinstance(clause.value, ast.Ref):
                _fail(f"'{clause.var}' of a {main.lhs.kind} term takes a subset "
                      "(subset:, NODES, EDGES)")
        elif isinstance(clause, ast.RefRel):
            for v in (clause.var1, clause.var2):
                if v not in known:
                    _fail(f"relation on unknown variable '{v}'")
            time_rel = clause.var1 in time_vars or clause.var2 in time_vars
            if time_rel:
                if {clause.var1, clause.var2} != time_vars:
                    _fail("time relations hold between t1/t2 (or T1/T2)")
                ok = (_POINT_TIME_OPS | {"eq", "ne"}) if point_time else (_ALLEN_OPS | {"eq", "ne"})
                if clause.op not in ok:
                    _fail(f"'{clause.op}' is not a valid time relation here")
            else:
                if clause.op not in _SET_OPS | {"eq", "ne"}:
                    _fail(f"'{clause.op}' is not a valid graph-reference relation")
        else:  # StructRel
            for v in (clause.var1, clause.var2):
                if v not in known or v in time_vars:
                    _fail("structural relations hold between graph reference variables")


def _v_connection(node) -> None:
    for ref in (node.g1, node.g2):
        if ref.kind not in ("node", "object"):
            _fail("connection tasks relate nodes or graph objects")


def _v_neighbors(node: ast.Neighbors) -> None:
    if node.g1.kind not in ("node", "object"):
        _fail("connection tasks relate nodes or graph objects")


def _v_struct_scope(scope: ast.StructScopeNode) -> None:
    if scope.kind == "PAIR":
        for ref in (scope.g1, scope.g2):
            if ref.kind not in ("node", "object"):
                _fail("pair behaviour relates nodes or graph objects")
        if scope.at is not None:
            _fail("pair behaviour runs over an interval")
    elif scope.kind == "CONFIG":
        if scope.at is None:
            _fail("configuration needs a time point (AT t=...)")
        if scope.during is not None:
            _fail("configuration is a single-time behaviour")
    else:
        if scope.at is not None:
            _fail(f"{scope.kind} runs over an interval")
    if scope.group is not None and scope.group.kind == "edges":
        _fail("structural behaviours are defined over node sets")


def _v_struct_search(node: ast.StructSearch) -> None:
    if isinstance(node.pattern, PresenceLiteral):
        if node.family.name != "PAIRS":
            _fail("presence-class search enumerates node pairs (OVER PAIRS)")
        if node.at is not None:
            _fail("presence-class search runs over intervals")
    else:
        if node.family.name == "PAIRS":
            _fail("configuration search enumerates node sets")
        if isinstance(node.pattern, ConfigLiteral):
            if node.during is not None or node.windows is not None:
                _fail("configuration search binds single time points")
        elif node.at is not None:
            _fail("this structural search runs over intervals")
    if node.family.name == "EACH_EDGE":
        _fail("structural behaviours are defined over node sets")


def _v_correlate(node: ast.Correlate) -> None:
    external = [isinstance(s, ast.ExternalSeries) for s in (node.lhs, node.rhs)]
    if all(external):
        _fail("at least one correlation side must come from the graph")
    if node.lag < 0:
        _fail("LAG must be >= 0")
    for side in (node.lhs, node.rhs):
        if isinstance(side, ast.GraphSeries):
            if side.at is not None and side.during is not None:
                _fail("AT and DURING are mutually exclusive")
            if side.agg is not None and not isinstance(side.target, ast.GroupRef):
                _fail("AGG aggregates a subset series; a single element needs none")
    if node.mode is not None:
        sides_ok = all(
            isinstance(s, ast.GraphSeries) and s.at is None for s in (node.lhs, node.rhs)
        )
        if not sides_ok:
            _fail(f"{node.mode} applies to pooled interval scopes")


_HANDLERS = {
    ast.Lookup: lambda node: _v_lookup(node.side),
    ast.Find: _v_find,
    ast.Characterize: lambda node: _v_charac(node.side, "CHARACTERIZE"),
    ast.Search: _v_search,
    ast.Compare: _v_compare,
    ast.Seek: _v_seek,
    ast.Connection: _v_connection,
    ast.Neighbors: _v_neighbors,
    ast.Pairs: lambda node: None,
    ast.Times: _v_connection,
    ast.StructCharacterize: lambda node: _v_struct_scope(node.scope),
    ast.StructSearch: _v_struct_search,
    ast.Correlate: _v_correlate,
}
