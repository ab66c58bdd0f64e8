"""Binds a validated AST to the engine and runs it.

Planning resolves surface tokens against the loaded graph (time labels to
indices, reference ids to elements, subset names to member tuples), picks
the engine operation the query's binding pattern calls for, and rejects
free references that have no enumerable family. Execution wraps results in
the deterministic envelope ``{query, bindings, elapsed_ms, warnings}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .. import correlate as corr
from .. import structure as struct
from .. import tasks
from ..config import Config
from ..errors import PLAN_ERROR, TgqError, VALIDATION_ERROR
from ..graph import ElemKind, GraphElementRef, TemporalGraph, TimeInterval
from ..patterns import AspectAxis, DistLiteral, TrendLiteral
from ..relations import RelationFamily, RelationSpec
from ..search import GroupCandidate, SearchSpace, SubsetFamily
from ..structure import (
    ConfigLiteral,
    ConnectionSpec,
    PresenceLiteral,
    StructScope,
    StructScopeKind,
)
from ..tasks import (
    AuxRelation,
    BehaviorScope,
    FindSide,
    FixedSide,
    LiteralSide,
    LookupSide,
    Quadrant,
    ScopeSide,
    SearchSide,
    SeekSidePatterns,
    SeekSideValues,
    ValueConstraint,
)
from . import ast
from .parser import parse
from .validate import BINDING_SIDES


@dataclass
class PlannedQuery:
    """An executable closure over one engine operation."""

    query_text: str
    runner: object  # () -> (bindings list, warnings list)

    def run(self) -> dict:
        started = time.perf_counter()
        bindings, warnings = self.runner()
        elapsed = int((time.perf_counter() - started) * 1000)
        return {
            "query": self.query_text,
            "bindings": bindings,
            "elapsed_ms": elapsed,
            "warnings": warnings,
        }


def plan(node, graph: TemporalGraph, cfg: Config) -> PlannedQuery:
    # binding errors surface before rendering
    runner = _PLAN_HANDLERS[type(node)](_Planner(graph, cfg), node)
    return PlannedQuery(node.pp(), runner)


def run_query(text: str, graph: TemporalGraph, cfg: Config) -> dict:
    return plan(parse(text), graph, cfg).run()


_QUADRANTS = {"TREND": Quadrant.Q3_TREND_OF_G, "DIST": Quadrant.Q2_DIST_AT_T,
              "ASPECT": Quadrant.Q4_ASPECTUAL}


# An element reference's kind text -> its ElemKind, without an Enum call.
# Validation keeps a subset reference from every place ``elem`` reads.
_ELEM_KINDS = {kind.value: kind for kind in ElemKind}

# PERELEMENT reports one correlation for each member of one subset.
_PER_ELEMENT = "PERELEMENT needs one shared subset scope"


def _min_len(windows: Optional[int]) -> int:
    """``WINDOWS n`` as a minimum window length; 1 when the clause is absent.
    ``SearchSpace`` rejects n < 1."""
    return 1 if windows is None else windows


class _Planner:
    def __init__(self, graph: TemporalGraph, cfg: Config):
        self.graph = graph
        self.cfg = cfg

    # -- resolution helpers -------------------------------------------------

    def elem(self, ref: ast.Ref) -> GraphElementRef:
        resolved = GraphElementRef(_ELEM_KINDS[ref.kind], ref.id)
        if not self.graph.has_ref(resolved):
            raise TgqError(VALIDATION_ERROR, f"unknown {ref.kind} '{ref.id}'")
        return resolved

    def group(self, ref: ast.GroupRef) -> GroupCandidate:
        if ref.kind == "subset":
            subset = self.graph.subset(ref.name)
            return GroupCandidate(f"subset:{ref.name}", subset.members)
        if ref.kind == "nodes":
            return GroupCandidate("NODES", tuple(self.graph.all_refs((ElemKind.NODE,))))
        return GroupCandidate("EDGES", tuple(self.graph.all_refs((ElemKind.EDGE,))))

    def ref_key(self, ref):
        """An element (``ast.Ref``) or a subset (``ast.GroupRef``) resolved;
        None, a free reference, stays None."""
        if ref is None:
            return None
        return self.group(ref) if isinstance(ref, ast.GroupRef) else self.elem(ref)

    def t_index(self, ref: Optional[ast.TimeRef]) -> Optional[int]:
        if ref is None:
            return None
        return self.graph.index_of(ref.label)

    def interval(self, ref: Optional[ast.IntervalRef]) -> Optional[TimeInterval]:
        if ref is None:
            return None
        start = self.graph.index_of(ref.start)
        end = self.graph.index_of(ref.end)
        if start > end:
            raise TgqError(VALIDATION_ERROR, "interval start is after its end")
        return TimeInterval(start, end)

    def time_key(self, at: Optional[ast.TimeRef], during: Optional[ast.IntervalRef],
                 whole: bool = False):
        """AT's time point or DURING's interval; with neither, the whole time
        domain if ``whole``, else None (a free time reference)."""
        if at is not None:
            return self.t_index(at)
        if during is not None:
            return self.interval(during)
        return self.graph.full_interval() if whole else None

    def space(self, family: Optional[ast.FamilySpec], windows: Optional[int],
              need_group: bool = False) -> SearchSpace:
        if family is None:
            if need_group:
                raise TgqError(
                    PLAN_ERROR,
                    "a free subset reference needs an enumerable family (OVER ...)",
                )
            return SearchSpace(window_min_len=_min_len(windows))
        if family.name == "PAIRS":
            raise TgqError(PLAN_ERROR, "PAIRS only enumerates structural searches")
        centre = family.center
        if centre is not None and centre.kind != "node":
            raise TgqError(VALIDATION_ERROR, f"the KHOP centre is a node, not {centre.pp()}")
        return SearchSpace(
            subset_family=SubsetFamily(family.name),
            khop_k=1 if family.k is None else family.k,
            khop_center=self.elem(centre).id if centre is not None else None,
            window_min_len=_min_len(windows),
        )

    def constraint(self, pred: ast.Predicate) -> ValueConstraint:
        self.graph.attr_kind(pred.attr)  # an unknown attribute is rejected
        values = tuple(
            float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v
            for v in pred.values
        )
        return ValueConstraint(pred.op, values)

    def conn_spec(self, lit: Optional[ast.ConnSpecLit]) -> ConnectionSpec:
        if lit is None:
            return ConnectionSpec()
        return ConnectionSpec(
            mode=lit.mode.lower(),
            max_distance=lit.k,
            direction=(lit.direction or "any").lower(),
            edge_attr=lit.pred.attr if lit.pred is not None else None,
            edge_constraint=self.constraint(lit.pred) if lit.pred is not None else None,
        )

    def p_lookup(self, node: ast.Lookup):
        side = self.direct_side(node.side)

        def run():
            row = side.resolve(self.graph, self.cfg).desc
            warnings = []
            if row["aggregated"]:
                warnings.append(
                    f"value of '{side.attr}' aggregated from the members of {side.ref}"
                )
            return [row], warnings

        return run

    def find_args(self, node: ast.Find) -> dict:
        """Keyword arguments of ``tasks.inverse_lookup`` and ``FindSide``."""
        return {
            "attr": node.predicate.attr,
            "constraint": self.constraint(node.predicate),
            "time_key": self.time_key(node.at, node.during),
            "ref_key": self.ref_key(node.for_ref if node.for_ref is not None
                                    else node.in_group),
        }

    def p_find(self, node: ast.Find):
        args = self.find_args(node)

        def run():
            hits = tasks.inverse_lookup(self.graph, self.cfg, **args)
            return [
                {"t": self.graph.label_of(ti), "element": str(el), "value": value}
                for ti, el, value in hits
            ], []

        return run

    def scope_of(self, node: ast.SideCharac) -> BehaviorScope:
        ref_key = self.ref_key(node.target)
        return BehaviorScope(
            _QUADRANTS[node.kind], self.time_key(node.at, node.during, whole=True), ref_key,
            AspectAxis(node.axis) if node.axis is not None else None)

    def p_characterize(self, node: ast.Characterize):
        side = self.direct_side(node.side)

        def run():
            return [side.resolve(self.graph, self.cfg).desc], []

        return run

    def search_args(self, node: ast.Search) -> dict:
        """Keyword arguments of ``tasks.pattern_search`` and ``SearchSide``."""
        target = node.pattern
        if isinstance(target, TrendLiteral):
            quadrant = Quadrant.Q3_TREND_OF_G
        elif isinstance(target, DistLiteral):
            quadrant = Quadrant.Q2_DIST_AT_T
        else:
            quadrant = Quadrant.Q4_ASPECTUAL
        ref_key = self.ref_key(node.of_target)
        # With no OF and no WINDOWS, an interval search runs over the whole domain.
        time_key = self.time_key(node.at, node.during, whole=(
            quadrant != Quadrant.Q2_DIST_AT_T and node.windows is None and ref_key is None))
        return {
            "target": target,
            "quadrant": quadrant,
            "attr": node.attr,
            "space": self.space(node.family, node.windows,
                                quadrant != Quadrant.Q3_TREND_OF_G and ref_key is None),
            "time_key": time_key,
            "ref_key": ref_key,
        }

    def p_search(self, node: ast.Search):
        args = self.search_args(node)

        def run():
            matches = tasks.pattern_search(self.graph, self.cfg, **args)
            return [self.match_out(m) for m in matches], []

        return run

    def match_out(self, match: tasks.Binding) -> dict:
        out = {"ref": match.ref_name}
        out.update(self.graph.key_label(match.time_key))
        out["score"] = match.score
        out["pattern"] = match.payload.to_dict()
        return out

    # comparison

    def direct_side(self, side):
        if isinstance(side, ast.SideLookup):
            return LookupSide(self.t_index(side.at), self.elem(side.ref), side.attr)
        if isinstance(side, ast.SideCharac):
            return ScopeSide(self.scope_of(side), side.attr)
        if isinstance(side, ast.SideValue):
            value = side.value
            if isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            return LiteralSide(value)
        if isinstance(side, ast.SidePattern):
            return LiteralSide(side.pattern)
        return struct.StructScopeSide(self.struct_scope(side.scope))  # ast.SideStruct

    def binding_side(self, side):
        if isinstance(side, ast.SideFind):
            return FindSide(**self.find_args(side.find))
        if isinstance(side, ast.SideSearch):
            return SearchSide(**self.search_args(side.search))
        if isinstance(side, ast.SideTime):
            return FixedSide(time_key=self.t_index(side.at))
        if isinstance(side, ast.SideInterval):
            return FixedSide(time_key=self.interval(side.interval))
        ref_key = self.ref_key(side.ref)  # ast.SideRef
        return FixedSide(self.time_key(side.at, side.during), ref_key)

    def p_compare(self, node: ast.Compare):
        if isinstance(node.lhs, BINDING_SIDES):
            lhs = self.binding_side(node.lhs)
            rhs = self.binding_side(node.rhs)
            families = tuple(f.lower() for f in node.families) or None

            def run():
                reports = tasks.inverse_compare(
                    self.graph, self.cfg, lhs, rhs,
                    families=families, all_pairs=node.all_pairs,
                )
                return [r.to_dict() for r in reports], []

            return run
        lhs = self.direct_side(node.lhs)
        rhs = self.direct_side(node.rhs)
        relation = self.rel_spec(node.relation) if node.relation is not None else None

        def run():
            report = tasks.direct_compare(self.graph, self.cfg, lhs, rhs, relation)
            return [report.to_dict()], []

        return run

    def rel_spec(self, rel: ast.RelOp) -> RelationSpec:
        if rel.op in ("SAME", "DIFFERENT", "OPPOSITE"):
            return RelationSpec(RelationFamily.PATTERN, rel.op.lower())
        if rel.op == "within":
            if rel.delta < 0:
                raise TgqError(VALIDATION_ERROR, "WITHIN tolerance must be >= 0")
            return RelationSpec(RelationFamily.VALUE, "within", (rel.delta,))
        return RelationSpec(RelationFamily.VALUE, rel.op)

    # relation seeking

    def p_seek(self, node: ast.Seek):
        main = node.main
        point_time = main.lhs.kind in ("VALUE", "DIST", "CONFIG")
        tvars = ("t1", "t2") if point_time else ("T1", "T2")
        assigns = {c.var: c.value for c in node.clauses if isinstance(c, ast.Assign)}

        sides = []
        for tvar, term in zip(tvars, (main.lhs, main.rhs)):
            value = assigns.get(tvar)
            time_key = self.t_index(value) if point_time else self.interval(value)
            ref_key = self.ref_key(assigns.get(term.var))
            if term.kind == "VALUE":
                sides.append(SeekSideValues(term.attr, time_key, ref_key))
            elif term.kind == "CONFIG":
                sides.append(struct.SeekSideStructConfig(time_key, ref_key))
            elif term.kind == "CONFIGTREND":
                raise TgqError(
                    PLAN_ERROR,
                    "CONFIGTREND terms are not supported in SEEK; use STRUCT SEARCH or COMPARE",
                )
            else:
                axis = AspectAxis(term.axis) if term.axis is not None else None
                sides.append(SeekSidePatterns(
                    _QUADRANTS[term.kind], term.attr, axis, time_key, ref_key))
        relation = self.rel_spec(main.rel)
        aux = self.seek_aux(node, main, tvars, point_time)
        # a free DIST, ASPECT or CONFIG side ranges over subsets
        need_group = main.lhs.kind in ("DIST", "ASPECT", "CONFIG")
        space = self.space(node.family, node.windows,
                           need_group and any(s.ref_key is None for s in sides))

        def run():
            pairs = tasks.relation_seek(
                self.graph, self.cfg, relation, sides[0], sides[1], aux, space,
            )
            out = []
            for p in pairs:
                out.append({
                    "lhs": p.lhs.describe(self.graph),
                    "rhs": p.rhs.describe(self.graph),
                    "relation": p.detail,
                })
            return out, []

        return run

    def seek_aux(self, node: ast.Seek, main, tvars, point_time) -> tuple:
        aux = []
        ref_vars = (main.lhs.var, main.rhs.var)
        if main.lhs.var == main.rhs.var:
            aux.append(AuxRelation("graph", RelationSpec(RelationFamily.VALUE, "eq")))
        for clause in node.clauses:
            if isinstance(clause, ast.Assign):
                continue
            if isinstance(clause, ast.StructRel):
                spec_map = {
                    "ADJACENT": RelationSpec(RelationFamily.STRUCTURAL, "adjacent"),
                    "CONNECTED": RelationSpec(RelationFamily.STRUCTURAL, "connected"),
                    "CONFIGEQUAL": RelationSpec(RelationFamily.STRUCTURAL, "configuration_equal"),
                }
                if clause.op == "DISTANCE":
                    if clause.k < 0:
                        raise TgqError(VALIDATION_ERROR, "max distance must be >= 0")
                    spec = RelationSpec(RelationFamily.STRUCTURAL, "distance_le", (clause.k,))
                else:
                    spec = spec_map[clause.op]
                t_ctx = self.graph.index_of(clause.t) if clause.t is not None else None
                ordered = (clause.var1, clause.var2) == ref_vars
                if not ordered and (clause.var2, clause.var1) != ref_vars:
                    raise TgqError(
                        VALIDATION_ERROR,
                        "structural relations hold between the two seek variables",
                    )
                aux.append(AuxRelation("graph", spec, t_context=t_ctx))
                continue
            # RefRel
            time_rel = clause.var1 in tvars or clause.var2 in tvars
            if time_rel:
                aux.append(AuxRelation("time", self.time_rel_spec(clause.op, point_time)))
            else:
                if clause.op in ("eq", "ne"):
                    aux.append(AuxRelation("graph", RelationSpec(RelationFamily.VALUE, clause.op)))
                else:
                    set_ops = {
                        "seteq": "equal", "subsetof": "subset", "supersetof": "superset",
                        "disjoint": "disjoint", "intersects": "overlapping",
                    }
                    aux.append(AuxRelation("graph", RelationSpec(RelationFamily.SET, set_ops[clause.op])))
        return tuple(aux)

    def time_rel_spec(self, op: str, point_time: bool) -> RelationSpec:
        if point_time:
            mapping = {"before": "before", "sametime": "same", "after": "after",
                       "eq": "same", "equals": "same"}
            if op not in mapping:
                raise TgqError(VALIDATION_ERROR, f"'{op}' does not relate time points")
            return RelationSpec(RelationFamily.TEMPORAL_POINT, mapping[op])
        if op == "ne":
            raise TgqError(VALIDATION_ERROR, "use an interval relation between T1 and T2")
        allen = "equals" if op == "eq" else op
        return RelationSpec(RelationFamily.TEMPORAL_INTERVAL, allen)

    # structural queries

    def p_connection(self, node: ast.Connection):
        g1 = self.elem(node.g1)
        g2 = self.elem(node.g2)
        t = self.t_index(node.at)

        def run():
            times = [t] if t is not None else [
                ti for ti in range(self.graph.n_times)
                if self.graph.exists_at(g1, ti) and self.graph.exists_at(g2, ti)
            ]
            out = []
            for ti in times:
                rep = struct.find_connection(self.graph, self.cfg, g1, g2, ti)
                row = {"t": self.graph.label_of(ti)}
                row.update(rep.to_dict())
                out.append(row)
            return out, []

        return run

    def p_neighbors(self, node: ast.Neighbors):
        g1 = self.elem(node.g1)
        spec = self.conn_spec(node.spec)
        t = self.t_index(node.at)

        def run():
            hits = struct.find_connected(self.graph, self.cfg, g1, spec, t)
            return [
                {"element": str(g2), "t": self.graph.label_of(ti)} for g2, ti in hits
            ], []

        return run

    def p_pairs(self, node: ast.Pairs):
        spec = self.conn_spec(node.spec)
        t = self.t_index(node.at)

        def run():
            hits = struct.find_connected_pairs(self.graph, self.cfg, spec, t)
            return [
                {"g1": str(a), "g2": str(b), "t": self.graph.label_of(ti)}
                for a, b, ti in hits
            ], []

        return run

    def p_times(self, node: ast.Times):
        g1 = self.elem(node.g1)
        g2 = self.elem(node.g2)
        spec = self.conn_spec(node.spec)

        def run():
            hits = struct.connection_times(self.graph, self.cfg, g1, g2, spec)
            return [{"t": self.graph.label_of(ti)} for ti in hits], []

        return run

    def struct_scope(self, scope: ast.StructScopeNode) -> StructScope:
        kind = {
            "PAIR": StructScopeKind.PAIR_OVER_TIME,
            "CONFIG": StructScopeKind.SNAPSHOT_CONFIG,
            "PAIRS": StructScopeKind.PAIRS_AGGREGATE,
            "CONFIGTREND": StructScopeKind.CONFIG_OVER_TIME,
        }[scope.kind]
        group = self.group(scope.group) if scope.group is not None else None
        if group is not None:
            bad = [str(m) for m in group.members if m.kind != ElemKind.NODE]
            if bad:
                raise TgqError(
                    VALIDATION_ERROR,
                    f"structural behaviours need node members ({bad[0]} is not)",
                )
        time_key = self.time_key(scope.at, scope.during, whole=True)
        return StructScope(
            kind,
            g1=self.elem(scope.g1) if scope.g1 is not None else None,
            g2=self.elem(scope.g2) if scope.g2 is not None else None,
            group=group,
            time_key=time_key,
            connection=self.conn_spec(scope.conn) if scope.conn is not None else None,
            metrics=scope.metrics or struct.METRIC_NAMES,
        )

    def p_struct_characterize(self, node: ast.StructCharacterize):
        scope = self.struct_scope(node.scope)

        def run():
            pattern = struct.structural_characterize(self.graph, self.cfg, scope)
            return [{"scope": scope.describe(self.graph, kind=scope.kind.value),
                     "pattern": pattern.to_dict()}], []

        return run

    def p_struct_search(self, node: ast.StructSearch):
        target = node.pattern
        pair_scope = isinstance(target, PresenceLiteral)
        space = (
            SearchSpace(window_min_len=_min_len(node.windows))
            if pair_scope
            else self.space(node.family, node.windows, need_group=True)
        )
        # With no WINDOWS, an interval search runs over the whole domain.
        time_key = self.time_key(node.at, node.during, whole=(
            node.windows is None and not isinstance(target, ConfigLiteral)))

        def run():
            matches = struct.structural_search(self.graph, self.cfg, target, space, time_key)
            return [self.match_out(m) for m in matches], []

        return run

    # correlation

    def p_correlate(self, node: ast.Correlate):
        graph_sides = [s for s in (node.lhs, node.rhs) if isinstance(s, ast.GraphSeries)]
        for side in graph_sides:
            self.graph.attr_kind(side.attr)
        if len(graph_sides) == 1:
            return self.p_correlate_external(node, graph_sides[0])
        return self.p_correlate_graph(node)

    def p_correlate_external(self, node: ast.Correlate, graph_side: ast.GraphSeries):
        external = node.lhs if isinstance(node.lhs, ast.ExternalSeries) else node.rhs
        if isinstance(node.lhs, ast.ExternalSeries):
            raise TgqError(
                VALIDATION_ERROR, "put the graph series first and the external second"
            )
        if graph_side.at is not None:
            raise TgqError(
                VALIDATION_ERROR, "correlation with an external series runs over time"
            )
        target = self.ref_key(graph_side.target)
        interval = self.time_key(graph_side.at, graph_side.during, whole=True)

        def run():
            rep = corr.correlate_with_external(
                self.graph, self.cfg, target, graph_side.attr,
                external.name, interval, lag=node.lag,
                agg=graph_side.agg or "mean",
            )
            return [rep.to_dict()], []

        return run

    def p_correlate_graph(self, node: ast.Correlate):
        lhs, rhs = node.lhs, node.rhs
        same_attr = lhs.attr == rhs.attr
        same_target = lhs.target == rhs.target
        same_window = (lhs.at, lhs.during) == (rhs.at, rhs.during)
        if same_attr and not (same_target and same_window):
            if lhs.at is not None or rhs.at is not None:
                raise TgqError(
                    VALIDATION_ERROR,
                    "homogeneous correlation pairs two interval series",
                )
            ta = self.ref_key(lhs.target)
            tb = self.ref_key(rhs.target)
            ia = self.time_key(lhs.at, lhs.during, whole=True)
            ib = self.time_key(rhs.at, rhs.during, whole=True)
            if node.mode == "PERELEMENT":
                raise TgqError(VALIDATION_ERROR, _PER_ELEMENT)

            def run():
                rep = corr.correlate_homogeneous(
                    self.graph, self.cfg, lhs.attr, ta, ia, tb, ib,
                    agg_a=lhs.agg or "mean", agg_b=rhs.agg or "mean",
                )
                return [rep.to_dict()], []

            return run
        if not (same_target and same_window):
            raise TgqError(
                VALIDATION_ERROR,
                "two different attributes correlate over one shared scope",
            )
        if lhs.agg is not None or rhs.agg is not None:
            raise TgqError(
                VALIDATION_ERROR,
                "aggregation applies when a side reduces to one series "
                "(homogeneous or external pairing)",
            )
        ref_key = self.ref_key(lhs.target)
        if not isinstance(ref_key, GroupCandidate):
            if lhs.at is not None:
                raise TgqError(VALIDATION_ERROR, "a cross-section correlates over a subset")
            if node.mode == "PERELEMENT":
                raise TgqError(VALIDATION_ERROR, _PER_ELEMENT)
        time_key = self.time_key(lhs.at, lhs.during, whole=True)
        per_element = node.mode == "PERELEMENT"

        def run():
            result = corr.correlate_attributes(
                self.graph, self.cfg, lhs.attr, rhs.attr, time_key, ref_key,
                lag=node.lag, per_element=per_element,
            )
            if per_element:
                reports, skipped = result
                return ([{"element": name, **rep.to_dict()} for name, rep in reports],
                        [f"{name}: {err.code}: {err.message}" for name, err in skipped])
            return [result.to_dict()], []

        return run


_PLAN_HANDLERS = {
    ast.Lookup: _Planner.p_lookup,
    ast.Find: _Planner.p_find,
    ast.Characterize: _Planner.p_characterize,
    ast.Search: _Planner.p_search,
    ast.Compare: _Planner.p_compare,
    ast.Seek: _Planner.p_seek,
    ast.Connection: _Planner.p_connection,
    ast.Neighbors: _Planner.p_neighbors,
    ast.Pairs: _Planner.p_pairs,
    ast.Times: _Planner.p_times,
    ast.StructCharacterize: _Planner.p_struct_characterize,
    ast.StructSearch: _Planner.p_struct_search,
    ast.Correlate: _Planner.p_correlate,
}
