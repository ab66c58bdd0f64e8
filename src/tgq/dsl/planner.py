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
    planner = _Planner(graph, cfg)
    runner = planner.dispatch(node)  # binding errors surface before rendering
    return PlannedQuery(node.pp(), runner)


def run_query(text: str, graph: TemporalGraph, cfg: Config) -> dict:
    from .parser import parse

    return plan(parse(text), graph, cfg).run()


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
        resolved = GraphElementRef(ElemKind(ref.kind), ref.id)
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

    def full_or(self, interval: Optional[TimeInterval]) -> TimeInterval:
        return interval if interval is not None else self.graph.full_interval()

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

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, node):
        handlers = {
            ast.Lookup: self.p_lookup,
            ast.Find: self.p_find,
            ast.Characterize: self.p_characterize,
            ast.Search: self.p_search,
            ast.Compare: self.p_compare,
            ast.Seek: self.p_seek,
            ast.Connection: self.p_connection,
            ast.Neighbors: self.p_neighbors,
            ast.Pairs: self.p_pairs,
            ast.Times: self.p_times,
            ast.StructCharacterize: self.p_struct_characterize,
            ast.StructSearch: self.p_struct_search,
            ast.Correlate: self.p_correlate,
        }
        return handlers[type(node)](node)

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

    def p_find(self, node: ast.Find):
        constraint = self.constraint(node.predicate)
        t = self.t_index(node.at)
        ref = self.elem(node.for_ref) if node.for_ref is not None else None
        interval = self.interval(node.during)
        members = self.group(node.in_group).members if node.in_group is not None else None

        def run():
            hits = tasks.inverse_lookup(
                self.graph, self.cfg, node.predicate.attr, constraint,
                t=t, ref=ref, interval=interval, members=members,
            )
            return [
                {"t": self.graph.label_of(ti), "element": str(el), "value": value}
                for ti, el, value in hits
            ], []

        return run

    def scope_of(self, node: ast.SideCharac) -> BehaviorScope:
        if node.kind == "TREND":
            return BehaviorScope(
                Quadrant.Q3_TREND_OF_G,
                element=self.elem(node.element),
                interval=self.full_or(self.interval(node.during)),
            )
        if node.kind == "DIST":
            return BehaviorScope(
                Quadrant.Q2_DIST_AT_T,
                group=self.group(node.group),
                time_point=self.t_index(node.at),
            )
        return BehaviorScope(
            Quadrant.Q4_ASPECTUAL,
            group=self.group(node.group),
            interval=self.full_or(self.interval(node.during)),
            axis=AspectAxis(node.axis),
        )

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
        fixed_element = fixed_group = None
        if node.of_target is not None:
            if isinstance(node.of_target, ast.GroupRef):
                fixed_group = self.group(node.of_target)
            else:
                fixed_element = self.elem(node.of_target)
        interval_quadrant = quadrant != Quadrant.Q2_DIST_AT_T
        if node.during is not None:
            fixed_interval = self.interval(node.during)
        elif node.windows is not None or node.of_target is not None or not interval_quadrant:
            # free time reference: enumerate points/windows
            fixed_interval = None
        else:
            fixed_interval = self.graph.full_interval()
        need_group = interval_quadrant is False or quadrant == Quadrant.Q4_ASPECTUAL
        need_group = need_group and fixed_group is None
        return {
            "target": target,
            "quadrant": quadrant,
            "attr": node.attr,
            "space": self.space(node.family, node.windows,
                                need_group and node.of_target is None),
            "fixed_element": fixed_element,
            "fixed_group": fixed_group,
            "fixed_t": self.t_index(node.at),
            "fixed_interval": fixed_interval,
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
            f = side.find
            return FindSide(
                f.predicate.attr, self.constraint(f.predicate),
                fixed_t=self.t_index(f.at),
                fixed_ref=self.elem(f.for_ref) if f.for_ref is not None else None,
                interval=self.interval(f.during),
                members=self.group(f.in_group).members if f.in_group is not None else None,
            )
        if isinstance(side, ast.SideSearch):
            return SearchSide(**self.search_args(side.search))
        if isinstance(side, ast.SideTime):
            return FixedSide(time_key=self.t_index(side.at))
        if isinstance(side, ast.SideInterval):
            return FixedSide(time_key=self.interval(side.interval))
        # ast.SideRef
        if isinstance(side.ref, ast.GroupRef):
            ref_key = self.group(side.ref)
        else:
            ref_key = self.elem(side.ref)
        time_key = self.t_index(side.at)
        if time_key is None:
            time_key = self.interval(side.during)
        return FixedSide(time_key=time_key, ref_key=ref_key)

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
        assigns = {c.var: c for c in node.clauses if isinstance(c, ast.Assign)}

        def fixed_time(var):
            if var not in assigns:
                return None
            value = assigns[var].value
            return self.t_index(value) if point_time else self.interval(value)

        def fixed_ref(term):
            if term.var not in assigns:
                return None, None
            value = assigns[term.var].value
            if isinstance(value, ast.GroupRef):
                return None, self.group(value)
            resolved = self.elem(value)
            return resolved, None

        sides = []
        for i, term in enumerate((main.lhs, main.rhs)):
            t_key = fixed_time(tvars[i])
            el, grp = fixed_ref(term)
            if term.kind == "VALUE":
                sides.append(SeekSideValues(term.attr, fixed_t=t_key, fixed_ref=el))
            elif term.kind == "CONFIG":
                sides.append(struct.SeekSideStructConfig(fixed_group=grp, fixed_t=t_key))
            elif term.kind == "CONFIGTREND":
                raise TgqError(
                    PLAN_ERROR,
                    "CONFIGTREND terms are not supported in SEEK; use STRUCT SEARCH or COMPARE",
                )
            else:
                quadrant = {
                    "TREND": Quadrant.Q3_TREND_OF_G,
                    "DIST": Quadrant.Q2_DIST_AT_T,
                    "ASPECT": Quadrant.Q4_ASPECTUAL,
                }[term.kind]
                axis = AspectAxis(term.axis) if term.axis is not None else None
                fixed_t = t_key if term.kind == "DIST" else None
                fixed_iv = t_key if term.kind != "DIST" else None
                sides.append(SeekSidePatterns(
                    quadrant, term.attr, axis=axis,
                    fixed_element=el, fixed_group=grp,
                    fixed_t=fixed_t, fixed_interval=fixed_iv,
                ))
        relation = self.rel_spec(main.rel)
        aux = self.seek_aux(node, main, tvars, point_time)
        need_group = main.lhs.kind in ("DIST", "ASPECT", "CONFIG")
        space = self.space(node.family, node.windows,
                           need_group and not all(
                               isinstance(s, (SeekSidePatterns, struct.SeekSideStructConfig))
                               and (s.fixed_group is not None)
                               for s in sides
                           ))

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
        interval = (
            self.full_or(self.interval(scope.during))
            if kind != StructScopeKind.SNAPSHOT_CONFIG
            else None
        )
        return StructScope(
            kind,
            g1=self.elem(scope.g1) if scope.g1 is not None else None,
            g2=self.elem(scope.g2) if scope.g2 is not None else None,
            group=group,
            t=self.t_index(scope.at),
            interval=interval,
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
        fixed_t = self.t_index(node.at)
        fixed_interval = self.interval(node.during)
        if fixed_interval is None and node.windows is None and not isinstance(target, ConfigLiteral):
            fixed_interval = self.graph.full_interval()

        def run():
            matches = struct.structural_search(
                self.graph, self.cfg, target, space,
                fixed_t=fixed_t, fixed_interval=fixed_interval,
            )
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

    def resolve_series_target(self, side: ast.GraphSeries):
        if isinstance(side.target, ast.GroupRef):
            return self.group(side.target)
        return self.elem(side.target)

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
        target = self.resolve_series_target(graph_side)
        interval = self.full_or(self.interval(graph_side.during))

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
            ta = self.resolve_series_target(lhs)
            tb = self.resolve_series_target(rhs)
            ia = self.full_or(self.interval(lhs.during))
            ib = self.full_or(self.interval(rhs.during))

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
        target = self.resolve_series_target(lhs)
        group = target if isinstance(target, GroupCandidate) else None
        if lhs.at is not None and group is None:
            raise TgqError(VALIDATION_ERROR, "a cross-section correlates over a subset")
        t = self.t_index(lhs.at)
        interval = None if lhs.at is not None else self.full_or(self.interval(lhs.during))
        per_element = node.mode == "PERELEMENT" and group is not None

        def run():
            result = corr.correlate_attributes(
                self.graph, self.cfg, lhs.attr, rhs.attr,
                group=group, element=target if group is None else None, t=t, interval=interval,
                lag=node.lag, per_element=per_element,
            )
            if per_element:
                return [{"element": name, **rep.to_dict()} for name, rep in result], []
            return [result.to_dict()], []

        return run
