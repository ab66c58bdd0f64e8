"""The reference loader for ``tests/test_ingest.py``.

This is ``graph._load`` as it was before ingest resolved each distinct time
label, element reference and element lifetime once per load: it normalises
every label, parses every reference and scans every lifetime once per
record. It is kept as written, so that the memoised loader can be compared
with it graph for graph and error for error. The record helpers
``_RECORD_TYPES``, ``_require`` and ``_require_str`` are copied here as they
were, since ``tgq.graph``'s own now take a field's value, not its record.
"""

import json

from tgq.errors import CONSISTENCY_ERROR, SCHEMA_ERROR, TgqError
from tgq.graph import (
    AttrKind,
    EdgeDef,
    ElemKind,
    GraphElementRef,
    GraphSubset,
    ObjectDef,
    TemporalGraph,
    _covered,
    _finite,
    _first_uncovered,
    _merge_intervals,
    _norm_label,
    _sort_labels,
    _value_kind,
)

_RECORD_TYPES = {"node", "edge", "attr", "subset", "object", "series"}


def _require(rec: dict, key: str, lineno: int):
    if key not in rec or rec[key] is None:
        raise TgqError(
            SCHEMA_ERROR, f"line {lineno}: missing required field '{key}'", line=lineno
        )
    return rec[key]


def _require_str(rec: dict, key: str, lineno: int) -> str:
    """A name field: a string, or a number read as its text."""
    value = _require(rec, key, lineno)
    if type(value) is str:
        return value
    if type(value) in (int, float):  # a bool, a list or an object is no name
        return str(value)
    raise TgqError(
        SCHEMA_ERROR, f"line {lineno}: '{key}' must be a string or a number", line=lineno
    )


def reference_load(numbered) -> TemporalGraph:
    """``graph._load`` as it was before the per-token memos: the same
    ``(line number, item)`` pairs in, the same graph or first error out."""
    records = []
    for lineno, item in numbered:
        if isinstance(item, (bytes, str)):
            text = item.decode("utf-8") if isinstance(item, bytes) else item
            if not text.strip():
                continue
            try:
                rec = json.loads(text)
            except json.JSONDecodeError as err:
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: invalid JSON ({err.msg})", line=lineno
                ) from None
        else:
            rec = item
        if not isinstance(rec, dict):
            raise TgqError(SCHEMA_ERROR, f"line {lineno}: record must be an object", line=lineno)
        records.append((lineno, rec))

    # Pass 1: collect every timestamp so intervals can be index-resolved.
    labels = set()
    for lineno, rec in records:
        rtype = rec.get("type")
        if rtype not in _RECORD_TYPES:
            raise TgqError(
                SCHEMA_ERROR, f"line {lineno}: unknown record type {rtype!r}", line=lineno
            )
        if rtype in ("node", "edge"):
            labels.add(_norm_label(_require(rec, "start", lineno), lineno))
            if rec.get("end") is not None:
                labels.add(_norm_label(rec["end"], lineno))
        elif rtype in ("attr", "series"):
            labels.add(_norm_label(_require(rec, "t", lineno), lineno))
    time_labels = _sort_labels(labels)
    index = {label: i for i, label in enumerate(time_labels)}
    last = len(time_labels) - 1

    def interval_of(rec, lineno):
        start = index[_norm_label(rec["start"])]
        end = index[_norm_label(rec["end"])] if rec.get("end") is not None else last
        if start > end:
            raise TgqError(
                SCHEMA_ERROR, f"line {lineno}: interval start after end", line=lineno
            )
        return (start, end)

    nodes: dict = {}
    edge_meta: dict = {}
    edge_ivals: dict = {}
    objects: dict = {}
    subset_raw: dict = {}
    attr_raw: list = []
    attr_kinds: dict = {}
    external: dict = {}

    for lineno, rec in records:
        rtype = rec["type"]
        if rtype == "node":
            ident = _require_str(rec, "id", lineno)
            nodes.setdefault(ident, []).append(interval_of(rec, lineno))
        elif rtype == "edge":
            ident = _require_str(rec, "id", lineno)
            src = _require_str(rec, "src", lineno)
            dst = _require_str(rec, "dst", lineno)
            directed = bool(rec.get("directed", False))
            meta = (src, dst, directed)
            if edge_meta.setdefault(ident, meta) != meta:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: edge '{ident}' re-declared with different endpoints",
                    line=lineno,
                )
            edge_ivals.setdefault(ident, []).append(interval_of(rec, lineno))
        elif rtype == "object":
            ident = _require_str(rec, "id", lineno)
            members = rec.get("nodes")
            if not isinstance(members, list) or not members:
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: object needs a non-empty 'nodes' list",
                    line=lineno,
                )
            objects[ident] = (lineno, [str(n) for n in members],
                              [str(e) for e in rec.get("edges", [])] if rec.get("edges") is not None else None)
        elif rtype == "subset":
            name = _require_str(rec, "name", lineno)
            members = rec.get("members")
            if not isinstance(members, list) or not members:
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: subset needs a non-empty 'members' list",
                    line=lineno,
                )
            subset_raw[name] = (lineno, [str(m) for m in members])
        elif rtype == "attr":
            elem = _require_str(rec, "elem", lineno)
            name = _require_str(rec, "name", lineno)
            t = index[_norm_label(_require(rec, "t", lineno))]
            value = _require(rec, "value", lineno)
            kind = _value_kind(value, lineno)
            declared = attr_kinds.setdefault(name, kind)
            if declared != kind:
                raise TgqError(
                    SCHEMA_ERROR,
                    f"line {lineno}: attribute '{name}' is {declared.value} "
                    f"but got a {kind.value} value",
                    line=lineno,
                )
            if kind == AttrKind.NUMERIC:
                value = _finite(value, lineno, "attribute value")
            attr_raw.append((lineno, GraphElementRef.parse(elem), name, t, value))
        elif rtype == "series":
            name = _require_str(rec, "name", lineno)
            t = index[_norm_label(_require(rec, "t", lineno))]
            value = _require(rec, "value", lineno)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: series values must be numeric", line=lineno
                )
            if t in external.setdefault(name, {}):
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: duplicate point t={rec['t']} in series '{name}'",
                    line=lineno,
                )
            external[name][t] = _finite(value, lineno, "series value")

    nodes = {i: _merge_intervals(v) for i, v in nodes.items()}
    edges = {}
    for ident, (src, dst, directed) in edge_meta.items():
        edges[ident] = EdgeDef(src, dst, directed, _merge_intervals(edge_ivals[ident]))

    # Consistency: edge endpoints must exist over the edge's whole lifetime.
    for ident, e in sorted(edges.items()):
        for endpoint in (e.src, e.dst):
            if endpoint not in nodes:
                raise TgqError(
                    CONSISTENCY_ERROR, f"edge '{ident}' references unknown node '{endpoint}'"
                )
        for s, t_ in e.intervals:
            t = min(_first_uncovered(nodes[e.src], s), _first_uncovered(nodes[e.dst], s))
            if t <= t_:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"edge '{ident}' is alive at t={time_labels[t]} "
                    "but an endpoint is not",
                )

    resolved_objects = {}
    for ident, (lineno, member_nodes, member_edges) in sorted(objects.items()):
        node_set = frozenset(member_nodes)
        for n in member_nodes:
            if n not in nodes:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: object '{ident}' references unknown node '{n}'",
                    line=lineno,
                )
        if member_edges is None:
            # Default: the induced edges among the member nodes.
            member_edges = [
                eid for eid, e in sorted(edges.items())
                if e.src in node_set and e.dst in node_set
            ]
        for eid in member_edges:
            if eid not in edges:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: object '{ident}' references unknown edge '{eid}'",
                    line=lineno,
                )
            e = edges[eid]
            if e.src not in node_set or e.dst not in node_set:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: object '{ident}' edge '{eid}' joins non-member nodes",
                    line=lineno,
                )
        resolved_objects[ident] = ObjectDef(node_set, frozenset(member_edges))

    subsets = {}
    for name, (lineno, member_tokens) in sorted(subset_raw.items()):
        refs = sorted(GraphElementRef.parse(tok) for tok in member_tokens)
        kinds = {r.kind for r in refs}
        if len(kinds) > 1:
            raise TgqError(
                CONSISTENCY_ERROR,
                f"line {lineno}: subset '{name}' mixes element kinds", line=lineno,
            )
        for r in refs:
            table = {"node": nodes, "edge": edges, "object": resolved_objects}[r.kind.value]
            if r.id not in table:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: subset '{name}' references unknown {r.kind.value} '{r.id}'",
                    line=lineno,
                )
        subsets[name] = GraphSubset(name, tuple(refs))

    attrs: dict = {}
    for lineno, ref, name, t, value in attr_raw:
        if ref.kind == ElemKind.OBJECT:
            if ref.id not in resolved_objects:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: attribute on unknown object '{ref.id}'", line=lineno,
                )
            alive = any(
                _covered(nodes[n], t) for n in resolved_objects[ref.id].nodes
            )
        elif ref.kind == ElemKind.NODE:
            if ref.id not in nodes:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: attribute on unknown node '{ref.id}'", line=lineno,
                )
            alive = _covered(nodes[ref.id], t)
        else:
            if ref.id not in edges:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: attribute on unknown edge '{ref.id}'", line=lineno,
                )
            alive = _covered(edges[ref.id].intervals, t)
        if not alive:
            raise TgqError(
                CONSISTENCY_ERROR,
                f"line {lineno}: attribute '{name}' recorded at t={time_labels[t]} "
                f"but {ref} does not exist there",
                line=lineno,
            )
        series = attrs.setdefault((ref.kind, ref.id, name), {})
        if t in series and series[t] != value:
            raise TgqError(
                CONSISTENCY_ERROR,
                f"line {lineno}: conflicting values of '{name}' for {ref} "
                f"at t={time_labels[t]}",
                line=lineno,
            )
        series[t] = value

    attrs_sorted = {
        key: tuple(sorted(series.items())) for key, series in attrs.items()
    }

    return TemporalGraph(
        time_labels=time_labels,
        nodes={i: tuple(v) for i, v in sorted(nodes.items())},
        edges=dict(sorted(edges.items())),
        objects=resolved_objects,
        subsets=subsets,
        attrs=attrs_sorted,
        attr_kinds=dict(sorted(attr_kinds.items())),
        external_series={k: dict(v) for k, v in sorted(external.items())},
    )
