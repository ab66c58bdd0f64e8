"""Temporal property-graph store.

The store keeps a discrete time domain (the sorted distinct timestamps seen
in the data), per-element existence intervals, and per-attribute value
series. A loaded graph is immutable and safe for concurrent reads; all query
machinery is built on these primitives:

- ``column(ref, attr)`` is the one reader of attribute values: one
  element's attribute at every time index (None where it is absent or has
  no value; optional carry-forward of the last observed value), cached on
  first read; scans read it whole and point reads index it,
- ``value_at_info(t, ref, attr)`` is the point read that raises
  ABSENT_ELEMENT or MISSING_VALUE on a miss,
- ``sorted_at(attr, t, cfg, kind)`` holds the values at one time index of
  every node, or of every edge, ascending: a FIND range test over every
  element bisects it, a distribution over every node or edge reads its
  values already sorted, and a WITHIN SEEK against every node or edge at
  one time point bisects the run each value on the other side admits,
- ``snapshot(t)`` materialises the static graph alive at one time point:
  its nodes, its edges and one neighbour table that ignores direction,
- ``exists_at(ref, t)`` tests interval cover.

An element is named by a ``GraphElementRef``: the tuple ``(kind, id)``, kind
one of the texts ``"node"``, ``"edge"`` and ``"object"``. It prints as
``kind:id``, sorts by kind text then id, and equals the plain tuple.
Elements may exist over several disjoint intervals (churn). Graph objects
(named subgraphs) are first-class elements: their attribute values may be
recorded directly or aggregated from members.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .config import Config
from .errors import (
    ABSENT_ELEMENT,
    CONSISTENCY_ERROR,
    MISSING_VALUE,
    SCHEMA_ERROR,
    TgqError,
    VALIDATION_ERROR,
    read_utf8,
)


class ElemKind:
    NODE = "node"
    EDGE = "edge"
    OBJECT = "object"


class AttrKind:
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"


class GraphElementRef(NamedTuple):
    """A reference to a node, edge, or graph object: the tuple (kind, id)."""

    kind: str  # an ElemKind text
    id: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.id}"

    @staticmethod
    def parse(token: str) -> "GraphElementRef":
        kind, _, ident = token.partition(":")
        if kind not in (ElemKind.NODE, ElemKind.EDGE, ElemKind.OBJECT):
            raise TgqError(SCHEMA_ERROR, f"bad element reference '{token}' (want kind:id)")
        return GraphElementRef(kind, ident)


def node_ref(ident: str) -> GraphElementRef:
    return GraphElementRef(ElemKind.NODE, ident)


def edge_ref(ident: str) -> GraphElementRef:
    return GraphElementRef(ElemKind.EDGE, ident)


def object_ref(ident: str) -> GraphElementRef:
    return GraphElementRef(ElemKind.OBJECT, ident)


def unit_scaled(values):
    """``(scale, values / scale)`` with scale = max|v|: finite extremes whose
    sums or products overflow, brought into [-1, 1] where none does."""
    scale = max(map(abs, values))
    return scale, [v / scale for v in values]


def mean(values) -> float:
    """Arithmetic mean of finite numbers. Where the sum overflows, the values
    are averaged unit-scaled and scaled back, so the mean is finite."""
    result = sum(values) / len(values)
    if math.isfinite(result):
        return result
    scale, unit = unit_scaled(values)
    return sum(unit) / len(values) * scale


@dataclass(frozen=True)
class TimeInterval:
    """Contiguous, inclusive range of time-domain indices."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise TgqError(VALIDATION_ERROR, f"interval start {self.start} > end {self.end}")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def indices(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True)
class EdgeDef:
    src: str
    dst: str
    directed: bool
    intervals: tuple  # tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ObjectDef:
    nodes: frozenset
    edges: frozenset


@dataclass(frozen=True)
class GraphSubset:
    """A named, kind-homogeneous set of element references."""

    name: str
    members: tuple  # tuple[GraphElementRef, ...], sorted


@dataclass
class Snapshot:
    """Static view of the graph at one time index: the alive nodes and
    edges in id order, and one neighbour table that ignores direction.
    A table constrained by direction or by an edge predicate is built from
    ``edges`` (``structure._Connectivity``)."""

    nodes: tuple
    edges: tuple  # tuple[(edge_id, src, dst, directed), ...]
    adjacency: dict  # every alive node -> sorted tuple of its neighbours

    def has_node(self, ident: str) -> bool:
        return ident in self.adjacency

    def neighbours(self, ident: str) -> tuple:
        return self.adjacency.get(ident, ())


class TemporalGraph:
    """Immutable temporal graph; construct via :func:`load`."""

    def __init__(
        self,
        time_labels,
        nodes,
        edges,
        objects,
        subsets,
        attrs,
        attr_kinds,
        external_series,
    ):
        self.time_labels = tuple(time_labels)
        self.time_index = {label: i for i, label in enumerate(self.time_labels)}
        self.nodes = dict(nodes)  # id -> tuple of (start,end) index intervals
        self.edges = dict(edges)  # id -> EdgeDef
        self.objects = dict(objects)  # id -> ObjectDef
        self.subsets = dict(subsets)  # name -> GraphSubset
        # (kind, id, attr) -> ((t_index, value), ...) sorted by t_index
        self.attrs = dict(attrs)
        self.attr_kinds = dict(attr_kinds)  # attr name -> its AttrKind text
        self.external_series = dict(external_series)  # name -> {t_index: float}
        self._snapshots: dict = {}
        # (kind, id, attr, carry[, "resolved" | build]) -> tuple | index, and
        # (kind, attr, carry, build, *args) -> index, see family_index
        self._columns: dict = {}
        self._refs: dict = {}  # kind -> sorted tuple of its refs, built on first use
        self._object_intervals: dict = {}  # object id -> merged member intervals, on first use
        self._kind_tables = {ElemKind.NODE: self.nodes, ElemKind.EDGE: self.edges,
                             ElemKind.OBJECT: self.objects}  # kind -> its id table
        self._node_edges: dict = {}
        for edge_id, e in self.edges.items():
            self._node_edges.setdefault(e.src, []).append(edge_id)
            if e.dst != e.src:
                self._node_edges.setdefault(e.dst, []).append(edge_id)
        for lst in self._node_edges.values():
            lst.sort()

    # -- basic structure ---------------------------------------------------

    @property
    def n_times(self) -> int:
        return len(self.time_labels)

    def full_interval(self) -> TimeInterval:
        if not self.time_labels:
            raise TgqError(VALIDATION_ERROR, "graph has an empty time domain")
        return TimeInterval(0, self.n_times - 1)

    def index_of(self, label) -> int:
        key = _norm_label(label)
        if key not in self.time_index:
            raise TgqError(VALIDATION_ERROR, f"time label {label!r} not in the time domain")
        return self.time_index[key]

    def check_time(self, *indices: int) -> None:
        """Raise VALIDATION_ERROR unless every index is in the time domain."""
        n = len(self.time_labels)
        for t in indices:
            if not 0 <= t < n:
                raise TgqError(VALIDATION_ERROR, f"time index {t} outside the domain")

    def label_of(self, t: int):
        return self.time_labels[t]

    def key_label(self, key) -> dict:
        """A time key as output shows it: ``{"t": label}`` for a point,
        ``{"interval": {"start": ..., "end": ...}}`` for a window, and
        nothing for no time reference."""
        if key is None:
            return {}
        if isinstance(key, TimeInterval):
            return {"interval": {"start": self.label_of(key.start), "end": self.label_of(key.end)}}
        return {"t": self.label_of(key)}

    def node_ids(self) -> list:
        return sorted(self.nodes)

    def edge_ids(self) -> list:
        return sorted(self.edges)

    def object_ids(self) -> list:
        return sorted(self.objects)

    def all_refs(self, kinds=(ElemKind.NODE, ElemKind.EDGE)) -> list:
        """Refs of the given kinds, nodes then edges then objects, each sorted
        by id; a fresh list per call."""
        refs = []
        for kind, table in self._kind_tables.items():
            if kind in kinds:
                if kind not in self._refs:
                    self._refs[kind] = tuple(GraphElementRef(kind, i) for i in sorted(table))
                refs.extend(self._refs[kind])
        return refs

    def has_ref(self, ref: GraphElementRef) -> bool:
        return ref.id in self._kind_tables[ref.kind]

    def subset(self, name: str) -> GraphSubset:
        if name not in self.subsets:
            raise TgqError(VALIDATION_ERROR, f"unknown subset '{name}'")
        return self.subsets[name]

    def object_members(self, ident: str) -> ObjectDef:
        if ident not in self.objects:
            raise TgqError(VALIDATION_ERROR, f"unknown graph object '{ident}'")
        return self.objects[ident]

    # -- existence ---------------------------------------------------------

    def _intervals_of(self, ref: GraphElementRef):
        if ref.kind == ElemKind.NODE:
            if ref.id not in self.nodes:
                raise TgqError(VALIDATION_ERROR, f"unknown node '{ref.id}'")
            return self.nodes[ref.id]
        if ref.kind == ElemKind.EDGE:
            if ref.id not in self.edges:
                raise TgqError(VALIDATION_ERROR, f"unknown edge '{ref.id}'")
            return self.edges[ref.id].intervals
        # an object exists wherever one of its member nodes does
        intervals = self._object_intervals.get(ref.id)
        if intervals is None:
            intervals = self._object_intervals[ref.id] = _merge_intervals(
                iv for n in self.object_members(ref.id).nodes for iv in self.nodes[n])
        return intervals

    def exists_at(self, ref: GraphElementRef, t: int) -> bool:
        return _covered(self._intervals_of(ref), t)

    # -- data function -----------------------------------------------------

    def attr_kind(self, attr: str) -> str:
        if attr not in self.attr_kinds:
            raise TgqError(VALIDATION_ERROR, f"attribute '{attr}' is not declared by the data")
        return self.attr_kinds[attr]

    def value_at_info(self, t: int, ref: GraphElementRef, attr: str, cfg: Config):
        """Evaluate the data function: ``(value, aggregated)`` of ``attr`` for
        ``ref`` at ``t``, aggregated when it comes from a graph object's
        members rather than a recorded value."""
        self.check_time(t)
        value = self.column(ref, attr, cfg)[t]
        if value is not None:
            return value, (ref.kind == ElemKind.OBJECT
                           and self._recorded(ref, attr, cfg.carries_forward(attr))[t] is None)
        label = self.label_of(t)
        if not self.exists_at(ref, t):
            raise TgqError(ABSENT_ELEMENT, f"{ref} does not exist at t={label}")
        if ref.kind == ElemKind.OBJECT:
            raise TgqError(
                MISSING_VALUE, f"no member of {ref} has a value of '{attr}' at t={label}"
            )
        raise TgqError(MISSING_VALUE, f"no value of '{attr}' for {ref} at t={label}")

    def column(self, ref: GraphElementRef, attr: str, cfg: Config) -> tuple:
        """The value of ``attr`` for ``ref`` at every time index, None where
        it is absent or has no value (None is never a recorded value), read
        once and cached. A graph object's slot is its own recorded value,
        else the mean or mode of its members' values there."""
        kind = self.attr_kind(attr)
        carry = cfg.carries_forward(attr)
        recorded = self._recorded(ref, attr, carry)
        if ref.kind != ElemKind.OBJECT:
            return recorded
        key = (ref.kind, ref.id, attr, carry, "resolved")
        if key not in self._columns:
            members = self.object_members(ref.id)
            cols = [self.column(node_ref(n), attr, cfg) for n in sorted(members.nodes)]
            cols += [self.column(edge_ref(e), attr, cfg) for e in sorted(members.edges)]
            self._columns[key] = tuple(
                own if own is not None else _aggregate([c[t] for c in cols], kind)
                for t, own in enumerate(recorded))
        return self._columns[key]

    def column_index(self, ref: GraphElementRef, attr: str, cfg: Config, build):
        """``build(column(ref, attr, cfg))``, cached next to the column once whole."""
        key = (ref.kind, ref.id, attr, cfg.carries_forward(attr), build)
        index = self._columns.get(key)
        if index is None:
            self._columns[key] = index = build(self.column(ref, attr, cfg))
        return index

    def family_index(self, kind: str, attr: str, cfg: Config, build, *args):
        """``build(self, kind, attr, cfg, *args)``, cached next to the columns
        once whole. ``build`` may read ``cfg`` only through the attribute's
        carry flag, which keys the cache with ``build`` and ``args``."""
        key = (kind, attr, cfg.carries_forward(attr), build, *args)
        index = self._columns.get(key)
        if index is None:
            self._columns[key] = index = build(self, kind, attr, cfg, *args)
        return index

    def _recorded(self, ref: GraphElementRef, attr: str, carry: bool) -> tuple:
        """Recorded values, carried forward when ``carry``: the one home of
        that rule. Cached only once whole, so readers never see a part."""
        key = (ref.kind, ref.id, attr, carry)
        col = self._columns.get(key)
        if col is None:
            intervals = self._intervals_of(ref)
            slots = [None] * self.n_times
            for t, value in self.attrs.get((ref.kind, ref.id, attr), ()):
                slots[t] = value
            if carry:
                # a value persists only within the existence interval it was recorded in
                for s, e in intervals:
                    for t in range(s + 1, e + 1):
                        if slots[t] is None:
                            slots[t] = slots[t - 1]
            self._columns[key] = col = tuple(slots)
        return col

    def sorted_at(self, attr: str, t: int, cfg: Config, kind: str) -> tuple:
        """``(values, refs, positions)``: the values of ``attr`` at time
        index ``t`` of every element of ``kind`` (every node, or every edge)
        that has one, ascending with ties in ``all_refs`` order, the ref
        holding each, and that ref's position in ``all_refs``.
        Read from the columns on first use and cached once whole, by
        ``family_index``. It has three readers: a range test over every
        element in FIND (``tasks.inverse_lookup``) bisects it, a
        distribution over every node or edge (``patterns.distribution``)
        takes its values, and a WITHIN SEEK whose side 2 is every node or
        edge at one time point (``tasks.relation_seek``) bisects the run of
        it that each side-1 value admits, which ``positions`` puts back
        into ref order."""
        return self.family_index(kind, attr, cfg, _sorted_values, t)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, t: int) -> Snapshot:
        cached = self._snapshots.get(t)
        if cached is not None:
            return cached
        self.check_time(t)
        nodes = tuple(i for i in self.node_ids() if _covered(self.nodes[i], t))
        edges = []
        adjacency: dict = {n: set() for n in nodes}
        for edge_id in self.edge_ids():
            e = self.edges[edge_id]
            if _covered(e.intervals, t):
                edges.append((edge_id, e.src, e.dst, e.directed))
                adjacency[e.src].add(e.dst)
                adjacency[e.dst].add(e.src)
        snap = Snapshot(nodes, tuple(edges),
                        {n: tuple(sorted(v)) for n, v in adjacency.items()})
        self._snapshots[t] = snap
        return snap

    def edges_between_any(self, a: str, targets, t: int) -> list:
        """Ids of edges alive at t joining node a to any node in ``targets``."""
        out = []
        for edge_id in self._node_edges.get(a, ()):
            e = self.edges[edge_id]
            other = e.dst if e.src == a else e.src
            if other in targets and _covered(e.intervals, t):
                out.append(edge_id)
        return out

    def stats(self) -> dict:
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "objects": len(self.objects),
            "subsets": len(self.subsets),
            "attributes": len(self.attr_kinds),
            "external_series": len(self.external_series),
            "time_points": self.n_times,
        }


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

# The fields each record type's checks read, in its load tuple's order; pass 1
# reads a node's or edge's start and end, or a t, from the tuple's end.
_FIELDS = {"node": ("id", "start", "end"), "edge": ("id", "src", "dst", "directed", "start", "end"),
           "object": ("id", "nodes", "edges"), "subset": ("name", "members"),
           "attr": ("elem", "name", "t", "value"), "series": ("name", "t", "value")}


def load(stream: Iterable) -> TemporalGraph:
    """Build a TemporalGraph from an iterable of event records.

    ``stream`` yields either JSON-lines text lines or already-decoded dicts.
    The time domain is the sorted set of distinct timestamps appearing
    anywhere in the records; an omitted interval ``end`` means "until the
    last timestamp".
    """
    return _load(enumerate(stream, start=1))


def _load(numbered) -> TemporalGraph:
    """:func:`load` over ``(line number, item)`` pairs. Each record is kept as
    ``(line, type, *fields)``, its type's ``_FIELDS`` (None if missing or null),
    and pass 2 writes the attr rows back over the list's head: at its peak a
    load holds the graph being built plus one small tuple per record."""
    records = []
    scan = json.JSONDecoder().scan_once
    for lineno, item in numbered:
        if isinstance(item, (bytes, str)):
            try:
                text = item.decode("utf-8") if isinstance(item, bytes) else item
            except UnicodeDecodeError as err:
                raise TgqError(SCHEMA_ERROR, f"line {lineno}: invalid UTF-8 ({err.reason})",
                               line=lineno) from None
            end = -1  # where the scan stopped; the line's length once it read it all
            if text[:1] == "{" and text[-1:] == "}":  # nearly every line: one object alone
                try:  # json.loads's own scan, without the checks it makes around it
                    rec, end = scan(text, 0)
                except (ValueError, StopIteration, RecursionError):  # StopIteration: a value
                    pass  # is missing; json.loads below fails as well, and its error is named
            if end != len(text):
                if not text.strip():
                    continue
                try:
                    rec = json.loads(text)
                except (ValueError, RecursionError) as err:
                    raise TgqError(
                        SCHEMA_ERROR, f"line {lineno}: invalid JSON ({_json_error(err)})",
                        line=lineno) from None
        else:
            rec = item
        if not isinstance(rec, dict):
            raise TgqError(SCHEMA_ERROR, f"line {lineno}: record must be an object", line=lineno)
        rtype = rec.get("type")
        if rtype == "attr":  # nearly every record: its _FIELDS spelt out
            records.append((lineno, rtype, rec.get("elem"), rec.get("name"), rec.get("t"),
                            rec.get("value")))
        else:
            fields = _FIELDS.get(rtype, ()) if isinstance(rtype, str) else ()
            records.append((lineno, rtype, *map(rec.get, fields)))

    # Pass 1: collect every timestamp so intervals can be index-resolved.
    # Each distinct raw label is normalised once, keyed by (type, value) so
    # that 1, 1.0, "1" and True stay apart.
    norm: dict = {}

    def note(raw, lineno):
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            what = ("boolean is not a valid timestamp" if isinstance(raw, bool)
                    else "time label must be a number or a string")
            raise TgqError(SCHEMA_ERROR, f"line {lineno}: {what}", line=lineno)
        if (type(raw), raw) not in norm:
            norm[type(raw), raw] = _norm_label(raw, lineno)

    for rec in records:
        lineno, rtype = rec[0], rec[1]
        if rtype == "attr":  # nearly every record, and its label nearly always seen
            t = rec[-2]
            if type(t) not in (int, float, str) or (type(t), t) not in norm:
                note(_require(t, "t", lineno), lineno)
        elif not isinstance(rtype, str) or rtype not in _FIELDS:
            raise TgqError(
                SCHEMA_ERROR, f"line {lineno}: unknown record type {rtype!r}", line=lineno
            )
        elif rtype in ("node", "edge"):
            note(_require(rec[-2], "start", lineno), lineno)
            if rec[-1] is not None:
                note(rec[-1], lineno)
        elif rtype == "series":
            note(_require(rec[-2], "t", lineno), lineno)
    time_labels = _sort_labels(set(norm.values()))
    index = {label: i for i, label in enumerate(time_labels)}
    slot = {key: index[label] for key, label in norm.items()}  # (type, raw) -> time index
    last = len(time_labels) - 1

    def interval_of(start, end, lineno):
        start = slot[type(start), start]
        end = last if end is None else slot[type(end), end]
        if start > end:
            raise TgqError(
                SCHEMA_ERROR, f"line {lineno}: interval start after end", line=lineno
            )
        return (start, end)

    nodes: dict = {}
    edge_meta: dict = {}
    edge_ivals: dict = {}
    edge_line: dict = {}  # edge id -> line of its first record
    objects: dict = {}
    subset_raw: dict = {}
    attr_kinds: dict = {}
    external: dict = {}
    parsed: dict = {}  # element token -> GraphElementRef, parsed once

    def ref_of(token, lineno):
        ref = parsed.get(token)
        if ref is None:
            try:
                ref = parsed[token] = GraphElementRef.parse(token)
            except TgqError as err:
                raise TgqError(SCHEMA_ERROR, f"line {lineno}: {err.message}", line=lineno) from None
        return ref

    numeric, isfinite = AttrKind.NUMERIC, math.isfinite
    kept = 0  # attr rows so far, written back over records[:kept]
    for rec in records:
        rtype = rec[1]
        if rtype == "attr":
            lineno, _, elem, name, t, value = rec
            if type(elem) is not str:
                elem = _require_str(elem, "elem", lineno)
            if type(name) is not str:
                name = _require_str(name, "name", lineno)
            t = slot[type(t), t]
            # a finite float of an attribute already numeric passes every check below;
            # ``is`` holds, since every kind in attr_kinds is one of _value_kind's constants
            if (type(value) is not float or attr_kinds.get(name) is not numeric
                    or not isfinite(value)):
                value = _require(value, "value", lineno)
                kind = _value_kind(value, lineno)
                declared = attr_kinds.setdefault(name, kind)
                if declared != kind:
                    raise TgqError(
                        SCHEMA_ERROR,
                        f"line {lineno}: attribute '{name}' is {declared} but got a {kind} value",
                        line=lineno,
                    )
                if kind == numeric:
                    value = _finite(value, lineno, "attribute value")
            records[kept] = (lineno, elem, parsed.get(elem) or ref_of(elem, lineno), name, t, value)
            kept += 1
        elif rtype == "node":
            lineno, _, ident, start, end = rec
            ident = _require_str(ident, "id", lineno)
            nodes.setdefault(ident, []).append(interval_of(start, end, lineno))
        elif rtype == "edge":
            lineno, _, ident, src, dst, directed, start, end = rec
            ident = _require_str(ident, "id", lineno)
            src = _require_str(src, "src", lineno)
            dst = _require_str(dst, "dst", lineno)
            if directed is not None and not isinstance(directed, bool):
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: 'directed' must be true or false", line=lineno
                )
            meta = (src, dst, directed is True)
            if edge_meta.setdefault(ident, meta) != meta:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: edge '{ident}' re-declared with different endpoints",
                    line=lineno,
                )
            edge_ivals.setdefault(ident, []).append(interval_of(start, end, lineno))
            edge_line.setdefault(ident, lineno)
        elif rtype == "object":
            lineno, _, ident, members, member_edges = rec
            ident = _require_str(ident, "id", lineno)
            if not isinstance(members, list) or not members:
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: object needs a non-empty 'nodes' list",
                    line=lineno,
                )
            if member_edges is not None and not isinstance(member_edges, list):
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: object 'edges' must be a list", line=lineno
                )
            objects[ident] = (lineno, [str(n) for n in members],
                              None if member_edges is None else [str(e) for e in member_edges])
        elif rtype == "subset":
            lineno, _, name, members = rec
            name = _require_str(name, "name", lineno)
            if not isinstance(members, list) or not members:
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: subset needs a non-empty 'members' list",
                    line=lineno,
                )
            subset_raw[name] = (lineno, [str(m) for m in members])
        elif rtype == "series":
            lineno, _, name, label, value = rec
            name = _require_str(name, "name", lineno)
            t = slot[type(label), label]
            value = _require(value, "value", lineno)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TgqError(
                    SCHEMA_ERROR, f"line {lineno}: series values must be numeric", line=lineno
                )
            if t in external.setdefault(name, {}):
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: duplicate point t={label} in series '{name}'",
                    line=lineno,
                )
            external[name][t] = _finite(value, lineno, "series value")
    del records[kept:]

    nodes = {i: _merge_intervals(v) for i, v in nodes.items()}
    edges = {}
    for ident, (src, dst, directed) in edge_meta.items():
        edges[ident] = EdgeDef(src, dst, directed, _merge_intervals(edge_ivals[ident]))

    # Consistency: edge endpoints must exist over the edge's whole lifetime.
    for ident, e in sorted(edges.items()):
        lineno = edge_line[ident]
        for endpoint in (e.src, e.dst):
            if endpoint not in nodes:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: edge '{ident}' references unknown node '{endpoint}'",
                    line=lineno,
                )
        for s, t_ in e.intervals:
            t = min(_first_uncovered(nodes[e.src], s), _first_uncovered(nodes[e.dst], s))
            if t <= t_:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: edge '{ident}' is alive at t={time_labels[t]} "
                    "but an endpoint is not",
                    line=lineno,
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

    tables = {ElemKind.NODE: nodes, ElemKind.EDGE: edges, ElemKind.OBJECT: resolved_objects}
    subsets = {}
    for name, (lineno, member_tokens) in sorted(subset_raw.items()):
        refs = sorted(ref_of(tok, lineno) for tok in member_tokens)
        kinds = {r.kind for r in refs}
        if len(kinds) > 1:
            raise TgqError(
                CONSISTENCY_ERROR,
                f"line {lineno}: subset '{name}' mixes element kinds", line=lineno,
            )
        for r in refs:
            if r.id not in tables[r.kind]:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: subset '{name}' references unknown {r.kind} '{r.id}'",
                    line=lineno,
                )
        subsets[name] = GraphSubset(name, tuple(refs))

    # Attr checks, with each element's lifetime read into a table once.
    alive: dict = {}  # element token -> bytes, nonzero where it exists
    attrs: dict = {}  # (element token, attr) -> {t: value}
    for lineno, elem, ref, name, t, value in records:
        row = alive.get(elem)
        if row is None:
            if ref.id not in tables[ref.kind]:
                raise TgqError(
                    CONSISTENCY_ERROR,
                    f"line {lineno}: attribute on unknown {ref.kind} '{ref.id}'",
                    line=lineno,
                )
            if ref.kind == ElemKind.OBJECT:  # alive wherever a member node is
                ivals = [iv for n in resolved_objects[ref.id].nodes for iv in nodes[n]]
            else:
                ivals = nodes[ref.id] if ref.kind == ElemKind.NODE else edges[ref.id].intervals
            row = bytearray(len(time_labels))
            for s, e in ivals:
                row[s:e + 1] = b"\1" * (e - s + 1)
            row = alive[elem] = bytes(row)
        if not row[t]:
            raise TgqError(
                CONSISTENCY_ERROR,
                f"line {lineno}: attribute '{name}' recorded at t={time_labels[t]} "
                f"but {ref} does not exist there",
                line=lineno,
            )
        series = attrs.get((elem, name))
        if series is None:
            series = attrs[elem, name] = {}
        old = series.get(t)
        if old is not None and old != value:
            raise TgqError(
                CONSISTENCY_ERROR,
                f"line {lineno}: conflicting values of '{name}' for {ref} "
                f"at t={time_labels[t]}",
                line=lineno,
            )
        series[t] = value
    del records

    attrs_sorted = {
        (parsed[elem].kind, parsed[elem].id, name): tuple(sorted(series.items()))
        for (elem, name), series in attrs.items()
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


def load_path(path: str) -> TemporalGraph:
    """Load from a .jsonl (default) or .csv file."""
    text = read_utf8(path, SCHEMA_ERROR)
    if path.endswith(".csv"):
        return _load(_csv_records(text))
    lines = text.splitlines()[::-1]
    del text  # popped from the end, each line goes once it is decoded
    return load(lines.pop() for _ in range(len(lines)))


def _json_error(err: Exception) -> str:
    """Why ``json.loads`` failed: its own message, or which of Python's
    limits the text ran into (the recursion limit, int's digit limit)."""
    if isinstance(err, json.JSONDecodeError):
        return err.msg
    return "nesting too deep" if isinstance(err, RecursionError) else "number too long"


def _csv_records(text: str):
    """CSV variant of the ingest format as (line, record) pairs, the line
    being the file line where the record ends. Same columns; empty cells are
    omitted, ``members``/``nodes``/``edges`` cells hold ';'-separated lists,
    and other cells are interpreted as JSON scalars where possible.
    """
    reader = csv.DictReader(io.StringIO(text))
    list_cols = {"members", "nodes", "edges"}
    try:
        for row in reader:
            rec = {}
            for key, cell in row.items():
                if key is None or cell is None or cell == "":
                    continue
                if key in list_cols and row.get("type") in ("subset", "object"):
                    rec[key] = cell.split(";")
                else:
                    try:
                        rec[key] = json.loads(cell)
                    except json.JSONDecodeError:
                        rec[key] = cell
                    except (ValueError, RecursionError) as err:
                        line = reader.line_num
                        raise TgqError(
                            SCHEMA_ERROR, f"line {line}: invalid CSV ({_json_error(err)})",
                            line=line) from None
            if rec:
                yield reader.line_num, rec
    except csv.Error as err:  # e.g. a field over the csv module's size limit
        line = reader.reader.line_num  # DictReader's own count stops at the last whole row
        raise TgqError(SCHEMA_ERROR, f"line {line}: invalid CSV ({err})", line=line) from None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _sorted_values(graph: TemporalGraph, kind: str, attr: str, cfg: Config, t: int) -> tuple:
    """``TemporalGraph.sorted_at``, built from the columns."""
    graph.attr_kind(attr)
    graph.check_time(t)
    carry = cfg.carries_forward(attr)
    refs = graph.all_refs((kind,))
    values = [graph._recorded(ref, attr, carry)[t] for ref in refs]
    order = sorted((i for i, v in enumerate(values) if v is not None), key=values.__getitem__)
    return tuple(values[i] for i in order), tuple(refs[i] for i in order), array("i", order)


def _norm_label(label, lineno: Optional[int] = None):
    """Canonical timestamp token: integral numbers collapse to int. A label
    read from a data file (``lineno`` given) must be a finite number."""
    if isinstance(label, bool):
        raise TgqError(SCHEMA_ERROR, "boolean is not a valid timestamp")
    if isinstance(label, (int, float)):
        as_float = float(label) if lineno is None else _finite(label, lineno, "time label")
        return int(as_float) if as_float.is_integer() else as_float
    return str(label)


def _finite(number, lineno: int, what: str) -> float:
    """``number`` as a float. NaN, ±Infinity and ints beyond the float range
    are rejected: the engine emits strict JSON, which has none of them."""
    try:
        as_float = float(number)
    except OverflowError:
        as_float = math.inf
    if not math.isfinite(as_float):
        raise TgqError(
            SCHEMA_ERROR, f"line {lineno}: {what} must be a finite number", line=lineno
        )
    return as_float


def _sort_labels(labels):
    numeric = [x for x in labels if isinstance(x, (int, float))]
    textual = [x for x in labels if isinstance(x, str)]
    return tuple(sorted(numeric) + sorted(textual))


def _merge_intervals(intervals):
    """Merge overlapping or touching index intervals into a sorted tuple."""
    merged = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return tuple(merged)


def _aggregate(slots: list, kind: str):
    """Mean of the values among ``slots`` that are not None when numeric,
    else their mode with a deterministic tie-break (lexicographic; False <
    True); None when there is no value."""
    values = [v for v in slots if v is not None]
    if not values:
        return None
    if kind == AttrKind.NUMERIC:
        return mean(values)
    return min(Counter(values).items(), key=lambda kv: (-kv[1], kv[0]))[0]


def _covered(intervals, t: int) -> bool:
    return any(s <= t <= e for s, e in intervals)


def _first_uncovered(intervals, t: int) -> int:
    """First index at or after t outside merged ``intervals``: t itself, or
    one past the interval holding t (merging leaves a gap after each)."""
    for s, e in intervals:
        if s <= t <= e:
            return e + 1
    return t


def _value_kind(value, lineno: int) -> str:
    if isinstance(value, bool):
        return AttrKind.BOOLEAN
    if isinstance(value, (int, float)):
        return AttrKind.NUMERIC
    if isinstance(value, str):
        return AttrKind.CATEGORICAL
    raise TgqError(
        SCHEMA_ERROR, f"line {lineno}: unsupported attribute value {value!r}", line=lineno
    )


def _require(value, key: str, lineno: int):
    """``value``, the field ``key`` of a record; None means missing or null."""
    if value is None:
        raise TgqError(
            SCHEMA_ERROR, f"line {lineno}: missing required field '{key}'", line=lineno
        )
    return value


def _require_str(value, key: str, lineno: int) -> str:
    """A name field: a string, or a number read as its text."""
    _require(value, key, lineno)
    if type(value) is str:
        return value
    if type(value) in (int, float):  # a bool, a list or an object is no name
        return str(value)
    raise TgqError(
        SCHEMA_ERROR, f"line {lineno}: '{key}' must be a string or a number", line=lineno
    )
