"""Symbolic behaviour patterns and the approximate-match relation.

Two partial behaviours are summarised here: the trend of one element's
attribute over a time interval, and the distribution of an attribute over a
set of elements at one time point. The two aspectual behaviours compose
them: trends collected over the graph, and the evolution of distribution
statistics over time. Every summary is a small closed vocabulary so that
"approximately equal" is decidable and deterministic.

Trend classification rules, applied in priority order to the defined
samples (x = time index, y = value):

1. fewer than 2 samples                          -> DEGENERATE
2. zero value range, or |LS slope| <= eps*range  -> CONSTANT
3. the steps only rise / only fall               -> INCREASING / DECREASING
4. the steps rise, then fall                     -> PEAK (TROUGH mirrored)
5. the step sign changes more than once          -> FLUCTUATING

Rules 3-5 read only the signs of the steps, ties skipped: the *shape* of
the values, taken from their run index (``step_runs``). From a column's
cached index, a window whose class cannot be one sought is ruled out
without the slope, and the windows of a start and a shape are one range of
ends (``shaped_window_trends``). For one window over every node or edge,
a per-start index of their run indexes (``start_index``) rules out, by one
bisection, the elements whose steps change sign too often
(``window_candidates``). Its first build for a start costs about what
testing each element's run index would; it pays off when the start comes
back on a loaded graph. The slope epsilon is relative to the observed
value range, which makes the class invariant under y -> a*y + b for a > 0.

``match_score`` is the one approximate-match relation, for attribute and
structural behaviours alike: each pattern type scores another of its type
(``similarity``), and a literal scores as the pattern it pins (``pinned``),
a distribution literal by its class hint alone.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import zip_longest
from typing import NamedTuple, Optional

from .config import Config
from .errors import (
    EMPTY_SCOPE,
    KIND_MISMATCH,
    TYPE_ERROR,
    TgqError,
)
from .graph import AttrKind, ElemKind, GraphElementRef, TemporalGraph, TimeInterval, unit_scaled


class TrendClass(str, Enum):
    INCREASING = "INCREASING"
    DECREASING = "DECREASING"
    CONSTANT = "CONSTANT"
    PEAK = "PEAK"
    TROUGH = "TROUGH"
    FLUCTUATING = "FLUCTUATING"
    DEGENERATE = "DEGENERATE"


class DistClass(str, Enum):
    UNIFORM = "UNIFORM"
    CONCENTRATED = "CONCENTRATED"
    BIMODAL = "BIMODAL"
    SKEWED_LEFT = "SKEWED_LEFT"
    SKEWED_RIGHT = "SKEWED_RIGHT"


class AspectAxis(str, Enum):
    TRENDS_OVER_GRAPH = "TRENDS_OVER_GRAPH"
    DISTRIBUTION_OVER_TIME = "DISTRIBUTION_OVER_TIME"


_OPPOSITE_TRENDS = {
    (TrendClass.INCREASING, TrendClass.DECREASING),
    (TrendClass.DECREASING, TrendClass.INCREASING),
    (TrendClass.PEAK, TrendClass.TROUGH),
    (TrendClass.TROUGH, TrendClass.PEAK),
}


@dataclass(frozen=True)
class TrendPattern:
    cls: TrendClass
    slope: float = 0.0  # least-squares slope divided by the value range
    extremum_pos: Optional[float] = None  # fraction of the interval, PEAK/TROUGH only

    def to_dict(self) -> dict:
        return {
            "kind": "trend",
            "class": self.cls.value,
            "slope": self.slope,
            "extremum_pos": self.extremum_pos,
        }

    def similarity(self, other: TrendPattern, cfg: Config):
        if self.cls == other.cls:
            return 1.0, False
        return 0.0, (self.cls, other.cls) in _OPPOSITE_TRENDS


@dataclass(frozen=True)
class DistributionPattern:
    count: int
    mean: float
    stddev: float
    min: float
    max: float
    histogram: tuple  # normalized bin shares over [min, max]
    class_hint: DistClass

    def to_dict(self) -> dict:
        return {
            "kind": "distribution",
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min,
            "max": self.max,
            "histogram": list(self.histogram),
            "class_hint": self.class_hint.value,
        }

    def similarity(self, other: DistributionPattern, cfg: Config):
        hist = histogram_similarity(self.histogram, other.histogram)
        loc = _location_similarity(self, other)
        return cfg.dist_weight_histogram * hist + cfg.dist_weight_location * loc, False


@dataclass(frozen=True)
class AspectualPattern:
    axis: AspectAxis
    # TRENDS_OVER_GRAPH: trend-class name -> element count
    frequencies: Optional[tuple] = None  # tuple of (class name, count), sorted
    # DISTRIBUTION_OVER_TIME: trends of the distribution statistics
    mean_trend: Optional[TrendPattern] = None
    stddev_trend: Optional[TrendPattern] = None

    def frequency_dict(self) -> dict:
        return dict(self.frequencies or ())

    def to_dict(self) -> dict:
        if self.axis == AspectAxis.TRENDS_OVER_GRAPH:
            return {
                "kind": "aspectual",
                "axis": self.axis.value,
                "frequencies": {k: v for k, v in (self.frequencies or ())},
            }
        return {
            "kind": "aspectual",
            "axis": self.axis.value,
            "mean_trend": self.mean_trend.to_dict() if self.mean_trend else None,
            "stddev_trend": self.stddev_trend.to_dict() if self.stddev_trend else None,
        }

    def similarity(self, other: AspectualPattern, cfg: Config):
        if self.axis != other.axis:
            raise TgqError(KIND_MISMATCH, "aspectual patterns have different axes")
        if self.axis == AspectAxis.TRENDS_OVER_GRAPH:
            return _frequency_similarity(self.frequency_dict(), other.frequency_dict()), False
        s1, o1 = self.mean_trend.similarity(other.mean_trend, cfg)
        s2, o2 = self.stddev_trend.similarity(other.stddev_trend, cfg)
        return (s1 + s2) / 2.0, o1 and o2


# --- pattern literals (partially specified targets used by searches) --------
# Each literal but DistLiteral pins a pattern (``pinned``) and is scored as it.


@dataclass(frozen=True)
class TrendLiteral:
    cls: TrendClass

    def to_dict(self) -> dict:
        return {"kind": "trend_literal", "class": self.cls.value}

    def pp(self) -> str:
        return self.cls.value

    def pinned(self) -> TrendPattern:
        return TrendPattern(self.cls)


@dataclass(frozen=True)
class DistLiteral:
    class_hint: DistClass

    def to_dict(self) -> dict:
        return {"kind": "distribution_literal", "class_hint": self.class_hint.value}

    def pp(self) -> str:
        return f"DIST {self.class_hint.value}"


@dataclass(frozen=True)
class AspectFreqLiteral:
    frequencies: tuple  # tuple of (trend class name, count)

    def to_dict(self) -> dict:
        return {"kind": "aspectual_literal", "axis": AspectAxis.TRENDS_OVER_GRAPH.value,
                "frequencies": {k: v for k, v in self.frequencies}}

    def pp(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.frequencies)
        return f"ASPECT TRENDS_OVER_GRAPH {{{inner}}}"

    def pinned(self) -> AspectualPattern:
        return AspectualPattern(AspectAxis.TRENDS_OVER_GRAPH, frequencies=self.frequencies)


@dataclass(frozen=True)
class AspectTrendLiteral:
    mean_cls: TrendClass
    stddev_cls: TrendClass

    def to_dict(self) -> dict:
        return {"kind": "aspectual_literal", "axis": AspectAxis.DISTRIBUTION_OVER_TIME.value,
                "mean_class": self.mean_cls.value, "stddev_class": self.stddev_cls.value}

    def pp(self) -> str:
        return f"ASPECT DISTRIBUTION_OVER_TIME {self.mean_cls.value} {self.stddev_cls.value}"

    def pinned(self) -> AspectualPattern:
        return AspectualPattern(AspectAxis.DISTRIBUTION_OVER_TIME,
                                mean_trend=TrendPattern(self.mean_cls),
                                stddev_trend=TrendPattern(self.stddev_cls))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_trend(samples, cfg: Config) -> TrendPattern:
    """Classify a sequence of (x, y) samples; x must be strictly increasing."""
    if len(samples) < 2:
        return TrendPattern(TrendClass.DEGENERATE)
    xs = [float(x) for x, _ in samples]
    ys = [float(y) for _, y in samples]
    lo, hi = min(ys), max(ys)
    value_range = hi - lo
    slope = _ls_slope(xs, ys)
    if not (math.isfinite(value_range) and math.isfinite(slope)):
        # Finite extremes overflow the sums; class and normalised slope
        # do not depend on the scale of ys.
        _, ys = unit_scaled(ys)
        lo, hi = min(ys), max(ys)
        value_range = hi - lo
        slope = _ls_slope(xs, ys)
    norm_slope = slope / value_range if value_range > 0 else 0.0
    if value_range == 0.0:
        return TrendPattern(TrendClass.CONSTANT, 0.0)
    if abs(slope) <= cfg.slope_epsilon * value_range:
        return TrendPattern(TrendClass.CONSTANT, norm_slope)
    cls = step_runs(ys).shape(0, len(ys) - 1)
    if cls in (TrendClass.PEAK, TrendClass.TROUGH):
        first = ys.index(hi if cls == TrendClass.PEAK else lo)
        return TrendPattern(cls, norm_slope, (xs[first] - xs[0]) / (xs[-1] - xs[0]))
    return TrendPattern(cls, norm_slope)


# Below this magnitude no sum or product in ``_ls_slope`` overflows, so
# ``classify_trend`` never takes its scaled path and its class is CONSTANT,
# DEGENERATE or the shape of the values themselves.
_UNSCALED_MAX = 2.0 ** 500
SHAPES = frozenset(TrendClass) - {TrendClass.CONSTANT, TrendClass.DEGENERATE}
_RISING = (TrendClass.INCREASING, TrendClass.PEAK, TrendClass.FLUCTUATING)
_FALLING = (TrendClass.DECREASING, TrendClass.TROUGH, TrendClass.FLUCTUATING)


class StepRuns(NamedTuple):
    """A column's steps, ties skipped: step k joins the consecutive defined
    slots ``starts[k]`` and ``ends[k]``, whose values differ."""

    starts: list
    ends: list
    rising: list  # the sign of each step
    changes: list  # changes[k]: sign changes among steps 0..k
    extremes: list  # slots holding a value beyond _UNSCALED_MAX

    def shape(self, s: int, e: int) -> TrendClass:
        """The shape of the window [s, e]: that of the steps inside it."""
        first = bisect_left(self.starts, s)
        last = bisect_right(self.ends, e, first) - 1
        if last < first:
            return TrendClass.CONSTANT
        shapes = _RISING if self.rising[first] else _FALLING
        return shapes[min(self.changes[last] - self.changes[first], 2)]

    def first_extreme(self, s: int) -> float:
        i = bisect_left(self.extremes, s)
        return self.extremes[i] if i < len(self.extremes) else math.inf

    def may_be(self, s: int, e: int, classes) -> bool:
        """Whether the trend of the window [s, e] may be one of ``classes``:
        its shape is one of them, or there is a class and the window holds
        an extreme value (which may be classified scaled, where a tie can
        replace a step)."""
        return self.shape(s, e) in classes or bool(classes) and self.first_extreme(s) <= e

    def ends_of(self, s: int, classes, first: int, stop: int) -> list:
        """The ends e, ascending, with ``first <= e < stop``, of the windows
        [s, e] that ``may_be`` admits. A growing end only moves the shape
        on, CONSTANT, then INCREASING or DECREASING, then PEAK or TROUGH,
        then FLUCTUATING: each holds for one range of ends, found by
        bisection."""
        if not classes:
            return []
        k = bisect_left(self.starts, s)
        bounds = [(TrendClass.CONSTANT, s)]  # (shape, the first end it holds at)
        if k < len(self.starts):
            c = self.changes[k]
            turns = (k, bisect_right(self.changes, c, k), bisect_right(self.changes, c + 1, k))
            bounds += [(cls, self.ends[i]) for cls, i in zip(
                _RISING if self.rising[k] else _FALLING, turns) if i < len(self.ends)]
        extreme = min(self.first_extreme(s), stop)
        bounds.append((None, extreme))
        out = [e for (cls, lo), (_, hi) in zip(bounds, bounds[1:]) if cls in classes
               for e in range(max(lo, first), min(hi, extreme))]
        return out + list(range(max(extreme, first), stop))


def step_runs(column) -> StepRuns:
    """The run index of a column (None in an empty slot), in one pass."""
    starts, ends, rising, changes, extremes = runs = StepRuns([], [], [], [], [])
    prev_t = prev = None
    for t, y in enumerate(column):
        if y is None:
            continue
        if not -_UNSCALED_MAX <= y <= _UNSCALED_MAX:
            extremes.append(t)
        if prev_t is not None and y != prev:
            up = y > prev
            changes.append(changes[-1] + (up is not rising[-1]) if rising else 0)
            starts.append(prev_t)
            ends.append(t)
            rising.append(up)
        prev_t, prev = t, y
    return runs


def trend(
    graph: TemporalGraph,
    cfg: Config,
    ref: GraphElementRef,
    interval: TimeInterval,
    attr: str,
) -> TrendPattern:
    """Trend of one element's attribute over a time interval."""
    return window_trends(graph, cfg, ref, [interval], attr)[0][1]


def related_classes(cls: TrendClass, op: str, threshold: float):
    """The trend classes that can stand in the pattern relation ``op`` (same
    at ``threshold``, or opposite) to a trend of class ``cls``, or None where
    any class can. Two trends score 1 when their classes are equal, else 0."""
    if op == "opposite":
        return {b for a, b in _OPPOSITE_TRENDS if a == cls}
    if op == "same" and threshold > 0:
        return {cls}
    return None


def window_trends(
    graph: TemporalGraph,
    cfg: Config,
    ref: GraphElementRef,
    windows,
    attr: str,
) -> list:
    """``(window, trend(graph, cfg, ref, window, attr))`` for each window, in
    order, reading the element's column once; no window, no read. Every
    window is classified; ``shaped_window_trends`` lists only those whose
    class can be sought."""
    if not windows:
        return []
    _check_numeric(graph, attr)
    column = graph.column(ref, attr, cfg)
    out = []
    for window in windows:
        graph.check_time(window.start, window.end)
        samples = [(t, column[t]) for t in window.indices() if column[t] is not None]
        out.append((window, classify_trend(samples, cfg)))
    return out


def shaped_window_trends(graph: TemporalGraph, cfg: Config, ref: GraphElementRef, attr: str,
                         classes, min_len: int, fixed: Optional[TimeInterval] = None) -> list:
    """``window_trends`` over ``fixed``, else over the windows of ``min_len``
    or more points, less those whose trend cannot be one of ``classes``, a
    subset of ``SHAPES``: only the windows that ``StepRuns.may_be`` admits
    are listed. Errors are those of ``window_trends`` over every window."""
    n = graph.n_times
    if fixed is None and n < min_len:
        return []
    _check_numeric(graph, attr)
    runs = graph.column_index(ref, attr, cfg, step_runs)
    if fixed is not None:
        graph.check_time(fixed.start, fixed.end)
        windows = [fixed] if runs.may_be(fixed.start, fixed.end, classes) else []
    else:
        windows = [TimeInterval(s, e) for s in range(n - min_len + 1)
                   for e in runs.ends_of(s, classes, s + min_len - 1, n)]
    return window_trends(graph, cfg, ref, windows, attr)


def window_candidates(graph: TemporalGraph, cfg: Config, refs: list, attr: str,
                      window: TimeInterval, classes) -> list:
    """The refs of ``refs`` (every node or every edge, in order) for which
    ``shaped_window_trends(..., fixed=window)`` may list the window: all but
    those the per-start index (``start_index``) rules out, which are never
    classified. Raises what that call would raise for the first ref; no
    ref, no error."""
    if not refs:
        return []
    _check_numeric(graph, attr)
    graph.check_time(window.start, window.end)
    if not classes:
        return []
    if TrendClass.FLUCTUATING in classes:
        return refs
    j = 0 if classes <= {TrendClass.INCREASING, TrendClass.DECREASING} else 1
    ms, order = graph.family_index(refs[0].kind, attr, cfg, start_index, window.start, j)
    return [refs[i] for i in sorted(order[bisect_right(ms, window.end):])]


def start_index(graph: TemporalGraph, kind: ElemKind, attr: str, cfg: Config,
                s: int, j: int) -> tuple:
    """``(ms, order)`` for the elements of one kind (``graph.all_refs``) and
    a start s, from their cached run indexes: ``order`` lists their
    positions by m_j(s), the end of the step that makes the (j+1)-th sign
    change from s, and ``ms`` holds those ends, ascending. A window [s, e]
    has at most j sign changes exactly where m_j(s) > e. m_j(s) is infinite
    where there is no such step, and where a value beyond ``_UNSCALED_MAX``
    follows s, so that no window of such an element is ruled out."""
    ms = []
    for ref in graph.all_refs((kind,)):
        runs = graph.column_index(ref, attr, cfg, step_runs)
        k = bisect_left(runs.starts, s)
        i = bisect_right(runs.changes, runs.changes[k] + j, k) if k < len(runs.starts) else k
        ms.append(runs.ends[i] if i < len(runs.ends) and runs.first_extreme(s) == math.inf
                  else math.inf)
    order = sorted(range(len(ms)), key=ms.__getitem__)
    return array("d", [ms[i] for i in order]), array("i", order)


def _check_numeric(graph: TemporalGraph, attr: str) -> None:
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"trend needs a numeric attribute, '{attr}' is not")


def classify_distribution(values, cfg: Config) -> DistributionPattern:
    if not values:
        raise TgqError(EMPTY_SCOPE, "no defined values in scope")
    values = sorted(map(float, values))
    try:
        n = len(values)
        mean = math.fsum(values) / n
        variance = math.fsum((v - mean) ** 2 for v in values) / n
        stddev = math.sqrt(variance)
        lo, hi = values[0], values[-1]
        if lo == hi:
            histogram = (1.0,)
        else:
            bins = [0] * cfg.histogram_bins
            width = (hi - lo) / cfg.histogram_bins
            for v in values:
                idx = min(int((v - lo) / width), cfg.histogram_bins - 1)
                bins[idx] += 1
            histogram = tuple(b / n for b in bins)
        return DistributionPattern(
            count=n, mean=mean, stddev=stddev, min=lo, max=hi,
            histogram=histogram,
            class_hint=_hint(values, mean, variance, histogram),
        )
    except (OverflowError, ZeroDivisionError):
        # Overflowing moments or an underflowing bin width: only mean and stddev have a scale.
        scale, unit = unit_scaled(values)
        p = classify_distribution(unit, cfg)
        return replace(p, mean=p.mean * scale, stddev=p.stddev * scale, min=values[0], max=values[-1])


def _hint(values, mean, variance, histogram) -> DistClass:
    """Deterministic shape hint. Rules in priority order: degenerate mass in
    one spot; strong skew; two histogram modes; dominant bin; near-flat."""
    n = len(values)
    if n == 1 or values[0] == values[-1]:
        return DistClass.CONCENTRATED
    denom = variance ** 1.5
    if denom > 0:
        m3 = math.fsum((v - mean) ** 3 for v in values) / n
        skew = m3 / denom
        if skew >= 1.0:
            return DistClass.SKEWED_RIGHT
        if skew <= -1.0:
            return DistClass.SKEWED_LEFT
    if _local_maxima(histogram) >= 2:
        return DistClass.BIMODAL
    top = max(histogram)
    if top >= 0.5:
        return DistClass.CONCENTRATED
    if top - min(histogram) <= 0.5 / len(histogram):
        return DistClass.UNIFORM
    return DistClass.CONCENTRATED


def _local_maxima(histogram) -> int:
    h = (-1.0, *histogram, -1.0)
    return sum(h[i - 1] < h[i] > h[i + 1] and h[i] > 0 for i in range(1, len(h) - 1))


def distribution(
    graph: TemporalGraph,
    cfg: Config,
    members,
    t: int,
    attr: str,
) -> DistributionPattern:
    """Distribution of an attribute over a set of elements at one time point.

    Members that are every node or every edge, in ``all_refs`` order (the
    NODES and EDGES groups), take their values from
    ``TemporalGraph.sorted_at`` in one read; others read each column."""
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"distribution needs a numeric attribute, '{attr}' is not")
    graph.check_time(t)
    kind = _whole_kind(graph, members)
    if kind is not None:
        values = graph.sorted_at(attr, t, cfg, kind)[0]
    else:
        values = [v for v in (graph.column(m, attr, cfg)[t] for m in members) if v is not None]
    if not values:
        raise TgqError(
            EMPTY_SCOPE, f"no member has a value of '{attr}' at t={graph.label_of(t)}"
        )
    return classify_distribution(values, cfg)


def _whole_kind(graph: TemporalGraph, members) -> Optional[ElemKind]:
    """The kind whose every element ``members`` lists, in ``all_refs``
    order: a node or an edge; else None."""
    kind = members[0].kind if members else None
    table = {ElemKind.NODE: graph.nodes, ElemKind.EDGE: graph.edges}.get(kind)
    if table is None or len(members) != len(table):
        return None
    return kind if list(members) == graph.all_refs((kind,)) else None


def aspectual(
    graph: TemporalGraph,
    cfg: Config,
    members,
    interval: TimeInterval,
    attr: str,
    axis: AspectAxis,
) -> AspectualPattern:
    if axis == AspectAxis.TRENDS_OVER_GRAPH:
        counts: dict = {}
        for m in members:
            p = trend(graph, cfg, m, interval, attr)
            counts[p.cls.value] = counts.get(p.cls.value, 0) + 1
        return AspectualPattern(
            axis=axis, frequencies=tuple(sorted(counts.items()))
        )
    mean_series, std_series = [], []
    for t in interval.indices():
        try:
            d = distribution(graph, cfg, members, t, attr)
        except TgqError as err:
            if err.code == EMPTY_SCOPE:
                continue
            raise
        mean_series.append((t, d.mean))
        std_series.append((t, d.stddev))
    if not mean_series:
        raise TgqError(EMPTY_SCOPE, "no time point in the interval has any defined value")
    return AspectualPattern(
        axis=axis,
        mean_trend=classify_trend(mean_series, cfg),
        stddev_trend=classify_trend(std_series, cfg),
    )


# ---------------------------------------------------------------------------
# Similarity ("approximates")
# ---------------------------------------------------------------------------


def match_score(a, b, cfg: Config):
    """(score, opposite) of two behaviours: the score is in [0, 1], 1 where
    they match exactly, and the flag is set for opposites (e.g. rising vs
    falling).

    A literal is the target and may stand on either side. It scores as the
    pattern it pins, a distribution literal by its class hint alone.
    Behaviours of different kinds are KIND_MISMATCH.
    """
    if _is_literal(b) and not _is_literal(a):
        a, b = b, a
    if isinstance(a, DistLiteral) and isinstance(b, (DistLiteral, DistributionPattern)):
        return (1.0 if a.class_hint == b.class_hint else 0.0), False
    a, b = as_pattern(a), as_pattern(b)
    if type(a) is type(b) and hasattr(a, "similarity"):
        return a.similarity(b, cfg)
    raise TgqError(KIND_MISMATCH, f"cannot compare {type(a).__name__} with {type(b).__name__}")


def _is_literal(p) -> bool:
    return isinstance(p, DistLiteral) or hasattr(p, "pinned")


def as_pattern(p):
    """The pattern a literal pins; anything else as it is."""
    return p.pinned() if hasattr(p, "pinned") else p


def histogram_similarity(h1, h2) -> float:
    """1 - L1/2 over bin shares. Degenerate single-bin histograms denote a
    point mass: alike if both degenerate, else padded with empty bins."""
    return 1.0 - 0.5 * math.fsum(abs(x - y) for x, y in zip_longest(h1, h2, fillvalue=0.0))


def _location_similarity(p1: DistributionPattern, p2: DistributionPattern) -> float:
    scale = max(p1.max, p2.max) - min(p1.min, p2.min)
    if scale <= 0:
        return 1.0 if p1.mean == p2.mean else 0.0
    mean_prox = 1.0 - min(1.0, abs(p1.mean - p2.mean) / scale)
    std_prox = 1.0 - min(1.0, abs(p1.stddev - p2.stddev) / scale)
    return (mean_prox + std_prox) / 2.0


def _frequency_similarity(f1: dict, f2: dict) -> float:
    """Total-variation similarity of two frequency tables."""
    n1 = sum(f1.values())
    n2 = sum(f2.values())
    if n1 == 0 or n2 == 0:
        return 1.0 if n1 == n2 else 0.0
    keys = set(f1) | set(f2)
    tv = 0.5 * math.fsum(abs(f1.get(k, 0) / n1 - f2.get(k, 0) / n2) for k in keys)
    return 1.0 - tv


def _ls_slope(xs, ys) -> float:
    """Least-squares slope; not finite where a sum or a product overflows."""
    n = len(xs)
    mx = math.fsum(xs) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    try:
        my = math.fsum(ys) / n
        # a product can overflow to ±inf without raising, and fsum raises
        # ValueError when it meets both
        sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    except (OverflowError, ValueError):
        return math.inf
    return sxy / sxx
