"""Mutual-behaviour discovery: correlation between attribute series.

Three shapes of pairing are supported over a shared reference scope:
a cross-section over elements at one time point, two per-time series for
one element, and the pooled per-(element, time) cloud. A graph-side series
can also be matched against an externally ingested event series, or against
the same attribute over a different part of the graph / different window
(paired by offset within equal-length intervals).

A non-negative lag shifts the second series earlier, so ``x`` against
``shift(x, k)`` correlates perfectly at lag k.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .config import Config
from .errors import (
    INSUFFICIENT_SAMPLES,
    LENGTH_MISMATCH,
    TYPE_ERROR,
    TgqError,
    UNKNOWN_SERIES,
    VALIDATION_ERROR,
    VARIANCE_ZERO,
)
from .graph import AttrKind, GraphElementRef, TemporalGraph, TimeInterval, mean, unit_scaled
from .search import GroupCandidate


@dataclass(frozen=True)
class CorrelationReport:
    coefficient: float
    n: int
    lag: int
    classification: str  # POSITIVE | NEGATIVE | NONE

    def to_dict(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "n": self.n,
            "lag": self.lag,
            "classification": self.classification,
        }


def pearson(pairs, lag: int, cfg: Config) -> CorrelationReport:
    n = len(pairs)
    if n < 3:
        raise TgqError(
            INSUFFICIENT_SAMPLES, f"need at least 3 paired samples, got {n}"
        )
    xs = [float(a) for a, _ in pairs]
    ys = [float(b) for _, b in pairs]
    try:
        r = _r(xs, ys)
    except OverflowError:
        # Finite extremes overflow the sums; r does not depend on scale.
        r = _r(unit_scaled(xs)[1], unit_scaled(ys)[1])
    r = max(-1.0, min(1.0, r))
    if r >= cfg.correlation_threshold:
        cls = "POSITIVE"
    elif r <= -cfg.correlation_threshold:
        cls = "NEGATIVE"
    else:
        cls = "NONE"
    return CorrelationReport(r, n, lag, cls)


def _r(xs, ys) -> float:
    """Pearson's r of two equal-length series."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise TgqError(VARIANCE_ZERO, "a series has zero variance")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    denom = math.sqrt(sxx * syy)
    if not 0.0 < denom < math.inf:  # the product under- or overflowed
        denom = math.sqrt(sxx) * math.sqrt(syy)
    return sxy / denom


def _check_numeric(graph: TemporalGraph, attr: str) -> None:
    if graph.attr_kind(attr) != AttrKind.NUMERIC:
        raise TgqError(TYPE_ERROR, f"correlation needs a numeric attribute, '{attr}' is not")


def element_series(
    graph: TemporalGraph, cfg: Config, ref: GraphElementRef, attr: str,
    interval: TimeInterval,
) -> dict:
    """t -> value over the interval, at the points where it is defined."""
    _check_numeric(graph, attr)
    graph.check_time(interval.start, interval.end)
    column = graph.column(ref, attr, cfg)
    return {t: column[t] for t in interval.indices() if column[t] is not None}


AGGREGATIONS = {
    "mean": mean,
    "median": statistics.median,
    "min": min,
    "max": max,
    "sum": sum,
}


def group_series(
    graph: TemporalGraph, cfg: Config, group: GroupCandidate, attr: str,
    interval: TimeInterval, agg: str = "mean",
) -> dict:
    """t -> aggregate over the members with defined values."""
    _check_numeric(graph, attr)
    if agg not in AGGREGATIONS:
        raise TgqError(VALIDATION_ERROR, f"unknown aggregation '{agg}'")
    fold = AGGREGATIONS[agg]
    graph.check_time(interval.start, interval.end)
    columns = [graph.column(m, attr, cfg) for m in group.members]
    out = {}
    for t in interval.indices():
        values = [column[t] for column in columns if column[t] is not None]
        if values:
            out[t] = float(fold(values))
    return out


def _series_of(graph, cfg, target, attr, interval, agg: str = "mean") -> dict:
    if isinstance(target, GroupCandidate):
        return group_series(graph, cfg, target, attr, interval, agg)
    return element_series(graph, cfg, target, attr, interval)


def _lag_pairs(a: dict, b: dict, lag: int) -> list:
    """Pair a[t] with b[t + lag], keeping points defined on both sides."""
    return [(a[t], b[t + lag]) for t in sorted(a) if t + lag in b]


def correlate_attributes(
    graph: TemporalGraph,
    cfg: Config,
    attr_a: str,
    attr_b: str,
    time_key,
    ref_key,
    lag: int = 0,
    per_element: bool = False,
):
    """Correlation between two attributes over one reference scope.

    group + time point -> cross-section over the members at that point
    element + interval -> the two per-time series of one element
    group + interval   -> pooled (element, time) pairs, or with
                          ``per_element`` the (name, report) of each member
                          and the (name, error) of each member with no
                          coefficient; its first error if no member has one
    """
    _check_numeric(graph, attr_a)
    _check_numeric(graph, attr_b)
    if not isinstance(time_key, TimeInterval):
        if lag:
            raise TgqError(VALIDATION_ERROR, "lag does not apply to a cross-section")
        graph.check_time(time_key)
        pairs = []
        for m in ref_key.members:
            a = graph.column(m, attr_a, cfg)[time_key]
            b = graph.column(m, attr_b, cfg)[time_key]
            if a is not None and b is not None:
                pairs.append((a, b))
        return pearson(pairs, 0, cfg)
    if not isinstance(ref_key, GroupCandidate):
        a = element_series(graph, cfg, ref_key, attr_a, time_key)
        b = element_series(graph, cfg, ref_key, attr_b, time_key)
        return pearson(_lag_pairs(a, b, lag), lag, cfg)
    if per_element:
        reports, skipped = [], []
        for m in ref_key.members:
            try:
                reports.append((str(m), correlate_attributes(
                    graph, cfg, attr_a, attr_b, time_key, m, lag)))
            except TgqError as err:
                if err.code not in (INSUFFICIENT_SAMPLES, VARIANCE_ZERO):
                    raise
                skipped.append((str(m), err))
        if skipped and not reports:
            raise skipped[0][1]
        return reports, skipped
    pairs = []
    for m in ref_key.members:
        a = element_series(graph, cfg, m, attr_a, time_key)
        b = element_series(graph, cfg, m, attr_b, time_key)
        pairs.extend(_lag_pairs(a, b, lag))
    return pearson(pairs, lag, cfg)


def correlate_with_external(
    graph: TemporalGraph,
    cfg: Config,
    target,
    attr: str,
    series_name: str,
    interval: TimeInterval,
    lag: int = 0,
    agg: str = "mean",
) -> CorrelationReport:
    if series_name not in graph.external_series:
        raise TgqError(UNKNOWN_SERIES, f"no external series named '{series_name}'")
    graph_side = _series_of(graph, cfg, target, attr, interval, agg)
    external = graph.external_series[series_name]
    return pearson(_lag_pairs(graph_side, external, lag), lag, cfg)


def correlate_homogeneous(
    graph: TemporalGraph,
    cfg: Config,
    attr: str,
    target_a,
    interval_a: TimeInterval,
    target_b,
    interval_b: TimeInterval,
    agg_a: str = "mean",
    agg_b: str = "mean",
) -> CorrelationReport:
    """Same attribute over two parts of the graph and/or two windows,
    paired by offset within equal-length intervals."""
    if len(interval_a) != len(interval_b):
        raise TgqError(
            LENGTH_MISMATCH,
            f"intervals differ in length ({len(interval_a)} vs {len(interval_b)})",
        )
    a = _series_of(graph, cfg, target_a, attr, interval_a, agg_a)
    b = _series_of(graph, cfg, target_b, attr, interval_b, agg_b)
    pairs = []
    for offset in range(len(interval_a)):
        ta = interval_a.start + offset
        tb = interval_b.start + offset
        if ta in a and tb in b:
            pairs.append((a[ta], b[tb]))
    return pearson(pairs, 0, cfg)
