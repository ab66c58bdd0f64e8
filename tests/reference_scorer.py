"""The reference scorers for ``tests/test_scorer.py``.

These are the four entry points of the approximate-match relation as they
were before ``patterns.match_score`` became the only scorer: a literal had
a hand-written branch per kind, attribute and structural behaviours had
scorers of their own, and ``pattern_pair_detail`` picked between them. They
are kept as written, so that the one scorer can be compared with them pair
for pair. They share the unchanged helpers of ``tgq.patterns`` and
``tgq.structure``; ``_trend_pair``, folded into ``TrendPattern.similarity``,
is copied too.
"""

from tgq.config import Config
from tgq.errors import KIND_MISMATCH, TgqError
from tgq.patterns import (
    _OPPOSITE_TRENDS,
    AspectAxis,
    AspectFreqLiteral,
    AspectTrendLiteral,
    AspectualPattern,
    DistLiteral,
    DistributionPattern,
    TrendLiteral,
    TrendPattern,
    _frequency_similarity,
    _location_similarity,
    histogram_similarity,
)
from tgq.structure import (
    _PRESENCE_OPPOSITES,
    ConfigLiteral,
    ConfigTrendLiteral,
    PresenceLiteral,
    StructScopeKind,
    StructuralPattern,
    _metric_proximity,
    _trend_table_detail,
)


def _trend_pair(c1, c2):
    if c1 == c2:
        return 1.0, False
    return 0.0, (c1, c2) in _OPPOSITE_TRENDS


def similarity_detail(p1, p2, cfg: Config):
    """(score, opposite flag) for two patterns of the same kind: the score is
    in [0, 1], 1 where the observed behaviours match exactly; the flag is set
    for opposites (e.g. rising vs falling)."""
    if isinstance(p1, TrendPattern) and isinstance(p2, TrendPattern):
        return _trend_pair(p1.cls, p2.cls)
    if isinstance(p1, DistributionPattern) and isinstance(p2, DistributionPattern):
        hist = histogram_similarity(p1.histogram, p2.histogram)
        loc = _location_similarity(p1, p2)
        return cfg.dist_weight_histogram * hist + cfg.dist_weight_location * loc, False
    if isinstance(p1, AspectualPattern) and isinstance(p2, AspectualPattern):
        if p1.axis != p2.axis:
            raise TgqError(KIND_MISMATCH, "aspectual patterns have different axes")
        if p1.axis == AspectAxis.TRENDS_OVER_GRAPH:
            return _frequency_similarity(p1.frequency_dict(), p2.frequency_dict()), False
        s1, o1 = _trend_pair(p1.mean_trend.cls, p2.mean_trend.cls)
        s2, o2 = _trend_pair(p1.stddev_trend.cls, p2.stddev_trend.cls)
        return (s1 + s2) / 2.0, o1 and o2
    raise TgqError(
        KIND_MISMATCH,
        f"cannot compare {type(p1).__name__} with {type(p2).__name__}",
    )


_LITERAL_KINDS = (TrendLiteral, DistLiteral, AspectFreqLiteral, AspectTrendLiteral)


def match_score(target, candidate, cfg: Config):
    """(score, opposite) of a candidate pattern against a search target.

    The target may be a full pattern or a literal that pins only the class
    (trend class, distribution hint, aspectual table); a literal may appear
    on either side.
    """
    if isinstance(candidate, _LITERAL_KINDS) and not isinstance(target, _LITERAL_KINDS):
        target, candidate = candidate, target
    if isinstance(target, TrendLiteral):
        if isinstance(candidate, TrendLiteral):
            return _trend_pair(target.cls, candidate.cls)
        if not isinstance(candidate, TrendPattern):
            raise TgqError(KIND_MISMATCH, "trend literal vs non-trend candidate")
        return _trend_pair(target.cls, candidate.cls)
    if isinstance(target, DistLiteral):
        if not isinstance(candidate, DistributionPattern):
            raise TgqError(KIND_MISMATCH, "distribution literal vs non-distribution candidate")
        return (1.0 if target.class_hint == candidate.class_hint else 0.0), False
    if isinstance(target, AspectFreqLiteral):
        if not (isinstance(candidate, AspectualPattern)
                and candidate.axis == AspectAxis.TRENDS_OVER_GRAPH):
            raise TgqError(KIND_MISMATCH, "aspectual frequency literal vs other candidate")
        return _frequency_similarity(dict(target.frequencies), candidate.frequency_dict()), False
    if isinstance(target, AspectTrendLiteral):
        if not (isinstance(candidate, AspectualPattern)
                and candidate.axis == AspectAxis.DISTRIBUTION_OVER_TIME):
            raise TgqError(KIND_MISMATCH, "aspectual trend literal vs other candidate")
        s1, o1 = _trend_pair(target.mean_cls, candidate.mean_trend.cls)
        s2, o2 = _trend_pair(target.stddev_cls, candidate.stddev_trend.cls)
        return (s1 + s2) / 2.0, o1 and o2
    return similarity_detail(target, candidate, cfg)


def struct_match_score(target, candidate, cfg: Config):
    """(score, opposite) of a structural candidate against a target pattern
    or literal. Presence classes match exactly; configuration vectors match
    by relative metric proximity; trends per metric-class agreement. A
    literal may appear on either side."""
    literals = (PresenceLiteral, ConfigLiteral, ConfigTrendLiteral)
    if isinstance(candidate, literals) and not isinstance(target, literals):
        target, candidate = candidate, target
    if isinstance(target, PresenceLiteral):
        target = StructuralPattern(
            StructScopeKind.PAIR_OVER_TIME, presence_class=target.cls
        )
    if isinstance(target, ConfigLiteral):
        if not _is_struct(candidate, StructScopeKind.SNAPSHOT_CONFIG):
            raise TgqError(KIND_MISMATCH, "configuration literal vs other candidate")
        return _metric_proximity(dict(target.metrics), candidate.metrics_dict()), False
    if isinstance(target, ConfigTrendLiteral):
        if not _is_struct(candidate, StructScopeKind.CONFIG_OVER_TIME):
            raise TgqError(KIND_MISMATCH, "configuration-trend literal vs other candidate")
        return _trend_table_detail(dict(target.trends), candidate.trends_dict())
    if not isinstance(target, StructuralPattern) or not isinstance(candidate, StructuralPattern):
        raise TgqError(
            KIND_MISMATCH,
            f"cannot compare {type(target).__name__} with {type(candidate).__name__}",
        )
    if target.scope != candidate.scope:
        raise TgqError(KIND_MISMATCH, "structural patterns describe different behaviours")
    if target.scope == StructScopeKind.PAIR_OVER_TIME:
        same = target.presence_class == candidate.presence_class
        return (1.0 if same else 0.0), _presence_opposite(
            target.presence_class, candidate.presence_class
        )
    if target.scope == StructScopeKind.SNAPSHOT_CONFIG:
        return _metric_proximity(target.metrics_dict(), candidate.metrics_dict()), False
    if target.scope == StructScopeKind.PAIRS_AGGREGATE:
        return _frequency_similarity(
            dict(target.class_frequencies), dict(candidate.class_frequencies)
        ), False
    return _trend_table_detail(target.trends_dict(), candidate.trends_dict())


def _presence_opposite(c1, c2) -> bool:
    return (c1, c2) in _PRESENCE_OPPOSITES


def _is_struct(candidate, kind) -> bool:
    return isinstance(candidate, StructuralPattern) and candidate.scope == kind


ATTR_PATTERNS = (TrendPattern, DistributionPattern, AspectualPattern,
                 TrendLiteral, DistLiteral, AspectFreqLiteral, AspectTrendLiteral)


def pattern_pair_detail(p1, p2, cfg: Config):
    """(score, opposite) for two resolved patterns, attribute or structural."""
    if isinstance(p1, ATTR_PATTERNS) and isinstance(p2, ATTR_PATTERNS):
        return match_score(p1, p2, cfg)
    return struct_match_score(p1, p2, cfg)
