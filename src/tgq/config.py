"""Engine configuration: thresholds, bins, search caps, value semantics."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import TgqError, VALIDATION_ERROR, read_utf8

_BOOL_TOKENS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass(frozen=True)
class Config:
    similarity_threshold: float = 0.9
    slope_epsilon: float = 0.05
    histogram_bins: int = 8
    search_max_candidates: int = 10_000
    correlation_threshold: float = 0.5
    dist_weight_histogram: float = 0.7
    dist_weight_location: float = 0.3
    carry_forward_default: bool = True
    # per-attribute overrides of the carry-forward rule
    carry_forward: dict = field(default_factory=dict)
    output_format: str = "json"

    def __post_init__(self):
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise TgqError(VALIDATION_ERROR, f"{key} must be a finite number")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise TgqError(VALIDATION_ERROR, "similarity_threshold must be in [0,1]")
        if self.slope_epsilon < 0.0:
            raise TgqError(VALIDATION_ERROR, "slope_epsilon must be >= 0")
        if self.histogram_bins < 2:
            raise TgqError(VALIDATION_ERROR, "histogram_bins must be >= 2")
        if self.search_max_candidates < 1:
            raise TgqError(VALIDATION_ERROR, "search_max_candidates must be >= 1")
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise TgqError(VALIDATION_ERROR, "correlation_threshold must be in [0,1]")
        if self.dist_weight_histogram < 0 or self.dist_weight_location < 0:
            raise TgqError(VALIDATION_ERROR, "distribution similarity weights must be >= 0")
        if abs(self.dist_weight_histogram + self.dist_weight_location - 1.0) > 1e-9:
            raise TgqError(VALIDATION_ERROR, "distribution similarity weights must sum to 1")
        if self.output_format not in ("json", "table"):
            raise TgqError(VALIDATION_ERROR, "output_format must be 'json' or 'table'")

    def carries_forward(self, attr: str) -> bool:
        return self.carry_forward.get(attr, self.carry_forward_default)

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs)


_FLOAT_KEYS = (  # a tuple, so the first non-finite field is named reproducibly
    "similarity_threshold",
    "slope_epsilon",
    "correlation_threshold",
    "dist_weight_histogram",
    "dist_weight_location",
)
_INT_KEYS = {"histogram_bins", "search_max_candidates"}
_BOOL_KEYS = {"carry_forward_default"}
_STR_KEYS = {"output_format"}


def parse_config_text(text: str) -> Config:
    """Parse a key=value config file. Unknown keys are rejected.

    Per-attribute carry-forward overrides use dotted keys, e.g.
    ``carry_forward.weight=false``.
    """
    values: dict = {}
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TgqError(VALIDATION_ERROR, f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("carry_forward."):
            attr = key[len("carry_forward."):]
            overrides[attr] = _parse_bool(value, key, lineno)
        elif key in _FLOAT_KEYS:
            values[key] = _parse_float(value, key, lineno)
        elif key in _INT_KEYS:
            values[key] = _parse_int(value, key, lineno)
        elif key in _BOOL_KEYS:
            values[key] = _parse_bool(value, key, lineno)
        elif key in _STR_KEYS:
            values[key] = value
        else:
            raise TgqError(VALIDATION_ERROR, f"config line {lineno}: unknown key '{key}'")
    if overrides:
        values["carry_forward"] = overrides
    return Config(**values)


def load_config(path: str) -> Config:
    return parse_config_text(read_utf8(path, VALIDATION_ERROR, "config line"))


def _parse_float(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise TgqError(VALIDATION_ERROR, f"config line {lineno}: {key} expects a number") from None


def _parse_int(value: str, key: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise TgqError(VALIDATION_ERROR, f"config line {lineno}: {key} expects an integer") from None


def _parse_bool(value: str, key: str, lineno: int) -> bool:
    token = value.lower()
    if token not in _BOOL_TOKENS:
        raise TgqError(VALIDATION_ERROR, f"config line {lineno}: {key} expects true/false")
    return _BOOL_TOKENS[token]
