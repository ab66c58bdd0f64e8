"""Config file parsing and validation."""

import pytest

from tgq.config import Config, parse_config_text
from tgq.errors import TgqError, VALIDATION_ERROR


def test_defaults():
    cfg = Config()
    assert cfg.similarity_threshold == 0.9
    assert cfg.histogram_bins == 8
    assert cfg.carries_forward("anything")


def test_parse_values():
    cfg = parse_config_text(
        "# comment\n"
        "similarity_threshold = 0.75\n"
        "histogram_bins=4\n"
        "carry_forward_default=false\n"
        "carry_forward.w=true\n"
        "output_format=table\n"
    )
    assert cfg.similarity_threshold == 0.75
    assert cfg.histogram_bins == 4
    assert cfg.carries_forward("w")
    assert not cfg.carries_forward("u")
    assert cfg.output_format == "table"


def test_unknown_key_rejected():
    with pytest.raises(TgqError) as e:
        parse_config_text("mystery=1\n")
    assert e.value.code == VALIDATION_ERROR


def test_bad_number_rejected():
    with pytest.raises(TgqError):
        parse_config_text("histogram_bins=lots\n")


def test_range_checks():
    with pytest.raises(TgqError):
        Config(similarity_threshold=1.5)
    with pytest.raises(TgqError):
        Config(histogram_bins=1)
    with pytest.raises(TgqError):
        Config(dist_weight_histogram=0.9, dist_weight_location=0.3)


def test_replace_keeps_validation():
    cfg = Config().replace(similarity_threshold=0.5)
    assert cfg.similarity_threshold == 0.5
    with pytest.raises(TgqError):
        cfg.replace(similarity_threshold=-1.0)


@pytest.mark.parametrize("key", [
    "similarity_threshold", "slope_epsilon", "correlation_threshold",
    "dist_weight_histogram", "dist_weight_location",
])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(key, text):
    for build in (lambda: Config(**{key: float(text)}),
                  lambda: parse_config_text(f"{key}={text}\n")):
        with pytest.raises(TgqError) as e:
            build()
        assert e.value.code == VALIDATION_ERROR
        assert e.value.message == f"{key} must be a finite number"


@pytest.mark.parametrize("text, message", [
    ("slope_epsilon=-0.1", "slope_epsilon must be >= 0"),
    ("search_max_candidates=0", "search_max_candidates must be >= 1"),
    ("correlation_threshold=1.5", "correlation_threshold must be in [0,1]"),
    ("dist_weight_histogram=-0.5\ndist_weight_location=1.5",
     "distribution similarity weights must be >= 0"),
    ("output_format=xml", "output_format must be 'json' or 'table'"),
    ("# comment\nhistogram_bins 4", "config line 2: expected key=value"),
    ("slope_epsilon=steep", "config line 1: slope_epsilon expects a number"),
    ("carry_forward.w=maybe", "config line 1: carry_forward.w expects true/false"),
])
def test_each_rejection_names_its_rule(text, message):
    with pytest.raises(TgqError) as e:
        parse_config_text(text + "\n")
    assert (e.value.code, e.value.message) == (VALIDATION_ERROR, message)
