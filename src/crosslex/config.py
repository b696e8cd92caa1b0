"""The run configuration: each value's section, key, type, default and valid
range, declared once; its one check, and the loader that runs it."""

from __future__ import annotations

import configparser
import dataclasses
import math

from .errors import ConfigurationError, FormatError, text_lines

VARIANTS = ("literal", "bounded")  # the similarity.variant names


def _field(default, valid):
    return dataclasses.field(default=default, metadata={"range": valid})


@dataclasses.dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    strip_urls: bool = True
    strip_mentions: bool = True
    keep_hashtag_body: bool = True


@dataclasses.dataclass(frozen=True)
class SgnsConfig:
    dim: int = _field(100, ">= 2")
    window: int = _field(5, ">= 1")
    negatives: int = _field(5, ">= 1")
    epochs: int = _field(5, ">= 1")
    learning_rate: float = _field(0.025, "> 0")
    min_count: int = _field(5, ">= 1")
    subsample_t: float = _field(1e-4, ">= 0")
    rng_seed: int = _field(1, ">= 0")

    def validate(self):
        for key, value in vars(self).items():
            check("sgns", key, value)


@dataclasses.dataclass(frozen=True)
class ClassifyConfig:
    epochs: int = _field(300, ">= 1")
    learning_rate: float = _field(0.5, "> 0")
    l2: float = _field(1e-4, ">= 0")
    threshold: float = _field(0.5, "(0, 1)")

    def validate(self):
        for key, value in vars(self).items():
            check("classify", key, value)


def _fields(cls):
    return {f.name: (type(f.default), f.default, f.metadata.get("range"))
            for f in dataclasses.fields(cls)}


# section -> key -> (type, default, valid range or None). A range is ">= a",
# "> a", an interval open at its low end, "(a, b)" or "(a, b]", or a tuple of
# the valid values.
_SCHEMA = {
    "tokenizer": _fields(TokenizerConfig),
    "sgns": _fields(SgnsConfig),
    "alignment": {
        "pivot": (str, "en", None),
        "lambda": (float, 1e-3, ">= 0"),
        "kept_ratio": (float, 0.8, "(0, 1]"),
        "normalize": (bool, True, None),
        "train_fraction": (float, 0.8, "(0, 1)"),
        "split_seed": (int, 1, ">= 0"),
    },
    "mining": {
        "top_n": (int, 100, ">= 1"),
        "min_support": (float, 0.01, "(0, 1]"),
        "min_confidence": (float, 0.1, "(0, 1]"),
        "use_stopwords": (bool, True, None),
    },
    "similarity": {
        "variant": (str, VARIANTS[0], VARIANTS),
        "top_m": (int, 3, ">= 1"),
    },
    "classify": {**_fields(ClassifyConfig), "split_seed": (int, 0, ">= 0")},
}


def _describe(kind, valid):
    """A valid range as the error messages and the README state it."""
    if isinstance(valid, tuple):
        return "one of " + ", ".join(valid)
    if valid[0] == "(":
        return "in " + valid
    return ("finite and " if kind is float else "") + valid


def _within(value, valid):
    if isinstance(valid, tuple):
        return value in valid
    if valid[0] == "(":  # "(a, b)" or "(a, b]"
        lo, hi = (float(bound) for bound in valid[1:-1].split(","))
        return lo < value and (value < hi if valid[-1] == ")" else value <= hi)
    op, bound = valid.split()
    return value > float(bound) if op == ">" else value >= float(bound)


def check(section, key, value):
    """Raise ConfigurationError unless ``value`` lies in the valid range of
    ``[section] key``; a float value must also be finite."""
    kind, _, valid = _SCHEMA[section][key]
    if valid is not None and not (
            (kind is not float or math.isfinite(value)) and _within(value, valid)):
        raise ConfigurationError(
            f"[{section}] {key} must be {_describe(kind, valid)}, got {value!r}")


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_value(section, key, raw):
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        raise ConfigurationError(f"unknown configuration key [{section}] {key}")
    kind = _SCHEMA[section][key][0]
    try:
        value = _BOOL_VALUES[str(raw).strip().lower()] if kind is bool else kind(raw)
    except (KeyError, TypeError, ValueError):
        expected = "a boolean" if kind is bool else kind.__name__
        raise ConfigurationError(
            f"[{section}] {key}: expected {expected}, got {raw!r}") from None
    check(section, key, value)
    return value


def load_config(path=None, overrides=()):
    """Section -> key -> value: the defaults, overlaid by the INI-style file
    at ``path``, then by the ``(section, key, raw value)`` overrides.
    Unknown sections or keys, and values outside their range, are errors."""
    cfg = {section: {key: default for key, (_, default, _) in keys.items()}
           for section, keys in _SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            parser.read_file((line for _, line in text_lines(path)), source=path)
        except (configparser.Error, FormatError) as err:
            raise ConfigurationError(f"cannot parse config file: {err}") from err
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigurationError(f"unknown configuration section [{section}]")
            for key, raw in parser.items(section):
                cfg[section][key] = _parse_value(section, key, raw)
    for section, key, raw in overrides:
        cfg[section][key] = _parse_value(section, key, raw)
    return cfg
