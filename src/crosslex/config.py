"""The run configuration: each value's section, key, type, default and valid
range, declared once; its one check, and the one-pass reader of its file."""

from __future__ import annotations

import dataclasses
import math
import re

from .errors import ConfigurationError, FormatError, text_lines

VARIANTS = ("literal", "bounded")  # the similarity.variant names
_HEADER = re.compile(r"\[(.+)\]")  # configparser's: "[sgns] ; note" is [sgns]


def _field(default, valid):
    return dataclasses.field(default=default, metadata={"range": valid})


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


@dataclasses.dataclass(frozen=True)
class ClassifyConfig:
    epochs: int = _field(300, ">= 1")
    learning_rate: float = _field(0.5, "> 0")
    l2: float = _field(1e-4, ">= 0")
    threshold: float = _field(0.5, "(0, 1)")
    split_seed: int = _field(0, ">= 0")


def _fields(cls):
    return {f.name: (type(f.default), f.default, f.metadata["range"])
            for f in dataclasses.fields(cls)}


# section -> key -> (type, default, valid range). A range is ">= a",
# "> a", an interval open at its low end, "(a, b)" or "(a, b]", or a tuple of
# the valid values.
_SCHEMA = {
    "sgns": _fields(SgnsConfig),
    "alignment": {
        "lambda": (float, 1e-3, ">= 0"),
        "kept_ratio": (float, 0.8, "(0, 1]"),
        "train_fraction": (float, 0.8, "(0, 1)"),
        "split_seed": (int, 1, ">= 0"),
    },
    "mining": {
        "top_n": (int, 100, ">= 1"),
        "min_support": (float, 0.01, "(0, 1]"),
        "min_confidence": (float, 0.1, "(0, 1]"),
    },
    "similarity": {
        "variant": (str, VARIANTS[0], VARIANTS),
        "top_m": (int, 3, ">= 1"),
    },
    "classify": _fields(ClassifyConfig),
}


def default(section, key):
    """The default value of ``[section] key``, for library signatures."""
    return _SCHEMA[section][key][1]


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
    if not ((kind is not float or math.isfinite(value)) and _within(value, valid)):
        raise ConfigurationError(
            f"[{section}] {key} must be {_describe(kind, valid)}, got {value!r}")


def _set(cfg, seen, section, key, raw):
    """Parse ``raw`` into ``cfg[section][key]``, the key matched in lowercase;
    a (section, key) pair already ``seen`` is repeated."""
    key = key.lower()
    if (section, key) in seen:
        raise ConfigurationError(f"repeated configuration key [{section}] {key}")
    seen.add((section, key))
    cfg[section][key] = _parse_value(section, key, raw)


def _parse_value(section, key, raw):
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        raise ConfigurationError(f"unknown configuration key [{section}] {key}")
    kind = _SCHEMA[section][key][0]
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"[{section}] {key}: expected {kind.__name__}, got {raw!r}") from None
    check(section, key, value)
    return value


def load_config(path=None, overrides=()):
    """Section -> key -> value: the defaults, overlaid by the INI-style file
    at ``path``, read one line at a time, then by the ``(section, key, raw
    value)`` overrides. Unknown or repeated sections or keys, a line that is
    not a comment, header or key line, and a value outside its range are
    errors; the first in the file names the file and line."""
    cfg = {section: {key: default for key, (_, default, _) in keys.items()}
           for section, keys in _SCHEMA.items()}
    section, seen = None, set()
    try:
        for lineno, line in (() if path is None else text_lines(path)):
            text = line.strip()
            header = _HEADER.match(text)
            if header:
                section = header.group(1)
                if section not in _SCHEMA or section in seen:
                    raise ConfigurationError(
                        f"{'repeated' if section in seen else 'unknown'}"
                        f" configuration section [{section}]")
                seen.add(section)
            elif text and text[0] not in "#;":
                key, *raw = re.split("[=:]", text, maxsplit=1)
                if section is None or not (raw and key.strip()):
                    raise ConfigurationError(
                        f"expected [section], or key = value under one, got {text!r}")
                _set(cfg, seen, section, key.strip(), raw[0].strip())
    except FormatError as err:
        raise ConfigurationError(f"cannot parse config file: {err}") from err
    except ConfigurationError as err:
        err.path, err.line_number = path, lineno
        raise
    for override in overrides:
        _set(cfg, set(), *override)
    return cfg
