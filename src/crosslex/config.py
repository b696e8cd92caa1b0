"""The run configuration: each value's section, key, type, default and valid
range, declared once; its one check, and the loader that runs it."""

from __future__ import annotations

import configparser
import dataclasses
import math
import re

from .errors import ConfigurationError, FormatError, text_lines

VARIANTS = ("literal", "bounded")  # the similarity.variant names


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


def _lines_of(numbered):
    """Section -> the line of its header, and (section, key) -> the line of
    the key, in a config file's numbered lines. A key is the text before the
    first ``=`` or ``:``, stripped and lowercased, as configparser reads it;
    a comment line's starts with ``#`` or ``;``, which no key does."""
    lines, section = {}, None
    for lineno, line in numbered:
        text = line.strip()
        header = configparser.ConfigParser.SECTCRE.match(text)
        if header:
            section = header.group("header")
            lines.setdefault(section, lineno)
        else:
            key = re.split("[=:]", text, maxsplit=1)[0].strip().lower()
            lines.setdefault((section, key), lineno)
    return lines


def load_config(path=None, overrides=()):
    """Section -> key -> value: the defaults, overlaid by the INI-style file
    at ``path``, then by the ``(section, key, raw value)`` overrides.
    Unknown sections or keys, and values outside their range, are errors;
    one in the file names the file and line."""
    cfg = {section: {key: default for key, (_, default, _) in keys.items()}
           for section, keys in _SCHEMA.items()}
    if path is not None:
        # no header can name the default section "", so [DEFAULT] is unknown
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            numbered = list(text_lines(path))
            parser.read_file((line for _, line in numbered), source=path)
        except (configparser.Error, FormatError) as err:
            raise ConfigurationError(f"cannot parse config file: {err}") from err
        lines = _lines_of(numbered)
        for section in parser.sections():
            line = lines[section]
            try:
                if section not in _SCHEMA:
                    raise ConfigurationError(
                        f"unknown configuration section [{section}]")
                for key, raw in parser.items(section):
                    line = lines[section, key]
                    cfg[section][key] = _parse_value(section, key, raw)
            except ConfigurationError as err:
                err.path, err.line_number = path, line
                raise
    for section, key, raw in overrides:
        cfg[section][key] = _parse_value(section, key, raw)
    return cfg
