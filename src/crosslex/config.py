"""Sectioned key-value run configuration with strict key checking."""

from __future__ import annotations

import configparser
import dataclasses
import math

from .classify import ClassifyConfig
from .corpus import TokenizerConfig
from .errors import ConfigurationError, FormatError, text_lines
from .sgns import SgnsConfig


def _fields(cls):
    """key -> (parser, default) of a config dataclass's fields."""
    return {f.name: (type(f.default), f.default) for f in dataclasses.fields(cls)}


# section -> key -> (parser, default); a section with a config dataclass
# takes its keys and defaults from the dataclass's fields.
_SCHEMA = {
    "tokenizer": _fields(TokenizerConfig),
    "sgns": _fields(SgnsConfig),
    "alignment": {
        "pivot": (str, "en"),
        "lambda": (float, 1e-3),
        "kept_ratio": (float, 0.8),
        "normalize": (bool, True),
        "train_fraction": (float, 0.8),
        "split_seed": (int, 1),
    },
    "mining": {
        "top_n": (int, 100),
        "min_support": (float, 0.01),
        "min_confidence": (float, 0.1),
        "use_stopwords": (bool, True),
    },
    "similarity": {
        "variant": (str, "literal"),
        "top_m": (int, 3),
    },
    "classify": {**_fields(ClassifyConfig), "split_seed": (int, 0)},
}

_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_value(section, key, raw):
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        raise ConfigurationError(f"unknown configuration key [{section}] {key}")
    kind, _ = _SCHEMA[section][key]
    if kind is bool:
        try:
            return _BOOL_VALUES[str(raw).strip().lower()]
        except KeyError:
            raise ConfigurationError(
                f"[{section}] {key}: expected a boolean, got {raw!r}"
            ) from None
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"[{section}] {key}: expected {kind.__name__}, got {raw!r}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise ConfigurationError(
            f"[{section}] {key}: expected a finite number, got {raw!r}"
        )
    return value


def load_config(path=None, overrides=()):
    """Section -> key -> value: the defaults, overlaid by the INI-style file
    at ``path``, then by the ``(section, key, raw value)`` overrides.
    Unknown sections or keys are errors."""
    cfg = {section: {key: default for key, (_, default) in keys.items()}
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
