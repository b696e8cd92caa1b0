"""Sectioned key-value run configuration with strict key checking."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError

# section -> key -> (parser, default)
_SCHEMA = {
    "tokenizer": {
        "lowercase": (bool, True),
        "strip_urls": (bool, True),
        "strip_mentions": (bool, True),
        "keep_hashtag_body": (bool, True),
    },
    "sgns": {
        "dim": (int, 100),
        "window": (int, 5),
        "negatives": (int, 5),
        "epochs": (int, 5),
        "learning_rate": (float, 0.025),
        "min_count": (int, 5),
        "subsample_t": (float, 1e-4),
        "rng_seed": (int, 1),
    },
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
    "classify": {
        "epochs": (int, 300),
        "learning_rate": (float, 0.5),
        "l2": (float, 1e-4),
        "threshold": (float, 0.5),
        "split_seed": (int, 0),
    },
}

_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_value(section, key, raw):
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


@dataclass
class RunConfig:
    """Resolved configuration: defaults, overlaid by file, then by flags."""

    sections: dict = field(default_factory=dict)

    def get(self, section, key):
        return self.sections[section][key]

    def set(self, section, key, value):
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigurationError(f"unknown configuration key [{section}] {key}")
        self.sections[section][key] = _parse_value(section, key, value)

    def section(self, name):
        return dict(self.sections[name])

    def as_dict(self):
        return {s: dict(kv) for s, kv in sorted(self.sections.items())}


def default_config():
    cfg = RunConfig()
    cfg.sections = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    return cfg


def load_config(path):
    """Parse an INI-style config file; unknown sections or keys are errors."""
    cfg = default_config()
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigurationError(f"cannot parse config file: {err}") from err
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown configuration section [{section}]")
        for key, raw in parser.items(section):
            cfg.set(section, key, raw)
    return cfg
