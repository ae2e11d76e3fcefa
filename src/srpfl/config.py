"""Flat key=value run configuration files.

One ``key = value`` pair per line, ``#`` comments, unknown keys
rejected.  Times are abstract time units, rates are per time unit.
``eta``, ``a`` and ``epsilon`` accept the literal ``auto`` to let the
engine derive them with oracle access to the ground truth.
"""

from dataclasses import MISSING, fields

from .engine import RunConfig
from .errors import ConfigError

_AUTO = ("auto", "none", "")


def _as_int(key, text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: expected an integer, got {text!r}") from exc


def _as_float(key, text):
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: expected a number, got {text!r}") from exc


def _as_optional_float(key, text):
    if text.lower() in _AUTO:
        return None
    return _as_float(key, text)


def _as_str(key, text):
    return text


_PARSERS = {int: _as_int, float: _as_float, float | None: _as_optional_float, str: _as_str}

# config-file keys that differ from their RunConfig field
_FILE_KEY = {"n_total": "N", "n_clients": "M"}

# config-file key -> (RunConfig field, parser, required)
_SCHEMA = {
    _FILE_KEY.get(f.name, f.name): (f.name, _PARSERS[f.type], f.default is MISSING)
    for f in fields(RunConfig)
}


def parse_pairs(lines, source="<config>"):
    """Raw key -> string-value mapping from config-file lines."""
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown field {key!r}")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate field {key!r}")
        pairs[key] = value.strip()
    return pairs


def build_config(pairs):
    """Typed, validated RunConfig from raw key -> string pairs."""
    missing = [k for k, (_, _, required) in _SCHEMA.items() if required and k not in pairs]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")
    kwargs = {}
    for key, text in pairs.items():
        name, parser, _ = _SCHEMA[key]
        kwargs[name] = parser(key, text)
    config = RunConfig(**kwargs)
    config.validate()
    return config


def load_config(path, overrides=(), seed=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = parse_pairs(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for item in overrides:
        pairs.update(parse_pairs([item], source="--override"))
    if seed is not None:
        pairs["seed"] = str(seed)
    return build_config(pairs)
