"""Flat key=value run configuration files.

One ``key = value`` pair per line, ``#`` comments, unknown and duplicate
keys rejected.  Times are abstract time units, rates are per time unit.
Each value is read by the type of its ``RunConfig`` field, in one function.
``eta``, ``a`` and ``epsilon`` accept the literal ``auto`` (any case) to
let the engine derive them with oracle access to the ground truth.
"""

from dataclasses import MISSING, fields

from .engine import _FIELD_KINDS, RunConfig
from .errors import ConfigError


def _parse(key, kind, text):
    """``text`` as a value of field type ``kind``; ``auto`` (any case) is None where ``kind`` allows None."""
    if kind == float | None and text.lower() == "auto":
        return None
    _, convert, noun = _FIELD_KINDS[kind]
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: expected {noun}, got {text!r}") from exc


# config-file keys that differ from their RunConfig field
_FILE_KEY = {"n_total": "N", "n_clients": "M"}

# config-file key -> (RunConfig field, its type, required)
_SCHEMA = {
    _FILE_KEY.get(f.name, f.name): (f.name, f.type, f.default is MISSING)
    for f in fields(RunConfig)
}


def parse_pairs(lines, source="<config>"):
    """Raw key -> string-value mapping from ``key = value`` lines."""
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
        name, kind, _ = _SCHEMA[key]
        kwargs[name] = _parse(key, kind, text)
    return RunConfig(**kwargs)


def load_config(path, overrides=(), seed=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = parse_pairs(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for item in overrides:
        pairs.update(parse_pairs([item], source="--override"))
    if seed is not None:
        pairs["seed"] = str(seed)
    return build_config(pairs)

