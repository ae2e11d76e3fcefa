"""Flat key=value files: run configurations and saved ground-truth models.

One ``key = value`` pair per line, ``#`` comments, unknown and duplicate
keys rejected.  Times are abstract time units, rates are per time unit.
``eta``, ``a`` and ``epsilon`` accept the literal ``auto`` (any case) to
let the engine derive them with oracle access to the ground truth.
"""

from dataclasses import MISSING, fields

from .engine import RunConfig
from .errors import ConfigError
from .synthesis import gen_ground_truth


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
    if text.lower() == "auto":
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


def parse_pairs(lines, source="<config>", keys=_SCHEMA):
    """Raw key -> string-value mapping from lines whose keys lie in ``keys``."""
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown field {key!r}")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate field {key!r}")
        pairs[key] = value.strip()
    return pairs


def _read_pairs(path, keys, encoding, kind):
    """Raw pairs of a ``kind`` file; unreadable or undecodable is a ConfigError naming it."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return parse_pairs(fh, source=str(path), keys=keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc


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
    pairs = _read_pairs(path, _SCHEMA, "utf-8", "config")
    for item in overrides:
        pairs.update(parse_pairs([item], source="--override"))
    if seed is not None:
        pairs["seed"] = str(seed)
    return build_config(pairs)


# model-file key -> parser, in file order
_MODEL_KEYS = {"d": _as_int, "k": _as_int, "clients": _as_int, "sigma": _as_float, "seed": _as_int}


def save_model(path, gt):
    """Write the five scalars that fully determine a ground-truth model."""
    values = (gt.d, gt.k, gt.n_clients, repr(gt.sigma), gt.seed)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in zip(_MODEL_KEYS, values)))


def load_model(path):
    """Rebuild a ground-truth model saved by :func:`save_model`."""
    pairs = _read_pairs(path, _MODEL_KEYS, "ascii", "model")
    missing = [key for key in _MODEL_KEYS if key not in pairs]
    if missing:
        raise ConfigError(f"model file {path} is missing field(s): {', '.join(missing)}")
    try:
        return gen_ground_truth(*(parse(key, pairs[key]) for key, parse in _MODEL_KEYS.items()))
    except ConfigError as exc:
        raise ConfigError(f"model file {path}: {exc}") from exc
