"""Flat key=value experiment configs.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  Values are typed per key: integers, floats,
booleans (``true``/``false``), comma-separated vectors (``mu = 1,0``),
semicolon-separated matrix rows (``sigma = 4,0;0,1``), comma-separated
integer or float lists (``n_list = 1000,10000``) and colon pairs
(``pairs = 0.5:1,1:1``).  Each ``ExperimentConfig`` field carries its key's
codec, so a key is declared once, with its default, its type and, for a
number, its range [lo, hi], which ``validate_walk`` checks: every number the
key holds, a scalar or inside a vector, matrix, list or pair, must be finite
and lie in it.  Unknown keys are rejected.  Overrides apply after the file
parse and before validation.  The manifest an ``experiment`` run writes is
itself a valid config that reproduces the run; ``simulate`` and ``hull``
manifests carry ``subcommand`` (and ``kind`` or ``points``) keys, which are
rejected, then each walk key the run used, written by its codec, so they
are records, not configs.

The valid laws are the keys of ``walks.LAWS`` and the valid experiments
those of ``experiments.EXPERIMENTS``; each experiment entry holds its own
checks (its functional, dimensions, lists and reference), which run on the
config and its law after the shared ones here, so a config that
``build_config`` returns is one its runner can run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

from .laws import sqrt_psd
from .walks import LAWS


class ConfigError(Exception):
    """A configuration problem; the message names the offending key."""


REFERENCES = ("auto", "surrogate", "none")


class Codec(NamedTuple):
    """How a key's value string is parsed (ValueError if bad) and written back."""

    parse: Callable[[str], object]
    format: Callable[[object], str]


def _bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(value)


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _pair(text: str) -> tuple:
    a, _, b = text.partition(":")
    return float(a), float(b)


def _tuple(parse_item, sep: str = ","):
    """Parse sep-separated items into a tuple; the empty string is ()."""
    return lambda value: tuple(parse_item(x) for x in value.split(sep)) if value else ()


def _reprs(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


INT = Codec(int, str)
FLOAT = Codec(float, lambda v: repr(float(v)))
STR = Codec(str, str)
BOOL = Codec(_bool, lambda v: "true" if v else "false")
VECTOR = Codec(_tuple(float), _reprs)
INT_LIST = Codec(_tuple(int), lambda v: ",".join(str(int(x)) for x in v))
MATRIX = Codec(_tuple(_floats, ";"), lambda v: ";".join(_reprs(row) for row in v))
PAIRS = Codec(_tuple(_pair),
              lambda v: ",".join(f"{repr(float(a))}:{repr(float(b))}" for a, b in v))


def _key(default, codec: Codec, lo=None, hi=math.inf):
    """A key's default and codec, and for a number key the range [lo, hi]
    that every number it holds must lie in, finite (lo = -inf: any finite
    number)."""
    return field(default=default, metadata={"codec": codec, "range": (lo, hi)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved parameters of one experiment run."""

    experiment: str = _key("distributional", STR)
    functional: str = _key("", STR)
    law: str = _key("rademacher", STR)
    dim: int = _key(1, INT, 1)
    mu: tuple = _key((), VECTOR, -math.inf)
    sigma: tuple = _key((), MATRIX, -math.inf)
    n: int = _key(0, INT)
    n_list: tuple = _key((), INT_LIST, 1)
    replicas: int = _key(1, INT, 1)
    seed: int = _key(0, INT, 0)
    t: float = _key(1.0, FLOAT, 0, 1)
    pairs: tuple = _key((), PAIRS, 0, 1)
    x_grid: tuple = _key((), VECTOR, 0)
    directions: int = _key(512, INT, 1)
    reference: str = _key("auto", STR)
    surrogate_grid: int = _key(0, INT, 0)
    surrogate_replicas: int = _key(0, INT, 0)
    threshold: float = _key(0.0, FLOAT, 0)
    dump_samples: bool = _key(False, BOOL)


_CODECS = {f.name: f.metadata["codec"] for f in fields(ExperimentConfig)}


def parse_text(text: str) -> dict[str, str]:
    """Parse config text into a raw key -> value-string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        raw[key] = value.strip()
    return raw


def typed_value(key: str, value: str):
    """A config value string typed for its key; ConfigError names a bad one."""
    codec = _CODECS.get(key)
    if codec is None:
        raise ConfigError(f"unknown config key: {key}")
    try:
        return codec.parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key}: {value!r}") from exc


def build_config(raw: dict[str, str], overrides: list[str] | None = None) -> ExperimentConfig:
    """Type, apply overrides, validate, and freeze a config."""
    merged = dict(raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    cfg = ExperimentConfig(**{key: typed_value(key, value) for key, value in merged.items()})
    validate_config(cfg)
    return cfg


def _numbers(value) -> list:
    """A number key's value as its numbers: itself, or those in its tuples."""
    return [x for item in value for x in _numbers(item)] if isinstance(value, tuple) else [value]


def validate_walk(cfg: ExperimentConfig) -> None:
    """The checks every walk run shares: the law, each key's range, mu and sigma."""
    law = LAWS.get(cfg.law)
    if law is None:
        raise ConfigError(f"unknown value for law: {cfg.law!r}")
    for f in fields(cfg):
        lo, hi = f.metadata["range"]
        if lo is not None and not all(lo <= x <= hi and -math.inf < x < math.inf  # NaN fails
                                      for x in _numbers(getattr(cfg, f.name))):
            raise ConfigError(f"{f.name} must be finite" if lo == -math.inf
                              else f"{f.name} must be >= {lo}" if hi == math.inf
                              else f"{f.name} must lie in [{lo}, {hi}]")
    if cfg.mu and len(cfg.mu) != cfg.dim:
        raise ConfigError("mu must have exactly dim components")
    if law.zero_mean and cfg.mu and any(x != 0.0 for x in cfg.mu):
        raise ConfigError(f"law {cfg.law} has mean zero; mu must be 0 or omitted")
    if cfg.sigma:
        if len(cfg.sigma) != cfg.dim or any(len(r) != cfg.dim for r in cfg.sigma):
            raise ConfigError("sigma must be a dim x dim matrix")
        try:
            sqrt_psd(cfg.sigma)
        except ValueError as exc:
            raise ConfigError(f"sigma: {exc}") from None


def validate_config(cfg: ExperimentConfig) -> None:
    """The shared checks, then the experiment's own (``experiments.EXPERIMENTS``)."""
    from .experiments import EXPERIMENTS, law_from_config

    kind = EXPERIMENTS.get(cfg.experiment)
    if kind is None:
        raise ConfigError(f"unknown value for experiment: {cfg.experiment!r}")
    validate_walk(cfg)
    if cfg.reference not in REFERENCES:
        raise ConfigError(f"unknown value for reference: {cfg.reference!r}")
    if kind.needs_n and cfg.n < 1:
        raise ConfigError("n must be >= 1")
    law = law_from_config(cfg)
    if cfg.sigma and not (sqrt_psd(cfg.sigma).matrix == law.sigma).all():
        raise ConfigError(f"sigma: law {cfg.law} fixes its covariance at "
                          f"{MATRIX.format(law.sigma)}; omit sigma or give exactly that")
    kind.check(cfg, law)


def manifest_text(cfg: ExperimentConfig, keys=None) -> str:
    """Canonical serialization of the fully-resolved config (round-trips).

    ``keys`` lists the keys to write, in order (default: every key, sorted).
    """
    lines = [f"{key} = {_CODECS[key].format(getattr(cfg, key))}"
             for key in (sorted(_CODECS) if keys is None else keys)]
    return "\n".join(lines) + "\n"
