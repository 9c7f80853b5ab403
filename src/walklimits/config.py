"""Flat key=value experiment configs.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  Values are typed per key: integers, floats,
booleans (``true``/``false``), comma-separated vectors (``mu = 1,0``),
semicolon-separated matrix rows (``sigma = 4,0;0,1``), comma-separated
integer or float lists (``n_list = 1000,10000``) and colon pairs
(``pairs = 0.5:1,1:1``).  Unknown keys are rejected.  Overrides apply
after the file parse and before validation.  The manifest written by
every run is itself a valid config that reproduces the run.

The valid laws are the keys of ``walks.LAWS`` and the valid functionals
those of ``functionals.FUNCTIONALS``; each table entry also says what the
checks here enforce (a zero mean, the dimensions a functional is defined
in, whether it has a first-order limit and in which dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .functionals import FUNCTIONALS, dims_text, in_dims
from .laws import sqrt_psd
from .walks import LAWS


class ConfigError(Exception):
    """A configuration problem; the message names the offending key."""


EXPERIMENTS = (
    "distributional",
    "lln-sweep",
    "com-kernel",
    "etemadi",
    "hull-drift-volume",
)

REFERENCES = ("auto", "closed-form", "surrogate", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved parameters of one experiment run."""

    experiment: str = "distributional"
    functional: str = ""
    law: str = "rademacher"
    dim: int = 1
    mu: tuple = ()
    sigma: tuple = ()
    n: int = 0
    n_list: tuple = ()
    replicas: int = 1
    seed: int = 0
    t: float = 1.0
    pairs: tuple = ()
    x_grid: tuple = ()
    directions: int = 512
    reference: str = "auto"
    surrogate_grid: int = 0
    surrogate_replicas: int = 0
    threshold: float = 0.0
    dump_samples: bool = False
    out: str = ""


_INT_KEYS = {"dim", "n", "replicas", "seed", "directions", "surrogate_grid",
             "surrogate_replicas"}
_FLOAT_KEYS = {"t", "threshold"}
_STR_KEYS = {"experiment", "functional", "law", "reference", "out"}
_BOOL_KEYS = {"dump_samples"}
_VEC_KEYS = {"mu", "x_grid"}
_INTLIST_KEYS = {"n_list"}
_MATRIX_KEYS = {"sigma"}
_PAIRS_KEYS = {"pairs"}

ALL_KEYS = (_INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS | _VEC_KEYS
            | _INTLIST_KEYS | _MATRIX_KEYS | _PAIRS_KEYS)


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
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _STR_KEYS:
            return value
        if key in _BOOL_KEYS:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if key in _VEC_KEYS:
            if not value:
                return ()
            return tuple(float(x) for x in value.split(","))
        if key in _INTLIST_KEYS:
            if not value:
                return ()
            return tuple(int(x) for x in value.split(","))
        if key in _MATRIX_KEYS:
            if not value:
                return ()
            return tuple(
                tuple(float(x) for x in row.split(",")) for row in value.split(";")
            )
        if key in _PAIRS_KEYS:
            if not value:
                return ()
            out = []
            for item in value.split(","):
                a, _, b = item.partition(":")
                out.append((float(a), float(b)))
            return tuple(out)
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key}: {value!r}") from exc
    raise ConfigError(f"unknown config key: {key}")


def build_config(raw: dict[str, str], overrides: list[str] | None = None) -> ExperimentConfig:
    """Type, apply overrides, validate, and freeze a config."""
    merged = dict(raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    values = {}
    for key, value in merged.items():
        if key not in ALL_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = typed_value(key, value)
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_config(parse_text(text), overrides)


def validate_walk(cfg: ExperimentConfig) -> None:
    """The law, dim, seed, mu, sigma and directions checks every walk run shares."""
    law = LAWS.get(cfg.law)
    if law is None:
        raise ConfigError(f"unknown value for law: {cfg.law!r}")
    if cfg.dim < 1:
        raise ConfigError("dim must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
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
    if cfg.directions < 1:
        raise ConfigError("directions must be >= 1")


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown value for experiment: {cfg.experiment!r}")
    validate_walk(cfg)
    if cfg.reference not in REFERENCES:
        raise ConfigError(f"unknown value for reference: {cfg.reference!r}")
    if cfg.replicas < 1:
        raise ConfigError("replicas must be >= 1")
    needs_n = cfg.experiment in ("distributional", "com-kernel", "etemadi",
                                 "hull-drift-volume")
    if needs_n and cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if cfg.experiment in ("distributional", "lln-sweep"):
        spec = FUNCTIONALS.get(cfg.functional)
        if spec is None:
            raise ConfigError(f"unknown value for functional: {cfg.functional!r}")
        if not in_dims(cfg.dim, spec.dims):
            raise ConfigError(f"functional {cfg.functional} needs {dims_text(spec.dims)}")
    if cfg.experiment == "lln-sweep":
        if spec.lln is None:
            raise ConfigError(f"functional {cfg.functional!r} has no first-order limit")
        if not in_dims(cfg.dim, spec.lln_dims):
            raise ConfigError(f"functional {cfg.functional} has a first-order limit "
                              f"only in {dims_text(spec.lln_dims)}")
        if not cfg.n_list:
            raise ConfigError("n_list must not be empty")
        if any(b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])):
            raise ConfigError("n_list must be strictly increasing")
        if min(cfg.n_list) < 1:
            raise ConfigError("n_list entries must be >= 1")
    if cfg.experiment == "com-kernel":
        if not cfg.pairs:
            raise ConfigError("pairs must not be empty")
        for t1, t2 in cfg.pairs:
            if not (0.0 < t1 <= 1.0 and 0.0 < t2 <= 1.0):
                raise ConfigError("pairs entries must lie in (0, 1]")
    if cfg.experiment == "etemadi":
        if not cfg.x_grid:
            raise ConfigError("x_grid must not be empty")
        if any(x < 0 for x in cfg.x_grid):
            raise ConfigError("x_grid entries must be >= 0")
    if cfg.experiment == "hull-drift-volume":
        if cfg.dim < 2:
            raise ConfigError("dim must be >= 2 for hull-drift-volume")
        if not cfg.mu or not any(x != 0.0 for x in cfg.mu):
            raise ConfigError("mu must be a nonzero drift for hull-drift-volume")
    if not (0.0 <= cfg.t <= 1.0):
        raise ConfigError("t must lie in [0, 1]")
    if not cfg.threshold >= 0:
        raise ConfigError("threshold must be a number >= 0")


def _format_value(key: str, value) -> str:
    if key in _BOOL_KEYS:
        return "true" if value else "false"
    if key in _VEC_KEYS:
        return ",".join(repr(float(x)) for x in value)
    if key in _INTLIST_KEYS:
        return ",".join(str(int(x)) for x in value)
    if key in _MATRIX_KEYS:
        return ";".join(",".join(repr(float(x)) for x in row) for row in value)
    if key in _PAIRS_KEYS:
        return ",".join(f"{repr(float(a))}:{repr(float(b))}" for a, b in value)
    if key in _FLOAT_KEYS:
        return repr(float(value))
    return str(value)


def manifest_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization of the fully-resolved config (round-trips)."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        lines.append(f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
