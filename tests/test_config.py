import hashlib
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from walklimits import ConfigError, ExperimentConfig, build_config, manifest_text
from walklimits.config import parse_text, typed_value
from walklimits.fixtures import BUILTIN_CONFIGS


def _cfg(text, overrides=None):
    return build_config(parse_text(text), overrides)


# ------------------------------------------------- per-experiment checks

KIND_BASES = {
    "lln-sweep": "experiment = lln-sweep\nfunctional = diameter\nn_list = 10,100\n",
    "com-kernel": "experiment = com-kernel\nn = 10\npairs = 1:1\n",
    "etemadi": "experiment = etemadi\nn = 10\nx_grid = 1\n",
    "hull-drift-volume": ("experiment = hull-drift-volume\nlaw = gaussian\ndim = 2\n"
                          "mu = 1,0\nn = 10\n"),
}

KIND_CASES = [
    ("com-kernel", ["pairs="], "pairs"),
    ("com-kernel", ["pairs=0.5:1,0:1"], "pairs"),
    ("com-kernel", ["pairs=1:1.5"], "pairs"),
    ("etemadi", ["x_grid="], "x_grid"),
    ("etemadi", ["x_grid=1,-0.5"], "x_grid"),
    ("lln-sweep", ["n_list="], "n_list"),
    ("lln-sweep", ["n_list=0,10"], "n_list"),
    ("hull-drift-volume", ["dim=1", "mu=1"], "dim"),
    ("hull-drift-volume", ["mu=0,0"], "mu"),
    ("lln-sweep", ["experiment=random-walk"], "experiment"),
    # a time t where floor(n t) = 0: com-kernel at n, lln-sweep at its smallest n
    ("com-kernel", ["n=4", "pairs=0.1:0.1"], "t too small"),
    ("lln-sweep", ["functional=com", "law=gaussian", "mu=1", "n_list=100,1000", "t=0.001"],
     "t too small"),
    # its rows' threshold is the Wilson z, whatever the config says
    ("etemadi", ["threshold=0.5"], "threshold"),
    # closed-form is not a reference mode: auto takes the closed form where one exists
    ("com-kernel", ["reference=closed-form"], "unknown value for reference"),
]


@pytest.mark.parametrize("kind", sorted(KIND_BASES))
def test_kind_base_configs_are_valid(kind):
    assert _cfg(KIND_BASES[kind]).experiment == kind


@pytest.mark.parametrize("kind,overrides,key", KIND_CASES)
def test_kind_checks_name_the_key(kind, overrides, key):
    with pytest.raises(ConfigError, match=key):
        _cfg(KIND_BASES[kind], overrides)


# (key, (lo, hi)) for every key the key table gives a range
RANGES = [(f.name, f.metadata["range"]) for f in fields(ExperimentConfig)
          if f.metadata["range"][0] is not None]

def _rule(lo, hi):
    """How the README and the refusal state a range."""
    return "finite" if lo == -math.inf else f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"


# every ranged key just below its range (-inf for a finite-only key; a pair
# is written a:b), t above its range, NaN, and inf inside a vector, a matrix
# and a pair
OUT_OF_RANGE = [("surrogate_grid", -5), ("surrogate_replicas", -3),
                *((key, lo - 1) for key, (lo, _) in RANGES if key != "pairs"),
                ("t", 1.5), ("t", "nan"), ("threshold", "nan"), ("threshold", "inf"),
                ("pairs", "-1:1"), ("mu", "nan"), ("x_grid", "1,inf"),
                ("sigma", "1,0;0,inf"), ("pairs", "0.5:nan")]


@pytest.mark.parametrize("key,value", OUT_OF_RANGE)
def test_negative_surrogate_size_names_the_key(key, value):
    lo, hi = dict(RANGES)[key]
    with pytest.raises(ConfigError) as bad:
        _cfg("functional = max\nn = 10\nreference = surrogate\n", [f"{key}={value}"])
    rule = _rule(lo, hi)
    assert str(bad.value) == f"{key} must {'lie ' if rule.startswith('in') else 'be '}{rule}"


# ------------------------------------------------------------ codecs

# every key away from its default, including keys no builtin sets
NON_DEFAULT = ExperimentConfig(
    experiment="lln-sweep",
    functional="diameter",
    law="gaussian",
    dim=2,
    mu=(0.5, -0.25),
    sigma=((2.0, 0.3), (0.3, 1.0)),
    n=17,
    n_list=(10, 100, 1000),
    replicas=3,
    seed=12345678901,
    t=0.75,
    pairs=((0.5, 1.0), (0.25, 0.75), (1.0, 1.0)),
    x_grid=(0.0, 1.5),
    directions=64,
    reference="surrogate",
    surrogate_grid=33,
    surrogate_replicas=5,
    threshold=0.125,
    dump_samples=True,
)


def test_every_key_round_trips_the_manifest():
    default = ExperimentConfig()
    assert [f.name for f in fields(NON_DEFAULT)
            if getattr(NON_DEFAULT, f.name) == getattr(default, f.name)] == []
    text = manifest_text(NON_DEFAULT)
    assert len(parse_text(text)) == len(fields(ExperimentConfig))
    assert build_config(parse_text(text)) == NON_DEFAULT


def _readme_keys() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return " ".join(re.search(r"^Keys: (.*?)\n\n", readme, re.M | re.S).group(1).split())


def test_readme_lists_every_key_in_field_order():
    paragraph = _readme_keys()
    assert re.findall(r"`([a-z_]+)`", paragraph) == [f.name for f in fields(ExperimentConfig)]


def test_readme_gives_each_key_its_range():
    given = dict(re.findall(r"`([a-z_]+)` \((finite|>= [^)]*|in \[[^]]*\])\)", _readme_keys()))
    assert given == {key: _rule(lo, hi) for key, (lo, hi) in RANGES}


# one unparsable string per codec (every string parses as a str)
BAD_VALUES = [
    ("n", "1.5"),
    ("t", "half"),
    ("dump_samples", "maybe"),
    ("mu", "1,x"),
    ("n_list", "10,2.5"),
    ("sigma", "1,0;0,x"),
    ("pairs", "0.5:1,1"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_bad_value_names_the_key(key, value):
    message = f"bad value for config key {key}: {value!r}"
    with pytest.raises(ConfigError) as typed:
        typed_value(key, value)
    assert str(typed.value) == message
    with pytest.raises(ConfigError) as built:
        _cfg(f"{key} = {value}\n")
    assert str(built.value) == message


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError) as typed:
        typed_value("steps", "10")
    assert str(typed.value) == "unknown config key: steps"
    with pytest.raises(ConfigError) as built:
        _cfg("functional = max\nn = 10\n", ["steps=10"])
    assert str(built.value) == "unknown config key: steps"


# sha256 of manifest_text for every builtin, recorded when the unread key
# `out` was deleted (each manifest lost exactly its `out = ` line); a manifest
# must not change by a byte without a deliberate re-pin
MANIFEST_PINS = {
    "arcsine": "5753ab809740f502745f3c3596e37d61cbd235aceb52551ab41742da27845f63",
    "com-kernel": "4b4abf2575b6ce3aee1f21ea3095b4c0211c3720fbccee03d739e70bf0091fb0",
    "drift-volume": "a0582e700c042c20f1985b76bb5d7e6686ceabc653db7624f4f8eea09b14fe40",
    "etemadi-d1": "280b92de1d8a6470370ab8952dbcacafc3be3e54f66326654a395c8528924267",
    "etemadi-d2": "5e5fbad9fac154768efce3d7227d92e42f5073e635901084a7fe24fc1c759e3c",
    "hull-volume-identity": "490524851817915b7216d44d1f070098aedc0b577497c33d308706354f145991",
    "hull-volume-sigma41": "e26e55f1eeceb4da4ac6966c7ff5f21159641123e2c675bc5f94de0b86970619",
    "max-clt": "0fee72a0856a07b84d07eba5eb67ed3dc23c03e7ba7b86885e3ea8f1198d0813",
    "perimeter-lln": "a94117633b47bf35636dfff691103447aac28ab5597846a190c2ddf9bc0777e3",
}


def test_manifest_pins_cover_every_builtin():
    assert set(MANIFEST_PINS) == set(BUILTIN_CONFIGS)


@pytest.mark.parametrize("name", sorted(MANIFEST_PINS))
def test_builtin_manifest_is_byte_identical(name):
    text = manifest_text(_cfg(BUILTIN_CONFIGS[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_PINS[name]
