import hashlib
from dataclasses import fields

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
]


@pytest.mark.parametrize("kind", sorted(KIND_BASES))
def test_kind_base_configs_are_valid(kind):
    assert _cfg(KIND_BASES[kind]).experiment == kind


@pytest.mark.parametrize("kind,overrides,key", KIND_CASES)
def test_kind_checks_name_the_key(kind, overrides, key):
    with pytest.raises(ConfigError, match=key):
        _cfg(KIND_BASES[kind], overrides)


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
    out="runs/sweep-1",
)


def test_every_key_round_trips_the_manifest():
    default = ExperimentConfig()
    assert [f.name for f in fields(NON_DEFAULT)
            if getattr(NON_DEFAULT, f.name) == getattr(default, f.name)] == []
    text = manifest_text(NON_DEFAULT)
    assert len(parse_text(text)) == len(fields(ExperimentConfig))
    assert build_config(parse_text(text)) == NON_DEFAULT


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


# sha256 of manifest_text for every builtin, recorded before the config keys
# carried their own codecs: the manifests must not change by a byte
MANIFEST_PINS = {
    "arcsine": "512d9b8fee45817999d5af28bdc970f899d6c644cc0240876203f51bff2169ca",
    "com-kernel": "48ff368403411392fd696bc93e8593e5a6f1aa844d66137dbbca40fb39399617",
    "drift-volume": "a229d2ab2e8cc98081a694f574e8f2f9fecdeb155b86fc0551c2abe7cfa73fb2",
    "etemadi-d1": "187266e3cfc64e5b3108bf9ecd1628fac25f8b3458d1ae2f5ff3b242fb7cf973",
    "etemadi-d2": "11f1324d80e081ad7ebdec16b8ae2d69fb1280f308c750d41fac37905bd3f4ff",
    "hull-volume-identity": "eaf3cfce00ff2c51c50d6adb49b869f48451b173f0074f4b063199424cde05c5",
    "hull-volume-sigma41": "aa3faf9ece20fd9f213046ee527bf5d064ef9b3de4ea5e5218e197ccd95bb02e",
    "max-clt": "3e7eb05b82f2b611e5ad3ce07016f6ec9a524114fffd2f9e0d0e51700e73fd7e",
    "perimeter-lln": "43a0cae3de1115195177ebd474bf836b8d62d0fcfd792d0e1b4fa11a0aa114e7",
}


def test_manifest_pins_cover_every_builtin():
    assert set(MANIFEST_PINS) == set(BUILTIN_CONFIGS)


@pytest.mark.parametrize("name", sorted(MANIFEST_PINS))
def test_builtin_manifest_is_byte_identical(name):
    text = manifest_text(_cfg(BUILTIN_CONFIGS[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_PINS[name]
