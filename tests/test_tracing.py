"""Smoke test of the benchmark's tracer: its wrappers reach the library's
hooks, and ``restore`` puts every name back.

``perfbench/tracing.py`` is only read, as ``test_pins.py`` reads
``perfbench/workloads.py``; a rename in ``walklimits`` that breaks a hook
fails here instead of in a traced benchmark run.
"""

import contextlib
import importlib
import io
import os
import sys

import walklimits.cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402


def _bindings() -> dict:
    """Every name of the walklimits modules and of the traced methods, bound to what."""
    mods = [importlib.import_module("walklimits"),
            *(importlib.import_module("walklimits." + m) for m in tracing.MODULES)]
    out = {(mod.__name__, attr): obj for mod in mods for attr, obj in vars(mod).items()}
    for m, cls, meth in tracing.METHODS:
        owner = getattr(importlib.import_module("walklimits." + m), cls)
        out[m, cls, meth] = owner.__dict__[meth]
    return out


def test_tracer_counts_every_layer_and_restores_every_name(tmp_path):
    before = _bindings()
    out = ["--out", str(tmp_path)]
    runs = [["experiment", "--builtin", "max-clt", "--override", "replicas=20",
             "--override", "n=200", *out],
            ["experiment", "--builtin", "drift-volume", "--override", "replicas=4",
             "--override", "n=200", "--override", "surrogate_grid=64", *out],
            ["hull", "--dim", "3", "--n", "2000", *out],
            ["metric", "--example", "paper-2.2"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = {key for key, obj in _bindings().items() if obj is not before[key]}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [walklimits.cli.main(args) for args in runs]
    finally:
        tracer.restore()
    assert all(code in (0, 3) for code in codes), codes
    summary = tracer.summary()
    for key in ("walks.brownian.steps", "geometry.hull.calls", "stats.ks.samples",
                "metrics.rho_skorokhod.calls"):
        assert summary[key] > 0, key
    assert rebound
    after = _bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
