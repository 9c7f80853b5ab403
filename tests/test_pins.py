"""Replays the benchmark's pinned operations in-process against their digests.

The operations come from ``perfbench/workloads.py`` and the digests from
``perfbench/pins.json``; both are only read.  com-kernel's report depends on
the BLAS thread count, which a test run does not fix, so it is replayed in a
subprocess with one OpenBLAS thread.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from walklimits.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
import paths  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "pins.json"), encoding="utf-8") as _fh:
    PINS = json.load(_fh)

OPS = [(name, op) for name in workloads.WORKLOADS
       for op in workloads.build(name, workloads.DEFAULT_SEED)
       if not op.name.startswith("com-kernel")]
COM_OPS = [(name, op) for name in workloads.WORKLOADS
           for op in workloads.build(name, workloads.DEFAULT_SEED)
           if op.name.startswith("com-kernel")]


@pytest.mark.parametrize("workload,op", OPS, ids=[op.name for _, op in OPS])
def test_pinned_operation_reproduces_its_digests(tmp_path, workload, op):
    pin = PINS[workload][op.name]
    if op.mode == "paths":
        rows = paths.run(int(op.args[0]))
        assert {label: [value, mode] for label, value, mode in rows} == pin["values"]
        return
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*op.args, "--out", str(tmp_path)]) in (0, 3)
    for name in op.outputs:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == pin["files"][name]["sha256"], name


@pytest.mark.parametrize("workload,op", COM_OPS, ids=[op.name for _, op in COM_OPS])
def test_pinned_com_kernel_reproduces_its_digest_on_one_blas_thread(tmp_path, workload, op):
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "walklimits", *op.args, "--out", str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert res.returncode in (0, 3), res.stderr
    for name in op.outputs:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == PINS[workload][op.name]["files"][name]["sha256"], name
