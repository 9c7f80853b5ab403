"""Replays the benchmark's pinned operations in-process against their digests.

The operations come from ``perfbench/workloads.py`` and the digests from
``perfbench/pins.json``; both are only read.  com-kernel is left out: its
report depends on the BLAS thread count, which a test run does not fix.
"""

import contextlib
import hashlib
import io
import json
import os
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
