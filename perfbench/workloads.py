"""The benchmark's workloads: their operations, seeds and computed counters.

An operation is one ``walklimits`` CLI call or the ``paths`` library call.
Operations come in four groups, each stressing other layers: ``ensemble``
(many short Rademacher walks), ``long-walk`` (a few long walks, CSV output
and one large batch), ``hulls`` (planar and qhull geometry) and ``paths``
(path metrics).  A workload runs two groups back to back as one pass.
Sizes are cut from the shipped configs so that a pass takes about 10 s and
a run repeats it four times or more (run.py totals each operation's time
over the passes and takes the host's speed out of it).

With the default seed (0) every operation runs at its shipped seed (the
builtin configs' own, fixed ones for the others) and its outputs are
checked against pinned digests.  Any other seed s gives operation k of
group g the seed ``1000 * s + 10 * g + k``.

Counters here are computed from each operation's configuration, not
measured, so they are exact and identical on every commit:
  steps        replicas * n (+ surrogate replicas * surrogate grid)
  batches      ceil(replicas / 256), the prefix-sum batches of an experiment
  batch_bytes  min(256, replicas) * (n + 1) * d * 8, one float64 batch
  matchings    comb(p + q, p), the time changes rho_skorokhod_circ enumerates
"""

import math
from dataclasses import dataclass, replace

import paths

DEFAULT_SEED = 0
BATCH = 256

REPORT = ("report.csv",)
HULL = ("vertices.csv", "body.off", "hull_report.csv")


@dataclass(frozen=True)
class Op:
    name: str
    mode: str  # "cli" or "paths"
    args: tuple
    outputs: tuple
    steps: int
    batches: int = 0
    batch_bytes: int = 0
    matchings: int = 0
    group: str = ""


def _experiment(name, seed, *, n, replicas, dim=1, surrogate_steps=0,
                batched=True, overrides=()):
    args = ["experiment", "--builtin", name]
    for o in overrides:
        args += ["--override", o]
    if seed is not None:
        args += ["--seed", str(seed)]
    op = name + ("-" + "-".join(overrides) if overrides else "")
    size = min(BATCH, replicas)
    return Op(
        op, "cli", tuple(args), REPORT, replicas * n + surrogate_steps,
        math.ceil(replicas / BATCH) if batched else 0,
        size * (n + 1) * dim * 8 if batched else 0,
    )


def _walk_cmd(cmd, seed, *, law, dim, n, mu=""):
    args = [cmd, "--law", law, "--dim", str(dim), "--n", str(n), "--seed", str(seed)]
    if mu:
        args += ["--mu", mu]
    outputs = ("walk.csv",) if cmd == "simulate" else HULL
    name = f"{cmd}-d{dim}-n{n}" + ("-drift" if mu else "")
    return Op(name, "cli", tuple(args), outputs, n)


def _ensemble(s):
    return [
        _experiment("com-kernel", s(0), n=10000, replicas=10000,
                    overrides=("replicas=10000",)),
        _experiment("max-clt", s(1), n=10000, replicas=1000, overrides=("replicas=1000",)),
        _experiment("arcsine", s(2), n=10000, replicas=1000, overrides=("replicas=1000",)),
        _experiment("etemadi-d2", s(3), n=1000, replicas=2000, dim=2,
                    overrides=("replicas=2000",)),
    ]


def _hulls(s):
    return [
        _experiment("drift-volume", s(0), n=10000, replicas=200, dim=2,
                    surrogate_steps=200 * 2048, overrides=("replicas=200",)),
        _walk_cmd("hull", s(1) or 101, law="gaussian", dim=3, n=300000, mu="1,0,0"),
    ]


def _paths(s):
    base = s(0) or 7000
    pairs = [c for c in paths.CALLS if c[1] == "rho_skorokhod_circ"]
    matchings = sum(math.comb(2 * n, n) for _, _, _, n, _ in pairs)
    return [Op("paths", "paths", (str(base),), (), paths.walk_steps(),
               matchings=matchings)]


def _long_walk(s):
    return [
        _walk_cmd("simulate", s(0) or 102, law="gaussian", dim=2, n=200000, mu="1,0"),
        _walk_cmd("hull", s(1) or 103, law="gaussian", dim=2, n=300000),
        _experiment("max-clt", s(2), n=200000, replicas=256,
                    overrides=("n=200000", "replicas=256")),
        _experiment("perimeter-lln", s(3), n=1000 + 10000 + 100000, replicas=1,
                    dim=2, batched=False),
    ]


GROUPS = {
    "ensemble": _ensemble,
    "long-walk": _long_walk,
    "hulls": _hulls,
    "paths": _paths,
}

WORKLOADS = {
    "sampling": ("ensemble", "long-walk"),
    "functionals": ("hulls", "paths"),
}


def build(workload: str, seed: int) -> list:
    """The workload's operations for a benchmark seed."""
    ops = []
    for g, group in enumerate(WORKLOADS[workload]):

        def op_seed(k, g=g):
            return None if seed == DEFAULT_SEED else 1000 * seed + 10 * g + k

        ops += [replace(op, group=group) for op in GROUPS[group](op_seed)]
    return ops
