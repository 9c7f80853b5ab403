"""Batch command-line frontend.

Subcommands: simulate, metric, hull, experiment, report.  Every run writes
a manifest echoing its fully-resolved config next to its outputs; only an
``experiment`` manifest is a config (``--config`` rejects the ``subcommand``
and ``kind`` keys of ``simulate`` and ``hull`` manifests).  All files are
written to a temp name then renamed, so interrupted runs never leave partial
output.  Exit codes: 0 success, 3 an experiment report with a
failing check (every output is still written), 2 configuration error
(diagnostic names the offending key), 1 runtime failure.  The default
output directory comes from $WALKLIMITS_OUT (falling back to '.').
``main`` has the process freeze its objects at exit rather than collect
them, since every output is closed by then.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import re
import secrets
import sys
from dataclasses import replace
from typing import Iterable

import numpy as np

from . import csvio, geometry, metrics
from .config import ConfigError, ExperimentConfig, build_config, load_config
from .config import manifest_text, parse_text, typed_value, validate_config, validate_walk
from .experiments import Report, ReportRow, law_from_config, read_rows, rows_csv, run_experiment
from .fixtures import BUILTIN_CONFIGS, builtin_examples, get_fixture
from .trajectory import CONSTANT, LINEAR
from .walks import clt_trajectory, lln_trajectory, sample_walk


def _write_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write a str, or the strs of an iterable, to a temp file renamed onto path.

    The temp file is created with mode 0666 less the umask, as open() would.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_dir(args) -> str:
    return args.out or os.environ.get("WALKLIMITS_OUT") or "."


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.@=-]+", "_", name)


def _write_report(report: Report, out: str) -> list[str]:
    paths = []
    csv_path = os.path.join(out, "report.csv")
    _write_atomic(csv_path, report.csv_text())
    paths.append(csv_path)
    txt_path = os.path.join(out, "report.txt")
    _write_atomic(txt_path, report.summary_text())
    paths.append(txt_path)
    for name, values in report.samples.items():
        sample_path = os.path.join(out, f"samples_{_slug(name)}.csv")
        _write_atomic(sample_path, csvio.samples_blocks(values))
        paths.append(sample_path)
    return paths


def _cmd_experiment(args) -> int:
    if bool(args.config) == bool(args.builtin):
        raise ConfigError("pass exactly one of --config PATH or --builtin NAME")
    if args.builtin:
        if args.builtin not in BUILTIN_CONFIGS:
            known = ", ".join(sorted(BUILTIN_CONFIGS))
            raise ConfigError(f"unknown builtin config: {args.builtin} (known: {known})")
        cfg = build_config(parse_text(BUILTIN_CONFIGS[args.builtin]), args.override)
    else:
        cfg = load_config(args.config, args.override)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        validate_config(cfg)
    out = _out_dir(args)
    report = run_experiment(cfg)
    os.makedirs(out, exist_ok=True)
    _write_atomic(os.path.join(out, "manifest.cfg"), manifest_text(cfg))
    paths = _write_report(report, out)
    print(report.summary_text(), end="")
    for p in paths:
        print(f"wrote {p}")
    return 0 if report.passed else 3


_METRIC_FUNCS = {
    "rho-inf": lambda f, g: metrics.MetricResult(metrics.rho_inf(f, g), None, metrics.EXACT),
    "rho-s": metrics.rho_skorokhod,
    "rho-s-circ": metrics.rho_skorokhod_circ,
}


def _cmd_metric(args) -> int:
    if args.list_examples:
        for name, desc in builtin_examples():
            print(f"{name}: {desc}")
        return 0
    if args.example:
        return _metric_example(args.example)
    if not (args.f and args.g):
        raise ConfigError("pass --example NAME, --list-examples, or --f/--g CSV paths")
    with open(args.f, encoding="utf-8") as fh:
        f = csvio.read_trajectory_csv(fh.read())
    with open(args.g, encoding="utf-8") as fh:
        g = csvio.read_trajectory_csv(fh.read())
    fn = _METRIC_FUNCS.get(args.metric)
    if fn is None:
        raise ConfigError(f"unknown metric: {args.metric}")
    res = fn(f, g)
    print(f"{args.metric}(f,g) = {res.value:.10g} mode={res.mode}")
    if res.witness is not None:
        print(f"witness sup|lambda - id| = {res.witness.sup_deviation():.10g}")
    return 0


def _metric_example(name: str) -> int:
    if name not in ("paper-2.1", "paper-2.2"):
        raise ConfigError(f"unknown example: {name} (choose paper-2.1 or paper-2.2)")
    f = get_fixture("paper-2.1-f")
    g = get_fixture("paper-2.1-g")
    h = get_fixture("paper-2.1-h")
    if name == "paper-2.1":
        print(f"rho_inf(f,g) = {metrics.rho_inf(f, g):.10g}")
        print(f"rho_inf(f,h) = {metrics.rho_inf(f, h):.10g}")
        return 0
    lam = get_fixture("paper-2.2-lambda")
    res_fg = metrics.rho_skorokhod(f, g)
    res_fh = metrics.rho_skorokhod(f, h)
    print(f"rho_S(f,g) = {res_fg.value:.10g}")
    print(f"rho_S(f,h) = {res_fh.value:.10g}")
    if res_fh.witness is not None:
        print(f"witness sup|lambda - id| = {res_fh.witness.sup_deviation():.10g}")
    print(f"bundled lambda chord-log norm = {metrics.lambda_circ_norm(lam):.10g}")
    return 0


def _walk_config(args, **extra) -> ExperimentConfig:
    """The walk flags of simulate and hull, checked as a config's would be."""
    cfg = ExperimentConfig(law=args.law, dim=args.dim, mu=typed_value("mu", args.mu),
                           seed=args.seed, **extra)
    validate_walk(cfg)
    return cfg


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise ConfigError("n must be >= 1")
    law = law_from_config(_walk_config(args))
    walk = sample_walk(law, args.n, args.seed)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    if args.kind == "walk":
        _write_atomic(os.path.join(out, "walk.csv"), csvio.walk_blocks(walk))
        written = "walk.csv"
    else:
        tkind = CONSTANT if args.kind.endswith("constant") else LINEAR
        if args.kind.startswith("lln"):
            traj = lln_trajectory(walk, tkind)
        else:
            traj = clt_trajectory(walk, tkind, law.mu)
        _write_atomic(os.path.join(out, "trajectory.csv"), csvio.trajectory_blocks(traj))
        written = "trajectory.csv"
    manifest = "\n".join(
        [
            "subcommand = simulate",
            f"law = {args.law}",
            f"dim = {args.dim}",
            f"mu = {args.mu or ''}",
            f"n = {args.n}",
            f"seed = {args.seed}",
            f"kind = {args.kind}",
        ]
    )
    _write_atomic(os.path.join(out, "manifest.cfg"), manifest + "\n")
    print(f"wrote {os.path.join(out, written)}")
    return 0


def _cmd_hull(args) -> int:
    cfg = _walk_config(args, directions=args.directions)
    if args.points:
        data = np.loadtxt(args.points, delimiter=",", skiprows=1, ndmin=2)
        points = data
        source = f"points = {args.points}"
    else:
        if args.n < 1:
            raise ConfigError("n must be >= 1 (or pass --points CSV)")
        points = sample_walk(law_from_config(cfg), args.n, args.seed).sums
        source = f"law = {args.law}\ndim = {args.dim}\nn = {args.n}\nseed = {args.seed}"
    body = geometry.convex_hull(points)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_atomic(os.path.join(out, "vertices.csv"), csvio.vertices_csv(body))
    _write_atomic(os.path.join(out, "body.off"), csvio.off_text(body))
    rows = [
        ("diameter", geometry.diameter(body)),
        ("mean-width", geometry.mean_width(body, args.directions)),
        ("surface-area", geometry.surface_area(body)),
        ("volume", geometry.volume(body)),
    ]
    _write_atomic(os.path.join(out, "hull_report.csv"),
                  rows_csv([ReportRow(name, estimate=v) for name, v in rows]))
    manifest = f"subcommand = hull\n{source}\ndirections = {args.directions}\n"
    _write_atomic(os.path.join(out, "manifest.cfg"), manifest)
    for name, v in rows:
        print(f"{name} = {v:.10g}")
    return 0


def _cmd_report(args) -> int:
    with open(args.csv, encoding="utf-8", newline="") as fh:
        rows = read_rows(fh)
    print(f"report: {args.csv}")
    for row in rows:
        print("  " + row.text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklimits",
        description="Simulate random walks and check their limit laws in batch.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="sample a walk or rescaled trajectory")
    p_sim.add_argument("--law", default="rademacher")
    p_sim.add_argument("--dim", type=int, default=1)
    p_sim.add_argument("--mu", default="")
    p_sim.add_argument("--n", type=int, default=0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--kind",
        default="walk",
        choices=["walk", "lln-linear", "lln-constant", "clt-linear", "clt-constant"],
    )
    p_sim.add_argument("--out", default="")
    p_sim.set_defaults(func=_cmd_simulate)

    p_met = sub.add_parser("metric", help="evaluate path metrics")
    p_met.add_argument("--example", default="")
    p_met.add_argument("--list-examples", action="store_true")
    p_met.add_argument("--f", default="")
    p_met.add_argument("--g", default="")
    p_met.add_argument("--metric", default="rho-s",
                       choices=sorted(_METRIC_FUNCS))
    p_met.set_defaults(func=_cmd_metric)

    p_hull = sub.add_parser("hull", help="hull vertices, facets and functionals")
    p_hull.add_argument("--points", default="", help="CSV of points (with header)")
    p_hull.add_argument("--law", default="rademacher")
    p_hull.add_argument("--dim", type=int, default=2)
    p_hull.add_argument("--mu", default="")
    p_hull.add_argument("--n", type=int, default=0)
    p_hull.add_argument("--seed", type=int, default=0)
    p_hull.add_argument("--directions", type=int, default=4096)
    p_hull.add_argument("--out", default="")
    p_hull.set_defaults(func=_cmd_hull)

    p_exp = sub.add_parser(
        "experiment", help="run a Monte Carlo experiment",
        description="Run a Monte Carlo experiment and write its report.  Exit codes: "
                    "0 every check passed, 3 a check failed (all outputs are still "
                    "written), 2 configuration error, 1 runtime failure.")
    p_exp.add_argument("--config", default="")
    p_exp.add_argument("--builtin", default="",
                       help=f"one of: {', '.join(sorted(BUILTIN_CONFIGS))}")
    p_exp.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", default="")
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser("report", help="pretty-print a report CSV")
    p_rep.add_argument("--csv", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    # At exit, freeze the objects left (about 45k, mostly numpy and scipy
    # modules) instead of letting the collector walk and free a graph the
    # process is about to drop: exit after importing this module falls from
    # about 90 to 18 ms.  Safe because main has closed and renamed every
    # output (_write_atomic) before it returns.  Unregistered first, so
    # repeated in-process calls leave one handler.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
