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
``simulate`` and ``hull`` take their config, law and walk from one helper,
``_walk_run``; ``hull --points`` reads no walk flag and checks only
``--directions``.  ``main`` has the process freeze its objects at exit
rather than collect them, since every output is closed by then.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import re
import secrets
import sys
import warnings
from typing import Iterable

import numpy as np

from . import csvio, geometry, metrics
from .config import ConfigError, ExperimentConfig, build_config, manifest_text
from .config import parse_text, typed_value, validate_walk
from .experiments import Report, ReportRow, law_from_config, read_rows, rows_csv, run_experiment
from .fixtures import BUILTIN_CONFIGS, jump_alignment, step_f, step_g, step_h
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


def _read_input(path: str, parse):
    """parse(file) of a file named on the command line; ConfigError if it
    cannot be opened or parse raises ValueError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


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
    overrides = args.override + ([] if args.seed is None else [f"seed={args.seed}"])
    if args.builtin:
        if args.builtin not in BUILTIN_CONFIGS:
            known = ", ".join(sorted(BUILTIN_CONFIGS))
            raise ConfigError(f"unknown builtin config: {args.builtin} (known: {known})")
        raw = parse_text(BUILTIN_CONFIGS[args.builtin])
    else:
        raw = _read_input(args.config, lambda fh: parse_text(fh.read()))
    cfg = build_config(raw, overrides)
    out = _out_dir(args)
    report = run_experiment(cfg)
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
        for name, (desc, _) in _METRIC_EXAMPLES.items():
            print(f"{name}: {desc}")
        return 0
    if args.example:
        if args.example not in _METRIC_EXAMPLES:
            raise ConfigError(f"unknown example: {args.example} "
                              f"(choose {' or '.join(_METRIC_EXAMPLES)})")
        _METRIC_EXAMPLES[args.example][1]()
        return 0
    if not (args.f and args.g):
        raise ConfigError("pass --example NAME, --list-examples, or --f/--g CSV paths")
    f, g = (_read_input(path, lambda fh: csvio.read_trajectory(fh.read()))
            for path in (args.f, args.g))
    try:
        metrics._check_pair(f, g, same_kind=args.metric != "rho-inf")
    except ValueError as exc:
        raise ConfigError(f"--f and --g: {exc}") from None
    res = _METRIC_FUNCS[args.metric](f, g)
    print(f"{args.metric}(f,g) = {res.value:.10g} mode={res.mode}")
    if res.witness is not None:
        print(f"witness sup|lambda - id| = {res.witness.sup_deviation():.10g}")
    return 0


def _paper_2_1() -> None:
    f = step_f()
    print(f"rho_inf(f,g) = {metrics.rho_inf(f, step_g()):.10g}")
    print(f"rho_inf(f,h) = {metrics.rho_inf(f, step_h()):.10g}")


def _paper_2_2() -> None:
    f = step_f()
    res_fg = metrics.rho_skorokhod(f, step_g())
    res_fh = metrics.rho_skorokhod(f, step_h())
    print(f"rho_S(f,g) = {res_fg.value:.10g}")
    print(f"rho_S(f,h) = {res_fh.value:.10g}")
    if res_fh.witness is not None:
        print(f"witness sup|lambda - id| = {res_fh.witness.sup_deviation():.10g}")
    print(f"bundled lambda chord-log norm = {metrics.lambda_circ_norm(jump_alignment()):.10g}")


# The paper's worked examples on the bundled fixtures, name -> (description,
# printer): ``--list-examples`` lists exactly what ``--example`` runs.
_METRIC_EXAMPLES = {
    "paper-2.1": ("sup distances rho_inf(f,g) and rho_inf(f,h)", _paper_2_1),
    "paper-2.2": ("Skorokhod distances rho_S(f,g) and rho_S(f,h), and the "
                  "bundled time change's chord-log norm", _paper_2_2),
}


# The config keys set by the walk flags, in the order a manifest lists them.
_WALK_KEYS = ("law", "dim", "mu", "n", "seed")


def _add_walk_flags(parser: argparse.ArgumentParser, dim: int) -> None:
    """The walk flags of simulate and hull, and --out; dim is --dim's default."""
    parser.add_argument("--law", default="rademacher")
    parser.add_argument("--dim", type=int, default=dim)
    parser.add_argument("--mu", default="")
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="")


def _walk_run(args, **extra):
    """The config, law and walk of simulate's and hull's walk flags (and the
    extra keys), checked as a config's would be, with n >= 1."""
    cfg = ExperimentConfig(law=args.law, dim=args.dim, mu=typed_value("mu", args.mu),
                           n=args.n, seed=args.seed, **extra)
    validate_walk(cfg)
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    law = law_from_config(cfg)
    return cfg, law, sample_walk(law, cfg.n, cfg.seed)


def _cmd_simulate(args) -> int:
    cfg, law, walk = _walk_run(args)
    out = _out_dir(args)
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
    head = f"subcommand = simulate\nkind = {args.kind}\n"
    _write_atomic(os.path.join(out, "manifest.cfg"), head + manifest_text(cfg, _WALK_KEYS))
    print(f"wrote {os.path.join(out, written)}")
    return 0


def _points(fh) -> np.ndarray:
    """The rows of a points CSV under its header line: at least one, all finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on no rows, rejected below
        points = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    if not (points.size and np.isfinite(points).all()):
        raise ValueError("need at least one row of finite coordinates")
    return points


def _cmd_hull(args) -> int:
    if args.points:  # the walk flags are not read, so not checked
        cfg = ExperimentConfig(directions=args.directions)
        validate_walk(cfg)
        points = _read_input(args.points, _points)
        head, keys = f"subcommand = hull\npoints = {args.points}\n", ("directions",)
    else:
        cfg, _, walk = _walk_run(args, directions=args.directions)
        points = walk.sums
        head, keys = "subcommand = hull\n", (*_WALK_KEYS, "directions")
    body = geometry.convex_hull(points)
    out = _out_dir(args)
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
    _write_atomic(os.path.join(out, "manifest.cfg"), head + manifest_text(cfg, keys))
    for name, v in rows:
        print(f"{name} = {v:.10g}")
    return 0


def _cmd_report(args) -> int:
    rows = _read_input(args.csv, read_rows)
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
    _add_walk_flags(p_sim, dim=1)
    p_sim.add_argument(
        "--kind",
        default="walk",
        choices=["walk", "lln-linear", "lln-constant", "clt-linear", "clt-constant"],
    )
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
    _add_walk_flags(p_hull, dim=2)
    p_hull.add_argument("--directions", type=int, default=4096)
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
