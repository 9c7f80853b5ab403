import contextlib
import hashlib
import io
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from walklimits import csvio
from walklimits.cli import _walk_run, _write_atomic, build_parser, main
from walklimits.config import build_config, parse_text
from walklimits.experiments import law_from_config
from walklimits.functionals import ANY_DIM, FUNCTIONALS
from walklimits.geometry import ConvexBody, convex_hull
from walklimits.trajectory import LINEAR, Trajectory
from walklimits.walks import LAWS, Walk, sample_walk

CONFIG_OK = """
experiment = distributional
functional = max
law = rademacher
dim = 1
n = 128
replicas = 64
seed = 5
"""


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "walklimits", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_experiment_happy_path(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK)
    out = tmp_path / "run"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    for name in ("report.csv", "report.txt", "manifest.cfg"):
        assert (out / name).exists()
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "name,estimate,stderr,reference,ks,pass,threshold"


def test_experiment_manifest_roundtrip_byte_identical(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK)
    first = tmp_path / "a"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(first))
    assert res.returncode == 0, res.stderr
    second = tmp_path / "b"
    res = run_cli(
        "experiment", "--config", str(first / "manifest.cfg"), "--out", str(second)
    )
    assert res.returncode == 0, res.stderr
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    assert (first / "manifest.cfg").read_bytes() == (second / "manifest.cfg").read_bytes()


def test_experiment_rejects_zero_replicas(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG_OK.replace("replicas = 64", "replicas = 0"))
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "replicas" in res.stderr


def test_experiment_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG_OK + "walkers = 3\n")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "walkers" in res.stderr


def test_experiment_seed_override(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK)
    out = tmp_path / "s"
    res = run_cli(
        "experiment", "--config", str(cfg), "--out", str(out), "--seed", "123"
    )
    assert res.returncode == 0
    assert "seed = 123" in (out / "manifest.cfg").read_text()


def test_experiment_builtin_with_small_overrides(tmp_path):
    out = tmp_path / "b"
    res = run_cli(
        "experiment",
        "--builtin",
        "max-clt",
        "--override",
        "n=64",
        "--override",
        "replicas=32",
        "--override",
        "threshold=0.9",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    assert (out / "report.csv").exists()


def test_metric_example_values():
    res = run_cli("metric", "--example", "paper-2.2")
    assert res.returncode == 0
    assert "rho_S(f,h) = 0.05" in res.stdout
    assert "0.01" in res.stdout
    res = run_cli("metric", "--example", "paper-2.1")
    assert "rho_inf(f,h) = 0.95" in res.stdout
    for name in ("segment-unit-drift", "paper-2.1-g"):
        res = run_cli("metric", "--example", name)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "paper-2.1" in res.stderr and "paper-2.2" in res.stderr


def test_metric_lists_only_the_examples_it_runs():
    res = run_cli("metric", "--list-examples")
    assert res.returncode == 0, res.stderr
    names = [line.partition(":")[0] for line in res.stdout.splitlines()]
    assert names == ["paper-2.1", "paper-2.2"]
    for name in names:
        res = run_cli("metric", "--example", name)
        assert res.returncode == 0, res.stderr
        assert res.stdout
    res = run_cli("metric", "--example", "config:max-clt")
    assert res.returncode == 2 and res.stdout == ""
    assert all(name in res.stderr for name in names)


def test_readme_quick_tour_runs():
    # the README's "Library quick tour" block, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    res = subprocess.run([sys.executable, "-c", tour.split("```", 1)[0]],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 2


def test_metric_between_trajectory_files(tmp_path):
    from walklimits import csvio
    from walklimits.fixtures import step_f, step_h

    fa = tmp_path / "f.csv"
    fb = tmp_path / "h.csv"
    fa.write_text("".join(csvio.trajectory_blocks(step_f())))
    fb.write_text("".join(csvio.trajectory_blocks(step_h())))
    res = run_cli("metric", "--f", str(fa), "--g", str(fb), "--metric", "rho-s")
    assert res.returncode == 0
    assert "0.05" in res.stdout


def test_metric_prints_mode(tmp_path):
    from walklimits import csvio
    from walklimits.fixtures import step_f, step_h
    from walklimits.trajectory import segment

    def metric(name, f, g):
        paths = [tmp_path / "f.csv", tmp_path / "g.csv"]
        for path, traj in zip(paths, (f, g)):
            path.write_text("".join(csvio.trajectory_blocks(traj)))
        res = run_cli("metric", "--f", str(paths[0]), "--g", str(paths[1]), "--metric", name)
        assert res.returncode == 0, res.stderr
        return res.stdout.splitlines()

    # a time change found by the search prints its deviation from the identity
    for name in ("rho-s", "rho-s-circ"):
        assert metric(name, step_f(), step_h()) == [
            f"{name}(f,g) = 0.05 mode=exact", "witness sup|lambda - id| = 0.01"]
    # piecewise-linear pairs only get the rho_inf upper bound, whose witness
    # is the identity
    for name in ("rho-s", "rho-s-circ"):
        assert metric(name, segment([1.0]), segment([2.0])) == [
            f"{name}(f,g) = 1 mode=upper-bound", "witness sup|lambda - id| = 0"]
    # rho_inf has no time change, so no witness line
    for f, g, value in [(step_f(), step_h(), "0.95"), (segment([1.0]), segment([2.0]), "1")]:
        assert metric("rho-inf", f, g) == [f"rho-inf(f,g) = {value} mode=exact"]


def _traj_text(traj):
    return "".join(csvio.trajectory_blocks(traj))


@pytest.mark.parametrize("metric,g_text,match", [
    ("rho-s", "# kind = piecewise-constant\nt,x1\n", "at least one row"),
    ("rho-s", "# kind = piecewise-constant\nt,x1\n0.0,0.0\n0.5,nan\n1.0,1.0\n", "finite"),
    ("rho-inf", "# kind = piecewise-constant\nt,x1\n0.0,inf\n1.0,1.0\n", "finite"),
    ("rho-inf", "# kind = piecewise-constant\nt\n0.0\n1.0\n", "at least one row"),
    ("rho-inf", _traj_text(Trajectory("piecewise-constant", [0.0, 1.0], [[0.0, 0.0]] * 2)),
     "equal dimension"),
    ("rho-s", _traj_text(Trajectory(LINEAR, [0.0, 1.0], [0.0, 1.0])), "same kind"),
    ("rho-s-circ", _traj_text(Trajectory(LINEAR, [0.0, 1.0], [0.0, 1.0])), "same kind"),
    ("rho-s", "t,x1\n0.0,0.0\n1.0,1.0\n", "the first line must be '# kind = "),
    ("rho-s", "# kind = piecewise-constant\n0.0,1.0\n0.5,0.0\n1.0,0.0\n",
     "the second line must be t,x1"),
], ids=["no-rows", "nan", "inf", "no-values", "dimension", "kind-rho-s", "kind-rho-s-circ",
        "no-kind-line", "no-header-line"])
def test_metric_refuses_bad_trajectory_files(tmp_path, capsys, metric, g_text, match):
    from walklimits.fixtures import step_f

    (tmp_path / "f.csv").write_text(_traj_text(step_f()))
    (tmp_path / "g.csv").write_text(g_text)
    args = ["metric", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv")]
    assert main([*args, "--metric", metric]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("config error") and match in out.err


def test_simulate_writes_walk_and_manifest(tmp_path):
    out = tmp_path / "sim"
    res = run_cli(
        "simulate", "--law", "rademacher", "--dim", "1", "--n", "32",
        "--seed", "9", "--out", str(out),
    )
    assert res.returncode == 0
    walk_lines = (out / "walk.csv").read_text().splitlines()
    assert walk_lines[0] == "k,x1"
    assert len(walk_lines) == 34
    assert (out / "manifest.cfg").exists()


def test_simulate_trajectory_kind(tmp_path):
    out = tmp_path / "sim2"
    res = run_cli(
        "simulate", "--law", "deterministic", "--dim", "2", "--mu", "1,0",
        "--n", "8", "--seed", "1", "--kind", "lln-linear", "--out", str(out),
    )
    assert res.returncode == 0
    text = (out / "trajectory.csv").read_text()
    assert text.startswith("# kind = piecewise-linear")


def test_hull_subcommand_outputs(tmp_path):
    out = tmp_path / "hull"
    res = run_cli(
        "hull", "--law", "gaussian", "--dim", "2", "--n", "256",
        "--seed", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert (out / "vertices.csv").exists()
    off = (out / "body.off").read_text().splitlines()
    assert off[0] == "OFF"
    assert (out / "hull_report.csv").exists()
    assert "volume" in res.stdout


@pytest.mark.parametrize("args,manifest", [
    (["simulate", "--law", "gaussian", "--dim", "2", "--mu", "1,0", "--n", "5", "--seed", "7",
      "--kind", "clt-linear"],
     "subcommand = simulate\nkind = clt-linear\nlaw = gaussian\ndim = 2\nmu = 1.0,0.0\n"
     "n = 5\nseed = 7\n"),
    (["hull", "--law", "gaussian", "--dim", "3", "--mu", "1,0,0", "--n", "40", "--seed", "2"],
     "subcommand = hull\nlaw = gaussian\ndim = 3\nmu = 1.0,0.0,0.0\nn = 40\nseed = 2\n"
     "directions = 4096\n"),
    (["hull", "--points", "points.csv", "--directions", "64"],
     "subcommand = hull\npoints = points.csv\ndirections = 64\n"),
], ids=["simulate", "hull-drift", "hull-points"])
def test_manifest_records_every_walk_key_the_run_used(tmp_path, monkeypatch, args, manifest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.csv").write_text("x1,x2\n0,0\n1,0\n0,1\n")
    assert main([*args, "--out", "run"]) == 0
    assert (tmp_path / "run" / "manifest.cfg").read_text() == manifest


@pytest.mark.parametrize("flags", [["--dim", "0"], ["--law", "foo"], ["--mu", "1,0"],
                                   ["--seed", "-1"]], ids=["dim", "law", "mu", "seed"])
def test_hull_points_ignores_the_walk_flags(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.csv").write_text("x1,x2\n0,0\n1,0\n0,1\n")
    assert main(["hull", "--points", "points.csv", "--out", "plain"]) == 0
    assert main(["hull", "--points", "points.csv", *flags, "--out", "flags"]) == 0
    for name in ("vertices.csv", "body.off", "hull_report.csv", "manifest.cfg"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert main(["hull", "--points", "points.csv", "--directions", "0", "--out", "x"]) == 2
    assert not (tmp_path / "x").exists()


HULL_POINTS = {
    "point": "x1,x2\n0.5,-1.25\n",
    "segment-d2": "x1,x2\n0.1,0.2\n-0.3,-0.6\n0.7,1.4\n0.0,0.0\n",
    "segment-d3": "x1,x2,x3\n0.1,0.2,-0.3\n1.0,2.0,-3.0\n-0.5,-1.0,1.5\n0.0,0.0,0.0\n",
    "square-d3": "x1,x2,x3\n0,0,1\n1,0,1\n1,1,1\n0,1,1\n0.5,0.5,1\n0.25,0.75,1\n",
    "triangle-d4": "x1,x2,x3,x4\n0,0,0,0\n1,0,2,0\n0,1,0,-1\n0.2,0.3,0.4,-0.3\n",
}

# sha256 prefixes of (vertices.csv, body.off, hull_report.csv): Gaussian walks
# of 2000 steps (seed 7) in d = 1-4, and the HULL_POINTS files
HULL_PINS = {
    "walk-d1": ("a5520012a7d1c281", "1b3cb0f41fa437f8", "b17c7831d1fd4c96"),
    "walk-d2": ("d9a3df609f43d57e", "ecfb827b4f41d5ce", "d61ae85f57748e69"),
    "walk-d3": ("eeba0d2fcb854695", "69d78580120bc5fb", "444886fca725bf87"),
    "walk-d4": ("2b33fbd0e15404f3", "24d69d7afdf57a9a", "718d3c232bfa1601"),
    "point": ("f2feebe71ce88ec0", "8b3b9285d938827b", "05823aa865129c23"),
    "segment-d2": ("f7cdf6de1102f4e9", "d84e60f6e77c795e", "9e25519cdc9c8669"),
    "segment-d3": ("163e03af8f99c16d", "957067c26fc3bb44", "747ef4a8e2185591"),
    "square-d3": ("baeb3d9c1d5e6fe9", "219d02c659504099", "194ba41b5604ee7c"),
    "triangle-d4": ("13142c3881685ac7", "0f7db7717cd2656f", "4abbf7881f3667e8"),
}


@pytest.mark.parametrize("name", sorted(HULL_PINS))
def test_hull_outputs_are_byte_identical(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    if name in HULL_POINTS:
        (tmp_path / "points.csv").write_text(HULL_POINTS[name])
        args = ["--points", "points.csv"]
    else:
        args = ["--law", "gaussian", "--dim", name[-1], "--n", "2000", "--seed", "7"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["hull", *args, "--out", "run"]) == 0
    assert tuple(hashlib.sha256((tmp_path / "run" / f).read_bytes()).hexdigest()[:16]
                 for f in ("vertices.csv", "body.off", "hull_report.csv")) == HULL_PINS[name]


@pytest.mark.parametrize("args,key", [
    (["simulate", "--law", "gaussian", "--mu", "nan", "--n", "4"], "mu"),
    (["experiment", "--builtin", "etemadi-d1", "--override", "x_grid=nan,inf",
      "--override", "replicas=50"], "x_grid"),
    (["experiment", "--builtin", "max-clt", "--override", "threshold=inf"], "threshold"),
    (["experiment", "--builtin", "hull-volume-identity", "--override", "sigma=inf,0;0,1"],
     "sigma"),
    (["hull", "--law", "gaussian", "--mu", "inf,0", "--n", "5"], "mu"),
], ids=["simulate-mu", "etemadi-x_grid", "threshold", "sigma", "hull-mu"])
def test_non_finite_numbers_exit_2_naming_the_key(tmp_path, capsys, args, key):
    assert main([*args, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be " + (
        "finite\n" if key in ("mu", "sigma") else ">= 0\n")
    assert not (tmp_path / "run").exists()


def test_hull_subcommand_reports_exact_volume_in_d4(tmp_path):
    out = tmp_path / "hull4"
    res = run_cli(
        "hull", "--law", "gaussian", "--dim", "4", "--n", "200",
        "--seed", "3", "--directions", "64", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    rows = (out / "hull_report.csv").read_text().splitlines()[1:]
    names = [r.split(",")[0] for r in rows]
    assert names == ["diameter", "mean-width", "surface-area", "volume"]
    assert all(float(r.split(",")[1]) > 0.0 for r in rows)


def test_report_subcommand_pretty_prints(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK)
    out = tmp_path / "r"
    run_cli("experiment", "--config", str(cfg), "--out", str(out))
    res = run_cli("report", "--csv", str(out / "report.csv"))
    assert res.returncode == 0
    assert "max:" in res.stdout


def test_report_handles_quoted_row_names(tmp_path):
    # covariance rows are named like cov(0.5,1); the comma must be CSV-quoted
    cfg = tmp_path / "ck.cfg"
    cfg.write_text(
        """
experiment = com-kernel
law = rademacher
dim = 1
n = 200
replicas = 300
pairs = 0.5:1
seed = 3
"""
    )
    out = tmp_path / "ck"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert '"cov(0.5,1)"' in (out / "report.csv").read_text()
    res = run_cli("report", "--csv", str(out / "report.csv"))
    assert res.returncode == 0, res.stderr
    assert "cov(0.5,1):" in res.stdout


def test_report_subcommand_prints_the_summary_rows(tmp_path, capsys):
    # a max-clt report's rows carry no note, the one field the CSV leaves out
    out = tmp_path / "m"
    main(["experiment", "--builtin", "max-clt", "--override", "n=1000",
          "--override", "replicas=200", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--csv", str(out / "report.csv")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"report: {out / 'report.csv'}"
    rows = (out / "report.txt").read_text().split("\n\n", 1)[1].splitlines()
    assert rows and printed[1:] == rows


def test_report_reads_only_reports(tmp_path, capsys):
    # a walk.csv and an empty file exit 2; a report.csv and a hull_report.csv print
    main(["simulate", "--n", "8", "--seed", "1", "--out", str(tmp_path / "s")])
    main(["hull", "--law", "gaussian", "--dim", "2", "--n", "16", "--seed", "3",
          "--out", str(tmp_path / "h")])
    main(["experiment", "--builtin", "max-clt", "--override", "n=100",
          "--override", "replicas=20", "--out", str(tmp_path / "e")])
    (tmp_path / "empty.csv").write_text("")
    capsys.readouterr()
    for path in (tmp_path / "s" / "walk.csv", tmp_path / "empty.csv"):
        assert main(["report", "--csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: not a report"), err
    for path in (tmp_path / "e" / "report.csv", tmp_path / "h" / "hull_report.csv"):
        assert main(["report", "--csv", str(path)]) == 0
        assert "estimate=" in capsys.readouterr().out


def test_dump_samples_written(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK + "dump_samples = true\n")
    out = tmp_path / "d"
    res = run_cli("experiment", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    sample_files = list(out.glob("samples_*.csv"))
    assert sample_files
    lines = sample_files[0].read_text().splitlines()
    assert lines[0] == "sample_id,value"
    assert len(lines) == 65


def test_out_dir_from_environment(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK)
    out = tmp_path / "envout"
    res = run_cli(
        "experiment", "--config", str(cfg), env={"WALKLIMITS_OUT": str(out)}
    )
    assert res.returncode == 0
    assert (out / "report.csv").exists()


def test_runtime_failure_exits_one(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(CONFIG_OK)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(blocker))
    assert res.returncode == 1
    assert res.stderr.strip()


@pytest.mark.parametrize(
    "args",
    [
        ["experiment", "--builtin", "max-clt", "--seed", "-1"],
        ["experiment", "--builtin", "max-clt", "--override", "seed=-1"],
        ["simulate", "--n", "8", "--seed", "-3"],
        ["hull", "--n", "8", "--seed", "-3"],
    ],
    ids=["experiment-flag", "experiment-config", "simulate", "hull"],
)
def test_negative_seed_is_config_error(tmp_path, args):
    res = run_cli(*args, "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert "seed" in res.stderr
    assert not (tmp_path / "x").exists()


def test_experiment_exits_three_on_a_failing_report(tmp_path):
    res = run_cli("experiment", "--builtin", "perimeter-lln", "--out", str(tmp_path))
    assert res.returncode == 3, res.stderr
    assert "FAIL" in res.stdout
    assert ",false," in (tmp_path / "report.csv").read_text()
    assert (tmp_path / "manifest.cfg").exists()


def test_experiment_exits_zero_on_a_passing_report(tmp_path):
    res = run_cli("experiment", "--builtin", "max-clt", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert ",false," not in (tmp_path / "report.csv").read_text()


def test_com_in_the_plane_runs_against_its_brownian_surrogate(tmp_path):
    cfg = tmp_path / "com.cfg"
    cfg.write_text("experiment = distributional\nfunctional = com\nlaw = rademacher\n"
                   "dim = 2\nn = 500\nreplicas = 2000\nseed = 21\nt = 0.5\n")
    res = run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "x" / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["com.x1", "com.x1-surrogate",
                                                   "com.x2", "com.x2-surrogate"]


def test_nan_threshold_is_config_error(tmp_path):
    res = run_cli("experiment", "--builtin", "perimeter-lln",
                  "--override", "threshold=nan", "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert "threshold" in res.stderr


def test_simulate_rejects_zero_dim(tmp_path):
    res = run_cli("simulate", "--dim", "0", "--n", "8", "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert "dim" in res.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["simulate", "--law", "rademacher", "--mu", "1", "--n", "4", "--kind", "clt-linear"],
         "mean zero"),
        (["hull", "--n", "8", "--directions", "0"], "directions"),
        (["experiment", "--builtin", "perimeter-lln", "--override", "dim=3",
          "--override", "mu=1,0,0", "--override", "sigma="], "first-order limit"),
        (["experiment", "--builtin", "max-clt", "--seed", "-1"], "seed must be >= 0"),
        (["experiment", "--builtin", "max-clt", "--override", "law=gaussian",
          "--override", "mu=0.05", "--override", "replicas=500"], "mu must be zero"),
    ],
    ids=["simulate-drift-on-zero-mean-law", "hull-directions", "lln-without-constant",
         "experiment-seed-flag", "distributional-drift"],
)
def test_walk_and_sweep_inputs_are_config_errors(tmp_path, args, message):
    res = run_cli(*args, "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and message in res.stderr
    assert not (tmp_path / "x").exists()


POINTS = {"abc": "x1,x2\n0,0\n1,abc\n", "no-rows": "x1,x2\n",
          "nan": "x1,x2\n0,0\nnan,1\n1,1\n"}


@pytest.mark.parametrize(
    "args",
    [
        ["hull", "--points", "missing.csv"],
        *(["hull", "--points", f"{name}.csv"] for name in POINTS),
        ["report", "--csv", "missing.csv"],
        ["metric", "--f", "missing.csv", "--g", "missing.csv"],
        ["experiment", "--config", "missing.cfg"],
        ["experiment", "--config", "latin1.cfg"],
    ],
    ids=["hull-missing", *(f"hull-{name}" for name in POINTS), "report-missing",
         "metric-missing", "experiment-missing", "experiment-not-utf8"],
)
def test_bad_input_files_are_config_errors(tmp_path, args):
    for name, text in POINTS.items():
        (tmp_path / f"{name}.csv").write_text(text)
    (tmp_path / "latin1.cfg").write_bytes("law = gaußian\n".encode("latin-1"))
    args = [str(tmp_path / a) if a.endswith((".csv", ".cfg")) else a for a in args]
    out = ["--out", str(tmp_path / "x")] if args[0] in ("hull", "experiment") else []
    res = run_cli(*args, *out)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"config error: cannot read {args[2]}: ")  # the first file
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "sigma,message",
    [("1,2;3,4", "symmetric"), ("1,0;0,-1", "not PSD")],
    ids=["non-symmetric", "not-psd"],
)
def test_bad_covariance_is_config_error(tmp_path, sigma, message):
    res = run_cli("experiment", "--builtin", "hull-volume-identity",
                  "--override", f"sigma={sigma}", "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: sigma:") and message in res.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("builtin,sigma", [("etemadi-d2", "9,0;0,1"), ("max-clt", "4")])
def test_sigma_the_law_does_not_carry_is_config_error(tmp_path, capsys, builtin, sigma):
    # a Rademacher walk has identity covariance whatever sigma says
    assert main(["experiment", "--builtin", builtin, "--override", f"sigma={sigma}",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sigma: law rademacher ") and "1.0" in err
    assert not (tmp_path / "x").exists()


def test_sigma_equal_to_the_laws_covariance_runs(tmp_path, capsys):
    # a verdict (0 or 3 at three replicas), not a config error
    assert main(["experiment", "--builtin", "max-clt", "--override", "sigma=1",
                 "--override", "replicas=3", "--out", str(tmp_path / "x")]) in (0, 3)
    assert "sigma = 1.0\n" in (tmp_path / "x" / "manifest.cfg").read_text()


def _bad_dim(dims):
    return dims[0] - 1 if dims[0] > 1 else dims[1] + 1


@pytest.mark.parametrize(
    "functional",
    [f for f, spec in FUNCTIONALS.items() if spec.dims != ANY_DIM],
)
def test_functional_dimension_constraints_exit_two(tmp_path, functional):
    dim = _bad_dim(FUNCTIONALS[functional].dims)
    res = run_cli("experiment", "--builtin", "max-clt", "--override", f"functional={functional}",
                  "--override", f"dim={dim}", "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert f"functional {functional} needs dim" in res.stderr


# each kind's own covariance (the CLI has no sigma flag, so the Gaussian's is I)
LAW_SIGMAS = {"rademacher": "1,0;0,1", "gaussian": "1,0;0,1",
              "uniform-cube": f"{1 / 12!r},0;0,{1 / 12!r}", "deterministic": "0,0;0,0",
              "lattice-simple-symmetric": "0.5,0;0,0.5"}


@pytest.mark.parametrize("kind", sorted(LAWS))
def test_law_table_builds_the_same_law_from_config_and_cli(tmp_path, kind):
    mu = "0,0" if LAWS[kind].zero_mean else "0.5,-1"
    cfg = build_config(parse_text(f"experiment = etemadi\nlaw = {kind}\ndim = 2\nmu = {mu}\n"
                                  f"sigma = {LAW_SIGMAS[kind]}\nn = 6\nx_grid = 1\nseed = 4\n"))
    args = build_parser().parse_args(["simulate", "--law", kind, "--dim", "2", "--mu", mu,
                                      "--n", "6", "--seed", "4", "--out", str(tmp_path)])
    _, from_cli, walk = _walk_run(args)
    from_cfg = law_from_config(cfg)
    assert from_cli.kind == from_cfg.kind == kind
    assert np.array_equal(from_cli.mu, from_cfg.mu)
    assert np.array_equal(from_cli.sigma, from_cfg.sigma)
    assert np.array_equal(walk.sums, sample_walk(from_cfg, 6, 4).sums)
    assert main(["simulate", "--law", kind, "--dim", "2", "--mu", mu, "--n", "6",
                 "--seed", "4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "walk.csv").read_text() == "".join(csvio.walk_blocks(walk))


SPECIAL_ROWS = np.array([[-0.0, 1e16, 1e-5], [0.1 + 0.2, np.inf, np.nan], [-np.inf, 1.0, -2.5]])


def _per_element_row(row, sep=","):
    """The row formatter csvio used before rows went through tolist()."""
    return sep.join(repr(float(x)) for x in row)


def test_csv_rows_match_per_element_repr():
    walk = Walk(np.vstack([np.zeros(3), SPECIAL_ROWS]))
    assert "".join(csvio.walk_blocks(walk)).splitlines()[1:] == [
        f"{k},{_per_element_row(r)}" for k, r in enumerate(walk.sums)]
    traj = Trajectory(LINEAR, [0.0, 0.1 + 0.2, 1.0], SPECIAL_ROWS)
    assert "".join(csvio.trajectory_blocks(traj)).splitlines()[2:] == [
        f"{_per_element_row([t])},{_per_element_row(r)}" for t, r in zip(traj.times, traj.values)]
    for values in (SPECIAL_ROWS, np.arange(3), [True, 2, 0.5]):
        assert "".join(csvio.samples_blocks(values)).splitlines()[1:] == [
            f"{i},{_per_element_row([v])}" for i, v in enumerate(np.ravel(values))]
    body = ConvexBody(vertices=SPECIAL_ROWS, normals=None, offsets=None, volume=0.0,
                      surface_area=0.0, faces=np.zeros((0, 3), dtype=int))
    assert csvio.vertices_csv(body).splitlines()[1:] == [_per_element_row(r) for r in SPECIAL_ROWS]
    assert csvio.off_text(body).splitlines()[2:] == [
        _per_element_row(r, " ") for r in SPECIAL_ROWS]


def test_flat_polygon_dumps_its_loop_as_one_face():
    # a coplanar square in d = 3 (and its centre, no vertex): one face through
    # its four corners in loop order
    square = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.5, 0.5, 1.0]]
    off = csvio.off_text(convex_hull(np.array(square))).splitlines()
    assert off[:2] == ["OFF", "4 1 0"]
    assert sorted(off[2:6]) == sorted(" ".join(map(repr, p)) for p in square[:4])
    assert off[6:] == ["4 0 1 2 3"]


def _one_string_walk_csv(walk):
    """The walk CSV as first written: every line in one list, joined once."""
    lines = ["k," + ",".join(f"x{i + 1}" for i in range(walk.dim))]
    for k, row in enumerate(np.asarray(walk.sums, dtype=float).tolist()):
        lines.append(str(k) + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _one_string_trajectory_csv(traj):
    lines = [f"# kind = {traj.kind}", "t," + ",".join(f"x{i + 1}" for i in range(traj.dim))]
    for t, row in zip(traj.times.tolist(), traj.values.tolist()):
        lines.append(repr(t) + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _one_string_samples_csv(values):
    lines = ["sample_id,value"]
    for i, v in enumerate(np.asarray(np.ravel(values), dtype=float).tolist()):
        lines.append(f"{i},{v!r}")
    return "\n".join(lines) + "\n"


B = csvio._BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B])
def test_streamed_csv_equals_one_string_writers(rows):
    # the special values (-0.0, 1e16, 1e-5, nan, +-inf) lead every table
    values = np.random.default_rng(rows).normal(scale=1e3, size=(rows, 3))
    values.ravel()[: SPECIAL_ROWS.size] = SPECIAL_ROWS.ravel()[: values.size]
    walk = Walk(values)
    traj = Trajectory(LINEAR, np.linspace(0.0, 1.0, rows) if rows > 1 else [0.0], values)
    samples = values.ravel()[:rows]
    for blocks, oracle in [
        (csvio.walk_blocks(walk), _one_string_walk_csv(walk)),
        (csvio.trajectory_blocks(traj), _one_string_trajectory_csv(traj)),
        (csvio.samples_blocks(samples), _one_string_samples_csv(samples)),
    ]:
        blocks = list(blocks)
        assert "".join(blocks) == oracle
        assert len(blocks) == 1 + -(-rows // B)
        assert all(block.count("\n") <= B for block in blocks[1:])


def test_write_atomic_leaves_nothing_when_the_blocks_fail(tmp_path):
    def blocks():
        yield "k,x1\n"
        yield "0,1.0\n" * 100000
        raise RuntimeError("formatting failed")

    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    for target in (fresh, kept):
        with pytest.raises(RuntimeError, match="formatting failed"):
            _write_atomic(str(target), blocks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    assert kept.read_text() == "old\n"


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002], ids=oct)
def test_outputs_get_the_mode_open_would_give(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert main(["simulate", "--n", "5", "--out", str(tmp_path / "sim")]) == 0
        with open(tmp_path / "by-open", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(previous)
    want = stat.S_IMODE((tmp_path / "by-open").stat().st_mode)
    assert want == 0o666 & ~umask
    for name in ("walk.csv", "manifest.cfg"):
        assert stat.S_IMODE((tmp_path / "sim" / name).stat().st_mode) == want


def _traced_peak(args) -> int:
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_stays_bounded(tmp_path):
    # a 2e5-step d = 2 walk is streamed to walk.csv block by block; building
    # the file as one string took 49 MB of traced memory
    peak = _traced_peak(["simulate", "--law", "gaussian", "--dim", "2", "--mu", "1,0",
                         "--n", "200000", "--seed", "102", "--out", str(tmp_path / "sim")])
    assert (tmp_path / "sim" / "walk.csv").stat().st_size > 8 * 10**6
    assert peak < 16 * 2**20
    # a walk holds its sums and one chunk's temporaries, and the planar hull
    # adds its screening masks: 17.9 MiB at 10^6 steps, where a whole draw
    # beside the sums peaked at 30.6 MiB
    n = 10**6
    peak = _traced_peak(["hull", "--law", "gaussian", "--n", str(n), "--seed", "3",
                         "--out", str(tmp_path / "hull")])
    assert peak < (n + 1) * 2 * 8 + 4 * 2**20
    # lattice walks are chunked in every d: a whole d = 3 draw added its
    # moves and rows beside the sums, 32 MB at 10^6 steps
    peak = _traced_peak(["simulate", "--law", "lattice-simple-symmetric", "--dim", "3",
                         "--n", str(n), "--out", str(tmp_path / "lattice")])
    assert peak < (n + 1) * 3 * 8 + 4 * 2**20


def test_exit_path_matches_an_in_process_run(tmp_path):
    # the process freezes its objects at exit instead of collecting them; its
    # outputs, closed before main returns, equal an in-process run's
    args = ["experiment", "--builtin", "max-clt", "--override", "replicas=200",
            "--override", "dump_samples=true"]
    res = run_cli(*args, "--out", str(tmp_path / "sub"))
    rc = main([*args, "--out", str(tmp_path / "in")])
    assert res.returncode == rc, res.stderr
    names = sorted(p.name for p in (tmp_path / "sub").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "in").iterdir())
    assert "samples_max.csv" in names
    for name in names:
        if name.endswith(".csv"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()


def test_main_leaves_one_gc_freeze_handler_at_exit(tmp_path):
    # two in-process calls register the exit handler once; a stand-in for
    # gc.freeze reports each call it gets when the interpreter exits
    code = ("import gc, sys\n"
            "from walklimits.cli import main\n"
            "gc.freeze = lambda: sys.stderr.write('freeze\\n')\n"
            "for out in sys.argv[1:]:\n"
            "    main(['simulate', '--n', '5', '--out', out])\n")
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "a"), str(tmp_path / "b")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == ["freeze"]
