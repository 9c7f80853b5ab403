import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from walklimits import csvio
from walklimits.cli import _walk_config, _write_atomic, build_parser, main
from walklimits.config import build_config, parse_text
from walklimits.experiments import law_from_config
from walklimits.functionals import ANY_DIM, FUNCTIONALS
from walklimits.geometry import ConvexBody
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


def test_experiment_missing_config_is_config_error(tmp_path):
    res = run_cli("experiment", "--config", str(tmp_path / "nope.cfg"))
    assert res.returncode == 2
    assert "nope.cfg" in res.stderr


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


def test_metric_listing_contains_fixtures():
    res = run_cli("metric", "--list-examples")
    assert res.returncode == 0
    assert "paper-2.1-f" in res.stdout
    assert "paper-2.2-lambda" in res.stdout
    assert "config:max-clt" in res.stdout


def test_metric_between_trajectory_files(tmp_path):
    from walklimits import csvio
    from walklimits.fixtures import step_f, step_h

    fa = tmp_path / "f.csv"
    fb = tmp_path / "h.csv"
    fa.write_text(csvio.trajectory_csv(step_f()))
    fb.write_text(csvio.trajectory_csv(step_h()))
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
            path.write_text(csvio.trajectory_csv(traj))
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
    ],
    ids=["simulate-drift-on-zero-mean-law", "hull-directions", "lln-without-constant"],
)
def test_walk_and_sweep_inputs_are_config_errors(tmp_path, args, message):
    res = run_cli(*args, "--out", str(tmp_path / "x"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and message in res.stderr
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


@pytest.mark.parametrize("kind", sorted(LAWS))
def test_law_table_builds_the_same_law_from_config_and_cli(tmp_path, kind):
    mu = "0,0" if LAWS[kind].zero_mean else "0.5,-1"
    cfg = build_config(parse_text(f"experiment = etemadi\nlaw = {kind}\ndim = 2\nmu = {mu}\n"
                                  "sigma = 1,0;0,1\nn = 6\nx_grid = 1\nseed = 4\n"))
    args = build_parser().parse_args(["simulate", "--law", kind, "--dim", "2", "--mu", mu,
                                      "--n", "6", "--seed", "4", "--out", str(tmp_path)])
    from_cli = law_from_config(_walk_config(args))
    from_cfg = law_from_config(cfg)
    assert from_cli.kind == from_cfg.kind == kind
    assert np.array_equal(from_cli.mu, from_cfg.mu)
    assert np.array_equal(from_cli.sigma, from_cfg.sigma)
    assert main(["simulate", "--law", kind, "--dim", "2", "--mu", mu, "--n", "6",
                 "--seed", "4", "--out", str(tmp_path)]) == 0
    walk = sample_walk(from_cfg, 6, 4)
    assert (tmp_path / "walk.csv").read_text() == csvio.walk_csv(walk)


SPECIAL_ROWS = np.array([[-0.0, 1e16, 1e-5], [0.1 + 0.2, np.inf, np.nan], [-np.inf, 1.0, -2.5]])


def _per_element_row(row, sep=","):
    """The row formatter csvio used before rows went through tolist()."""
    return sep.join(repr(float(x)) for x in row)


def test_csv_rows_match_per_element_repr():
    walk = Walk(dim=3, increments=SPECIAL_ROWS, sums=np.vstack([np.zeros(3), SPECIAL_ROWS]))
    assert csvio.walk_csv(walk).splitlines()[1:] == [
        f"{k},{_per_element_row(r)}" for k, r in enumerate(walk.sums)]
    traj = Trajectory(LINEAR, [0.0, 0.1 + 0.2, 1.0], SPECIAL_ROWS)
    assert csvio.trajectory_csv(traj).splitlines()[2:] == [
        f"{_per_element_row([t])},{_per_element_row(r)}" for t, r in zip(traj.times, traj.values)]
    for values in (SPECIAL_ROWS, np.arange(3), [True, 2, 0.5]):
        assert csvio.samples_csv(values).splitlines()[1:] == [
            f"{i},{_per_element_row([v])}" for i, v in enumerate(np.ravel(values))]
    body = ConvexBody(dim=3, vertices=SPECIAL_ROWS)
    assert csvio.vertices_csv(body).splitlines()[1:] == [_per_element_row(r) for r in SPECIAL_ROWS]
    assert csvio.off_text(body).splitlines()[2:] == [
        _per_element_row(r, " ") for r in SPECIAL_ROWS]


def _one_string_walk_csv(walk):
    """walk_csv as first written: every line in one list, joined once."""
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
    walk = Walk(dim=3, increments=values[1:], sums=values)
    traj = Trajectory(LINEAR, np.linspace(0.0, 1.0, rows) if rows > 1 else [0.0], values)
    samples = values.ravel()[:rows]
    for blocks, joined, oracle in [
        (csvio.walk_blocks(walk), csvio.walk_csv(walk), _one_string_walk_csv(walk)),
        (csvio.trajectory_blocks(traj), csvio.trajectory_csv(traj),
         _one_string_trajectory_csv(traj)),
        (csvio.samples_blocks(samples), csvio.samples_csv(samples),
         _one_string_samples_csv(samples)),
    ]:
        blocks = list(blocks)
        assert joined == oracle == "".join(blocks)
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


def test_simulate_memory_stays_bounded(tmp_path):
    # a 2e5-step d = 2 walk is streamed to walk.csv block by block; building
    # the file as one string took 49 MB of traced memory
    tracemalloc.start()
    try:
        assert main(["simulate", "--law", "gaussian", "--dim", "2", "--mu", "1,0",
                     "--n", "200000", "--seed", "102", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "walk.csv").stat().st_size > 8 * 10**6
    assert peak < 16 * 2**20


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
