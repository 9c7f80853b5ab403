import contextlib
import hashlib
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from walklimits import (
    ConfigError,
    build_config,
    ks_statistic,
    ks_two_sample,
    manifest_text,
    run_experiment,
    wilson_interval,
)
from walklimits.config import parse_text
from walklimits.fixtures import BUILTIN_CONFIGS
from walklimits.experiments import (
    ReportRow, law_from_config, read_rows, rows_csv, run_distributional)
from walklimits.rng import replica_stream
from walklimits.stats import kolmogorov_threshold
from walklimits import centre_of_mass, lattice, sample_walk, rademacher
from walklimits import convex_hull, diameter, functionals, gaussian, surface_area, walks
from walklimits.metrics import HalfspaceCap


def _cfg(text, overrides=None):
    return build_config(parse_text(text), overrides)


# ------------------------------------------------------------- stats

def test_ks_statistic_hand_values():
    uniform = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_statistic([0.5], uniform) == pytest.approx(0.5)
    assert ks_statistic([0.25, 0.75], uniform) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ks_statistic([], uniform)


def test_ks_statistic_self_draw_small():
    rng = replica_stream(314, 0)
    sample = rng.random(10_000)
    uniform = lambda x: np.clip(x, 0.0, 1.0)
    # Kolmogorov bound: exceeding 0.02 at m = 1e4 has probability < 1%
    assert ks_statistic(sample, uniform) < 0.02
    assert kolmogorov_threshold(10_000) < 0.02


def test_ks_two_sample_symmetry(rng):
    a, b = rng.normal(size=300), rng.normal(size=400) + 0.2
    assert ks_two_sample(a, b) == pytest.approx(ks_two_sample(b, a), abs=1e-15)
    assert 0.0 < ks_two_sample(a, b) <= 1.0


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


# ------------------------------------------------------- runners, generic

MAX_CFG = """
experiment = distributional
functional = max
law = rademacher
dim = 1
n = 256
replicas = 300
seed = 11
"""


def test_report_bit_reproducible():
    cfg = _cfg(MAX_CFG)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.csv_text() == b.csv_text()
    c = run_experiment(_cfg(MAX_CFG, ["seed=12"]))
    assert c.csv_text() != a.csv_text()


def test_distributional_single_replica_flagged_not_crashed():
    rep = run_experiment(_cfg(MAX_CFG, ["replicas=1"]))
    row = rep.rows[0]
    assert row.ks is None and row.passed is None
    assert "undefined" in row.note


def test_distributional_unknown_functional_rejected():
    with pytest.raises(ConfigError):
        _cfg(MAX_CFG, ["functional=median"])


def test_zero_mean_law_rejects_drift():
    with pytest.raises(ConfigError):
        _cfg(MAX_CFG, ["mu=0.5"])
    cfg = _cfg(MAX_CFG, ["mu=0"])  # an explicit zero is fine
    assert cfg.mu == (0.0,)


def test_distributional_reference_unavailable_without_surrogate():
    cfg = _cfg(
        """
experiment = distributional
functional = diameter
law = rademacher
dim = 2
n = 64
replicas = 20
seed = 3
reference = closed-form
"""
    )
    with pytest.raises(ConfigError):
        run_distributional(cfg)


def test_distributional_surrogate_two_sample():
    cfg = _cfg(
        """
experiment = distributional
functional = diameter
law = gaussian
dim = 2
n = 400
replicas = 250
seed = 9
surrogate_grid = 400
"""
    )
    rep = run_experiment(cfg)
    row = rep.rows[0]
    assert row.ks is not None and row.threshold is not None
    assert row.passed  # matched discretization, same law family
    names = [r.name for r in rep.rows]
    assert "diameter-surrogate" in names


def test_distributional_com_closed_form():
    cfg = _cfg(
        """
experiment = distributional
functional = com
law = rademacher
dim = 1
n = 2000
replicas = 2000
seed = 21
t = 0.5
"""
    )
    rep = run_experiment(cfg)
    assert rep.rows[0].passed


def test_distributional_com_surrogate_variance():
    # G(t) = t^-1 int_0^t b(s) ds has variance t/3 for a standard b
    t, m = 0.5, 4000
    cfg = _cfg(MAX_CFG, ["functional=com", "n=1000", f"replicas={m}", f"t={t}",
                         "reference=surrogate", "dump_samples=true"])
    surr = run_experiment(cfg).samples["com-surrogate"]
    assert len(surr) == m
    se = (t / 3.0) * math.sqrt(2.0 / m)
    assert abs(surr.var(ddof=1) - t / 3.0) <= 4.0 * se


def test_distributional_judges_every_coordinate_of_com():
    # Sigma = diag(1, 4): G(1) has variance 1/3 and 4/3 on the two axes
    m = 400
    cfg = _cfg(MAX_CFG, ["functional=com", "law=gaussian", "dim=2", "sigma=1,0;0,4",
                         "n=100", f"replicas={m}", "dump_samples=true"])
    rep = run_experiment(cfg)
    assert [r.name for r in rep.rows] == ["com.x1", "com.x1-surrogate",
                                          "com.x2", "com.x2-surrogate"]
    assert sorted(rep.samples) == sorted(r.name for r in rep.rows)
    for name, var in (("com.x1", 1.0 / 3.0), ("com.x2", 4.0 / 3.0)):
        row = next(r for r in rep.rows if r.name == name)
        assert row.stderr == pytest.approx(math.sqrt(var / m), rel=0.2)
        assert row.ks is not None and row.passed


def test_law_from_config_moments():
    cfg = _cfg(
        MAX_CFG,
        ["functional=diameter", "law=gaussian", "dim=2", "mu=0.5,0", "sigma=2,0;0,1"],
    )
    law = law_from_config(cfg)
    assert np.allclose(law.mu, [0.5, 0.0])
    assert np.allclose(law.sigma, [[2.0, 0.0], [0.0, 1.0]])


# ----------------------------------------------------------- lln sweep

def test_lln_sweep_deterministic_diameter_machine_zero():
    cfg = _cfg(
        """
experiment = lln-sweep
functional = diameter
law = deterministic
dim = 2
mu = 0.6,0.8
n_list = 10,100,1000
replicas = 1
seed = 0
threshold = 1e-09
"""
    )
    rep = run_experiment(cfg)
    for row in rep.rows[:-1]:
        assert abs(row.estimate - 1.0) < 1e-12
        assert row.passed
    assert rep.rows[-1].name == "error-trend"


LLN_CASES = {
    "max": ("dim = 1\nmu = 0.3", lambda w, n, t: w.sums[:, 0].max() / n),
    "diameter": ("dim = 2\nmu = 0.6,-0.8", lambda w, n, t: diameter(w.sums) / n),
    "perimeter": (
        "dim = 2\nmu = 1,0.5",
        lambda w, n, t: surface_area(convex_hull(w.sums, validate=False)) / n,
    ),
    "com": (
        "dim = 2\nmu = 1,-2\nt = 0.5",
        lambda w, n, t: np.cumsum(w.sums[1:], axis=0)[max(1, math.floor(n * t)) - 1]
        / max(1, math.floor(n * t)) / n,
    ),
}


@pytest.mark.parametrize("functional", sorted(LLN_CASES))
def test_lln_sweep_batches_match_per_walk_path(functional):
    # the batched sweep gives exactly the per-n values of one sample_walk per
    # replica; n = 1 takes com's max(1, floor(n t)) index
    extra, per_walk = LLN_CASES[functional]
    cfg = _cfg(
        f"""
experiment = lln-sweep
functional = {functional}
law = gaussian
{extra}
n_list = 1,5,40
replicas = 3
seed = 17
dump_samples = true
"""
    )
    rep = run_experiment(cfg)
    law = law_from_config(cfg)
    rows = iter(rep.rows)
    for n in cfg.n_list:
        vals = np.array(
            [np.atleast_1d(per_walk(sample_walk(law, n, 17, replica=r), n, cfg.t))
             for r in range(3)]
        )
        mean = vals.mean(axis=0)
        for j in range(vals.shape[1]):
            name = functional if vals.shape[1] == 1 else f"{functional}.x{j + 1}"
            row = next(rows)
            assert row.name == f"{name}@n={n}"
            assert np.array_equal(rep.samples[row.name], vals[:, j])
            assert row.estimate == mean[j]
    assert next(rows).name == "error-trend"


def test_lln_sweep_judges_every_coordinate_of_com():
    # each coordinate has its own row, stderr and samples: the variance-100
    # axis has stderr sqrt(100 / (3 n) / m) = 0.00913 at n = 1000, ten times
    # the first axis's (one shared stderr read 0.000891 from the first axis)
    cfg = _cfg(
        """
experiment = lln-sweep
functional = com
law = gaussian
dim = 2
mu = 1,0
sigma = 1,0;0,100
n_list = 100,1000
replicas = 400
seed = 3
dump_samples = true
"""
    )
    rep = run_experiment(cfg)
    rows = {row.name: row for row in rep.rows}
    assert list(rows) == ["com.x1@n=100", "com.x2@n=100", "com.x1@n=1000", "com.x2@n=1000",
                          "error-trend"]
    assert sorted(rep.samples) == sorted(list(rows)[:-1])
    for axis, var in (("x1", 1.0), ("x2", 100.0)):
        row = rows[f"com.{axis}@n=1000"]
        assert row.reference == (0.5 if axis == "x1" else 0.0)
        assert row.stderr == pytest.approx(math.sqrt(var / 3000 / 400), rel=0.15)
        assert len(rep.samples[row.name]) == 400
    # the trend still compares the norms of the error vectors
    errors = [math.hypot(rows[f"com.x1@n={n}"].estimate - 0.5, rows[f"com.x2@n={n}"].estimate)
              for n in (100, 1000)]
    assert rows["error-trend"].estimate == pytest.approx(errors[1], rel=1e-12)
    assert rows["error-trend"].reference == pytest.approx(errors[0], rel=1e-12)


def test_distributional_com_needs_a_step_before_t():
    cfg = _cfg(MAX_CFG, ["functional=com", "n=4", "t=0.2"])
    with pytest.raises(ConfigError, match="floor"):
        run_experiment(cfg)


def test_batch_byte_budget_leaves_report_unchanged(monkeypatch):
    import walklimits.experiments as experiments
    import walklimits.walks as walks

    cfg = _cfg(MAX_CFG, ["functional=volume", "law=gaussian", "dim=2", "replicas=7",
                         "reference=none"])
    whole = run_experiment(cfg).csv_text()
    # three replicas of (n + 1) x 2 float64 sums per batch
    monkeypatch.setattr(walks, "_BATCH_BYTES", 3 * 257 * 2 * 8)
    assert [hi - lo for lo, hi, _ in experiments._walks(law_from_config(cfg), 256, 0, 7)] \
        == [3, 3, 1]
    assert run_experiment(cfg).csv_text() == whole


@pytest.mark.parametrize("law", [rademacher(2), gaussian([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])])
def test_batches_reuse_one_buffer_without_stale_rows(monkeypatch, law):
    import walklimits.experiments as experiments
    import walklimits.walks as walks

    n, total = 50, 7
    monkeypatch.setattr(walks, "_BATCH_BYTES", 3 * (n + 1) * 2 * 8)
    seen = []
    for lo, hi, sums in experiments._walks(law, n, 11, total):
        assert sums.shape == (hi - lo, n + 1, 2)
        for r in range(lo, hi):
            assert np.array_equal(sums[r - lo], sample_walk(law, n, 11, replica=r).sums)
        seen.append(hi - lo)
    assert seen == [3, 3, 1]


@pytest.mark.parametrize("n,dim,total", [(100, 1, 1000), (10000, 2, 300), (600000, 1, 2)])
def test_batch_buffer_holds_at_most_the_budget_or_one_replica(n, dim, total):
    import walklimits.experiments as experiments
    import walklimits.walks as walks

    one = (n + 1) * dim * 8
    bases = set()
    for lo, hi, sums in experiments._walks(rademacher(dim), n, 0, total):
        assert sums.base is not None and sums.base.nbytes <= max(walks._BATCH_BYTES, one)
        bases.add(id(sums.base))
    assert len(bases) == 1



def _walk_batches_peak(law, n):
    import walklimits.experiments as experiments

    tracemalloc.start()
    try:
        for _ in experiments._walks(law, n, 5, 4):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_batches_hold_one_row_and_one_chunk():
    # a replica's steps are drawn and summed a chunk at a time: the peak is
    # its (n + 1)-float row plus one chunk's temporaries (1.79 MiB against a
    # 1.53 MiB row), where one O(n) draw per replica peaked at 4.65 MiB
    n = 200_000
    assert _walk_batches_peak(rademacher(1), n) < (n + 1) * 8 + (512 << 10)


@pytest.mark.parametrize("d", [1, 2])
def test_lattice_walk_batches_hold_one_row_and_one_chunk(d):
    # whole lattice draws peaked at 11.2 MB (d = 1) and 16.0 MB (d = 2)
    n = 200_000
    assert _walk_batches_peak(lattice(d), n) < ((n + 1) * 8 + (512 << 10)) * d


@pytest.mark.parametrize("law", [rademacher(1), rademacher(2), lattice(1), lattice(2)],
                         ids=lambda law: f"{law.kind}-d{law.dim}")
def test_integer_step_com_equals_com_at(law):
    # the batched route (step bytes at d = 1, prefix-sum batches at d = 2)
    # gives com_at on each walk alone bit for bit, at k = 1, a k below n and k = n
    import walklimits.experiments as experiments

    n, m, ks = 600, 300, [1, 299, 600]
    got = experiments._com_samples(law, n, 21, m, ks)
    assert got.shape == (m, len(ks), law.dim)
    for r in range(m):
        want = functionals.com_at(sample_walk(law, n, 21, replica=r).sums[None], ks)
        for j in range(len(ks)):
            assert np.array_equal(got[r, j], want[j][0])


BYTE_CHUNK = walks._BYTE_CHUNK_STEPS
BYTE_SIZES = [1, 2, 7, 8, 9, 15, 16, 17, 33, 1001, BYTE_CHUNK - 1, BYTE_CHUNK, BYTE_CHUNK + 1,
              10003]


def _prefix_sum_batch(n, seed, lo, hi, law=rademacher(1)):
    """One float prefix-sum batch of d = 1 walks lo..hi-1, the reference."""
    (_, _, sums), = walks.prefix_sum_batches(lambda rng, a, b: law.sample(b - a, rng), n, 1,
                                            seed, lo, hi)
    return sums.copy()


@pytest.mark.parametrize("n", BYTE_SIZES)
def test_step_byte_evaluators_equal_the_prefix_sums(n):
    # bit for bit, for max, arcsine and com (at t = 0.37) and for com_at at
    # k = 1, k = n and ks with k mod 8 != 0, on Rademacher and lattice walks
    cfg = _cfg(MAX_CFG, ["t=0.37"])
    ks = sorted({1, n, max(1, n // 3), max(1, n - 1), max(1, 5 * n // 7)})
    for law, seed in itertools.product((rademacher(1), lattice(1)), (0, 3, 20260809)):
        sums = _prefix_sum_batch(n, seed, 0, 6, law)
        (_, _, batch), = walks.step_byte_batches(n, seed, 0, 6, walks.BYTE_LAWS[law.kind])
        for name in ("max", "arcsine", "com"):
            want = functionals.evaluate(name, sums, cfg)
            assert functionals.evaluate(name, batch, cfg).tobytes() == want.tobytes(), name
        for got, want in zip(functionals.com_at_bytes(batch, ks), functionals.com_at(sums, ks)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,replica", [(1001, 4), (10003, 172)])
def test_step_bytes_of_a_walk_that_stays_at_or_below_zero(n, replica):
    # seed 7 walks that never go above 0 (and end below): max and arcsine
    # are 0 whatever the padding past n does
    sums = _prefix_sum_batch(n, 7, replica, replica + 1)
    assert sums.max() == 0.0 and sums[0, -1, 0] < 0.0
    (_, _, batch), = walks.step_byte_batches(n, 7, replica, replica + 1)
    assert functionals.evaluate("max", batch, None).tobytes() == np.zeros((1, 1)).tobytes()
    assert functionals.evaluate("arcsine", batch, None).tobytes() == np.zeros((1, 1)).tobytes()


@pytest.mark.parametrize("law,functional,on_bytes", [
    (rademacher(1), "max", True), (rademacher(1), "arcsine", True), (rademacher(1), "com", True),
    (rademacher(1), "diameter", False), (rademacher(2), "arcsine", False),
    (rademacher(2), "com", False), (gaussian([0.0], [[1.0]]), "max", False),
    (lattice(1), "max", True), (lattice(1), "com", True), (lattice(2), "arcsine", False)],
    ids=lambda v: f"{v.kind}-d{v.dim}" if isinstance(v, walks.IncrementLaw) else str(v))
def test_only_d1_rademacher_walks_reach_byte_evaluators_as_bytes(law, functional, on_bytes):
    # d = 1 Rademacher and lattice walks, the laws of walks.BYTE_LAWS
    import walklimits.experiments as experiments

    for _, _, batch in experiments._walks(law, 100, 5, 3, functional):
        assert isinstance(batch, walks.StepBytes) == on_bytes
    assert all(isinstance(batch, np.ndarray) for _, _, batch in experiments._walks(law, 100, 5, 3))
    # past n(n + 1) / 2 = 2**53 the float sums are no longer exact integers
    assert not experiments._on_bytes(law, functional, 2**27)


def _run_cli_files(out, args):
    from walklimits.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main([*args, "--out", str(out)])
    return {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}


@pytest.mark.parametrize("text", [
    "experiment = lln-sweep\nfunctional = max\nlaw = rademacher\ndim = 1\n"
    "n_list = 1,9,100,1001\nreplicas = 300\nseed = 5\ndump_samples = true\n",
    "experiment = distributional\nfunctional = arcsine\nlaw = rademacher\ndim = 1\n"
    "n = 1001\nreplicas = 300\nseed = 5\ndump_samples = true\n",
    "experiment = distributional\nfunctional = com\nlaw = rademacher\ndim = 1\nn = 1001\n"
    "t = 0.3\nreplicas = 300\nseed = 5\ndump_samples = true\n",
    "experiment = distributional\nfunctional = max\nlaw = lattice-simple-symmetric\ndim = 1\n"
    "n = 1001\nreplicas = 300\nseed = 5\ndump_samples = true\n"],
    ids=["lln-max", "arcsine", "com", "lattice-max"])
def test_byte_path_runs_write_the_prefix_sum_files(tmp_path, monkeypatch, text):
    # report.csv and every samples_*.csv byte for byte, with and without bytes
    import walklimits.experiments as experiments

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    calls = []
    byte_batches = walks.step_byte_batches
    monkeypatch.setattr(walks, "step_byte_batches",
                        lambda *a: calls.append(a) or byte_batches(*a))
    got = _run_cli_files(tmp_path / "bytes", ["experiment", "--config", str(cfg)])
    assert calls
    monkeypatch.setattr(experiments, "_on_bytes", lambda *a: False)
    want = _run_cli_files(tmp_path / "sums", ["experiment", "--config", str(cfg)])
    assert got == want
    assert "report.csv" in got and any(name.startswith("samples_") for name in got)


# com-kernel reports of real-valued laws, recorded before the integer-step path existed
REAL_COM_PINS = {"gaussian": "93c9b68ef43cde2c", "uniform-cube": "955847b478e4ec33"}


@pytest.mark.parametrize("kind", ["gaussian", "uniform-cube", "rademacher"])
def test_only_integer_step_com_kernel_skips_com_at(monkeypatch, kind):
    import walklimits.experiments as experiments

    calls = []
    com_at = functionals.com_at
    monkeypatch.setattr(functionals, "com_at",
                        lambda sums, ks: calls.append(len(sums)) or com_at(sums, ks))
    cfg = _cfg(BUILTIN_CONFIGS["com-kernel"], [f"law={kind}", "replicas=2000", "n=500"])
    text = experiments.run_experiment(cfg).csv_text()
    if kind in REAL_COM_PINS:
        assert sum(calls) == 2000
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == REAL_COM_PINS[kind]
    else:
        assert calls == []


# com-kernel reports of integer-step laws, recorded while d >= 2 walks still
# took G_k as a weighted product of their steps (one BLAS thread and the
# default thread count alike)
INTEGER_COM_PINS = {
    ("rademacher", 2): "62dbcc8dfac7e870",
    ("rademacher", 3): "830f64ffd9418bbd",
    ("lattice-simple-symmetric", 1): "31a9bb5510705bb4",
    ("lattice-simple-symmetric", 2): "84120d5a2119e79c",
}


@pytest.mark.parametrize("kind,dim", sorted(INTEGER_COM_PINS), ids=str)
def test_integer_step_com_kernel_report_is_byte_identical(kind, dim):
    cfg = _cfg(BUILTIN_CONFIGS["com-kernel"],
               [f"law={kind}", f"dim={dim}", "replicas=2000", "n=500"])
    text = run_experiment(cfg).csv_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == INTEGER_COM_PINS[kind, dim]


def test_report_columns_round_trip():
    rows = [
        ReportRow("plain", 1.5, 0.25, -2.0, 0.125, True, 0.5),
        ReportRow("empty"),
        ReportRow('cov(0.5,1) "q"', math.nan, -0.0, math.inf, -math.inf, np.bool_(False), 1e-300),
        ReportRow("numpy", np.float64(0.1), passed=np.bool_(True), threshold=np.float32(0.05)),
        ReportRow("a,b", estimate=-0.0, passed=False),
    ]
    text = rows_csv(rows)
    assert text.splitlines() == [
        "name,estimate,stderr,reference,ks,pass,threshold",
        "plain,1.5,0.25,-2.0,0.125,true,0.5",
        "empty,,,,,,",
        '"cov(0.5,1) ""q""",nan,-0.0,inf,-inf,false,1e-300',
        "numpy,0.1,,,,true,0.05000000074505806",
        '"a,b",-0.0,,,,false,']
    back = read_rows(io.StringIO(text))
    assert rows_csv(back) == text
    assert [r.text() for r in back] == [r.text() for r in rows]
    assert rows[2].text() == ('cov(0.5,1) "q": estimate=nan stderr=-0 reference=inf ks=-inf '
                              'threshold=1e-300 FAIL')
    # short rows are padded with empty cells, cells past the last column dropped
    short, = read_rows(["name,estimate\n", "x,2.0\n"])
    assert short == ReportRow("x", 2.0)
    wide, = read_rows(["h\n", "y,,,,,true,,extra\n"])
    assert wide == ReportRow("y", passed=True)


# sha256 prefixes of every builtin's report.csv at reduced sizes (each well
# under a second), recorded before batched streams and the integer-step
# centre of mass: a speed-up must leave every one of them unchanged.  The two
# hull-volume pins are whole digests, recorded before the planar qhull screen.
BUILTIN_REPORT_PINS = {
    "max-clt": (["replicas=1000"], "cbe4db1f6c4de9eb"),
    "arcsine": (["replicas=1000"], "0924e384839b9aa9"),
    "perimeter-lln": ([], "4760d756fb62f4d5"),
    "com-kernel": (["replicas=4000", "n=1000"], "5baf6072f4dee9af"),
    "hull-volume-identity": (
        ["replicas=200"], "f1d89d74a6a63cc6a0a2b5d35f0925336aa465ab058e1491cf22de3477b6c276"),
    "hull-volume-sigma41": (
        ["replicas=200"], "00681f168704a6965af26f862d77ef0561cd9e0c97a765cac4600d7fafec82f9"),
    "drift-volume": (["replicas=100"], "86fdd895bcacb059"),
    "etemadi-d1": (["replicas=2000"], "0549c61052261253"),
    "etemadi-d2": (["replicas=2000"], "2c00fecfde50bded"),
}


def test_report_pins_cover_every_builtin():
    assert set(BUILTIN_REPORT_PINS) == set(BUILTIN_CONFIGS)


@pytest.mark.parametrize("name", sorted(BUILTIN_REPORT_PINS))
def test_builtin_report_is_byte_identical(name):
    overrides, digest = BUILTIN_REPORT_PINS[name]
    report = run_experiment(_cfg(BUILTIN_CONFIGS[name], overrides))
    assert hashlib.sha256(report.csv_text().encode()).hexdigest().startswith(digest)

def _arcsine_reshape(sums):
    """The arcsine functional as first written: one (b n, d) reshape of the batch."""
    b, n1, d = sums.shape
    region = HalfspaceCap(np.eye(d)[0], 0.0)
    return region.contains(sums[:, 1:, :].reshape(-1, d)).reshape(b, n1 - 1).mean(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_arcsine_per_replica_matches_reshape_formula(d):
    # the one-comparison mask counts what the cap counts, bit for bit
    for law in (rademacher(d), gaussian(np.zeros(d), np.eye(d)), lattice(d)):
        for n in (1, 2, 101, 1000):
            sums = np.stack([sample_walk(law, n, 5, replica=r).sums for r in range(9)])
            got = functionals.evaluate("arcsine", sums, None)[:, 0]
            assert np.array_equal(got, _arcsine_reshape(sums))
    # points at 0, -0.0 entries, and x_1 = -0.0 beside a nonzero coordinate
    sums = np.stack([sample_walk(gaussian(np.zeros(d), np.eye(d)), 200, 6, replica=r).sums
                     for r in range(4)])
    sums[:, 10:30] = 0.0
    sums[:, 30:50] = -0.0
    sums[:, 50:70, 0] = -0.0
    sums[1:, 70:90, 0] = 0.0
    sums[2:, 90:95, -1] = -0.0
    got = functionals.evaluate("arcsine", sums, None)[:, 0]
    assert np.array_equal(got, _arcsine_reshape(sums))
    assert got.min() < 1.0 and got.max() > 0.0


def test_com_at_reads_one_cumsum_through_the_largest_k():
    sums = np.stack([sample_walk(gaussian([0.3], [[1.0]]), 40, 2, replica=r).sums
                     for r in range(4)])
    full = np.cumsum(sums[:, 1:, :], axis=1)
    ks = [17, 40, 1]
    for k, g in zip(ks, functionals.com_at(sums, ks)):
        assert np.array_equal(g, full[:, k - 1, :] / k)


def test_lln_sweep_needs_increasing_n():
    with pytest.raises(ConfigError):
        _cfg(
            """
experiment = lln-sweep
functional = diameter
n_list = 100,100
"""
        )


# ----------------------------------------------------------- com kernel

def test_com_kernel_small_run_matches_kernel():
    cfg = _cfg(
        """
experiment = com-kernel
law = rademacher
dim = 1
n = 1000
replicas = 8000
pairs = 1:1,0.5:1
seed = 31
threshold = 0.08
"""
    )
    rep = run_experiment(cfg)
    assert [r.name for r in rep.rows] == ["cov(1,1)", "cov(0.5,1)"]
    assert rep.rows[0].reference == pytest.approx(1.0 / 3.0)
    assert rep.rows[1].reference == pytest.approx(5.0 / 24.0)
    assert all(r.passed for r in rep.rows)


def test_com_kernel_matches_direct_walk_average():
    # the runner's scaled values agree with computing G_n via centre_of_mass
    cfg = _cfg(
        """
experiment = com-kernel
law = rademacher
dim = 1
n = 100
replicas = 4
pairs = 1:1
seed = 5
dump_samples = true
"""
    )
    rep = run_experiment(cfg)
    stored = rep.samples["G@1"]
    for r in range(4):
        walk = sample_walk(rademacher(1), 100, 5, replica=r)
        g = centre_of_mass(walk).values[-1, 0] / math.sqrt(100)
        assert stored[r] == pytest.approx(g, abs=1e-12)


# -------------------------------------------------------------- etemadi

def test_etemadi_zero_walk_and_origin():
    cfg = _cfg(
        """
experiment = etemadi
law = deterministic
dim = 1
mu = 0
n = 50
replicas = 200
x_grid = 0,1
seed = 2
"""
    )
    rep = run_experiment(cfg)
    by_name = {r.name: r for r in rep.rows}
    # x = 0: both indicator events are certain, the bound holds trivially
    assert by_name["x=0"].estimate == 1.0
    assert by_name["x=0"].passed
    # zero walk never exceeds a positive level
    assert by_name["x=1"].estimate == 0.0
    assert by_name["x=1"].reference == 0.0
    assert by_name["x=1"].passed


def test_etemadi_small_random_run_has_no_violations():
    cfg = _cfg(
        """
experiment = etemadi
law = rademacher
dim = 1
n = 200
replicas = 2000
x_grid = 2,5,10
seed = 4
"""
    )
    rep = run_experiment(cfg)
    assert all(r.passed for r in rep.rows)


# ---------------------------------------------------- hull drift volume

def test_hull_drift_volume_degenerate_sides_flagged():
    cfg = _cfg(
        """
experiment = hull-drift-volume
law = deterministic
dim = 2
mu = 1,0
n = 100
replicas = 20
seed = 6
surrogate_grid = 64
"""
    )
    rep = run_experiment(cfg)
    by_name = {r.name: r for r in rep.rows}
    assert by_name["walk-side"].estimate == 0.0
    assert by_name["theory-side"].estimate == 0.0
    assert by_name["ratio"].passed is None
    assert "degenerate" in by_name["ratio"].note


def test_hull_drift_volume_perpendicular_scaling():
    # doubling the perpendicular variance scales the walk side by sqrt(2)
    base = """
experiment = hull-drift-volume
law = gaussian
dim = 2
mu = 1,0
n = 2000
replicas = 400
seed = 7
surrogate_grid = 64
surrogate_replicas = 2
"""
    rep1 = run_experiment(_cfg(base, ["sigma=1,0;0,1"]))
    rep2 = run_experiment(_cfg(base, ["sigma=1,0;0,2"]))
    w1 = {r.name: r for r in rep1.rows}["walk-side"].estimate
    w2 = {r.name: r for r in rep2.rows}["walk-side"].estimate
    assert w2 / w1 == pytest.approx(math.sqrt(2.0), rel=0.10)


# -------------------------------------------------- remainder functional

def test_com_remainder_small_after_scaling():
    # max_t |(1/t) int_0^t S_floor(n s) ds - G_floor(n t)| / sqrt(n) stays small
    n = 10_000
    law = rademacher(1)
    worst = 0.0
    for r in range(100):
        walk = sample_walk(law, n, seed=808, replica=r)
        s = np.abs(walk.sums[1:, 0])
        g = np.abs(centre_of_mass(walk).values[1:, 0])
        k = np.arange(1, n + 1)
        # one-sided limits of the remainder on each grid cell
        cand = np.maximum(s / k, g / (k + 1))
        worst = max(worst, float(cand.max()) / math.sqrt(n))
    assert worst < 0.1


def test_manifest_reflects_overrides():
    cfg = _cfg(MAX_CFG, ["seed=99"])
    assert "seed = 99" in manifest_text(cfg)


def test_builtin_configs_all_valid():
    from walklimits.fixtures import BUILTIN_CONFIGS

    for name, text in BUILTIN_CONFIGS.items():
        cfg = _cfg(text)
        assert cfg.experiment


def test_every_pass_fail_row_names_its_threshold():
    reports = [
        run_experiment(_cfg(MAX_CFG)),
        run_experiment(
            _cfg(
                """
experiment = lln-sweep
functional = max
law = rademacher
dim = 1
n_list = 100,400
replicas = 4
seed = 2
threshold = 0.2
"""
            )
        ),
        run_experiment(
            _cfg(
                """
experiment = etemadi
law = rademacher
dim = 1
n = 100
replicas = 500
x_grid = 3,6
seed = 2
"""
            )
        ),
    ]
    for report in reports:
        for row in report.rows:
            if row.passed is not None:
                assert row.threshold is not None, row.name


def test_hull_trio_walk_vs_surrogate_two_sample():
    # zero-drift planar walk at n = 1e4 vs a Brownian surrogate on a grid of
    # the same step count: width, perimeter and area pass two-sample KS at 0.05
    import walklimits.geometry as geometry
    from walklimits import (
        gaussian,
        mean_width,
        sample_brownian,
        sqrt_psd,
        surface_area,
        volume,
    )

    n, m = 10_000, 2000
    law = gaussian([0.0, 0.0], np.eye(2))
    cov = sqrt_psd(np.eye(2))
    grid = np.linspace(0.0, 1.0, n + 1)
    root_n = math.sqrt(n)
    names = ("mean-width", "perimeter", "volume")
    walk_vals = {k: np.empty(m) for k in names}
    surr_vals = {k: np.empty(m) for k in names}
    for r in range(m):
        walk = sample_walk(law, n, seed=515, replica=r)
        body = geometry.convex_hull(walk.sums, validate=False)
        walk_vals["mean-width"][r] = mean_width(body, 512) / root_n
        walk_vals["perimeter"][r] = surface_area(body) / root_n
        walk_vals["volume"][r] = volume(body) / n
    for lo, hi, paths in sample_brownian(cov, grid, 515, m, 2 * m):
        for r, path in enumerate(paths, lo - m):
            sbody = geometry.convex_hull(path, validate=False)
            surr_vals["mean-width"][r] = mean_width(sbody, 512)
            surr_vals["perimeter"][r] = surface_area(sbody)
            surr_vals["volume"][r] = volume(sbody)
    for k in names:
        d = ks_two_sample(walk_vals[k], surr_vals[k])
        assert d < 0.05, f"{k}: two-sample ks {d:.4f}"
