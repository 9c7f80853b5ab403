"""Monte Carlo harness: walk ensembles against closed-form or surrogate laws.

Each runner simulates `replicas` independent walks (per-replica derived
streams, so results are schedule-independent), evaluates one functional
per replica, and compares the empirical distribution or moments against
the matching reference law.  Runners of one functional (distributional,
lln-sweep, com-kernel) take its walks from ``functionals.batches``, which
picks their form; etemadi and hull-drift-volume take prefix sums from
``walks.walk_batches``, and Brownian surrogates come from ``walks`` on the
replica indices after the walks'.  ``functionals.evaluate`` turns any batch
into (replicas, width) values.  Replica loops run in fixed index order and
reductions are ordered, so every report is bit-reproducible from (config, seed).

``EXPERIMENTS`` declares each experiment kind once: its runner, whether it
needs ``n``, and its own config checks, which ``config.validate_config``
runs after the shared ones.  Runners and checks take (cfg, law); a runner
returns its report rows and samples, and ``run_experiment`` builds its law,
times it, hashes the manifest and keeps the samples only under
``dump_samples``.  A mean over one replica has no stderr.  ``COLUMNS``
declares the report's columns once: ``rows_csv`` writes them,
``read_rows`` reads them back and ``ReportRow.text`` formats them as a
summary line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import functionals, laws, stats, walks
from .config import ConfigError, ExperimentConfig, manifest_text
from .functionals import dims_text, in_dims


class Column(NamedTuple):
    """One report column: its ``ReportRow`` field, CSV header, summary-line
    bit and cell codec, by default a float column's.  A value of None is an
    empty cell and no bit."""

    field: str
    header: str
    text: Callable  # value (not None) -> its bit of the summary line
    write: Callable = lambda x: "" if x is None else repr(float(x))  # value -> CSV cell
    read: Callable = lambda cell: float(cell) if cell else None  # CSV cell -> value


# The report's columns in CSV order.  The summary line gives them in the
# same order except that PASS/FAIL follows the threshold.
COLUMNS = (
    Column("name", "name", lambda name: f"{name}:", str, str),
    Column("estimate", "estimate", lambda x: f"estimate={x:.6g}"),
    Column("stderr", "stderr", lambda x: f"stderr={x:.3g}"),
    Column("reference", "reference", lambda x: f"reference={x:.6g}"),
    Column("ks", "ks", lambda x: f"ks={x:.4g}"),
    # by truth value: com-kernel's checks are numpy bools
    Column("passed", "pass", lambda ok: "PASS" if ok else "FAIL",
           lambda ok: "" if ok is None else ("true" if ok else "false"),
           lambda cell: cell == "true" if cell else None),
    Column("threshold", "threshold", lambda x: f"threshold={x:.4g}"),
)
_SUMMARY_ORDER = sorted(COLUMNS, key=lambda c: c.field == "passed")
_HEADERS = [c.header for c in COLUMNS]


@dataclass
class ReportRow:
    name: str
    estimate: float | None = None
    stderr: float | None = None
    reference: float | None = None
    ks: float | None = None
    passed: bool | None = None
    threshold: float | None = None
    note: str = ""

    def text(self) -> str:
        """The row as one summary line (without its indent)."""
        bits = [c.text(value) for c in _SUMMARY_ORDER
                if (value := getattr(self, c.field)) is not None]
        if self.note:
            bits.append(f"({self.note})")
        return " ".join(bits)


@dataclass
class Report:
    experiment: str
    rows: list
    seed: int
    config_hash: str
    runtime: float
    samples: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        return rows_csv(self.rows)

    def summary_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        lines.append(f"seed: {self.seed}")
        lines.append(f"config-hash: {self.config_hash}")
        lines.append(f"runtime-seconds: {self.runtime:.3f}")
        lines.append("")
        lines += ["  " + r.text() for r in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)


def rows_csv(rows) -> str:
    """Report rows as CSV text, one line of ``COLUMNS`` each under their headers."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADERS)
    writer.writerows([c.write(getattr(r, c.field)) for c in COLUMNS] for r in rows)
    return out.getvalue()


def read_rows(lines) -> list[ReportRow]:
    """The rows of a report CSV (lines of ``rows_csv`` text), short rows padded
    with empty cells and cells past the last column dropped.  ValueError
    unless the first line is ``COLUMNS``' headers."""
    rows = list(csv.reader(lines))
    if rows[:1] != [_HEADERS]:
        raise ValueError("not a report: the first line must be " + ",".join(_HEADERS))
    return [ReportRow(**{c.field: c.read(cell)
                         for c, cell in zip(COLUMNS, parts + [""] * len(COLUMNS))})
            for parts in rows[1:]]


def law_from_config(cfg: ExperimentConfig) -> walks.IncrementLaw:
    """The increment law of a validated config, built through ``walks.LAWS``."""
    d = cfg.dim
    mu = np.asarray(cfg.mu, dtype=float) if cfg.mu else np.zeros(d)
    sigma = np.asarray(cfg.sigma, dtype=float) if cfg.sigma else np.eye(d)
    return walks.LAWS[cfg.law].build(d, mu, sigma)


def _surrogates(sample, cov, steps: int, cfg: ExperimentConfig):
    """Batches of surrogate paths ``sample(cov, grid, seed, lo, hi)``.

    Walks and surrogates share the seed but use disjoint replica indices.
    The grid has ``surrogate_grid`` steps, or ``steps`` when that is 0.
    """
    grid = np.linspace(0.0, 1.0, (cfg.surrogate_grid or steps) + 1)
    m2 = cfg.surrogate_replicas or cfg.replicas
    return sample(cov, grid, cfg.seed, cfg.replicas, cfg.replicas + m2)


def _values(functional: str, batches, cfg: ExperimentConfig) -> np.ndarray:
    """Native-scale values of a functional on every path of a batch stream,
    as (replicas, width)."""
    return np.concatenate([functionals.evaluate(functional, sums, cfg)
                           for _, _, sums in batches])


def _mean_row(name: str, values) -> ReportRow:
    """The mean of values and its standard error (none for one value)."""
    m = len(values)
    stderr = float(values.std(ddof=1) / math.sqrt(m)) if m > 1 else None
    return ReportRow(name=name, estimate=float(values.mean()), stderr=stderr)


def _names(functional: str, width: int) -> list[str]:
    """A functional's row name per coordinate: its own, or ``<functional>.x<i>``."""
    return [functional] if width == 1 else [f"{functional}.x{j + 1}" for j in range(width)]


def _check_functional(cfg: ExperimentConfig):
    spec = functionals.FUNCTIONALS.get(cfg.functional)
    if spec is None:
        raise ConfigError(f"unknown value for functional: {cfg.functional!r}")
    if not in_dims(cfg.dim, spec.dims):
        raise ConfigError(f"functional {cfg.functional} needs {dims_text(spec.dims)}")
    return spec


def _check_steps_before(n: int, times, key: str) -> None:
    """ConfigError naming key unless a walk of n steps has a step at or
    before every t."""
    try:
        for t in times:
            functionals.step_at(n, t)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _reference(cfg: ExperimentConfig, law):
    """The reference a distributional run judges against, as (mode, limit CDF
    or None): ``auto`` takes the closed form where one exists, else the
    surrogate.  ConfigError on a drift, or where a needed surrogate does not exist."""
    spec = _check_functional(cfg)
    if law.mu.any():
        raise ConfigError("mu must be zero for distributional: its limit laws are driftless")
    if spec.at_t:
        _check_steps_before(cfg.n, [cfg.t], "t")
    mode = cfg.reference
    cdf = spec.cdf(cfg, law) if spec.cdf and mode == "auto" else None
    if mode == "auto" and cdf is None:
        mode = "surrogate"
    if mode == "surrogate" and not spec.surrogate:
        raise ConfigError(f"functional {cfg.functional!r} has no surrogate mode; "
                          "set reference = auto or none")
    return mode, cdf


def run_distributional(cfg: ExperimentConfig, law):
    """Empirical CDF of a per-replica functional vs its limit law, one row per
    coordinate of a vector functional, judged by one-sample KS against the
    closed form or two-sample KS against the Brownian surrogate."""
    spec = functionals.FUNCTIONALS[cfg.functional]
    mode, cdf = _reference(cfg, law)
    n, m = cfg.n, cfg.replicas
    values = _values(cfg.functional, functionals.batches(cfg.functional, law, n, cfg.seed, m),
                     cfg) / spec.scale(n, cfg.dim)
    judge, m2 = None, m  # (sample, coordinate) -> (KS distance, default threshold)
    if cdf is not None:
        judge = lambda x, j: (stats.ks_statistic(x, cdf), stats.kolmogorov_threshold(m))
    elif mode == "surrogate":
        # the default grid matches the walk's step count so both sides carry
        # the same discretization bias
        surr = _values(cfg.functional, _surrogates(
            walks.sample_brownian, laws.sqrt_psd(law.sigma), n, cfg), cfg)
        m2 = len(surr)
        judge = lambda x, j: (stats.ks_two_sample(x, surr[:, j]),
                              stats.kolmogorov_threshold_two(m, m2))
    rows, samples = [], {}
    for j, name in enumerate(_names(cfg.functional, values.shape[1])):
        row = _mean_row(name, values[:, j])
        rows.append(row)
        samples[name] = values[:, j]
        if mode == "surrogate":
            rows.append(_mean_row(name + "-surrogate", surr[:, j]))
            samples[name + "-surrogate"] = surr[:, j]
        if judge is None:
            continue
        if min(m, m2) > 1:
            row.ks, threshold = judge(values[:, j], j)
            row.threshold = cfg.threshold or threshold
            row.passed = row.ks <= row.threshold
        else:
            row.note = "ks undefined for a single replica"
    return rows, samples


def _check_lln_sweep(cfg: ExperimentConfig, law) -> None:
    spec = _check_functional(cfg)
    try:
        functionals.lln_reference(cfg.functional, law.mu, cfg.t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not cfg.n_list:
        raise ConfigError("n_list must not be empty")
    if any(b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    if spec.at_t:
        _check_steps_before(cfg.n_list[0], [cfg.t], "t")


def run_lln_sweep(cfg: ExperimentConfig, law):
    """Per-n estimates of a first-order functional against its limit constant,
    one row per coordinate of a vector functional (``<functional>.x<i>@n=N``).
    The error trend compares the norms of the error vectors."""
    reference = np.atleast_1d(functionals.lln_reference(cfg.functional, law.mu, cfg.t))
    names = _names(cfg.functional, len(reference))
    threshold = cfg.threshold if cfg.threshold > 0 else None
    rows, errors, samples = [], [], {}
    for n in cfg.n_list:
        vals = _values(cfg.functional,
                       functionals.batches(cfg.functional, law, n, cfg.seed, cfg.replicas),
                       cfg) / n
        mean_vec = vals.mean(axis=0)
        errors.append(float(np.linalg.norm(mean_vec - reference)))
        for j, base in enumerate(names):
            row = _mean_row(f"{base}@n={n}", vals[:, j])
            # the estimate is the axis-0 mean, which can differ in the last bit
            # from the column's own (pairwise) mean
            row.estimate, row.reference = float(mean_vec[j]), float(reference[j])
            if threshold:
                row.threshold = threshold
                row.passed = abs(row.estimate - row.reference) <= threshold
            rows.append(row)
            samples[row.name] = vals[:, j]
    rows.append(ReportRow("error-trend", errors[-1], reference=errors[0],
                          passed=errors[-1] <= errors[0], threshold=errors[0],
                          note="error at largest n must not exceed the error at smallest n"))
    return rows, samples


def _check_com_kernel(cfg: ExperimentConfig, law) -> None:
    if not cfg.pairs:
        raise ConfigError("pairs must not be empty")
    _check_steps_before(cfg.n, [t for pair in cfg.pairs for t in pair], "pairs")


def run_com_kernel_check(cfg: ExperimentConfig, law):
    """Empirical covariances of the scaled centre of mass vs the limit kernel."""
    kernel = laws.ComKernel(laws.sqrt_psd(law.sigma))
    n, m, d = cfg.n, cfg.replicas, cfg.dim
    times = sorted({t for pair in cfg.pairs for t in pair})
    ks = [functionals.step_at(n, t) for t in times]
    coms = np.concatenate([np.stack(functionals.com_at(batch, ks), axis=1)
                           for _, _, batch in functionals.batches("com", law, n, cfg.seed, m)])
    root_n = math.sqrt(n)
    values = {t: coms[:, j] / root_n for j, t in enumerate(times)}
    rows = []
    threshold = cfg.threshold or 0.05
    for t1, t2 in cfg.pairs:
        x, y = values[t1], values[t2]
        ref = laws.com_kernel_eval(kernel, t1, t2)
        ref_val = float(ref[0, 0]) if d == 1 else float(np.linalg.norm(ref))
        if m > 1:
            xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
            cov = xc.T @ yc / (m - 1)
            est = float(cov[0, 0]) if d == 1 else float(np.linalg.norm(cov))
            rel_den = np.linalg.norm(ref)
            rel = float(np.linalg.norm(cov - ref)) / rel_den if rel_den else est
            se = (
                float((xc[:, 0] * yc[:, 0]).std(ddof=1) / math.sqrt(m))
                if d == 1
                else None
            )
            passed = rel <= threshold
        else:
            est, se, passed = None, None, None
        rows.append(
            ReportRow(
                name=f"cov({t1:g},{t2:g})",
                estimate=est,
                stderr=se,
                reference=ref_val,
                passed=passed,
                threshold=threshold,
                note="relative tolerance on the covariance",
            )
        )
    samples = {name: values[t][:, j] for t in times
               for j, name in enumerate(_names(f"G@{t:g}", d))}
    return rows, samples


def _check_etemadi(cfg: ExperimentConfig, law) -> None:
    if not cfg.x_grid:
        raise ConfigError("x_grid must not be empty")
    if cfg.threshold:
        raise ConfigError("threshold does not apply to etemadi: it judges by the Wilson z")


def _norms(sums: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(sums, axis=-1)``, bit for bit, without its slow
    reduction over a short axis: numpy adds fewer than 8 squares in order."""
    d = sums.shape[-1]
    if d >= 8:
        return np.linalg.norm(sums, axis=-1)
    sq = sums[..., 0] * sums[..., 0]
    for k in range(1, d):
        sq += sums[..., k] * sums[..., k]
    return np.sqrt(sq, out=sq)


def run_etemadi(cfg: ExperimentConfig, law):
    """Falsification-only check of the maximal inequality on an x grid.

    Left side: P(max_j |S_j| >= 3x); right side: 3 max_j P(|S_j| >= x).
    A violation is flagged only when the 99% Wilson intervals separate
    (left lower bound above 3x the largest per-j upper bound).
    """
    n, m = cfg.n, cfg.replicas
    xs = np.asarray(cfg.x_grid, dtype=float)
    left_counts = np.zeros(len(xs), dtype=np.int64)
    right_counts = np.zeros((len(xs), n + 1), dtype=np.int64)
    for _, _, sums in walks.walk_batches(law, n, cfg.seed, 0, m):
        norms = _norms(sums)
        peak = norms.max(axis=1)
        for i, x in enumerate(xs):
            left_counts[i] += int((peak >= 3.0 * x).sum())
            right_counts[i] += (norms >= x).sum(axis=0)
    rows = []
    for i, x in enumerate(xs):
        left_p = left_counts[i] / m
        right_best = int(right_counts[i].max())
        right_p = right_best / m
        left_lo, _ = stats.wilson_interval(int(left_counts[i]), m)
        # Wilson upper bound is monotone in the count, so the max over j of
        # per-j upper bounds is the bound at the max count.
        _, right_hi = stats.wilson_interval(right_best, m)
        violated = left_lo > 3.0 * right_hi
        rows.append(
            ReportRow(
                name=f"x={x:g}",
                estimate=float(left_p),
                stderr=float(math.sqrt(left_p * (1.0 - left_p) / m)),
                reference=3.0 * float(right_p),
                passed=not violated,
                threshold=stats.Z_99,
                note="left P(max>=3x) vs 3 max_j P(>=x); threshold is the Wilson z",
            )
        )
    return rows, {}


def _check_drift_volume(cfg: ExperimentConfig, law) -> None:
    if cfg.dim < 2:
        raise ConfigError("dim must be >= 2 for hull-drift-volume")
    if not law.mu.any():
        raise ConfigError("mu must be a nonzero drift for hull-drift-volume")


def run_hull_drift_volume(cfg: ExperimentConfig, law):
    """Scaled hull volume of a drifting walk vs the time-space path surrogate.
    The ratio has a stderr only where both sides have one."""
    mu = law.mu
    n, d = cfg.n, cfg.dim
    walk_vals = _values("volume", walks.walk_batches(law, n, cfg.seed, 0, cfg.replicas),
                        cfg)[:, 0]
    walk_vals /= float(n) ** ((d + 1) / 2.0)
    perp = laws.sigma_mu_perp(laws.sqrt_psd(law.sigma), mu)
    det_factor = float(np.linalg.norm(mu)) * math.sqrt(
        max(float(np.linalg.det(perp.matrix)), 0.0) if perp.dim > 1
        else float(perp.matrix[0, 0])
    )
    surr_vals = _values("volume", _surrogates(walks.sample_tilde_bd, perp, 2048, cfg),
                        cfg)[:, 0]
    walk = _mean_row("walk-side", walk_vals)
    vtilde = _mean_row("vtilde", surr_vals)
    walk_mean, walk_se = walk.estimate, walk.stderr
    theory = det_factor * vtilde.estimate
    theory_se = None if vtilde.stderr is None else det_factor * vtilde.stderr
    rows = [walk, vtilde, ReportRow(name="theory-side", estimate=theory, stderr=theory_se)]
    ratio = ReportRow(name="ratio", reference=1.0, threshold=cfg.threshold or 0.15)
    if theory > 0.0 and walk_mean > 0.0:
        ratio.estimate = walk_mean / theory
        if walk_se is not None and theory_se is not None:
            ratio.stderr = ratio.estimate * math.sqrt(
                (walk_se / walk_mean) ** 2 + (theory_se / theory) ** 2
            )
        ratio.passed = abs(ratio.estimate - 1.0) <= ratio.threshold
    else:
        ratio.note = "undefined: a side is degenerate (zero volume)"
    rows.append(ratio)
    return rows, {"walk-volume": walk_vals, "surrogate-volume": surr_vals}


class Experiment(NamedTuple):
    """One experiment kind: its runner and its own config checks."""

    run: Callable  # (cfg, law) -> (report rows, samples: name -> values)
    needs_n: bool  # n must be >= 1
    check: Callable  # (cfg, law) -> (ignored), raises ConfigError after the shared checks


EXPERIMENTS = {
    "distributional": Experiment(run_distributional, True, _reference),
    "lln-sweep": Experiment(run_lln_sweep, False, _check_lln_sweep),
    "com-kernel": Experiment(run_com_kernel_check, True, _check_com_kernel),
    "etemadi": Experiment(run_etemadi, True, _check_etemadi),
    "hull-drift-volume": Experiment(run_hull_drift_volume, True, _check_drift_volume),
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run a config that ``build_config`` returned on its law, timed; the
    report keeps the samples only under ``dump_samples``."""
    start = time.perf_counter()
    rows, samples = EXPERIMENTS[cfg.experiment].run(cfg, law_from_config(cfg))
    digest = hashlib.sha256(manifest_text(cfg).encode()).hexdigest()[:16]
    return Report(cfg.experiment, rows, cfg.seed, digest, time.perf_counter() - start,
                  samples if cfg.dump_samples else {})
