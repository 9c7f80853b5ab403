"""walklimits benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sampling --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

One process drives the workload's operations one at a time, back to back,
and never runs two walklimits processes at once.  ``--trace 0`` runs each
operation as its own ``walklimits`` process (``runner.py``) and repeats the
whole workload (a pass) while the next pass still ends within ``--seconds``
(at least one pass).

The host is a shared VM whose speed for the same code drifts by 20-100%
over tens of seconds to minutes, per CPU, and CPU time drifts with it, so
raw times of runs a few minutes apart are not comparable.  This process
therefore pins itself and its children to one CPU and runs a fixed
calibration kernel (``calibrate``: a Python loop and a numpy cumsum and
sort, no walklimits code) before the first operation and after every
operation.  An operation's times, totalled over the passes, are scaled by
CAL_REF_S over the total of the kernel times around them (for each, the
mean of the kernels just before and after).  Times below are in these
reference seconds: seconds on a host on which the kernel takes CAL_REF_S.
A change to walklimits moves them as it moves raw time; a change of host
speed mostly cancels: on a shared 2-vCPU VM, over ten seeds, the spread (IQR/median)
of wall_s fell from 8% raw to 2% on sampling and from 25% to 7% on
functionals.  Raw times are kept in the run record.  It reports:

  wall_s       a pass's time: the sum over its operations of each one's
               launch-to-exit time, totalled over the passes and scaled by
               the total of the kernels around it, in reference s
  setup_s      start-up (launch until walklimits.cli is imported) of one
               pass's processes: their count times the median start-up, in
               reference s, of every process the run started, three
               start-up probes included
  steps_per_s  walk plus Brownian grid steps of a pass, computed from the
               operations' configs, over (wall_s - setup_s)
  peak_rss_mb  the largest peak resident set of any process in the run

``--trace 1`` runs one such pass as the untraced reference, then one pass
in this process with ``tracing.Tracer`` wrapped around the library, and
reports the per-layer metrics (raw seconds).  ``trace.overhead_s`` is the
traced wall time minus the reference's raw (wall - setup); it also holds
the cost of separate processes and the host's noise, so ``trace.overhead_est_s``
gives the wrappers' own cost: spans times one wrapped no-op call.

Every output is checked: against the digests in ``pins.json`` under the
default seed 0, and for shape and pass-to-pass identity under any other
seed.  An operation fails on a crash, a timeout, an exit code other than 0
or 3, or a failed check; a FAIL verdict in a report (exit code 3 once the
CLI reports verdicts that way) is recorded, not counted as a failure.
``failed_frac`` (failed / attempted) is printed and kept in the run record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (environment,
per-pass and per-group numbers, digests, verdicts, layer shares) and the
spans are written under ``.perfbench/`` in the repository root.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
RUNNER = os.path.join(HERE, "runner.py")
PINS = os.path.join(HERE, "pins.json")
PROBES = 3  # start-up-only processes per run, for the setup_s median
CAL_REF_S = 0.1  # calibration kernel seconds that define one reference second
CAL_LOOP = 750_000  # Python loop iterations of the calibration kernel
CAL_ARRAY = numpy.random.default_rng(0).standard_normal(1 << 21)  # 16 MB
RUN_DEADLINE = 170.0  # seconds; processes still running then are killed
# Exit codes of an operation that ran.  3 is planned for an experiment whose
# report holds a FAIL verdict: a verdict is recorded, not a failed operation.
RAN = (0, 3)
REPORTS = ("report.csv", "hull_report.csv")  # first column is seed-invariant
FIXED_LENGTH = ("report.csv", "hull_report.csv", "walk.csv")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _launch(args: list, result_path: str, log_path: str, deadline: float) -> dict:
    """Run one runner.py process to completion; returns its timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    with open(log_path, "w", encoding="utf-8") as log:
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, RUNNER, result_path, *args],
                                stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - launch))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
        end = time.monotonic()
    return {"launch": launch, "end": end, "rc": rc, "result": result_path, "log": log_path}


def _read_result(proc: dict) -> dict:
    """Merge the child's result file into its timings; rc stays the exit code."""
    try:
        with open(proc["result"], encoding="utf-8") as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        child = {}
    proc["setup_s"] = child["ready"] - proc["launch"] if "ready" in child else None
    proc["maxrss_kb"] = child.get("maxrss_kb", 0)
    proc["values"] = child.get("values")
    proc["versions"] = child.get("versions")
    return proc


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now.

    Half of it is interpreted Python, half numpy streaming through memory,
    because the host's slow phases slow the two by different amounts and
    walklimits spends its time in both.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    for _ in range(2):
        numpy.cumsum(CAL_ARRAY).sort()
    return time.perf_counter() - start


def _calibrated(procs: list, cal: list) -> list:
    """Give procs[i] the mean of the kernels timed around it (cal[i], cal[i+1])."""
    for i, proc in enumerate(procs):
        proc["cal_s"] = (cal[i] + cal[i + 1]) / 2
    return procs


def _probe(path: str, deadline: float) -> dict:
    cal = [calibrate()]
    proc = _launch(["probe"], path + ".json", path + ".log", deadline)
    cal.append(calibrate())
    return _read_result(_calibrated([proc], cal)[0])


def _op_args(op, out: str) -> list:
    return ["cli", *op.args, "--out", out] if op.mode == "cli" else ["paths", *op.args]


def _subprocess_pass(ops, pass_dir: str, deadline: float) -> dict:
    """One closed-loop pass, each operation its own process."""
    os.makedirs(pass_dir)
    procs, cal = [], [calibrate()]
    for op in ops:
        out = os.path.join(pass_dir, op.name)
        procs.append(_launch(_op_args(op, out), out + ".result.json", out + ".log", deadline))
        cal.append(calibrate())
    procs = [_read_result(p) for p in _calibrated(procs, cal)]
    wall = procs[-1]["end"] - procs[0]["launch"]
    return {"wall_s": wall, "procs": procs}


def _traced_pass(ops, pass_dir: str, tracer) -> dict:
    """One pass in this process with the tracer's wrappers installed."""
    import paths
    import walklimits.cli

    os.makedirs(pass_dir)
    procs = []
    start = time.monotonic()
    for op in ops:
        tracer.op = op.name
        out = os.path.join(pass_dir, op.name)
        values, rc = None, 1
        launch = time.monotonic()
        with open(out + ".log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
            try:
                if op.mode == "cli":
                    rc = walklimits.cli.main([*op.args, "--out", out])
                else:
                    values, rc = paths.run(int(op.args[0])), 0
            except Exception as exc:  # reported as a failed operation
                print(f"{type(exc).__name__}: {exc}", file=log)
        procs.append({"rc": rc, "values": values, "log": out + ".log",
                      "launch": launch, "end": time.monotonic()})
    return {"wall_s": time.monotonic() - start, "procs": procs}


def _outputs(op, out: str, values) -> dict:
    """What the checks compare: per file its digest and seed-invariant shape."""
    if op.mode == "paths":
        return {"values": {label: [value, mode] for label, value, mode in values or []}}
    files = {}
    for name in op.outputs:
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        lines = data.decode("utf-8").splitlines()
        rec = {"sha256": hashlib.sha256(data).hexdigest(), "first_line": lines[0]}
        if name in FIXED_LENGTH:
            rec["lines"] = len(lines)
        if name in REPORTS:
            rows = list(csv.reader(lines[1:]))
            rec["names"] = [r[0] for r in rows]
            rec["verdicts"] = {r[0]: r[5] for r in rows if len(r) > 5 and r[5]}
            rec["finite"] = all(math.isfinite(float(x)) for r in rows for x in r[1:5] + r[6:7] if x)
        files[name] = rec
    return {"files": files}


def _problems(got: dict, pin: dict | None, exact: bool) -> list:
    """Differences from the pinned record; digests only under the default seed."""
    if pin is None:
        return ["no pinned record"]
    if "values" in pin:
        g, p = got["values"], pin["values"]
        if g.keys() != p.keys():
            return ["paths labels differ"]
        bad = [k for k in p if g[k][1] != p[k][1] or not math.isfinite(float(g[k][0]))
               or (exact and g[k][0] != p[k][0])]
        return [f"paths value {k}" for k in bad]
    out = []
    for name, p in pin["files"].items():
        g = got["files"][name]
        keys = ["first_line", "lines", "names", "finite"] + (["sha256"] if exact else [])
        out += [f"{name} {k}" for k in keys if k in p and g.get(k) != p[k]]
    return out


class Checker:
    """Checks each pass's outputs against the pins and against the first pass.

    ``pins`` is None while pinning: then only pass-to-pass identity is checked.
    """

    def __init__(self, ops, pins: dict | None, exact: bool):
        self.ops, self.pins, self.exact = ops, pins, exact
        self.first = {}

    def check(self, pass_dir: str, run: dict) -> None:
        """Annotates each operation with its outputs and failure, if any,
        then deletes the pass's output files."""
        for op, proc in zip(self.ops, run["procs"]):
            problems = []
            if proc["rc"] not in RAN:
                problems.append(f"exit code {proc['rc']}")
            else:
                try:
                    proc["outputs"] = _outputs(op, os.path.join(pass_dir, op.name),
                                               proc["values"])
                except (OSError, UnicodeDecodeError, IndexError, ValueError) as exc:
                    problems.append(f"unreadable output: {exc}")
                else:
                    if self.pins is not None:
                        problems += _problems(proc["outputs"], self.pins.get(op.name),
                                              self.exact)
                    if self.first.setdefault(op.name, proc["outputs"]) != proc["outputs"]:
                        problems.append("outputs differ between passes")
            if problems:
                with open(proc["log"], encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-2000:]
                proc["failure"] = {"problems": problems, "log_tail": tail}
                print(f"FAILED {op.name}: {'; '.join(problems)}\n{tail}", file=sys.stderr)
            proc.pop("values", None)
        shutil.rmtree(pass_dir)


def _environment(versions: dict | None, cpus: list) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))}
    return {**(versions or {}), "nproc": len(cpus), "pinned_cpu": cpus[0],
            "cpu_count": os.cpu_count(), "commit": commit, "thread_env": threads}


def _computed(ops) -> dict:
    return {
        "steps.computed": sum(op.steps for op in ops),
        "experiments.batches.computed": sum(op.batches for op in ops),
        "experiments.batch_bytes_max.computed": max(op.batch_bytes for op in ops),
        "metrics.rho_skorokhod_circ.matchings.computed": sum(op.matchings for op in ops),
    }


def _span(proc: dict) -> float:
    return proc["end"] - proc["launch"]


def _end_to_end(passes: list, starts: list, ops) -> tuple:
    """wall_s, setup_s, steps_per_s and peak_rss_mb from a run's passes,
    in reference seconds, and the raw times.

    An operation's reference time is its total time over the passes over
    the total of the kernels around it, times CAL_REF_S.  ``starts`` are the
    run's processes that reported a start-up, probes included; setup_s is
    the processes per pass times their median start-up.
    """
    cols = [[p["procs"][i] for p in passes] for i in range(len(ops))]
    wall = sum(CAL_REF_S * sum(map(_span, col)) / sum(q["cal_s"] for q in col)
               for col in cols)
    setup = len(ops) * statistics.median(q["setup_s"] * CAL_REF_S / q["cal_s"]
                                          for q in starts)
    rss = max(q["maxrss_kb"] for p in passes for q in p["procs"])
    raw = {"wall_s": sum(statistics.median(map(_span, col)) for col in cols),
           "setup_s": len(ops) * statistics.median(q["setup_s"] for q in starts),
           "pass_wall_s": statistics.median(p["wall_s"] for p in passes)}
    return ({"wall_s": wall, "setup_s": setup,
             "steps_per_s": sum(op.steps for op in ops) / (wall - setup),
             "peak_rss_mb": rss / 1024.0}, raw)


def _group_times(ops, run: dict) -> dict:
    """Seconds each group of operations took in one pass."""
    out = dict.fromkeys((op.group for op in ops), 0.0)
    for op, proc in zip(ops, run["procs"]):
        out[op.group] += _span(proc)
    return out


def _group_shares(ops, traced: dict, self_times) -> dict:
    """Each group's layer self times as shares of the group's traced time."""
    walls = _group_times(ops, traced)
    group_of = {op.name: op.group for op in ops}
    shares = {g: {} for g in walls}
    for (op, layer), t in self_times.items():
        g = group_of[op]
        shares[g][layer] = shares[g].get(layer, 0.0) + t / walls[g]
    return {g: dict(sorted(v.items(), key=lambda kv: -kv[1])) for g, v in shares.items()}


def _start_up(work: str, deadline: float) -> tuple:
    """Start walklimits once untimed, so compiled bytecode and the file cache
    are warm, then PROBES times timed; returns (versions, probe processes)."""
    warm = _probe(os.path.join(work, "warm"), deadline)
    if warm["rc"] != 0 or warm["setup_s"] is None:
        raise SystemExit(f"walklimits does not start from {SRC}; see {warm['log']}")
    probes = [_probe(os.path.join(work, f"probe{i}"), deadline) for i in range(PROBES)]
    if any(p["setup_s"] is None for p in probes):
        raise SystemExit(f"walklimits start-up probe failed; see {work}")
    return warm["versions"], probes


def _measure(ops, work: str, seconds: int, deadline: float, checker: Checker) -> list:
    """Closed-loop passes while the next one, as long as the last, ends
    within ``seconds`` (at least one pass)."""
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started + passes[-1]["wall_s"] <= seconds:
        pass_dir = os.path.join(work, f"pass{len(passes)}")
        run = _subprocess_pass(ops, pass_dir, deadline)
        checker.check(pass_dir, run)
        passes.append(run)
    return passes


def _trace(ops, work: str, checker: Checker) -> tuple:
    """One traced in-process pass; returns (the pass, per-layer metrics, spans)."""
    import tracing

    sys.path.insert(0, SRC)
    tracer = tracing.Tracer()
    tracer.install()
    pass_dir = os.path.join(work, "traced")
    try:
        traced = _traced_pass(ops, pass_dir, tracer)
    finally:
        tracer.restore()
    checker.check(pass_dir, traced)
    layer = tracer.summary()
    layer.update(_computed(ops))
    layer["trace.wall_s"] = traced["wall_s"]
    layer["trace.overhead_est_s"] = len(tracer.spans) * tracing.wrapper_cost()
    return traced, layer, tracer


def run_workload(name: str, seed: int, seconds: int, trace: bool, pin: bool,
                 cpus: list) -> dict:
    """One benchmark run; returns the result object and writes the run record.

    ``cpus`` are the CPUs this process could use before main pinned it.
    """
    spec = _spec()
    ops = workloads.build(name, seed)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + RUN_DEADLINE
    versions, probes = _start_up(work, deadline)
    pins = None if pin else _load_pins().get(name, {})
    checker = Checker(ops, pins, seed == workloads.DEFAULT_SEED)
    passes = _measure(ops, work, 0 if trace else seconds, deadline, checker)
    runs = list(passes)
    starts = probes + [q for p in passes for q in p["procs"] if q["setup_s"] is not None]
    ok = not any("failure" in q for p in passes for q in p["procs"])
    metrics, raw = _end_to_end(passes, starts, ops) if ok else ({}, {})
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "why": {w["name"]: w["why"] for w in spec["workloads"]}[name],
              "environment": _environment(versions, cpus)}
    if trace:
        traced, layer, tracer = _trace(ops, work, checker)
        runs.append(traced)
        if raw:
            layer["trace.overhead_s"] = traced["wall_s"] - (raw["pass_wall_s"] - raw["setup_s"])
        tracer.write(os.path.join(WORK, f"spans-{tag}.csv"))
        record["end_to_end"] = metrics
        record["layer_shares"] = {k[:-len(".self_s")]: v / traced["wall_s"]
                                  for k, v in layer.items() if k.endswith(".self_s")}
        record["group_layer_shares"] = _group_shares(ops, traced, tracer.self_times())
        metrics = layer
    procs = [q for r in runs for q in r["procs"]]
    failed = sum("failure" in q for q in procs)
    wanted = spec["per_layer" if trace else "end_to_end"]
    if not failed and set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(metrics)}")
    result = {
        "correct": failed == 0,
        "attempted": len(procs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    record.update({
        "result": result,
        "group_wall_s": {g: statistics.median(_group_times(ops, p)[g] for p in passes)
                         for g in dict.fromkeys(op.group for op in ops)},
        "failed_frac": failed / len(procs),
        "computed": _computed(ops),
        "raw_s": raw,
        "setup_samples_s": [q["setup_s"] for q in starts],
        "calibration_s": [q["cal_s"] for q in starts],
        "passes": [{"wall_s": r["wall_s"], "procs": [
            {k: v for k, v in q.items() if k not in ("result", "log")} for q in r["procs"]]}
            for r in runs],
    })
    with open(os.path.join(WORK, f"record-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if pin and not failed:
        _write_pins(name, {op.name: q["outputs"] for op, q in zip(ops, passes[0]["procs"])})
    shutil.rmtree(work, ignore_errors=True)
    return result


def _load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def _write_pins(name: str, records: dict) -> None:
    pins = _load_pins() if os.path.exists(PINS) else {}
    pins[name] = records
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record the outputs as pins.json (default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.pin and args.seed != workloads.DEFAULT_SEED):
        parser.error("--seed must be >= 0, and --pin needs the default seed")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # One CPU for this process, its children and the calibration kernel, so
    # that the kernel sees the same share of the host as the operations.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    results = {}
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace), args.pin, cpus)
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
