"""In-memory spans around calls into walklimits, installed from outside.

``Tracer.install`` wraps every public function of every walklimits module,
plus ``IncrementLaw.sample`` and the path-metric regions' ``contains``
methods, and rebinds each wrapper under every name a walklimits module
looks it up by (``replica_stream`` is bound in ``rng``, ``walks`` and
``experiments``; ``sample_walk`` in ``walks`` and ``cli``).  A span is
(name, start, end, parent index, operation); counters are added at the same
boundaries.  ``summary`` turns both into the per-layer metrics.
"""

import importlib
import inspect
import time
from collections import Counter

MODULES = ("cli", "config", "csvio", "experiments", "fixtures", "geometry",
           "laws", "metrics", "rng", "stats", "trajectory", "walks")
# Layers whose self time is reported; fixtures and trajectory are wrapped
# too, but no workload spends measurable time in their public functions.
LAYERS = ("cli", "config", "experiments", "walks", "rng", "laws", "geometry",
          "metrics", "stats", "csvio")
METHODS = (("walks", "IncrementLaw", "sample"),
           ("metrics", "FullSphere", "contains"),
           ("metrics", "HalfspaceCap", "contains"),
           ("metrics", "SphereRect", "contains"))
PATH_METRICS = ("modulus_w", "modulus_w_prime", "occupation", "rho_skorokhod",
                "rho_skorokhod_circ")


def _hull_counts(args, body):
    return {"geometry.hull.points_in": len(args[0]),
            "geometry.hull.vertices_out": len(body.vertices)}


# Counters taken from a wrapped call's arguments and result.
HOOKS = {
    "rng.stream": lambda a, r: {"rng.streams": 1},
    "rng.replica_stream": lambda a, r: {"rng.streams": 1},
    "walks.IncrementLaw.sample": lambda a, r: {"walks.sample.steps": a[1]},
    "walks.sample_brownian": lambda a, r: {"walks.brownian.steps": len(a[1]) - 1},
    "geometry.convex_hull": _hull_counts,
    "stats.ks_statistic": lambda a, r: {"stats.ks.samples": len(a[0])},
    "stats.ks_two_sample": lambda a, r: {"stats.ks.samples": len(a[0]) + len(a[1])},
    "metrics.rho_skorokhod": lambda a, r: {"metrics.rho_skorokhod.exact": r.mode == "exact"},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = ""
        self._stack = []
        self._restore = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span that the tracer records."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        counts_bytes = name.startswith("csvio.")
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self.counts[calls] += 1
            if hook is not None:
                self.counts.update(hook(args, result))
            elif counts_bytes and isinstance(result, str):
                self.counts["csvio.bytes"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions and rebind them in every module."""
        mods = {m: importlib.import_module("walklimits." + m) for m in MODULES}
        wrappers = {}
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{m}.{attr}", obj)
        for mod in [importlib.import_module("walklimits"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{m}.{cls_name}.{meth}", orig))

    def restore(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def self_times(self) -> Counter:
        """Self time per (operation, layer): a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, op), c in zip(self.spans, child):
            out[op, name.split(".")[0]] += end - start - c
        return out

    def summary(self) -> dict:
        """Per-layer self and busy times plus the counters.

        A busy time sums the spans of a group that have no ancestor in the
        same group, so nested calls are not counted twice.
        """
        spans = self.spans
        self_s = Counter()
        for (_, layer), t in self.self_times().items():
            self_s[layer] += t
        groups = {f"{layer}.busy_s": (lambda n, l=layer: n.split(".")[0] == l)
                  for layer in ("rng", "stats", "laws", "csvio", "config")}
        groups.update({
            "walks.sample.busy_s": lambda n: n == "walks.IncrementLaw.sample",
            "walks.brownian.busy_s": lambda n: n == "walks.sample_brownian",
            "geometry.hull.busy_s": lambda n: n == "geometry.convex_hull",
            "geometry.functionals.busy_s":
                lambda n: n.startswith("geometry.") and n != "geometry.convex_hull",
            "metrics.region.busy_s": lambda n: n.startswith("metrics.") and n.endswith(".contains"),
        })
        groups.update({f"metrics.{fn}.busy_s": (lambda n, q=f"metrics.{fn}": n == q)
                       for fn in PATH_METRICS})
        names = {s[0] for s in spans}
        out = {key: _busy(spans, {n for n in names if test(n)})
               for key, test in groups.items()}
        out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        c = self.counts
        out.update({
            "rng.streams": c["rng.streams"],
            "walks.sample.calls": c["walks.IncrementLaw.sample.calls"],
            "walks.sample.steps": c["walks.sample.steps"],
            "walks.brownian.steps": c["walks.brownian.steps"],
            "geometry.hull.calls": c["geometry.convex_hull.calls"],
            "geometry.hull.points_in": c["geometry.hull.points_in"],
            "geometry.hull.vertices_out": c["geometry.hull.vertices_out"],
            "geometry.hull.useful_ratio":
                _ratio(c["geometry.hull.vertices_out"], c["geometry.hull.points_in"]),
            "metrics.rho_skorokhod.exact_frac":
                _ratio(c["metrics.rho_skorokhod.exact"], c["metrics.rho_skorokhod.calls"]),
            "stats.ks.samples": c["stats.ks.samples"],
            "csvio.bytes": c["csvio.bytes"],
            "trace.spans": len(spans),
        })
        out.update({f"metrics.{fn}.calls": c[f"metrics.{fn}.calls"] for fn in PATH_METRICS})
        return out

    def write(self, path):
        """Write the spans as CSV: name,start,end,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def wrapper_cost(calls: int = 100000) -> float:
    """Seconds one wrapped call adds, timed on a function that does nothing."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibrate.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    mid = time.perf_counter()
    for _ in range(calls):
        wrapped()
    end = time.perf_counter()
    return ((end - mid) - (mid - start)) / calls


def _ratio(num, den):
    return num / den if den else 0.0


def _busy(spans, group: set) -> float:
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in group:
            continue
        while parent >= 0 and spans[parent][0] not in group:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
