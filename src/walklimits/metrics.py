"""Metrics and functionals on piecewise paths.

rho_inf                     supremum metric, exact for piecewise inputs
rho_skorokhod               time-change metric, exact on step pairs
rho_skorokhod_circ          chord-slope variant over jump matchings (segment DP)
lambda_circ_norm, c_lambda  norms of a time change
modulus_w, modulus_w_prime  moduli of continuity (window extremes or lag scan, range-max DP)
occupation                  path functional (linear pieces cut at cone roots)

The exact Skorokhod value on step functions is found by a dynamic program
over the monotone staircase of co-occupied piece pairs; see
docs/skorokhod_search.md for why that search class attains the infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory import CONSTANT, LINEAR, Trajectory, _frozen

EXACT = "exact"
UPPER_BOUND = "upper-bound"


@dataclass(frozen=True)
class TimeChange:
    """A strictly increasing piecewise-linear bijection of [0, 1]."""

    times: np.ndarray
    images: np.ndarray

    def __init__(self, times, images):
        times = _frozen(times)
        images = _frozen(images)
        if times.ndim != 1 or times.shape != images.shape or len(times) < 2:
            raise ValueError("times and images must be matching 1-d arrays")
        if times[0] != 0.0 or times[-1] != 1.0 or images[0] != 0.0 or images[-1] != 1.0:
            raise ValueError("a time change must map 0 to 0 and 1 to 1")
        if np.any(np.diff(times) <= 0) or np.any(np.diff(images) <= 0):
            raise ValueError("a time change must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "images", images)

    def __call__(self, t):
        return np.interp(t, self.times, self.images)

    def inverse(self) -> "TimeChange":
        return TimeChange(self.images, self.times)

    def sup_deviation(self) -> float:
        """sup over t of |lambda(t) - t| (attained at a breakpoint)."""
        return float(np.max(np.abs(self.images - self.times)))


def identity_time_change() -> TimeChange:
    return TimeChange([0.0, 1.0], [0.0, 1.0])


@dataclass(frozen=True)
class MetricResult:
    """A metric value with an optional witnessing time change."""

    value: float
    witness: TimeChange | None
    mode: str


def lambda_circ_norm(lam: TimeChange) -> float:
    """sup over s < t of |log of the chord slope between s and t|.

    Chord slopes of a piecewise-linear bijection are convex combinations of
    its segment slopes, so the supremum is the max |log| over segments.
    """
    slopes = np.diff(lam.images) / np.diff(lam.times)
    return float(np.max(np.abs(np.log(slopes))))


def c_lambda(lam: TimeChange) -> float:
    """max(e^norm - 1, 1 - e^-norm); bounds |lambda(t) - t| <= t * c(lambda)."""
    x = lambda_circ_norm(lam)
    return max(math.exp(x) - 1.0, 1.0 - math.exp(-x))


def _check_pair(f: Trajectory, g: Trajectory, same_kind: bool = False) -> None:
    if f.dim != g.dim:
        raise ValueError("trajectories must have equal dimension")
    if same_kind and f.kind != g.kind:
        raise ValueError("trajectories must be of the same kind")


def rho_inf(f: Trajectory, g: Trajectory) -> float:
    """Supremum distance, exact for piecewise inputs.

    The difference is piecewise linear (or constant) between merged
    breakpoints and the Euclidean norm is convex, so the supremum is
    attained at a breakpoint or a one-sided limit at one.
    """
    _check_pair(f, g)
    ts = np.union1d(f.times, g.times)
    right = np.linalg.norm(f(ts) - g(ts), axis=1)
    left = np.linalg.norm(f.left_limit(ts[1:]) - g.left_limit(ts[1:]), axis=1)
    return float(max(right.max(), left.max() if len(left) else 0.0))


def _step_pieces(f: Trajectory):
    """Jump times and piece values of a step trajectory, duplicates merged."""
    change = np.any(f.values[1:] != f.values[:-1], axis=1)
    return f.times[1:][change], np.concatenate([f.values[:1], f.values[1:][change]])


def _staircase_dp(u, a, v, b):
    """Exact Skorokhod distance between step functions via the staircase DP.

    Cell (i, j) is occupied when f sits in piece i while g s lambda sits in
    piece j; a path of right/up/diagonal moves from (0,0) to (p,q) fixes
    which cells get co-occupied, a diagonal move being a jump of f mapped
    exactly onto a jump of g.  The cost of a path is the max of the cell
    mismatches and of the time displacements needed to realize each move;
    minimizing over paths gives the infimum over all time changes.  Cells
    depend only on their left, lower and lower-left neighbours, so each
    anti-diagonal is filled at once.
    """
    p, q = len(u), len(v)
    inf = math.inf
    uu = np.concatenate([[0.0], u, [1.0]])
    vv = np.concatenate([[0.0], v, [1.0]])
    # row i: f jumps at u_i into piece [u_i, u_{i+1}); column j likewise for g
    t, t_next = uu[:-1, None], uu[1:, None]
    x, x_next = vv[None, :-1], vv[None, 1:]
    last_i, last_j = np.arange(p + 1)[:, None] == p, np.arange(q + 1)[None, :] == q
    # f jumps at u_i while g stays in piece j; a zero-width final piece of g
    # is only reachable at t = 1
    right = np.where(x == 1.0, inf, np.maximum(0.0, np.maximum(x - t, t - x_next)))
    right = np.where(t == 1.0, np.where(last_j, 0.0, inf), right)
    # lambda crosses v_j while f stays in piece i (same rule for f's final piece)
    up = np.where(t == 1.0, inf, np.maximum(0.0, np.maximum(t - x, x - t_next)))
    up = np.where(x == 1.0, np.where(last_i, 0.0, inf), up)
    # simultaneous jumps: lambda(u_i) = v_j
    diag = np.where((t == 1.0) != (x == 1.0), inf, np.abs(t - x))

    # flat arrays with an inf border row and column: cell (i, j) sits at
    # (i + 1) * w + j + 1, an anti-diagonal is a slice of stride w - 1
    w = q + 2

    def padded(arr):
        out = np.full((p + 2, w), inf)
        out[1:, 1:] = arr
        return out.ravel()

    mism = padded(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
    steps = (right, up, diag)
    right, up, diag = map(padded, steps)
    cost = np.full((p + 2) * w, inf)
    cost[w + 1] = mism[w + 1]
    for d in range(1, p + q + 1):
        lo, hi = max(0, d - q), min(p, d)
        first, stop = w + 1 + d + lo * (w - 1), w + 2 + d + hi * (w - 1)
        cells = slice(first, stop, w - 1)
        best = np.maximum(cost[first - w : stop - w : w - 1], right[cells])
        np.minimum(best, np.maximum(cost[first - 1 : stop - 1 : w - 1], up[cells]), out=best)
        np.minimum(best, np.maximum(cost[first - w - 1 : stop - w - 1 : w - 1], diag[cells]), out=best)
        cost[cells] = np.maximum(best, mism[cells])
    # the moves, read off the finished grid: tie order right < up < diag, a later
    # move winning only when strictly lower, and 0 where no candidate is finite
    cost = cost.reshape(p + 2, w)
    best = np.full((p + 1, q + 1), inf)
    move = np.zeros((p + 1, q + 1), dtype=np.int8)
    for k, (prev, step) in enumerate(zip((cost[:-1, 1:], cost[1:, :-1], cost[:-1, :-1]), steps), 1):
        c = np.maximum(prev, step)
        move[c < best] = k
        best = np.minimum(best, c)
    return float(cost[-1, -1]), move


def _witness_from_moves(u, v, move) -> TimeChange | None:
    """Reconstruct a near-optimal time change from the DP path.

    Matched jumps anchor exact nodes; unmatched crossings are clamped just
    inside their target interval, so the witness objective can exceed the
    exact value by at most the clamping margin.
    """
    p, q = len(u), len(v)
    u, v, move = u.tolist(), v.tolist(), move.tolist()
    uu, vv = [0.0, *u, 1.0], [0.0, *v, 1.0]
    nodes = []
    i, j = p, q
    while i > 0 or j > 0:
        how = move[i][j]
        if how == 1:
            lo, hi = vv[j], vv[j + 1]
            gap = min(1e-9, (hi - lo) / 4.0)
            nodes.append((u[i - 1], min(max(u[i - 1], lo + gap), hi - gap)))
            i -= 1
        elif how == 2:
            lo, hi = uu[i], uu[i + 1]
            gap = min(1e-9, (hi - lo) / 4.0)
            nodes.append((min(max(v[j - 1], lo + gap), hi - gap), v[j - 1]))
            j -= 1
        else:
            nodes.append((u[i - 1], v[j - 1]))
            i -= 1
            j -= 1
    nodes.reverse()
    ts, xs = [0.0], [0.0]
    for t, x in nodes:
        if t <= ts[-1] or x <= xs[-1] or t >= 1.0 or x >= 1.0:
            continue
        ts.append(t)
        xs.append(x)
    ts.append(1.0)
    xs.append(1.0)
    try:
        return TimeChange(ts, xs)
    except ValueError:
        return None


def rho_skorokhod(f: Trajectory, g: Trajectory, j_max: int = 64) -> MetricResult:
    """Skorokhod distance inf over time changes of max(|lambda - I|, |f - g o lambda|).

    Exact for piecewise-constant pairs with at most j_max jumps per side;
    otherwise an upper bound (the identity time change is always a
    candidate, so the bound never exceeds rho_inf).
    """
    _check_pair(f, g, same_kind=True)
    if f.kind == LINEAR:
        return MetricResult(rho_inf(f, g), identity_time_change(), UPPER_BOUND)
    u, a = _step_pieces(f)
    v, b = _step_pieces(g)
    if len(u) > j_max or len(v) > j_max:
        return MetricResult(rho_inf(f, g), identity_time_change(), UPPER_BOUND)
    value, move = _staircase_dp(u, a, v, b)
    return MetricResult(value, _witness_from_moves(u, v, move), EXACT)


def _sup_diff_under(u, a, v, b, lam: TimeChange) -> float:
    """sup over t of |f(t) - g(lambda(t))| for step pieces under a fixed lambda."""
    inv = lam.inverse()
    w = np.asarray(inv(v)) if len(v) else np.asarray([])
    events = [(t, 0) for t in u] + [(float(t), 1) for t in w]
    events.sort()
    i = j = 0
    best = float(np.linalg.norm(a[0] - b[0]))
    k = 0
    while k < len(events):
        t = events[k][0]
        while k < len(events) and events[k][0] == t:
            if events[k][1] == 0:
                i += 1
            else:
                j += 1
            k += 1
        best = max(best, float(np.linalg.norm(a[i] - b[j])))
    return best


def rho_skorokhod_circ(
    f: Trajectory,
    g: Trajectory,
    j_max: int = 64,
    budget: int = 3_000_000,
) -> MetricResult:
    """Variant minimizing max(chord-slope log norm, |f - g o lambda|).

    Exact mode minimizes over piecewise-linear time changes whose
    breakpoints match jumps of f monotonically onto jumps of g, by a
    dynamic program over matched pairs; it is capped at j_max jumps per
    side and at `budget` for the program's work N^2 (p + q), N = pq + 2
    nodes, beyond which an upper bound is returned (best of the identity
    and the rho_skorokhod witness re-scored under this objective).
    """
    _check_pair(f, g, same_kind=True)
    if f.kind == LINEAR:
        return MetricResult(rho_inf(f, g), identity_time_change(), UPPER_BOUND)
    u, a = _step_pieces(f)
    v, b = _step_pieces(g)
    p, q = len(u), len(v)
    if p > j_max or q > j_max or (p * q + 2) ** 2 * (p + q) > budget:
        ident = identity_time_change()
        best, wit = rho_inf(f, g), ident
        alt = rho_skorokhod(f, g, j_max=j_max).witness
        if alt is not None:
            obj = max(lambda_circ_norm(alt), _sup_diff_under(u, a, v, b, alt))
            if obj < best:
                best, wit = obj, alt
        return MetricResult(best, wit, UPPER_BOUND)
    return MetricResult(*_circ_dp(u, a, v, b), EXACT)


def _circ_dp(u, a, v, b):
    """Exact rho_skorokhod_circ over time changes interpolating monotone jump matchings.

    Between consecutive matched nodes such a lambda is linear, so its chord
    norm and the cells f and g o lambda co-occupy there depend only on the
    two nodes: the objective is the max of per-segment costs, minimized by a
    bottleneck shortest path over the matched pairs (start (0, 0), end (1, 1);
    a pair with one side at 1 is infeasible and (1, 1) is the end itself).
    Each segment re-maps g's jumps with the same interpolation arithmetic as
    the whole lambda, so values equal an enumeration of all matchings.
    """
    p, q = len(u), len(v)
    mism = [[float(np.linalg.norm(a[i] - b[j])) for j in range(q + 1)] for i in range(p + 1)]
    nodes = [(0, 0)] + [(r, s) for r in range(1, p + 1) if u[r - 1] < 1.0
                        for s in range(1, q + 1) if v[s - 1] < 1.0] + [(p + 1, q + 1)]
    ts = np.array([0.0] + [u[r - 1] for r, _ in nodes[1:-1]] + [1.0])
    xs = np.array([0.0] + [v[s - 1] for _, s in nodes[1:-1]] + [1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.abs(np.log((xs[None, :] - xs[:, None]) / (ts[None, :] - ts[:, None]))).tolist()
    uf, end = u.tolist(), len(nodes) - 1

    def segment(m, k):
        """sup |f - g o lambda| over the segment's own event times."""
        (r, s), (r2, s2) = nodes[m], nodes[k]
        fe, ge = uf[r : r2 - 1], v[s : s2 - 1]
        ge = np.interp(ge, xs[[m, k]], ts[[m, k]]).tolist() if len(ge) else []
        # events landing on the right node belong to the next segment's start
        stop = math.inf if k == end else ts[k]
        cost = 0.0 if ge and ge[0] == ts[m] else mism[r][s]
        i = j = 0
        while True:
            at = min(fe[i] if i < len(fe) else math.inf, ge[j] if j < len(ge) else math.inf)
            if at >= stop:
                return cost
            while i < len(fe) and fe[i] == at:
                i += 1
            while j < len(ge) and ge[j] == at:
                j += 1
            cost = max(cost, mism[r + i][s + j])

    best, back = [mism[0][0]] + [math.inf] * end, [0] * (end + 1)
    for k in range(1, end + 1):
        r2, s2 = nodes[k]
        # predecessors by their lower bound, stopping once none can improve
        for bound, m in sorted((max(best[m], chord[m][k]), m) for m in range(k)
                               if nodes[m][0] < r2 and nodes[m][1] < s2):
            if bound >= best[k]:
                break
            c = max(bound, segment(m, k))
            if c < best[k]:
                best[k], back[k] = c, m
    path = [end]
    while path[-1]:
        path.append(back[path[-1]])
    return best[end], TimeChange(ts[path[::-1]], xs[path[::-1]])


def modulus_w(f: Trajectory, delta: float) -> float:
    """Modulus of continuity sup over |s - t| <= delta of |f(s) - f(t)|.

    Computed as the closure supremum (the strict-inequality version has the
    same value for the limits used downstream).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if f.kind == CONSTANT:
        return _band_sup(*_piece_intervals(f), delta)
    cand = np.concatenate([f.times, f.times - delta, f.times + delta])
    cand = np.unique(np.clip(cand, 0.0, 1.0))
    return _band_sup(cand, cand, f(cand), delta)


def _band_sup(first, last, vals, delta) -> float:
    """max |vals[j] - vals[i]| over i < j with first[j] - last[i] <= delta, up
    to 1e-15, so a gap of exactly delta counts however its times round.

    The times are sorted, so the gap only falls as i grows: the pairs of a j
    are the window i = lo[j] .. j - 1, and past a lag with no pair in the
    window there are none.  In d = 1 each window's max and min give the
    largest of the squared differences the lag scan over d >= 2 compares."""
    if vals.shape[1] == 1:
        return _window_sup(first, last, vals[:, 0], delta + 1e-15)
    best = 0.0
    for k in range(1, len(vals)):
        near = first[k:] - last[:-k] <= delta + 1e-15
        if not near.any():
            break
        diff = vals[k:] - vals[:-k]
        best = max(best, float(np.einsum("ij,ij->i", diff, diff).max(where=near, initial=0.0)))
    return math.sqrt(best)


def _window_sup(first, last, x, reach) -> float:
    """The d = 1 band supremum in O(n log n) time and O(n) memory.

    lo[j] is found by the lag scan's own float test, from a searchsorted
    guess.  Doubling levels give the window extremes: level k holds the max
    and min of every 2^k consecutive values, is built from level k - 1 and
    serves the windows of 2^k to 2^(k+1) - 1 values before it is dropped."""
    at = np.arange(len(x))
    lo = np.minimum(np.searchsorted(last, first - reach), at)
    while (back := (lo > 0) & (first - last[lo - 1] <= reach)).any():
        lo -= back
    while (ahead := (lo < at) & (first - last[lo] > reach)).any():
        lo += ahead
    level = np.frexp(at - lo + 1)[1] - 1
    top = bottom = x
    best = 0.0
    for k in range(int(level.max()) + 1):
        if k:
            h = 1 << (k - 1)
            top, bottom = np.maximum(top[:-h], top[h:]), np.minimum(bottom[:-h], bottom[h:])
        j = np.flatnonzero(level == k)
        if len(j):
            a, b, xj = lo[j], j - (1 << k) + 1, x[j]
            hi, low = np.maximum(top[a], top[b]), np.minimum(bottom[a], bottom[b])
            best = max(best, float(np.maximum(hi - xj, xj - low).max()))
    return math.sqrt(best * best)


def _piece_intervals(f: Trajectory):
    """Half-open constant pieces (start, end, value); the endpoint value of a
    jump at t = 1 appears as a zero-length final piece."""
    u, a = _step_pieces(f)
    return np.concatenate([[0.0], u]), np.concatenate([u, [1.0]]), a


def modulus_w_prime(f: Trajectory, delta: float) -> float:
    """Cadlag modulus: min over delta-sparse partitions of the max cell oscillation.

    Cells are half-open, so a partition point sitting on a jump isolates it.
    Dynamic program over candidate breakpoints: the jump times, the
    endpoints, gap midpoints and jump +- delta (jump times alone can miss
    the optimum when sparsity forces off-jump cuts).
    """
    if f.kind != CONSTANT:
        raise ValueError("the cadlag modulus applies to piecewise-constant paths")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    starts, ends, vals = _piece_intervals(f)
    jumps = starts[1:][starts[1:] < 1.0]
    edges = np.concatenate([[0.0], jumps, [1.0]])
    near = np.concatenate([jumps - delta, jumps + delta])
    cand = np.unique(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2.0,
                                     near[(near > 0.0) & (near < 1.0)]]))
    # the pieces live on the cell (cand[j], cand[i]) are first[j]..last[i]
    first = np.searchsorted(ends, cand, side="right")
    last = np.searchsorted(starts, cand, side="left") - 1
    # osc[b]: the largest distance between pieces b..e, one right end e at a time
    # (last is non-decreasing, so each column is built once from the one before)
    osc, e = np.zeros(len(vals)), -1
    best = np.zeros(len(cand))
    for i in range(1, len(cand)):
        while e < last[i]:
            e += 1
            reach = np.linalg.norm(vals[: e + 1] - vals[e], axis=1)
            osc[: e + 1] = np.maximum(osc[: e + 1], np.maximum.accumulate(reach[::-1])[::-1])
        sparse = cand[i] - cand[:i] > delta
        best[i] = np.maximum(best[:i], osc[first[:i]])[sparse].min(initial=math.inf)
    return float(best[-1])


class FullSphere:
    """The whole unit sphere (zero vectors still excluded)."""

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.linalg.norm(pts, axis=1) > 0.0


@dataclass(frozen=True)
class HalfspaceCap:
    """Directions x with x-hat . axis >= offset; the zero vector is excluded."""

    axis: np.ndarray
    offset: float = 0.0

    def __init__(self, axis, offset: float = 0.0):
        axis = np.atleast_1d(np.asarray(axis, dtype=float))
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ValueError("cap axis must be nonzero")
        axis = axis / norm
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "offset", float(offset))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        norms = np.linalg.norm(pts, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            proj = (pts @ self.axis) / norms
        return (norms > 0.0) & (proj >= self.offset)

    @property
    def cones(self):
        """Boundary cones (a, c), each the set x . a = c |x|."""
        return ((self.axis, self.offset),)


@dataclass(frozen=True)
class SphereRect:
    """Axis-aligned bounds on the components of the direction vector."""

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = _frozen(np.atleast_1d(lo))
        hi = _frozen(np.atleast_1d(hi))
        if lo.shape != hi.shape:
            raise ValueError("bounds must have matching shape")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        norms = np.linalg.norm(pts, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)[:, None]
        unit = pts / safe
        ok = np.all((unit >= self.lo) & (unit <= self.hi), axis=1)
        return (norms > 0.0) & ok

    @property
    def cones(self):
        """Boundary cones (a, c), each the set x . a = c |x|."""
        eye = np.eye(len(self.lo))
        return [(eye[k], b) for k in range(len(self.lo)) for b in (self.lo[k], self.hi[k])]


def positive_halfline() -> HalfspaceCap:
    """The d = 1 region of strictly positive values."""
    return HalfspaceCap(np.array([1.0]), 0.0)


def occupation(f: Trajectory, region) -> float:
    """Lebesgue measure of the times whose direction vector lies in the region.

    Exact for piecewise-constant paths.  Linear pieces are cut where they
    pass closest to the origin and at the closed-form roots where they meet
    the region's boundary ``cones`` (none if it lists none); ``contains``
    then decides each cell at its midpoint.
    """
    if not hasattr(region, "contains"):
        raise ValueError("unsupported region specification")
    if f.kind == CONSTANT:
        if len(f.times) == 1:
            return 1.0 if bool(region.contains(f.values[:1])[0]) else 0.0
        return float(np.diff(f.times)[region.contains(f.values[:-1])].sum())
    total, block = 0.0, 1 << 14  # pieces per block, bounding the cell arrays
    for i in range(0, len(f.times) - 1, block):
        t, x = f.times[i : i + block + 1], f.values[i : i + block + 1]
        p0, seg = x[:-1], np.diff(x, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = [-(p0 * seg).sum(1) / (seg * seg).sum(1)]
            for axis, offset in getattr(region, "cones", ()):
                roots += _cone_roots(p0, seg, axis, offset)
        roots = np.column_stack(roots)
        roots[~((roots > 0.0) & (roots < 1.0))] = 1.0
        cuts = np.sort(np.column_stack([np.zeros(len(p0)), roots, np.ones(len(p0))]), axis=1)
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        mids = p0[:, None, :] + (0.5 * (lo + hi))[:, :, None] * seg[:, None, :]
        inside = region.contains(mids.reshape(-1, f.dim)).reshape(lo.shape)
        measure = np.where(inside, (hi - lo) * np.diff(t)[:, None], 0.0)
        # summed piece by piece, left to right, like a running total
        total = np.cumsum(np.concatenate([[total], measure.ravel()]))[-1]
    return float(total)


def _cone_roots(p0, seg, axis, offset) -> list:
    """Roots s of (x.axis)^2 - offset^2 |x|^2 on x = p0 + s seg: crossings of the cone
    x.axis = offset |x| or its mirror.  The discriminant offset^2 (|alpha seg - beta p0|^2
    - offset^2 |p0 ^ seg|^2) is exactly 0 for a flat cone, so its one root stays exact."""
    alpha, beta, c2 = p0 @ axis, seg @ axis, offset * offset
    ps, pp, ss = (p0 * seg).sum(1), (p0 * p0).sum(1), (seg * seg).sum(1)
    qa, qb, qc = beta * beta - c2 * ss, alpha * beta - c2 * ps, alpha * alpha - c2 * pp
    w = alpha[:, None] * seg - beta[:, None] * p0
    disc = c2 * ((w * w).sum(1) - c2 * (pp * ss - ps * ps))
    q = -(qb + np.copysign(np.sqrt(disc), qb))
    return [q / qa, qc / q]
