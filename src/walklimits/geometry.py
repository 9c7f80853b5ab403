"""Point-set and convex-body geometry: hulls, Hausdorff distance, functionals.

Every hull with d >= 2 is built by qhull: counter-clockwise vertex loops in
the plane, facet triangles (as vertex-index rows) in d = 3, halfspaces in
every d.  A large planar input first drops the points that the hull of a
subsample proves interior (``_screen``); they cannot be vertices, and in the
plane every output is a function of the vertex set, so the screen changes
no output.  Each builder stores the body's exact volume and surface area
with it: shoelace area and perimeter in d = 2 (plus the Steiner formula),
tetrahedron and facet-triangle sums in d = 3, the volume and facet areas of
the build's own qhull run above, so no measure runs qhull again.  Flat
bodies are legal and are built in coordinates of their affine hull; like
every body they carry halfspaces, so one membership test serves them all.
Only the mean width, a sphere integral of the support function, is a
quadrature (one formula in every d: trapezoid rule in d = 2, quasi-random
sphere points above).
``ConvexBody.contains``, which validates every hull in d <= 3, sets whole
blocks of points True when the bounding boxes of their runs lie inside
every facet by a margin far above rounding (``_certified_blocks``), and
takes the facet-major product for every other block, so its booleans are
the product's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import QhullError, cKDTree
from scipy.spatial import ConvexHull as _QHull

from .rng import replica_streams


@dataclass(frozen=True)
class PointSet:
    """A finite set of d-vectors containing the origin."""

    points: np.ndarray

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("point set must be a nonempty (m, d) array")
        if not np.any(np.all(pts == 0.0, axis=1)):
            raise ValueError("point set must contain the origin")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _as_points(obj) -> np.ndarray:
    pts = obj.points if isinstance(obj, PointSet) else np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    dists, _ = cKDTree(b).query(a, k=1)
    return float(np.max(dists))


def hausdorff(a, b) -> float:
    """Hausdorff distance between two finite point sets, exact."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("point sets must have equal dimension")
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


# Cells (points x facets) per block in ConvexBody.contains, which takes its
# distances facet-major: `normals @ block.T` reduced over axis 0 is 4-5 times
# faster than the row-major form on planar hulls, whose ~20 facets make a
# short row to reduce.  A budget in cells, not rows, bounds the temporary at
# 1 MiB whatever the facet count (a 3e5-point walk against 310 facets would
# otherwise take ~0.8 GB).  Milliseconds per call on walks of n steps
# (2-core x86-64 host, one CPU, median of 15 alternating rounds; row-major is
# `block @ normals.T` reduced over axis 1; the last column, 2^17 cells with
# the block certificate below, is a later run of 11 rounds on the same
# walks, in which plain 2^17 read 0.34, 6.10, 4.41, 2.65 and 196.9):
#
#   input (facets)                  512 rows  2^16 cells  2^17  2^18  2^17 +
#                                   row-major                        certificate
#   d = 2, n = 10^4 (20)              0.67       0.26     0.17  0.17   (dense)
#   d = 2, n = 3*10^5 (22)           24.0       10.1       6.3   7.9   (dense)
#   d = 2 screen, n = 3*10^5 (17)    26.2        8.0       5.0   7.1   (dense)
#   d = 3, n = 10^4 (174)             2.81       2.63     2.48  2.86    2.43
#   d = 3, n = 3*10^5 (416)         171.4      174.7     169.5 189.4   29.5
_CONTAINS_CELLS = 1 << 17
# contains certifies whole blocks from the boxes of runs of _CERTIFY_RUN
# consecutive points (``_certified_blocks``): a walk's points are spatially
# coherent, so most runs of a long walk lie deep inside its hull.
# Milliseconds per call at the default tol by run length ("block": one box
# per dense block), on walks of n steps and an iid cloud (2-core x86-64
# host, one CPU, median of 11 alternating rounds; the drift walk is the
# benchmark's `hull` d = 3 input):
#
#   input (facets)                    dense  R = 32    64    128    256  block
#   d = 3 drift, n = 3*10^5 (310)     130.4   22.2   17.6   16.7   16.2   17.5
#   d = 3, n = 3*10^5 (344)           145.4   25.6   21.2   20.6   22.9   24.6
#   Rademacher d = 3, n = 10^5 (258)   35.5   11.0   10.8   10.5   10.6   11.3
#   lattice d = 3, n = 10^5 (280)      36.7   11.2   10.0   10.7   11.8   13.6
#   iid Gaussian, 10^5 points (134)    18.7   22.0   20.7   20.0   20.7   19.5
#   d = 3, n = 10^4 (200)               2.75   2.63   2.48   2.65   2.71   2.70
#
# An iid cloud has no deep runs, so there the boxes are pure cost.
_CERTIFY_RUN = 128
# The certificate is taken by bodies of at least _CERTIFY_FACETS facets
# tested against at least _CERTIFY_POINTS points; below either it does not
# pay.  Milliseconds per call, dense and with the certificate forced on
# (same host and rounds; d = 3 rows are means over 5 walks, mean facets):
#
#   input (facets)                    dense  certificate
#   d = 2, n = 10^4 (16)              0.309    0.469
#   d = 2 screen, n = 10^4 (13)       0.161    0.189
#   d = 2, n = 10^5 (23)              2.273    2.058
#   d = 2 screen, n = 10^5 (17)       1.632    1.955
#   d = 2, n = 3*10^5 (25)            7.024    4.570
#   d = 2 screen, n = 3*10^5 (15)     4.150    3.904
#   d = 3, 2048 points (130)          0.443    0.603
#   d = 3, 4096 points (151)          1.010    1.220
#   d = 3, 8192 points (170)          2.170    2.254
#   d = 3, 16384 points (193)         4.876    3.921
#   d = 3, 32768 points (237)        12.034    6.890
#
# Planar bodies (13-25 facets) keep the dense loop: it wins at 10^4 points,
# and the screen keeps winning at 10^5.
_CERTIFY_FACETS = 64
_CERTIFY_POINTS = 8192
# support_many takes its (directions x vertices) product in parts of
# _SUPPORT_ROWS rows: about 1 MiB for the mean width's 4096 directions on a
# few hundred vertices, not 5.  With one BLAS thread the parts match the whole
# product bit for bit when each starts at a multiple of the directions
# OpenBLAS's gemm packs at a time, 3 x its unroll width (24 on a 2-core x86-64
# host; 480 is a multiple of it for power-of-two widths up to 32).  512-row
# parts moved the last bit of a few products on bodies of over 192 vertices.
# A lone last row joins the part before it: a one-row product takes gemv.
_SUPPORT_ROWS = 480


@dataclass(frozen=True)
class ConvexBody:
    """A convex hull as its builder computed it, measures included.

    ``vertices`` are an exact subset of the input; in d = 2, and around a
    flat polygon in d >= 3, they run counter-clockwise from the
    lexicographically smallest (two for a degenerate segment).
    ``normals``/``offsets`` give the halfspace form A x <= b of every body,
    flat ones too (``_hull_degenerate``).  ``volume`` and ``surface_area``
    are the exact measures, fixed at build.  ``faces`` holds rows of vertex
    indices: the facet triangles of a full d = 3 hull, one row ``arange(k)``
    for a polygon of k >= 2 vertices, none for any other body.
    """

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    volume: float
    surface_area: float
    faces: np.ndarray

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def support_many(self, dirs: np.ndarray) -> np.ndarray:
        parts = np.split(dirs, range(_SUPPORT_ROWS, len(dirs) - 1, _SUPPORT_ROWS))
        return np.concatenate([np.max(p @ self.vertices.T, axis=1) for p in parts])

    def contains(self, points, tol: float = 1e-9) -> np.ndarray:
        """Half-space membership test with slack tol, flat bodies included.

        Facet-major in blocks of _CONTAINS_CELLS distances; a block that
        ``_certified_blocks`` proves inside is set True without them.  A
        point holding a NaN or an inf is outside (0 * inf is NaN, and NaN
        fails every comparison).  At tol = 0 a point within rounding of a
        facet can get either boolean, depending on which other points share
        its block; callers that need a stable answer pass a tol above
        rounding, as hull validation's 1e-9 does.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        bound = self.offsets + tol
        rows = max(1, _CONTAINS_CELLS // len(bound))
        if len(bound) >= _CERTIFY_FACETS and len(pts) >= _CERTIFY_POINTS:
            certified = _certified_blocks(self.normals, bound, pts, rows)
        else:
            certified = np.zeros(-(-len(pts) // rows), dtype=bool)
        col = bound[:, None]
        out = np.ones(len(pts), dtype=bool)
        with np.errstate(invalid="ignore"):
            for i, done in zip(range(0, len(pts), rows), certified.tolist()):
                if not done:
                    block = pts[i : i + rows]
                    out[i : i + len(block)] = (self.normals @ block.T <= col).all(axis=0)
        return out


def _certified_blocks(normals: np.ndarray, bound: np.ndarray, pts: np.ndarray,
                      rows: int) -> np.ndarray:
    """Which blocks of ``rows`` points pass ``normals @ p <= bound`` for
    certain, judged from the bounding boxes [lo, hi] of their runs of
    _CERTIFY_RUN consecutive points (a partial last block is never judged).

    Over a box, n . p is at most n+ . hi + n- . lo, with n+ = max(n, 0) and
    n- = min(n, 0): the n . c + |n| . h of its centre c and half-widths h,
    with no rounded c or h.  A run is certified when that bound, evaluated
    in floating point, is at most bound - 1e-12 (s |n|_1 + |bound|) for
    every facet, where s = max(1, largest |coordinate| of the chunk's finite
    boxes).  Together the two evaluations of a point's n . p, this one and
    the dense one, err by at most 3d 2^-53 s |n|_1 (dot-product rounding in
    any order), and the subtraction by 2^-53 |bound|, far inside the slack:
    so the dense test would pass every point of a certified run.  A box
    with a NaN or inf coordinate is never certified, nor is any box of a
    chunk where s |n|_1 could overflow.
    """
    weights = np.hstack((np.maximum(normals, 0.0), np.minimum(normals, 0.0)))
    l1 = np.abs(normals).sum(axis=1)
    offs = np.arange(0, rows, _CERTIFY_RUN)
    # a chunk's box bounds, facets x runs, stay inside _CONTAINS_CELLS
    step = max(1, _CONTAINS_CELLS // (len(bound) * len(offs)))
    whole = len(pts) // rows
    out = np.zeros(-(-len(pts) // rows), dtype=bool)
    for b in range(0, whole, step):
        m = min(step, whole - b)
        blocks = pts[b * rows : (b + m) * rows]
        starts = (np.arange(m)[:, None] * rows + offs).ravel()
        corners = np.hstack((np.maximum.reduceat(blocks, starts),
                             np.minimum.reduceat(blocks, starts)))
        finite = np.isfinite(corners).all(axis=1)
        corners[~finite] = 0.0
        scale = max(1.0, float(np.abs(corners).max()))
        if scale * float(l1.max()) < 1e300:
            lim = bound - 1e-12 * (scale * l1 + np.abs(bound))
            runs = finite & (weights @ corners.T <= lim[:, None]).all(axis=0)
            out[b : b + m] = runs.reshape(m, len(offs)).all(axis=1)
    return out


def _next(a: np.ndarray) -> np.ndarray:
    """np.roll(a, -1, axis=0) by slices: the same fresh array, without roll's
    fixed cost on a loop of a few dozen rows (18 -> 5 us per shoelace)."""
    return np.concatenate((a[1:], a[:1]))


def _polygon_area(loop: np.ndarray) -> float:
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.abs(np.dot(x, _next(y)) - np.dot(y, _next(x))))


def _perimeter(loop: np.ndarray) -> float:
    return float(np.linalg.norm(_next(loop) - loop, axis=1).sum())


# the faces of a body that is neither a full d = 3 hull nor a polygon
_NO_FACES = np.zeros((0, 0), dtype=np.intp)
_NO_FACES.setflags(write=False)


def convex_hull(points, validate: bool = True) -> ConvexBody:
    """Convex hull of a point set; degenerate (flat) hulls are legal.

    Every hull with d >= 2 comes from qhull (Barber, Dobkin & Huhdanpaa,
    ACM TOMS 1996); vertices are an exact subset of the input.
    """
    pts = _as_points(points)
    if len(pts) < 1:
        raise ValueError("need at least one point")
    d = pts.shape[1]
    if d == 1:
        lo, hi = float(pts.min()), float(pts.max())
        verts = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        return ConvexBody(verts, np.array([[1.0], [-1.0]]), np.array([hi, -lo]),
                          hi - lo, 2.0, _NO_FACES)
    body = _hull_nd(pts, d)
    if validate and d <= 3 and not bool(np.all(body.contains(pts, 1e-9))):
        raise AssertionError("hull does not contain an input point")
    return body


def _ccw_loop(q: _QHull) -> np.ndarray:
    """Vertex indices of a planar qhull hull, which qhull lists
    counter-clockwise, rolled to start at the lexicographically smallest."""
    v = q.vertices
    k = int(np.lexsort((q.points[v, 1], q.points[v, 0]))[0])
    return np.concatenate((v[k:], v[:k]))


# A planar input of at least _SCREEN_MIN points reaches qhull screened (Akl &
# Toussaint 1978): the hull of every _SCREEN_STRIDE-th point is an inner
# polygon, and a point inside each of its edges by at least _SCREEN_MARGIN
# times the largest coordinate of that subsample (far above the rounding of
# a distance) lies inside the hull of other points, so it is no vertex and is
# dropped.  The rest, the inner polygon's vertices among them, go to qhull.
# The membership test is ConvexBody.contains, in its bounded blocks.
# Milliseconds per _hull_nd of a Gaussian walk of n steps, or of a 2049-point
# time-space surrogate, by stride (2-core x86-64 host, one CPU, median of 15
# alternating rounds, measured with 4096-point facet-major blocks):
#
#   input            unscreened  s = 16  s = 32  s = 64
#   n = 500             0.209     0.240   0.245   0.275
#   n = 1000            0.295     0.286   0.289   0.326
#   n = 10^4            1.983     0.864   0.760   0.728
#   n = 3*10^5         41.678    13.029  10.734   9.454
#   drift, n = 10^4     1.589     0.595   0.462   0.458
#   surrogate 2049      0.455     0.304   0.297   0.307
_SCREEN_MIN = 1024
_SCREEN_STRIDE = 32
_SCREEN_MARGIN = 1e-9


def _screen(pts: np.ndarray) -> np.ndarray:
    """The points of a planar set that may be vertices of its hull: all of
    them when the set is small or its inner polygon is flat."""
    if len(pts) < _SCREEN_MIN:
        return pts
    try:
        inner = _QHull(pts[::_SCREEN_STRIDE])
    except QhullError:
        return pts
    body = ConvexBody(inner.points[inner.vertices], inner.equations[:, :2],
                      -inner.equations[:, 2], float(inner.volume), float(inner.area),
                      np.arange(len(inner.vertices))[None])
    scale = max(-inner.min_bound.min(), inner.max_bound.max())
    keep = ~body.contains(pts, -_SCREEN_MARGIN * scale)
    keep[inner.vertices.astype(np.intp) * _SCREEN_STRIDE] = True
    return pts[keep]


def _hull_nd(pts: np.ndarray, d: int) -> ConvexBody:
    src = _screen(pts) if d == 2 else pts
    try:
        q = _QHull(src)
    except QhullError:
        return _hull_degenerate(pts, d)
    normals, offsets = q.equations[:, :-1], -q.equations[:, -1]
    if d == 2:
        verts = src[_ccw_loop(q)]
        return ConvexBody(verts, normals, offsets, _polygon_area(verts), _perimeter(verts),
                          np.arange(len(verts))[None])
    verts = src[q.vertices]
    if d > 3:
        return ConvexBody(verts, normals, offsets, float(q.volume), float(q.area), _NO_FACES)
    # qhull lists vertices in input order for d >= 3, so they index its simplices
    faces = np.searchsorted(q.vertices, q.simplices)
    tri = verts[faces]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    centroid = verts.mean(axis=0)
    tetra = np.einsum("ij,ij->i", a - centroid, np.cross(b - centroid, c - centroid))
    return ConvexBody(verts, normals, offsets, float(np.abs(tetra).sum() / 6.0),
                      float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()), faces)


def _hull_degenerate(pts: np.ndarray, d: int) -> ConvexBody:
    """Hull of a flat point set, built in coordinates of its affine hull.

    Its halfspaces are the in-plane facets (qhull's, or +-u for a segment)
    lifted back through the SVD basis, and both sides of each normal of the
    affine hull, all taken through the centre the SVD used.  Its volume is 0;
    its surface area counts both sides of a flat boundary: the perimeter of
    the loop in the plane, twice the in-plane volume at rank d - 1 >= 2, and
    0 for a flatter body, whose eps-neighbourhood has no term linear in eps
    (Steiner's formula).
    """
    base = pts.mean(axis=0)
    centered = pts - base
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(sv.max(initial=0.0)))
    rank = int(np.sum(sv > 1e-9 * scale))
    basis = vt[:rank]
    flat = centered @ basis.T
    area = 0.0
    if rank == 0:
        idx = [0]
        facets = np.zeros((0, 1))
    elif rank == 1:
        ends = (int(np.argmin(flat[:, 0])), int(np.argmax(flat[:, 0])))
        idx = sorted(ends, key=lambda i: tuple(pts[i]))
        facets = np.array([[1.0, -flat.max()], [-1.0, flat.min()]])
    else:
        q = _QHull(flat)
        idx = _ccw_loop(q) if rank == 2 else q.vertices
        facets = q.equations
        if rank == d - 1:
            area = 2.0 * float(q.volume)
    off = np.linalg.qr(basis.T, mode="complete")[0][:, rank:].T
    normals = np.vstack([facets[:, :-1] @ basis, off, -off])
    verts = pts[idx]
    polygon = (d == 2 or rank == 2) and len(verts) >= 2
    return ConvexBody(
        verts,
        normals,
        normals @ base - np.concatenate([facets[:, -1], np.zeros(2 * len(off))]),
        0.0,
        _perimeter(verts) if d == 2 else area,
        np.arange(len(verts))[None] if polygon else _NO_FACES,
    )


def hausdorff_support(a: ConvexBody, b: ConvexBody, directions: int = 4096) -> float:
    """Support-function form of the Hausdorff distance between convex bodies.

    In the plane the coarse angle scan is followed by bracket refinement
    around the leading local maxima (the sup often sits on a kink of the
    support difference, where a plain grid is only first-order accurate);
    the refined value is good to ~1e-8.  For d >= 3 it is the plain
    quasi-random grid maximum.
    """
    if a.dim != b.dim:
        raise ValueError("bodies must have equal dimension")
    dirs = sphere_directions(a.dim, directions)
    gaps = np.abs(a.support_many(dirs) - b.support_many(dirs))
    if a.dim != 2:
        return float(gaps.max())

    def gap_at(theta):
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        return np.abs(a.support_many(u) - b.support_many(u))

    m = directions
    best = float(gaps.max())
    order = np.argsort(gaps)[-5:]
    width = 2.0 * np.pi / m
    for idx in order:
        theta0 = 2.0 * np.pi * idx / m
        lo, hi = theta0 - width, theta0 + width
        for _ in range(5):
            grid = np.linspace(lo, hi, 65)
            vals = gap_at(grid)
            k = int(np.argmax(vals))
            best = max(best, float(vals[k]))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
    return best


# qhull's cost grows fast with d.  On a 2e4-step Gaussian walk (2-core Xeon)
# it takes 0.02 s in d = 4, 0.24 s in d = 5 and 3.6 s in d = 6, while all
# pairs take 23 s; at 2000 steps all pairs take 0.22 s and d = 6 qhull 0.72 s.
# Up to d = 5 reducing to the hull vertices first wins at both sizes.
_DIAMETER_HULL_MAX_DIM = 5


def diameter(points) -> float:
    """Largest pairwise distance in a point set, exact.

    A ConvexBody stands for its vertices, so a hull already built is not
    built again.
    """
    if isinstance(points, ConvexBody):
        pts = points.vertices
    else:
        pts = _as_points(points)
        if len(pts) == 0:
            raise ValueError("empty point set")
        if len(pts) > 64 and pts.shape[1] <= _DIAMETER_HULL_MAX_DIM:
            pts = convex_hull(pts, validate=False).vertices
    best = 0.0
    block = 512
    for i in range(0, len(pts), block):
        chunk = pts[i : i + block]
        diff = chunk[:, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt((diff**2).sum(axis=2)).max()))
    return best


_SPHERE_CACHE: dict = {}


def sphere_directions(dim: int, m: int) -> np.ndarray:
    """Deterministic, seed-independent unit directions for quadrature."""
    key = (dim, m)
    if key in _SPHERE_CACHE:
        return _SPHERE_CACHE[key]
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    elif dim == 3:
        # Fibonacci spiral on the sphere.
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        k = np.arange(m)
        z = 1.0 - (2.0 * k + 1.0) / m
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = 2.0 * np.pi * k / golden
        dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        rng = next(replica_streams(0x5D1E7, dim, dim + 1))
        z = rng.standard_normal((m, dim))
        dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
    dirs.setflags(write=False)
    _SPHERE_CACHE[key] = dirs
    return dirs


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def mean_width(body: ConvexBody, directions: int = 4096) -> float:
    """Sphere integral of the support function (un-normalized convention).

    This is the plain integral over S^{d-1}, not the conventional
    normalized mean width; in d = 2 it equals the perimeter.  One formula
    in every d, the mean support over ``sphere_directions`` times the
    sphere area, is exact in d = 1 (directions +-1, area 2), the trapezoid
    rule on a uniform angle grid in d = 2 (deterministic, O(m^-2)) and
    deterministic quasi-random sphere points above.
    """
    if directions < 1:
        raise ValueError("direction count must be >= 1")
    dirs = sphere_directions(body.dim, directions)
    return float(body.support_many(dirs).mean() * sphere_area(body.dim))


def surface_area(body: ConvexBody) -> float:
    """Exact boundary measure, fixed when the hull was built: 2 in d = 1,
    perimeter (d = 2), facet-triangle sum (d = 3), qhull's facet-area sum of
    the build's own run (d >= 4); a flat body counts both sides of its
    boundary (``_hull_degenerate``): a segment of length L in the plane
    gives 2L, a flat polygon in d = 3 twice its area.
    """
    return body.surface_area


def volume(body: ConvexBody) -> float:
    """Exact d-dimensional volume, fixed when the hull was built: length in
    d = 1, shoelace in d = 2, tetrahedra over the facet triangles in d = 3,
    qhull's volume of the build's own run in d >= 4, 0 for a flat body.
    """
    return body.volume


def steiner_neighborhood_volume(body: ConvexBody, eps: float) -> float:
    """Exact area of the eps-neighborhood of a planar convex body.

    Steiner expansion V + S*eps + pi*eps^2; valid for degenerate bodies via
    the doubled-boundary convention (a segment yields the stadium area).
    """
    if body.dim != 2:
        raise ValueError("Steiner neighborhood volume implemented for d = 2")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return volume(body) + surface_area(body) * eps + math.pi * eps * eps


def drift_basis(mu, dim: int | None = None) -> np.ndarray:
    """Deterministic orthonormal basis with first column the drift direction.

    Gram-Schmidt over the standard basis, skipping the axis most aligned
    with mu so the remaining vectors stay well conditioned.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if dim is not None and mu.size != dim:
        raise ValueError("drift vector has the wrong dimension")
    norm = np.linalg.norm(mu)
    if norm == 0.0:
        raise ValueError("drift vector must be nonzero")
    d = mu.size
    u1 = mu / norm
    cols = [u1]
    skip = int(np.argmax(np.abs(u1)))
    for i in range(d):
        if i == skip:
            continue
        w = np.zeros(d)
        w[i] = 1.0
        for c in cols:
            w = w - (w @ c) * c
        w_norm = np.linalg.norm(w)
        if w_norm < 1e-12:
            continue
        cols.append(w / w_norm)
    basis = np.column_stack(cols)
    basis.setflags(write=False)
    return basis
