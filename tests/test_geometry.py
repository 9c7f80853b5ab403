import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from walklimits import (
    PointSet,
    convex_hull,
    diameter,
    hausdorff,
    mean_width,
    steiner_neighborhood_volume,
    support,
    surface_area,
    volume,
)
import walklimits.geometry as geometry
from walklimits.geometry import (
    drift_basis,
    hausdorff_support,
    sphere_directions,
)

from walklimits.laws import sqrt_psd
from walklimits.walks import (
    gaussian, lattice, rademacher, sample_tilde_bd, sample_walk, uniform_cube)

from conftest import random_origin_points


def _polygon(rng, m=12, scale=1.0, shift=(0.0, 0.0)):
    pts = rng.normal(size=(m, 2)) * scale + np.asarray(shift)
    return convex_hull(pts, validate=False)


def _point_to_polygon(p, body):
    # independent point-to-convex-polygon distance via edges
    loop = body.loop
    if len(loop) == 1:
        return float(np.linalg.norm(p - loop[0]))
    best = math.inf
    for a, b in zip(loop, np.roll(loop, -1, axis=0)):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    if body.normals is not None and bool(body.contains(p[None, :], 0.0)[0]):
        return 0.0
    return best


def _body_hausdorff(a, b):
    d1 = max(_point_to_polygon(v, b) for v in a.loop)
    d2 = max(_point_to_polygon(v, a) for v in b.loop)
    return max(d1, d2)


# ------------------------------------------------------------- hausdorff

def test_hausdorff_basic():
    a = PointSet([[0.0, 0.0]])
    b = PointSet([[0.0, 0.0], [1.0, 0.0]])
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hausdorff(a, PointSet([[0.0]]))


def test_hausdorff_duplicate_and_closure_invariance(rng):
    for _ in range(200):
        pts_a = random_origin_points(rng, 12)
        pts_b = random_origin_points(rng, 9)
        base = hausdorff(pts_a, pts_b)
        dup = np.vstack([pts_a, pts_a[rng.integers(0, len(pts_a), 5)]])
        assert hausdorff(dup, pts_b) == pytest.approx(base, abs=1e-15)


# ------------------------------------------------------------ convex hull

def test_hull_square_with_centre():
    body = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert len(body.vertices) == 4
    assert not any(np.allclose(v, [0.5, 0.5]) for v in body.vertices)


def test_hull_collinear_degenerates_to_segment():
    body = convex_hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    assert body.degenerate
    assert len(body.vertices) == 2
    assert volume(body) == 0.0
    assert surface_area(body) == pytest.approx(2.0 * math.sqrt(8.0))


def test_hull_idempotent(rng):
    pts = random_origin_points(rng, 100)
    body = convex_hull(pts)
    again = convex_hull(body.vertices)
    assert sorted(map(tuple, body.vertices)) == sorted(map(tuple, again.vertices))


def test_hull_membership_against_triangle_oracle(rng):
    pts = random_origin_points(rng, 1000)
    body = convex_hull(pts)
    verts = body.vertices
    k = len(verts)
    def cross2(u, w):
        return u[0] * w[:, 1] - u[1] * w[:, 0]

    covered = np.zeros(len(pts), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                a, b, c = verts[i], verts[j], verts[l]
                d1 = cross2(b - a, pts - a)
                d2 = cross2(c - b, pts - b)
                d3 = cross2(a - c, pts - c)
                eps = 1e-9
                inside = ((d1 >= -eps) & (d2 >= -eps) & (d3 >= -eps)) | (
                    (d1 <= eps) & (d2 <= eps) & (d3 <= eps)
                )
                covered |= inside
    assert covered.all()
    assert body.contains(pts).all()


def _chain_oracle(points):
    """Andrew's monotone chain: CCW loop from the lexicographically smallest
    point, collinear points dropped, no pre-filter."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    pts = pts[np.r_[True, np.any(np.diff(pts, axis=0) != 0.0, axis=1)]]
    if len(pts) <= 2:
        return pts

    def half(seq):
        hull = []
        for p in seq:
            while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1]) - (
                p[0] - hull[-2][0]
            ) * (hull[-1][1] - hull[-2][1]) <= 0.0:
                hull.pop()
            hull.append(p)
        return hull

    loop = half(pts.tolist())[:-1] + half(pts[::-1].tolist())[:-1]
    return np.asarray(loop) if len(loop) > 1 else pts[[0, -1]]


@pytest.mark.parametrize(
    "law",
    [rademacher(2), lattice(2), gaussian([0.3, -0.1], np.eye(2)), uniform_cube([0.0, 0.0])],
    ids=["rademacher", "lattice", "gaussian-drift", "uniform-cube"],
)
def test_hull_loop_matches_monotone_chain(law):
    for n in (5, 50, 2000):
        for seed in range(12):
            sums = sample_walk(law, n, seed).sums
            assert np.array_equal(convex_hull(sums).loop, _chain_oracle(sums)), (n, seed)


def test_hull_collinear_loop_starts_lexicographically():
    pts = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])
    assert np.array_equal(convex_hull(pts).loop, [[-1.0, -1.0], [2.0, 2.0]])
    assert np.array_equal(convex_hull(pts[[1, 1]]).loop, [[0.0, 0.0]])


def test_hull_requires_points():
    with pytest.raises(ValueError):
        convex_hull(np.empty((0, 2)))


# --------------------------------------------------------------- support

def test_support_values():
    poly = convex_hull(
        np.c_[np.cos(np.linspace(0, 2 * np.pi, 513)[:-1]),
              np.sin(np.linspace(0, 2 * np.pi, 513)[:-1])]
    )
    for theta in np.linspace(0, 2 * np.pi, 17):
        u = np.array([np.cos(theta), np.sin(theta)])
        u /= np.linalg.norm(u)
        assert support(poly, u) == pytest.approx(1.0, abs=1e-3)
    seg = convex_hull([[0.0, 0.0], [0.6, 0.8]])
    mu = np.array([0.6, 0.8])
    for theta in np.linspace(0, 2 * np.pi, 23):
        u = np.array([np.cos(theta), np.sin(theta)])
        assert support(seg, u) == pytest.approx(max(0.0, mu @ u), abs=1e-12)
    with pytest.raises(ValueError):
        support(seg, np.array([1.0, 1.0]))


def test_support_hausdorff_identity_on_polygons(rng):
    # support-grid form vs an independent polygon-distance oracle
    for _ in range(50):
        a = _polygon(rng, 10)
        b = _polygon(rng, 8, scale=1.3, shift=(0.2, -0.1))
        via_support = hausdorff_support(a, b, 10_000)
        oracle = _body_hausdorff(a, b)
        assert via_support == pytest.approx(oracle, abs=1e-6)


# -------------------------------------------------------------- diameter

def test_diameter_values(rng):
    assert diameter(PointSet([[0, 0], [3, 4]])) == pytest.approx(5.0)
    assert diameter(np.array([[0.0, 0.0], [0.6, 0.8]])) == pytest.approx(1.0)
    for _ in range(1000):
        a = random_origin_points(rng, 14)
        b = random_origin_points(rng, 11)
        assert abs(diameter(a) - diameter(b)) <= 2.0 * hausdorff(a, b) + 1e-9


def test_diameter_matches_bruteforce_on_large_set(rng):
    pts = random_origin_points(rng, 500)
    brute = 0.0
    for i in range(len(pts)):
        brute = max(brute, float(np.linalg.norm(pts - pts[i], axis=1).max()))
    assert diameter(pts) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("d", [4, 5])
def test_diameter_hull_reduction_in_d4_d5_matches_all_pairs(d):
    for seed in range(3):
        for law in (gaussian(np.zeros(d), np.eye(d)), rademacher(d)):
            pts = sample_walk(law, 200, seed=seed).sums
            brute = float(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).max())
            assert diameter(pts) == brute


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_diameter_of_a_hull_is_the_diameter_of_its_points(d):
    # the hull subcommand reads the diameter off the body it has built
    for seed in range(3):
        for n in (30, 300):
            for law in (gaussian(np.zeros(d), np.eye(d)), rademacher(d)):
                pts = sample_walk(law, n, seed=seed).sums
                assert diameter(convex_hull(pts)) == diameter(pts)


# ------------------------------------------------------------ mean width

def test_mean_width_segment_and_disc():
    seg = convex_hull([[0.0, 0.0], [0.3, 0.4]])
    assert mean_width(seg, 10_000) == pytest.approx(1.0, abs=1e-6)
    angles = np.linspace(0, 2 * np.pi, 257)[:-1]
    disc = convex_hull(np.c_[np.cos(angles), np.sin(angles)])
    assert mean_width(disc, 10_000) == pytest.approx(2 * np.pi, abs=1e-3)
    point = convex_hull([[0.0, 0.0]])
    assert mean_width(point, 64) == 0.0
    with pytest.raises(ValueError):
        mean_width(seg, 0)


def test_mean_width_d3_ball_with_stderr():
    dirs = sphere_directions(3, 2048)
    ball = convex_hull(dirs * 1.0, validate=False)
    w = mean_width(ball, 4096)
    # integral of h = 1 over the 2-sphere is 4 pi
    assert w == pytest.approx(4 * np.pi, rel=0.02)


# ---------------------------------------------------------- surface area

def test_surface_area_square_and_cauchy(rng):
    sq = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert surface_area(sq) == pytest.approx(4.0)
    for _ in range(100):
        poly = _polygon(rng)
        assert surface_area(poly) == pytest.approx(
            mean_width(poly, 20_000), abs=1e-4 * max(1.0, surface_area(poly))
        )


def test_surface_area_d3_ball():
    dirs = sphere_directions(3, 4096)
    ball = convex_hull(dirs, validate=False)
    assert surface_area(ball) == pytest.approx(4 * np.pi, rel=0.01)


def test_surface_area_monotone_under_inclusion(rng):
    for _ in range(200):
        outer = _polygon(rng, 14)
        shrink = rng.uniform(0.2, 0.9)
        inner = convex_hull(outer.vertices * shrink, validate=False)
        assert surface_area(inner) <= surface_area(outer) + 1e-12


# ---------------------------------------------------------------- volume

def test_volume_reference_values():
    sq = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert volume(sq) == pytest.approx(1.0)
    tri = convex_hull([[0, 0], [1, 0], [0, 1]])
    assert volume(tri) == pytest.approx(0.5)
    simplex = convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert volume(simplex) == pytest.approx(1.0 / 6.0)


def test_volume_d3_matches_qhull_oracle(rng):
    from scipy.spatial import ConvexHull as QHullOracle

    for _ in range(50):
        pts = rng.normal(size=(int(rng.integers(5, 40)), 3))
        body = convex_hull(pts, validate=False)
        oracle = QHullOracle(pts)
        assert volume(body) == pytest.approx(oracle.volume, rel=1e-10)
        assert surface_area(body) == pytest.approx(oracle.area, rel=1e-10)


def test_volume_and_area_exact_in_d4():
    corners = np.array(
        [[float(b) for b in np.binary_repr(i, 4)] for i in range(16)]
    )
    cube = convex_hull(corners, validate=False)
    assert volume(cube) == pytest.approx(1.0, rel=1e-12)
    assert surface_area(cube) == pytest.approx(8.0, rel=1e-12)
    cross = convex_hull(np.vstack([np.eye(4), -np.eye(4)]), validate=False)
    # the 4-d cross-polytope has volume 2^4 / 4! and 16 regular facets of
    # edge sqrt(2), each of 3-volume 1/3
    assert volume(cross) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert surface_area(cross) == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_flat_d4_body_has_doubled_facet_area(rng):
    # a box of 3-volume 6 in a rotated hyperplane of R^4
    box = np.array([[a, b, c, 0.0] for a in (0, 1) for b in (0, 2) for c in (0, 3)])
    rot, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    body = convex_hull(box @ rot.T, validate=False)
    assert body.degenerate
    assert len(body.vertices) == 8
    assert volume(body) == 0.0
    assert surface_area(body) == pytest.approx(12.0, rel=1e-9)
    assert surface_area(convex_hull(box[:, [0, 1, 3, 3]], validate=False)) == 0.0


# ---------------------------------------------------------------- steiner

def test_steiner_reference_values():
    sq = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])
    for eps in (0.0, 0.1, 0.5, 2.0):
        assert steiner_neighborhood_volume(sq, eps) == pytest.approx(
            1.0 + 4.0 * eps + np.pi * eps * eps
        )
    pt = convex_hull([[0.0, 0.0]])
    assert steiner_neighborhood_volume(pt, 0.3) == pytest.approx(np.pi * 0.09)
    seg = convex_hull([[0.0, 0.0], [2.0, 0.0]])
    assert steiner_neighborhood_volume(seg, 0.25) == pytest.approx(
        2 * 2.0 * 0.25 + np.pi * 0.0625
    )
    with pytest.raises(ValueError):
        steiner_neighborhood_volume(convex_hull([[0, 0, 0], [1, 0, 0]]), 0.1)


def test_steiner_finite_difference_matches_surface(rng):
    for _ in range(50):
        poly = _polygon(rng)
        eps = 1e-4
        deriv = (
            steiner_neighborhood_volume(poly, eps) - steiner_neighborhood_volume(poly, 0.0)
        ) / eps
        s = surface_area(poly)
        assert abs(deriv - s) / s < 1e-3


# ----------------------------------------------------------- drift basis

def test_drift_basis_orthonormal(rng):
    for _ in range(300):
        d = int(rng.integers(2, 6))
        mu = rng.normal(size=d)
        basis = drift_basis(mu)
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(d), atol=1e-12)
        assert np.allclose(basis[:, 0], mu / np.linalg.norm(mu), atol=1e-12)
    with pytest.raises(ValueError):
        drift_basis([0.0, 0.0])


# --------------------------------------------------- set-level invariants

def test_hull_contraction_under_hausdorff(rng):
    for _ in range(1000):
        a = random_origin_points(rng, 10)
        b = random_origin_points(rng, 8)
        da = hausdorff(a, b)
        ha = convex_hull(a, validate=False)
        hb = convex_hull(b, validate=False)
        dh = hausdorff_support(ha, hb, 512)
        assert dh <= da + 1e-6


def test_mean_width_lipschitz_in_hausdorff(rng):
    for _ in range(1000):
        a = _polygon(rng, 9)
        b = _polygon(rng, 9, scale=1.1)
        dh = hausdorff_support(a, b, 2048)
        dw = abs(mean_width(a, 2048) - mean_width(b, 2048))
        assert dw <= 2 * np.pi * dh + 1e-9


def test_mean_width_bound_exponent_monitor_d3(rng):
    # monitored, not asserted: the d = 3 form of the width bound uses the
    # (d-1)-th power of the distance, which is not a Lipschitz bound; print
    # the observed worst ratio for inspection
    worst = 0.0
    for _ in range(50):
        a = convex_hull(rng.normal(size=(12, 3)), validate=False)
        b = convex_hull(rng.normal(size=(12, 3)) * 1.1, validate=False)
        dh = hausdorff_support(a, b, 2048)
        dw = abs(mean_width(a, 4096) - mean_width(b, 4096))
        if dh > 0:
            worst = max(worst, dw / (2 * np.pi * dh**2))
    assert np.isfinite(worst)
    print(f"d=3 width-vs-distance^2 worst observed ratio: {worst:.3f}")


def test_hull_validation_memory_is_bounded():
    # validating the hull of a 3e5-step d = 3 walk (310 facets) holds one
    # 2^17-cell block of distances, 1 MiB; 4096-row blocks took 11 MB
    pts = sample_walk(gaussian([1.0, 0.0, 0.0], np.eye(3)), 300000, 101).sums
    tracemalloc.start()
    try:
        body = convex_hull(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(body.offsets) > 100
    assert peak < 4 * 2**20


def test_flat_hull_validation_memory_is_bounded():
    # a flat d = 3 walk: membership goes through _contains_degenerate, whose
    # O(n d) temporaries (11 MB at 3e5 steps) now come in bounded blocks
    pts = sample_walk(gaussian([1.0, 0.0, 0.0], np.diag([1.0, 1.0, 0.0])), 300000, 101).sums
    peaks = []
    for validate in (False, True):
        tracemalloc.start()
        try:
            body = convex_hull(pts, validate=validate)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert body.degenerate and body.flat_area > 0.0
    assert peaks[1] - peaks[0] < 4 * 2**20


def _flat_contains(body, pts, tol):
    """Flat-body membership as it was before blocks: every point at once."""
    verts = body.vertices
    if len(verts) == 1:
        return np.linalg.norm(pts - verts[0], axis=1) <= tol
    base, span = verts[0], verts[1:] - verts[0]
    _, sv, vt = np.linalg.svd(span, full_matrices=False)
    basis = vt[sv > 1e-12 * max(1.0, float(sv.max(initial=0.0)))].T
    if basis.shape[1] == 0:
        return np.linalg.norm(pts - base, axis=1) <= tol
    rel = pts - base
    proj = rel @ basis
    off_plane = np.linalg.norm(rel - proj @ basis.T, axis=1)
    flat = np.vstack([np.zeros(basis.shape[1]), span @ basis])
    if basis.shape[1] == 1:
        coord = proj[:, 0]
        return (off_plane <= tol) & (coord >= flat.min() - tol) & (coord <= flat.max() + tol)
    return (off_plane <= tol) & convex_hull(flat, validate=False).contains(proj, tol)


@pytest.mark.parametrize("sigma", [np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0]),
                                   np.zeros((3, 3))], ids=["plane", "line", "point"])
def test_flat_membership_in_blocks_equals_the_whole_array_form(sigma):
    # past one block of _CONTAINS_CELLS // 3 rows; the walk's own points, points
    # off the body and rows of NaN
    n = geometry._CONTAINS_CELLS // 3 + 5000
    pts = sample_walk(gaussian([0.0, 0.0, 0.0], sigma), n, 8).sums
    body = convex_hull(pts[:1000] if sigma.any() else pts[:1])
    assert body.degenerate
    probe = np.vstack([pts, pts[::7] + [0.0, 0.0, 1e-6], pts[::5] * 1.5,
                       np.full((3, 3), np.nan)])
    for tol in (1e-9, -1e-9):
        got = body.contains(probe, tol)
        assert np.array_equal(got, _flat_contains(body, probe, tol))
        assert got.any() == (tol > 0) and not got.all()


# --------------------------------------------------- membership certificate


def _dense_contains(body, pts, tol):
    """ConvexBody.contains as it was before block certificates: every
    facet-major block of distances taken."""
    bound = (body.offsets + tol)[:, None]
    rows = max(1, geometry._CONTAINS_CELLS // len(bound))
    out = np.empty(len(pts), dtype=bool)
    with np.errstate(invalid="ignore"):
        for i in range(0, len(pts), rows):
            block = pts[i : i + rows]
            out[i : i + len(block)] = (body.normals @ block.T <= bound).all(axis=0)
    return out


def _certificate_cases():
    laws = {
        "gaussian-d2": gaussian([0.0, 0.0], np.eye(2)),
        "gaussian-drift-d2": gaussian([0.7, -0.2], [[2.0, 0.5], [0.5, 1.0]]),
        "gaussian-d3": gaussian(np.zeros(3), np.eye(3)),
        "gaussian-drift-d3": gaussian([1.0, 0.0, 0.0], np.eye(3)),
        # integer points: many coplanar and repeated points
        "rademacher-d3": rademacher(3), "lattice-d3": lattice(3),
        "rademacher-d2": rademacher(2), "lattice-d2": lattice(2),
    }
    cases = [pytest.param(lambda law=law: sample_walk(law, 30000, 11).sums, id=name)
             for name, law in laws.items()]
    cases += [pytest.param(lambda d=d: np.random.default_rng(4).normal(size=(20000, d)),
                           id=f"iid-d{d}") for d in (2, 3)]
    return cases


@pytest.mark.parametrize("forced", [False, True], ids=["routed", "forced"])
@pytest.mark.parametrize("tol", [1e-9, -1e-9, 0.0])
@pytest.mark.parametrize("make", _certificate_cases())
def test_certified_membership_equals_the_dense_test(monkeypatch, make, tol, forced):
    if forced:
        # every body and input takes the certificate, planar ones included
        monkeypatch.setattr(geometry, "_CERTIFY_FACETS", 1)
        monkeypatch.setattr(geometry, "_CERTIFY_POINTS", 1)
    pts = make()
    body = convex_hull(pts, validate=False)
    assert np.array_equal(body.contains(pts, tol), _dense_contains(body, pts, tol))
    shrunk = dataclasses.replace(body, offsets=body.offsets - 1e-6)
    want = _dense_contains(shrunk, pts, tol)
    assert not want.all()
    assert np.array_equal(shrunk.contains(pts, tol), want)


def test_certificate_decides_most_blocks_of_a_walk_and_none_of_a_planar_body(monkeypatch):
    calls = []
    certified = geometry._certified_blocks
    monkeypatch.setattr(geometry, "_certified_blocks",
                        lambda *a: calls.append(len(a[1])) or certified(*a))
    pts = sample_walk(gaussian([1.0, 0.0, 0.0], np.eye(3)), 300000, 101).sums
    body = convex_hull(pts)
    rows = geometry._CONTAINS_CELLS // len(body.offsets)
    assert calls == [len(body.offsets)] and len(body.offsets) >= geometry._CERTIFY_FACETS
    assert certified(body.normals, body.offsets + 1e-9, pts, rows).mean() > 0.8
    # planar bodies and short inputs keep the dense loop
    convex_hull(sample_walk(gaussian([0.0, 0.0], np.eye(2)), 300000, 103).sums)
    convex_hull(pts[: geometry._CERTIFY_POINTS - 1])
    assert len(calls) == 1


def test_certified_membership_at_block_and_chunk_boundaries(monkeypatch):
    pts = sample_walk(gaussian([0.5, 0.0, 0.0], np.eye(3)), 100000, 2).sums
    body = convex_hull(pts, validate=False)
    monkeypatch.setattr(geometry, "_CERTIFY_POINTS", 1)
    rows = geometry._CONTAINS_CELLS // len(body.offsets)
    runs = len(np.arange(0, rows, geometry._CERTIFY_RUN))
    chunk = rows * max(1, geometry._CONTAINS_CELLS // (len(body.offsets) * runs))
    run = geometry._CERTIFY_RUN
    assert chunk < len(pts)
    sizes = {1, run - 1, run, run + 1, 3 * run - 1, 3 * run, 3 * run + 1,
             rows - 1, rows, rows + 1, 2 * rows, chunk - 1, chunk, chunk + 1, 2 * chunk + 1}
    for n in sorted(sizes):
        for tol in (1e-9, -1e-9):
            assert np.array_equal(body.contains(pts[:n], tol),
                                  _dense_contains(body, pts[:n], tol)), (n, tol)


def test_certified_membership_of_blocks_that_sit_on_a_vertex():
    # a block of copies of one vertex has that vertex as its box, on facets
    # of the body: at tol = 0 its n . p rounds either way of the offset, and
    # only the slack keeps the certificate from deciding such a block
    pts = sample_walk(gaussian([1.0, 0.0, 0.0], np.eye(3)), 30000, 11).sums
    body = convex_hull(pts, validate=False)
    rows = geometry._CONTAINS_CELLS // len(body.offsets)
    probe = np.repeat(body.vertices, rows, axis=0)
    for tol in (0.0, 1e-9, -1e-9):
        assert np.array_equal(body.contains(probe, tol), _dense_contains(body, probe, tol))


def test_certified_membership_with_nan_and_inf_rows(monkeypatch):
    monkeypatch.setattr(geometry, "_CERTIFY_POINTS", 1)
    pts = sample_walk(gaussian(np.zeros(3), np.eye(3)), 30000, 11).sums
    body = convex_hull(pts, validate=False)
    pts = pts.copy()
    # rows deep inside the body, where their runs would be certified
    pts[5000] = np.nan
    pts[9000, 1] = np.inf
    pts[13000, 2] = -np.inf
    pts[17000] = [np.inf, -np.inf, np.nan]
    pts[21000, 0] = np.nan
    for tol in (1e-9, -1e-9):
        got = body.contains(pts, tol)
        assert np.array_equal(got, _dense_contains(body, pts, tol))
        assert not got[[5000, 9000, 13000, 17000, 21000]].any()
    assert body.contains(np.full((20000, 3), np.nan)).sum() == 0


@pytest.mark.parametrize("d", [2, 3])
def test_hull_validation_fails_a_shrunk_facet(monkeypatch, d):
    import walklimits.geometry as geometry

    true_hull = geometry._hull_nd

    def shrunk(pts, dim):
        body = true_hull(pts, dim)
        # shrink the facet that the walk reaches latest, past the first block
        first_touch = (np.abs(pts @ body.normals.T - body.offsets) <= 1e-9).argmax(axis=0)
        assert first_touch.max() > geometry._CONTAINS_CELLS // len(body.offsets)
        offsets = body.offsets.copy()
        offsets[first_touch.argmax()] -= 1e-6
        return dataclasses.replace(body, offsets=offsets)

    pts = sample_walk(gaussian(np.zeros(d), np.eye(d)), 40000, 3).sums
    convex_hull(pts)
    monkeypatch.setattr(geometry, "_hull_nd", shrunk)
    with pytest.raises(AssertionError, match="does not contain"):
        convex_hull(pts)
    convex_hull(pts, validate=False)


# ------------------------------------------------------------ planar screen


def _unscreened(monkeypatch, pts):
    with monkeypatch.context() as m:
        m.setattr(geometry, "_screen", lambda p: p)
        return convex_hull(pts)


def _assert_same_hull(body, ref):
    assert np.array_equal(body.vertices, ref.vertices)
    assert np.array_equal(body.loop, ref.loop)
    assert volume(body) == volume(ref)
    assert surface_area(body) == surface_area(ref)


def _walk_cases():
    lo = geometry._SCREEN_MIN
    laws = {"gaussian": gaussian([0.0, 0.0], np.eye(2)),
            "gaussian-drift": gaussian([0.7, -0.2], [[2.0, 0.5], [0.5, 1.0]]),
            "rademacher": rademacher(2), "lattice": lattice(2)}
    cases = [(name, n, s) for name in ("gaussian", "gaussian-drift")
             for n in (1000, 10**4, 3 * 10**5) for s in range(2)]
    # integer coordinates: collinear boundary points and revisited sites
    cases += [(name, n, s) for name in ("rademacher", "lattice")
              for n in (lo - 1, lo, 5000, 10**5) for s in range(3)]
    # n + 1 points on either side of the threshold
    cases += [("gaussian", n, 7) for n in (lo - 2, lo - 1, lo, lo + 1)]
    return [pytest.param(laws[name], n, s, id=f"{name}-n{n}-s{s}") for name, n, s in cases]


@pytest.mark.parametrize("law,n,seed", _walk_cases())
def test_planar_screen_is_exact_on_walks(monkeypatch, law, n, seed):
    pts = sample_walk(law, n, seed).sums
    _assert_same_hull(convex_hull(pts), _unscreened(monkeypatch, pts))
    kept = len(geometry._screen(pts))
    assert kept == len(pts) if n + 1 < geometry._SCREEN_MIN else kept < len(pts) / 2


def test_planar_screen_is_exact_on_time_space_surrogates(monkeypatch):
    grid = np.linspace(0.0, 1.0, 2049)
    for _, _, paths in sample_tilde_bd(sqrt_psd([[1.0]]), grid, 41, 0, 40):
        for path in paths:
            _assert_same_hull(convex_hull(path), _unscreened(monkeypatch, path))


def test_collinear_walk_reaches_the_flat_hull_with_every_point(monkeypatch):
    steps = np.where(np.random.default_rng(5).random(5000) < 0.5, -1.0, 1.0)
    pts = np.outer(np.concatenate([[0.0], np.cumsum(steps)]), [1.0, 2.0])
    seen = []
    true_flat = geometry._hull_degenerate

    def flat(p, d):
        seen.append(len(p))
        return true_flat(p, d)

    monkeypatch.setattr(geometry, "_hull_degenerate", flat)
    body = convex_hull(pts)
    assert seen == [len(pts)] and body.degenerate and len(body.loop) == 2


def test_flat_inner_polygon_leaves_every_point_to_qhull(monkeypatch):
    # every stride-th point lies on the x axis, the set itself does not
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(4 * geometry._SCREEN_MIN, 2))
    pts[:: geometry._SCREEN_STRIDE, 1] = 0.0
    assert geometry._screen(pts) is pts
    _assert_same_hull(convex_hull(pts), _unscreened(monkeypatch, pts))


def test_planar_hull_memory_is_bounded():
    # the screen holds one 2^17-cell block of distances; holding all of
    # them at once took facets x 3e5 floats, 49 MB
    pts = sample_walk(gaussian([0.0, 0.0], np.eye(2)), 300000, 101).sums
    tracemalloc.start()
    try:
        body = convex_hull(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(body.vertices) > 10
    assert peak < 4 * 2**20


def test_hull_validation_fails_a_screened_out_vertex(monkeypatch):
    true_screen = geometry._screen

    def dropping(pts):
        kept = true_screen(pts)
        # the lexicographically smallest point is always a hull vertex
        lowest = kept[np.lexsort((kept[:, 1], kept[:, 0]))[0]]
        return kept[np.any(kept != lowest, axis=1)]

    pts = sample_walk(gaussian([0.0, 0.0], np.eye(2)), 5000, 3).sums
    convex_hull(pts)
    monkeypatch.setattr(geometry, "_screen", dropping)
    with pytest.raises(AssertionError, match="does not contain"):
        convex_hull(pts)
    convex_hull(pts, validate=False)
