import gc
import math
import weakref

import numpy as np
import pytest

from projlab.cone import (
    ApexError,
    Cone,
    Cuts,
    GeneratrixError,
    LineSegment,
    cone_distance,
    line_cone_points,
    line_cone_tube_volume,
    make_transversal_lines,
    nearest_direction,
    tangent_plane_angle,
    tube_components,
)
from projlab.cone import _complement_basis, _polish_root, _radial_defect, _tube_volume_exact
from projlab.manifold import (
    ManifoldChart,
    frame_matrices,
    make_cap_chart,
    make_perturbed_cap_chart,
)
from projlab.util import rng_stream, unit_ball_volume


@pytest.fixture(scope="module")
def cap3():
    return make_cap_chart(3, 0.6)


@pytest.fixture(scope="module")
def cone3(cap3):
    return Cone(cap3, np.zeros(3))


# -- segments ---------------------------------------------------------------


def test_segment_normalizes_direction():
    seg = LineSegment(np.zeros(3), np.array([2.0, 0.0, 0.0]), -1.0, 1.0)
    assert np.linalg.norm(seg.direction) == pytest.approx(1.0)
    assert seg.length == pytest.approx(2.0)
    assert np.allclose(seg.point(np.array([0.5])), [[0.5, 0.0, 0.0]])


def test_segment_rejects_zero_direction():
    with pytest.raises(ValueError):
        LineSegment(np.zeros(3), np.zeros(3), 0.0, 1.0)


def test_segment_through_two_points():
    p = np.array([0.0, 1.0, 0.0])
    q = np.array([0.0, 3.0, 0.0])
    seg = LineSegment.through(p, q, pad=0.5)
    # pad extends by a fraction of the p-to-q length on each side
    assert np.allclose(seg.point(np.array([seg.t0]))[0], [0.0, 0.0, 0.0])
    assert np.allclose(seg.point(np.array([seg.t1]))[0], [0.0, 4.0, 0.0])
    assert np.allclose(seg.point(np.array([0.0]))[0], p)


# -- distances --------------------------------------------------------------


def test_surface_point_has_zero_distance(cone3):
    assert float(cone_distance(cone3, np.array([0.4, 0.0, 0.3]))) <= 1e-12


def test_apex_has_zero_distance(cone3):
    assert float(cone_distance(cone3, np.zeros(3))) == 0.0


def test_distance_matches_brute_force(cone3, cap3):
    p = np.array([0.4, 0.0, 0.5])
    xs = np.linspace(0.0, 1.0, 1000)
    rs = np.linspace(-1.0, 1.0, 1001)
    surface = cap3.point(xs[:, None])
    brute = np.linalg.norm(rs[:, None, None] * surface[None] - p, axis=-1).min()
    assert abs(float(cone_distance(cone3, p)) - brute) <= 1e-4
    assert brute == pytest.approx(0.16, abs=1e-12)


def test_membership_of_random_surface_points(cone3):
    r = rng_stream(24, 0)
    x = r.random((10_000, 1))
    rad = r.uniform(-1.0, 1.0, 10_000)
    pts = cone3.surface_points(x, rad)
    assert cone_distance(cone3, pts).max() <= 1e-10


def test_radial_projection_lands_on_cross_section(cone3, cap3):
    r = rng_stream(24, 2)
    x = r.random((10_000, 1))
    rad = r.uniform(-1.0, 1.0, 10_000)
    keep = np.abs(rad) > 1e-3
    pts = cone3.surface_points(x, rad)[keep]
    unit = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    _, foot_x, foot_r = cone3.nearest(pts)
    image = np.sign(foot_r)[:, None] * cap3.point(foot_x)
    assert np.linalg.norm(unit - image, axis=-1).max() <= 1e-8


def test_direction_seeds_live_and_die_with_the_chart():
    chart = make_cap_chart(3, 0.6)
    grid, pts = chart.seed_grid(64)
    x, cosine, converged = nearest_direction(chart, pts[:3])
    assert chart.seed_grid(64)[0] is grid
    assert np.allclose(x, grid[:3]) and np.allclose(cosine, 1.0) and converged.all()
    ref = weakref.ref(chart)
    del chart, grid, pts
    gc.collect()
    assert ref() is None


def _unit_rows(count, n, seed):
    d = np.random.default_rng(seed).standard_normal((count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [3, 4])
def test_cap_closed_form_matches_long_newton(n):
    chart = make_cap_chart(n, 0.6)
    dirs = _unit_rows(12_000, n, 40 + n)
    x, cosine, converged = nearest_direction(chart, dirs)
    # the generic projected Newton, run far past convergence, as reference
    x_ref, cos_ref, conv_ref = ManifoldChart.nearest_parameters(chart, dirs, 64, 200)
    assert converged.all() and conv_ref.all()
    assert np.abs(x - x_ref).max() <= 1e-12
    assert (cos_ref - cosine).max() <= 1e-15


def test_face_optima_converge_with_projected_newton():
    chart = make_cap_chart(4, 0.6)
    dirs = _unit_rows(40_000, 4, 9)
    x, cosine, converged = nearest_direction(chart, dirs)
    x_ref, cos_ref, _ = nearest_direction(chart, dirs, iters=200)
    on_face = (np.minimum(x_ref, 1.0 - x_ref) < 1e-12).any(axis=1)
    assert np.count_nonzero(on_face) > 5_000
    assert converged.all()
    assert np.abs(x - x_ref).max() <= 1e-9
    assert (cos_ref - cosine).max() <= 1e-15
    # first-order optimality on the face: a free coordinate has zero
    # gradient, a coordinate at 0 or 1 a gradient pointing out of the cube
    g = np.einsum("ink,in->ik", chart.jacobian(x[on_face]), dirs[on_face])
    xf = x[on_face]
    free = (xf > 0.0) & (xf < 1.0)
    assert np.abs(g[free]).max() <= 1e-9
    assert (g[xf == 0.0] <= 1e-9).all() and (g[xf == 1.0] >= -1e-9).all()


def test_unconverged_rows_are_flagged():
    chart = make_perturbed_cap_chart(3, 0.6, amplitude=0.01, frequency=2.0)
    dirs = _unit_rows(400, 3, 5)
    x1, _, conv1 = nearest_direction(chart, dirs, iters=1)
    x24, _, conv24 = nearest_direction(chart, dirs)
    assert conv24.all()
    assert (~conv1).any()
    # a row flagged converged after one step is already at the answer
    assert np.abs(x1[conv1] - x24[conv1]).max(initial=0.0) <= 1e-9


def test_tangent_plane_matches_surface_tangent(cone3, cap3):
    r = rng_stream(24, 3)
    x = r.random((200, 1))
    rad = r.uniform(0.3, 1.0, 200)
    h = 1e-6
    d_surface = (cap3.point(x + h) - cap3.point(x - h)) / (2.0 * h)
    fd_basis = np.stack([d_surface * rad[:, None], cap3.point(x)], axis=1)
    frame = frame_matrices(cap3, x)
    frame_basis = np.stack([frame[:, 0, :], cap3.point(x)], axis=1)
    q1 = np.linalg.qr(np.swapaxes(fd_basis, 1, 2))[0]
    q2 = np.linalg.qr(np.swapaxes(frame_basis, 1, 2))[0]
    resid = q2 - q1 @ (np.swapaxes(q1, 1, 2) @ q2)
    assert np.linalg.norm(resid, axis=(1, 2)).max() <= 1e-5


# -- tangent angles ---------------------------------------------------------


def test_angle_of_generatrix_direction_is_zero(cone3, cap3):
    x = np.array([0.3])
    p = 0.5 * cap3.point(x[None, :])[0]
    seg = LineSegment(p, cap3.point(x[None, :])[0], -1.0, 1.0)
    assert tangent_plane_angle(cone3, p, seg) <= 1e-9


def test_angle_of_vertical_line(cone3):
    p = np.array([0.4, 0.0, 0.3])
    seg = LineSegment(p, np.array([0.0, 0.0, 1.0]), -1.0, 1.0)
    assert tangent_plane_angle(cone3, p, seg) == pytest.approx(math.asin(0.8), abs=1e-12)


def test_angle_of_normal_direction_is_right(cone3, cap3):
    x = np.array([0.6])
    p = 0.7 * cap3.point(x[None, :])[0]
    seg = LineSegment(p, cap3.normal(x[None, :])[0], -1.0, 1.0)
    assert tangent_plane_angle(cone3, p, seg) == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_angle_rejects_apex_and_off_surface_points(cone3):
    seg = LineSegment(np.zeros(3), np.array([0.0, 0.0, 1.0]), -1.0, 1.0)
    with pytest.raises(ApexError):
        tangent_plane_angle(cone3, np.zeros(3), seg)
    with pytest.raises(ValueError):
        tangent_plane_angle(cone3, np.array([0.1, 0.2, 0.9]), seg)


# -- line intersections -----------------------------------------------------


def test_horizontal_secant_cuts_at_known_parameters(cone3):
    seg = LineSegment(np.array([0.0, 0.0, 0.3]), np.array([1.0, 0.0, 0.0]), -1.0, 1.0)
    cuts = line_cone_points(cone3, seg)
    # the surface satisfies height = 0.75 * planar radius, so 0.3 = 0.75 |t|
    assert len(cuts) == 2
    ts = sorted(float(c[0]) for c in cuts)
    assert ts[0] == pytest.approx(-0.4, abs=1e-9)
    assert ts[1] == pytest.approx(0.4, abs=1e-9)


def test_line_above_the_cone_misses(cone3):
    seg = LineSegment(np.array([0.0, 0.0, 0.9]), np.array([1.0, 0.0, 0.0]), -1.0, 1.0)
    assert line_cone_points(cone3, seg) == []


def test_generatrix_line_rejected(cone3, cap3):
    line = LineSegment(np.zeros(3), cap3.point(np.array([[0.3]]))[0], -1.0, 1.0)
    with pytest.raises(GeneratrixError):
        line_cone_points(cone3, line)


def test_random_secants_cut_at_most_twice(cone3):
    r = rng_stream(24, 1)
    checked = 0
    while checked < 150:
        x = r.uniform(0.05, 0.95, (2, 1))
        rad = r.uniform(0.35, 0.9, 2)
        p, q = cone3.surface_points(x, rad)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        seg = LineSegment.through(p, q, pad=0.15)
        try:
            cuts = line_cone_points(cone3, seg, grid=2000)
        except GeneratrixError:
            continue
        assert len(cuts) <= 2
        assert tube_components(cone3, seg, 2.0**-8) <= 2
        checked += 1


def _bisection_cuts(cone, line, grid, tol=1e-12):
    """Reference solver: a scalar 80-step bisection per sign-change bracket
    of the radial defect, then the same polish, dedupe and range checks as
    line_cone_points."""
    ts = np.linspace(line.t0, line.t1, grid)
    sigma = _radial_defect(cone, line.point(ts))[0]
    roots = []
    for i in np.flatnonzero(np.sign(sigma[:-1]) * np.sign(sigma[1:]) < 0):
        lo, hi, flo = ts[i], ts[i + 1], sigma[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = float(_radial_defect(cone, line.point(np.array([mid])))[0][0])
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < tol:
                break
        roots.append(0.5 * (lo + hi))
    roots.extend(float(ts[i]) for i in np.flatnonzero(np.abs(sigma) < 1e-15))
    kept = []
    for t in sorted(roots):
        t = _polish_root(cone, line, t)
        if t is None or any(abs(t - s) < 1e-9 * max(1.0, abs(t)) + 1e-12 for s in kept):
            continue
        if line.t0 - 1e-9 <= t <= line.t1 + 1e-9:
            kept.append(t)
    return line.point(np.array(kept))


def test_batched_solver_matches_scalar_bisection(cone3):
    r = rng_stream(24, 1)
    checked = 0
    while checked < 20:
        x = r.uniform(0.05, 0.95, (2, 1))
        rad = r.uniform(0.35, 0.9, 2)
        p, q = cone3.surface_points(x, rad)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        seg = LineSegment.through(p, q, pad=0.15)
        try:
            cuts = line_cone_points(cone3, seg, grid=4000)
        except GeneratrixError:
            continue
        ref = _bisection_cuts(cone3, seg, 4000)
        assert len(cuts) == len(ref)
        assert cuts.dropped == 0
        if len(ref):
            assert np.abs(np.array(cuts) - ref).max() <= 1e-10
        checked += 1


def test_transversal_lines_carry_their_fresh_cuts(cone3):
    pairs = make_transversal_lines(cone3, 0.3, 5, rng_stream(24, 4))
    assert len(pairs) == 5
    for line, cuts in pairs:
        fresh = line_cone_points(cone3, line, grid=4000)
        assert len(cuts) == len(fresh)
        assert np.abs(np.array(cuts) - np.array(fresh)).max() <= 1e-10
        assert cuts.angles == [tangent_plane_angle(cone3, c, line) for c in cuts]


def test_tube_volume_reads_carried_angles(cone3, monkeypatch):
    import projlab.cone as cone_module

    line, cuts = make_transversal_lines(cone3, 0.3, 1, rng_stream(23, 1))[0]
    delta = 2.0**-6
    kept = [q for q in cuts if np.linalg.norm(q - cone3.apex) >= 10.0 * delta]
    expected = min((tangent_plane_angle(cone3, q, line) for q in kept), default=math.pi / 2)
    calls = []
    monkeypatch.setattr(cone_module, "tangent_plane_angle",
                        lambda *args: calls.append(args) or 0.0)
    rep = line_cone_tube_volume(cone3, line, cuts, delta, 2_000, rng_stream(23, 2))
    assert not calls
    assert rep.min_tangent_angle == expected


def test_tube_volume_rejects_cuts_without_angles(cone3):
    line, cuts = make_transversal_lines(cone3, 0.3, 1, rng_stream(23, 1))[0]
    bare = Cuts(cuts)
    with pytest.raises(ValueError):
        line_cone_tube_volume(cone3, line, bare, 2.0**-6, 2_000, rng_stream(23, 2))


# -- tube volumes -----------------------------------------------------------


def test_transversal_tube_volume_scaling(cone3):
    line, cuts = make_transversal_lines(cone3, 0.3, 1, rng_stream(23, 1))[0]
    vols = []
    for j in range(6, 11):
        rep = line_cone_tube_volume(cone3, line, cuts, 2.0**-j, 40_000, rng_stream(23, 10 + j),
                                    a=0.3)
        assert not rep.angle_flag
        assert rep.min_tangent_angle >= 0.3
        assert rep.components <= 2
        vols.append(rep.volume)
    js = -np.arange(6, 11, dtype=float)
    design = np.vstack([js, np.ones(5)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert 2.7 <= slope <= 3.3
    normalized = np.array(vols) / (2.0**js) ** 3
    assert normalized.max() / normalized.min() <= 1.5


def test_generatrix_tube_fills_and_scales_quadratically(cone3, cap3):
    line = LineSegment(np.zeros(3), cap3.point(np.array([[0.3]]))[0], 0.0, 1.0)
    vols = []
    for j in (5, 6, 7):
        # a generatrix has no isolated cuts
        rep = line_cone_tube_volume(cone3, line, Cuts(), 2.0**-j, 60_000, rng_stream(25, j))
        # every node of a generatrix is on the cone, so no sample is ruled out
        assert rep.evaluated == rep.samples
        tube = line.length * math.pi * (2.0**-j) ** 2 + unit_ball_volume(3) * (2.0**-j) ** 3
        assert rep.volume == pytest.approx(tube, rel=0.1)
        vols.append(rep.volume)
    js = -np.array([5.0, 6.0, 7.0])
    design = np.vstack([js, np.ones(3)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert 1.7 <= slope <= 2.3


def _tube_samples(line: LineSegment, delta: float, count: int, rng: np.random.Generator):
    """Uniform points of the segment's delta-tube and the clamped axial
    parameter of each (the foot's t in [t0, t1])."""
    n = line.base.shape[0]
    ts = rng.uniform(line.t0 - delta, line.t1 + delta, size=count)
    # orthonormal complement of the direction
    basis = _complement_basis(line.direction)
    radial = rng.standard_normal((count, n - 1))
    radial /= np.maximum(np.linalg.norm(radial, axis=1, keepdims=True), 1e-300)
    radius = delta * rng.uniform(0.0, 1.0, size=count) ** (1.0 / (n - 1))
    pts = line.point(ts) + (radial * radius[:, None]) @ basis
    # keep only points truly inside the segment tube (spherical end caps)
    tt = np.clip(((pts - line.base) @ line.direction), line.t0, line.t1)
    foot = line.base + tt[:, None] * line.direction
    inside = np.linalg.norm(pts - foot, axis=1) < delta
    return pts[inside], tt[inside]


def _unpruned_tube(cone, line, delta, samples, rng):
    """Reference: the cone distance of every tube sample, same draws, with
    the points built and the end caps tested in full geometry."""
    pts, _ = _tube_samples(line, delta, samples, rng)
    hits = int(np.count_nonzero(cone_distance(cone, pts) < delta))
    return hits, pts.shape[0], hits / pts.shape[0] * _tube_volume_exact(line, delta)


@pytest.mark.parametrize("chart, samples", [
    (make_cap_chart(3, 0.6), 60_000),
    (make_cap_chart(4, 0.6), 20_000),
    # the perturbed chart's cone distances cost about 0.25 ms per row
    (make_perturbed_cap_chart(3, 0.6, amplitude=0.01, frequency=2.0), 5_000),
], ids=["cap3", "cap4", "perturbed3"])
def test_pruned_tube_counts_every_hit(chart, samples):
    cone = Cone(chart, np.zeros(chart.n))
    line, cuts = make_transversal_lines(cone, 0.3, 1, rng_stream(27, chart.n))[0]
    evaluated = drawn = 0
    for j in (6, 9):
        delta = 2.0**-j
        rep = line_cone_tube_volume(cone, line, cuts, delta, samples, rng_stream(27, j))
        hits, total, volume = _unpruned_tube(cone, line, delta, samples, rng_stream(27, j))
        assert (rep.hits, rep.samples, rep.volume) == (hits, total, volume)
        assert hits > 0
        assert rep.components == tube_components(cone, line, delta)
        evaluated += rep.evaluated
        drawn += rep.samples
    assert evaluated < 0.3 * drawn


@pytest.mark.parametrize("delta", [2.0**-6, 2.0**-9])
def test_tube_pruning_keeps_the_lipschitz_margin(cone3, cap3, delta):
    # a line parallel to a generatrix at distance 1.5*delta: every grid node
    # is farther than delta from the cone, yet the tube meets its
    # delta-neighborhood along the whole segment
    x = np.array([[0.4]])
    line = LineSegment(1.5 * delta * cap3.normal(x)[0], cap3.point(x)[0], 0.2, 0.9)
    rep = line_cone_tube_volume(cone3, line, Cuts(), delta, 20_000, rng_stream(28, 1))
    hits, total, _ = _unpruned_tube(cone3, line, delta, 20_000, rng_stream(28, 1))
    assert (rep.hits, rep.samples) == (hits, total)
    assert hits > 0.15 * total


@pytest.mark.parametrize("n", [3, 4])
def test_end_cap_draws_match_full_geometry(n):
    # a segment of length 2*delta through the cone: half the axial draws
    # fall beyond an end, where the end-cap test decides what is inside
    chart = make_cap_chart(n, 0.6)
    cone = Cone(chart, np.zeros(n))
    x = np.full((1, chart.dim), 0.5)
    delta = 2.0**-6
    line = LineSegment(0.5 * chart.point(x)[0], chart.normal(x)[0], -delta, delta)
    for j in range(4):
        rep = line_cone_tube_volume(cone, line, Cuts(), delta, 20_000, rng_stream(29, n, j))
        hits, total, volume = _unpruned_tube(cone, line, delta, 20_000, rng_stream(29, n, j))
        assert (rep.samples, rep.hits, rep.volume) == (total, hits, volume)
        assert 0 < hits < total


@pytest.mark.parametrize("delta, samples", [
    (0.0, 1_000), (-2.0**-6, 1_000), (math.nan, 1_000), (math.inf, 1_000), (2.0**-6, 0),
], ids=["zero", "negative", "nan", "inf", "no-samples"])
def test_tube_rejects_bad_delta_and_samples(cone3, delta, samples):
    line, cuts = make_transversal_lines(cone3, 0.3, 1, rng_stream(23, 1))[0]
    with pytest.raises(ValueError):
        line_cone_tube_volume(cone3, line, cuts, delta, samples, rng_stream(23, 2))
    if samples:
        with pytest.raises(ValueError):
            tube_components(cone3, line, delta)
