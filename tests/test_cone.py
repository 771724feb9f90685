import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from projlab.cone import (
    ApexError,
    Cuts,
    GeneratrixError,
    LineSegment,
    cone_distance,
    cone_nearest,
    line_cone_points,
    line_cone_tube_volume,
    make_transversal_lines,
    nearest_direction,
    tangent_plane_angle,
    tube_components,
)
from projlab.cone import (
    _bracket,
    _complement_basis,
    _radial_defect,
    _signed_nearest,
    _tube_nodes,
    _tube_volume_exact,
)
from projlab.manifold import CapChart, ManifoldChart, PerturbedCapChart, frame_matrices
from projlab.util import rng_stream, unit_ball_volume


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


def test_surface_point_has_zero_distance(cap3):
    assert float(cone_distance(cap3, np.array([0.4, 0.0, 0.3]))) <= 1e-12


def test_apex_has_zero_distance(cap3):
    assert float(cone_distance(cap3, np.zeros(3))) == 0.0


def test_distance_matches_brute_force(cap3):
    p = np.array([0.4, 0.0, 0.5])
    xs = np.linspace(0.0, 1.0, 1000)
    rs = np.linspace(-1.0, 1.0, 1001)
    surface = cap3.point(xs[:, None])
    brute = np.linalg.norm(rs[:, None, None] * surface[None] - p, axis=-1).min()
    assert abs(float(cone_distance(cap3, p)) - brute) <= 1e-4
    assert brute == pytest.approx(0.16, abs=1e-12)


def test_membership_of_random_surface_points(cap3):
    r = rng_stream(24, 0)
    x = r.random((10_000, 1))
    rad = r.uniform(-1.0, 1.0, 10_000)
    pts = rad[:, None] * cap3.point(x)
    assert cone_distance(cap3, pts).max() <= 1e-10


def test_radial_projection_lands_on_cross_section(cap3):
    r = rng_stream(24, 2)
    x = r.random((10_000, 1))
    rad = r.uniform(-1.0, 1.0, 10_000)
    keep = np.abs(rad) > 1e-3
    pts = (rad[:, None] * cap3.point(x))[keep]
    unit = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    _, foot_x, foot_r = cone_nearest(cap3, pts)
    image = np.sign(foot_r)[:, None] * cap3.point(foot_x)
    assert np.linalg.norm(unit - image, axis=-1).max() <= 1e-8


def test_direction_seeds_live_and_die_with_the_chart():
    chart = CapChart(3, 0.6)
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
    chart = CapChart(n, 0.6)
    dirs = _unit_rows(12_000, n, 40 + n)
    x, cosine, converged = nearest_direction(chart, dirs)
    # the generic projected Newton, run far past convergence, as reference
    x_ref, cos_ref, conv_ref = ManifoldChart.nearest_parameters(chart, dirs, 64, 200)
    assert converged.all() and conv_ref.all()
    assert np.abs(x - x_ref).max() <= 1e-12
    assert (cos_ref - cosine).max() <= 1e-15


def test_face_optima_converge_with_projected_newton():
    chart = CapChart(4, 0.6)
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
    chart = PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0)
    dirs = _unit_rows(400, 3, 5)
    x1, _, conv1 = nearest_direction(chart, dirs, iters=1)
    x24, _, conv24 = nearest_direction(chart, dirs)
    assert conv24.all()
    assert (~conv1).any()
    # a row flagged converged after one step is already at the answer
    assert np.abs(x1[conv1] - x24[conv1]).max(initial=0.0) <= 1e-9


def test_seed_search_blocks_keep_the_bits(monkeypatch):
    import projlab.manifold as manifold_module

    chart = PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0)
    dirs = _unit_rows(1_000, 4, 7)
    monkeypatch.setattr(manifold_module, "_SEED_PRODUCTS", 1 << 40)
    whole = ManifoldChart.nearest_parameters(chart, dirs, 64, 24)
    # blocks of 3 rows against the 4,096 nodes, the last one a single row
    monkeypatch.setattr(manifold_module, "_SEED_PRODUCTS", 3 * 4096)
    blocked = ManifoldChart.nearest_parameters(chart, dirs, 64, 24)
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("chart", [
    CapChart(3, 0.6), CapChart(4, 0.6), CapChart(3, -0.6),
    PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0),
    PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0),
], ids=["cap3", "cap4", "cap3-below", "perturbed3", "perturbed4"])
def test_cosine_bound_is_an_upper_bound(chart):
    dirs = _unit_rows(20_000, chart.n, 50 + chart.n)
    bound = chart.cosine_bound(dirs)
    # blocks keep the n = 4 seed-grid products small
    for i in range(0, dirs.shape[0], 2_000):
        cosine = nearest_direction(chart, dirs[i : i + 2_000], iters=200)[1]
        assert (bound[i : i + 2_000] >= cosine - 1e-15).all()
    assert np.isinf(chart.dual().cosine_bound(dirs)).all()


def both_signs_nearest(chart, d):
    """_signed_nearest as it was before the cosine bound: +d and -d in one
    `nearest_direction` batch, -d taken where it wins strictly."""
    m = d.shape[0]
    x, cosine, _ = nearest_direction(chart, np.concatenate([d, -d]))
    neg = cosine[m:] > cosine[:m]
    return (np.where(neg[:, None], x[m:], x[:m]), np.where(neg, cosine[m:], cosine[:m]),
            np.where(neg, -1.0, 1.0))


@pytest.mark.parametrize("chart", [
    CapChart(3, 0.6), CapChart(4, 0.6), CapChart(3, -0.6),
    PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0),
    PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0),
], ids=["cap3", "cap4", "cap3-below", "perturbed3", "perturbed4"])
def test_bounded_signed_nearest_equals_both_signs(chart):
    rng = rng_stream(31, chart.n)
    count = 2_000
    # directions near +-Sigma, where the -d copy matters most
    x = rng.random((count, chart.dim))
    near = np.where(rng.random(count) < 0.5, 1.0, -1.0)[:, None] * chart.point(x)
    near += 0.05 * rng.standard_normal(near.shape) * rng.random((count, 1))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    for d in (_unit_rows(count, chart.n, 60 + chart.n), near):
        got, ref = _signed_nearest(chart, d), both_signs_nearest(chart, d)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        assert (got[2] < 0).any() and (got[2] > 0).any()


def test_tangent_plane_matches_surface_tangent(cap3):
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


def test_angle_of_generatrix_direction_is_zero(cap3):
    x = np.array([0.3])
    p = 0.5 * cap3.point(x[None, :])[0]
    seg = LineSegment(p, cap3.point(x[None, :])[0], -1.0, 1.0)
    assert tangent_plane_angle(cap3, p, seg) <= 1e-9


def test_angle_of_vertical_line(cap3):
    p = np.array([0.4, 0.0, 0.3])
    seg = LineSegment(p, np.array([0.0, 0.0, 1.0]), -1.0, 1.0)
    assert tangent_plane_angle(cap3, p, seg) == pytest.approx(math.asin(0.8), abs=1e-12)


def test_angle_of_normal_direction_is_right(cap3):
    x = np.array([0.6])
    p = 0.7 * cap3.point(x[None, :])[0]
    seg = LineSegment(p, cap3.normal(x[None, :])[0], -1.0, 1.0)
    assert tangent_plane_angle(cap3, p, seg) == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_angle_rejects_apex_and_off_surface_points(cap3):
    seg = LineSegment(np.zeros(3), np.array([0.0, 0.0, 1.0]), -1.0, 1.0)
    with pytest.raises(ApexError):
        tangent_plane_angle(cap3, np.zeros(3), seg)
    with pytest.raises(ValueError):
        tangent_plane_angle(cap3, np.array([0.1, 0.2, 0.9]), seg)


# -- line intersections -----------------------------------------------------


def test_horizontal_secant_cuts_at_known_parameters(cap3):
    seg = LineSegment(np.array([0.0, 0.0, 0.3]), np.array([1.0, 0.0, 0.0]), -1.0, 1.0)
    cuts = line_cone_points(cap3, seg)
    # the surface satisfies height = 0.75 * planar radius, so 0.3 = 0.75 |t|
    assert len(cuts) == 2
    ts = sorted(float(c[0]) for c in cuts)
    assert ts[0] == pytest.approx(-0.4, abs=1e-9)
    assert ts[1] == pytest.approx(0.4, abs=1e-9)


def test_line_above_the_cone_misses(cap3):
    seg = LineSegment(np.array([0.0, 0.0, 0.9]), np.array([1.0, 0.0, 0.0]), -1.0, 1.0)
    assert line_cone_points(cap3, seg) == []


def test_generatrix_line_rejected(cap3):
    line = LineSegment(np.zeros(3), cap3.point(np.array([[0.3]]))[0], -1.0, 1.0)
    with pytest.raises(GeneratrixError):
        line_cone_points(cap3, line)


def test_random_secants_cut_at_most_twice(cap3):
    r = rng_stream(24, 1)
    checked = 0
    while checked < 150:
        x = r.uniform(0.05, 0.95, (2, 1))
        rad = r.uniform(0.35, 0.9, 2)
        p, q = rad[:, None] * cap3.point(x)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        seg = LineSegment.through(p, q, pad=0.15)
        try:
            cuts = line_cone_points(cap3, seg, grid=2000)
        except GeneratrixError:
            continue
        assert len(cuts) <= 2
        assert tube_components(cap3, seg, 2.0**-8) <= 2
        checked += 1


def _bisection_cuts(chart, line, grid, tol=1e-12):
    """Reference solver: a scalar 80-step bisection per sign-change bracket
    of the radial defect, then the same nearest-point gate and dedupe as
    line_cone_points."""
    ts = np.linspace(line.t0, line.t1, grid)
    sigma = _radial_defect(chart, line.point(ts))
    roots = []
    for i in np.flatnonzero(np.sign(sigma[:-1]) * np.sign(sigma[1:]) < 0):
        lo, hi, flo = ts[i], ts[i + 1], sigma[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = float(_radial_defect(chart, line.point(np.array([mid])))[0])
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < tol:
                break
        roots.append(0.5 * (lo + hi))
    roots.extend(float(ts[i]) for i in np.flatnonzero(np.abs(sigma) < 1e-15))
    roots = np.sort(roots)
    dist = cone_nearest(chart, line.point(roots))[0]
    kept = []
    for t, resid in zip(roots, dist):
        if resid > 1e-10 or any(abs(t - s) < 1e-9 * max(1.0, abs(t)) + 1e-12 for s in kept):
            continue
        kept.append(t)
    return line.point(np.array(kept))


def test_batched_solver_matches_scalar_bisection(cap3):
    r = rng_stream(24, 1)
    checked = 0
    while checked < 20:
        x = r.uniform(0.05, 0.95, (2, 1))
        rad = r.uniform(0.35, 0.9, 2)
        p, q = rad[:, None] * cap3.point(x)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        seg = LineSegment.through(p, q, pad=0.15)
        try:
            cuts = line_cone_points(cap3, seg, grid=4000)
        except GeneratrixError:
            continue
        ref = _bisection_cuts(cap3, seg, 4000)
        assert len(cuts) == len(ref)
        assert cuts.dropped == 0
        if len(ref):
            assert np.abs(np.array(cuts) - ref).max() <= 1e-10
        checked += 1


def test_transversal_lines_carry_their_fresh_cuts(cap3):
    pairs = make_transversal_lines(cap3, 0.3, 5, rng_stream(24, 4))
    assert len(pairs) == 5
    for line, cuts in pairs:
        fresh = line_cone_points(cap3, line, grid=4000)
        assert len(cuts) == len(fresh)
        assert np.abs(np.array(cuts) - np.array(fresh)).max() <= 1e-10
        assert cuts.angles == [tangent_plane_angle(cap3, c, line) for c in cuts]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [2026, 11])
def test_cuts_on_caps_are_the_drawn_points(n, seed):
    # on a cap the cone is the quadric x_n^2 (1 - c^2) = c^2 |x_h|^2, which a
    # line meets at most twice; an accepted line runs through two drawn cone
    # points, at t = 0 and t = |q - p| = t1 / 1.15
    chart = CapChart(n, 0.6)
    for line, cuts in make_transversal_lines(chart, 0.3, 100, rng_stream(seed, 21)):
        assert len(cuts) == 2
        ts = (np.array(cuts) - line.base) @ line.direction
        assert np.abs(ts - [0.0, line.t1 / 1.15]).max() <= 1e-12


def test_line_search_reads_angles_from_its_cuts(cap3, monkeypatch):
    import projlab.cone as cone_module

    def no_angle_query(*args):
        raise AssertionError("tangent_plane_angle called")

    cut_line, made = cone_module.line_cone_points, []

    def recorded_cut(chart, line, grid):
        made.append(cut_line(chart, line, grid))
        return made[-1]

    monkeypatch.setattr(cone_module, "tangent_plane_angle", no_angle_query)
    monkeypatch.setattr(cone_module, "line_cone_points", recorded_cut)
    assert len(make_transversal_lines(cap3, 0.3, 5, rng_stream(24, 4))) == 5
    assert made and all(len(cuts.angles) == len(cuts) for cuts in made)


def candidate_loop(chart, a, count, rng):
    """make_transversal_lines as it was before the draw-time test: every
    candidate is cut alone, and its angles are read at its cuts."""
    out = []
    tries = 0
    while len(out) < count and tries < 50 * count:
        tries += 1
        x = rng.uniform(0.05, 0.95, size=(2, chart.dim))
        r = rng.uniform(0.35, 0.9, size=2)
        p, q = r[:, None] * chart.point(x)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        line = LineSegment.through(p, q, pad=0.15)
        try:
            cuts = line_cone_points(chart, line, grid=4000)
        except GeneratrixError:
            continue
        if not cuts:
            continue
        angles = []
        for c in cuts:
            if float(np.linalg.norm(c)) < 0.05:
                break
            angles.append(tangent_plane_angle(chart, c, line))
        else:
            if angles and min(angles) >= a:
                cuts.angles = angles
                out.append((line, cuts))
    return out


@pytest.mark.parametrize("chart", [
    CapChart(3, 0.6), CapChart(4, 0.6), PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0),
], ids=["cap3", "cap4", "perturbed3"])
def test_draw_test_keeps_the_candidate_loop(chart):
    tally = {}
    for seed in range(20):
        got = make_transversal_lines(chart, 0.3, 2, rng_stream(32, seed), tally)
        ref = candidate_loop(chart, 0.3, 2, rng_stream(32, seed))
        assert len(got) == len(ref) == 2
        for (line, cuts), (ref_line, ref_cuts) in zip(got, ref):
            assert np.array_equal(line.base, ref_line.base)
            assert np.array_equal(line.direction, ref_line.direction)
            assert (line.t0, line.t1) == (ref_line.t0, ref_line.t1)
            assert np.array_equal(np.array(cuts), np.array(ref_cuts))
            assert cuts.dropped == ref_cuts.dropped and cuts.angles == ref_cuts.angles
    # the draw test did reject candidates, and those were never cut
    assert tally["make_transversal_lines.rejected_by_draw"] > 0
    assert (tally["make_transversal_lines.cut"] + tally["make_transversal_lines.rejected_by_draw"]
            <= tally["make_transversal_lines.candidates"])


def test_line_search_memory_stays_bounded():
    chart = PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0)
    chart.seed_grid(64)
    tracemalloc.start()
    try:
        found = make_transversal_lines(chart, 0.3, 20, rng_stream(5, 401))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 20
    # every row of this chart runs projected Newton from the 4,096-node
    # seed grid: 32 KiB of products a row, 125 MiB for one 4,000-point cut
    # grid, if the grid were taken whole
    assert peak < 32 * 2**20


def test_tube_volume_reads_carried_angles(cap3, monkeypatch):
    import projlab.cone as cone_module

    line, cuts = make_transversal_lines(cap3, 0.3, 1, rng_stream(23, 1))[0]
    delta = 2.0**-6
    kept = [q for q in cuts if np.linalg.norm(q) >= 10.0 * delta]
    expected = min((tangent_plane_angle(cap3, q, line) for q in kept), default=math.pi / 2)
    calls = []
    monkeypatch.setattr(cone_module, "tangent_plane_angle",
                        lambda *args: calls.append(args) or 0.0)
    rep = line_cone_tube_volume(cap3, line, cuts, delta, 2_000, rng_stream(23, 2))
    assert not calls
    assert rep.min_tangent_angle == expected


def test_tube_volume_rejects_cuts_without_angles(cap3):
    line, cuts = make_transversal_lines(cap3, 0.3, 1, rng_stream(23, 1))[0]
    bare = Cuts(cuts)
    with pytest.raises(ValueError):
        line_cone_tube_volume(cap3, line, bare, 2.0**-6, 2_000, rng_stream(23, 2))


# -- tube volumes -----------------------------------------------------------


def test_transversal_tube_volume_scaling(cap3):
    line, cuts = make_transversal_lines(cap3, 0.3, 1, rng_stream(23, 1))[0]
    vols = []
    for j in range(6, 11):
        rep = line_cone_tube_volume(cap3, line, cuts, 2.0**-j, 40_000, rng_stream(23, 10 + j),
                                    a=0.3)
        assert not rep.angle_flag
        assert rep.min_tangent_angle >= 0.3
        assert tube_components(cap3, line, 2.0**-j) <= 2
        vols.append(rep.volume)
    js = -np.arange(6, 11, dtype=float)
    design = np.vstack([js, np.ones(5)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert 2.7 <= slope <= 3.3
    normalized = np.array(vols) / (2.0**js) ** 3
    assert normalized.max() / normalized.min() <= 1.5


def test_generatrix_tube_fills_and_scales_quadratically(cap3):
    line = LineSegment(np.zeros(3), cap3.point(np.array([[0.3]]))[0], 0.0, 1.0)
    vols = []
    for j in (5, 6, 7):
        # a generatrix has no isolated cuts
        rep = line_cone_tube_volume(cap3, line, Cuts(), 2.0**-j, 60_000, rng_stream(25, j))
        # the generatrix lies on the cone, so every tube sample hits, and
        # the bracket certifies the ones nearer its node than delta
        assert rep.hits == rep.samples
        assert rep.certified_hits > 0 and rep.evaluated < rep.samples
        tube = line.length * math.pi * (2.0**-j) ** 2 + unit_ball_volume(3) * (2.0**-j) ** 3
        assert rep.volume == pytest.approx(tube, rel=0.1)
        vols.append(rep.volume)
    js = -np.array([5.0, 6.0, 7.0])
    design = np.vstack([js, np.ones(3)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert 1.7 <= slope <= 2.3


def _tube_samples(line: LineSegment, delta: float, count: int, rng: np.random.Generator):
    """Uniform points of the segment's delta-tube, drawn without thinning,
    with the axial parameter and the axis distance of each."""
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
    return pts[inside], ts[inside], radius[inside]


def _sound_tube_cut(chart, line, delta, count, rng):
    """Hit mask of unthinned tube draws, after checking the cut on them: no
    draw in a dead node's interval hits, and wherever the bracket decides a
    draw it agrees with the computed cone distance.  Also returns how many
    the bracket decided."""
    pts, ts, radius = _tube_samples(line, delta, count, rng)
    nodes, node_dist, edges, live = _tube_nodes(chart, line, delta)
    g = np.searchsorted(edges, ts, side="right") - 1
    # a node owns the draws whose clamped foot rounds to it
    step = delta / 4.0
    last = round(line.length / step)
    assert nodes.size == last + 1
    foot = np.clip(ts, line.t0, line.t1)
    assert np.array_equal(g, np.minimum(np.rint((foot - line.t0) / step), last))
    hit = cone_distance(chart, pts) < delta
    assert not hit[~live[g]].any()
    sure, undecided = _bracket(node_dist[g], np.hypot(ts - nodes[g], radius), delta)
    assert hit[sure].all()
    assert not hit[~sure & ~undecided].any()
    return hit, int(np.count_nonzero(~undecided))


def _thinned_law(line, delta, samples, hit, rep):
    """|z| of the thinned value against the unthinned estimate from the
    draws behind `hit`, and the mean and variance of the tube's `samples`."""
    tube = _tube_volume_exact(line, delta)
    frac = hit.mean()
    ref_se = tube * math.sqrt(frac * (1.0 - frac) / hit.size)
    z = abs(rep.volume - tube * frac) / math.hypot(rep.stderr, ref_se)
    n = line.base.shape[0]
    p = tube / ((line.length + 2.0 * delta) * unit_ball_volume(n - 1) * delta ** (n - 1))
    return z, samples * p, samples * p * (1.0 - p)


@pytest.mark.parametrize("chart, samples", [
    (CapChart(3, 0.6), 60_000),
    (CapChart(4, 0.6), 20_000),
    (PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0), 60_000),
    (PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0), 20_000),
], ids=["cap3", "cap4", "perturbed3", "perturbed4"])
def test_pruned_tube_counts_every_hit(chart, samples):
    line, cuts = make_transversal_lines(chart, 0.3, 1, rng_stream(27, chart.n))[0]
    evaluated = drawn = 0
    expected = variance = 0.0
    for j in (6, 9):
        delta = 2.0**-j
        hit, _ = _sound_tube_cut(chart, line, delta, samples, rng_stream(27, j))
        assert hit.any()
        # an independent stream: thinned draws estimate what all draws do
        rep = line_cone_tube_volume(chart, line, cuts, delta, samples, rng_stream(26, j))
        z, mean, var = _thinned_law(line, delta, samples, hit, rep)
        assert z <= 4.0
        expected += mean
        variance += var
        evaluated += rep.evaluated
        drawn += rep.samples
        assert 0 < rep.certified_hits < rep.hits
    # the dead end regions add Binomial(draws, q) samples
    assert abs(drawn - expected) <= 5.0 * math.sqrt(variance)
    assert evaluated < 0.3 * drawn


def _through_the_cone(chart, delta):
    # a segment of length 2*delta through the cone: half the axial draws
    # fall beyond an end, where the end-cap test decides what is inside
    x = np.full((1, chart.dim), 0.5)
    return LineSegment(0.5 * chart.point(x)[0], chart.normal(x)[0], -delta, delta)


def _beside_a_generatrix(chart, delta, offset):
    # parallel to a generatrix at offset*delta
    x = np.full((1, chart.dim), 0.4)
    return LineSegment(offset * delta * chart.normal(x)[0], chart.point(x)[0], 0.2, 0.9)


def _short_of_the_cone(chart, delta):
    # toward the cone, with the last node 2*delta + s/4 from it and 0.45*s
    # short of the end: only the tip of the end cap, up to delta + s/2 from
    # the node, comes within delta of the cone
    x = np.full((1, chart.dim), 0.5)
    step, gap = delta / 4.0, 2.0 * delta + delta / 16.0
    return LineSegment(0.5 * chart.point(x)[0], chart.normal(x)[0],
                       -gap - 2.0 * step, -gap + 0.45 * step)


@pytest.mark.parametrize("delta", [2.0**-6, 2.0**-9])
def test_tube_pruning_keeps_the_lipschitz_margin(cap3, delta):
    # beside a generatrix at 1.5*delta no node is within delta of the cone
    # and at 0.5*delta no node is farther, yet both tubes hold hits and
    # misses; short of the cone only draws up to delta + s/2 from their
    # node hit
    cap4 = CapChart(4, 0.6)
    probes = [(cap3, _beside_a_generatrix(cap3, delta, 1.5)),
              (cap4, _beside_a_generatrix(cap4, delta, 1.5)),
              (cap3, _beside_a_generatrix(cap3, delta, 0.5)),
              (cap3, _short_of_the_cone(cap3, delta))]
    for i, (chart, line) in enumerate(probes):
        rng = rng_stream(28, i, round(-math.log2(delta)))
        hit, decided = _sound_tube_cut(chart, line, delta, 100_000, rng)
        # the tip's share is about 1e-3
        assert 0.001 * hit.size < np.count_nonzero(hit) < hit.size
        # so the bracket's decisions are tested too
        assert decided > 0.05 * hit.size or i == 3


@pytest.mark.parametrize("n", [3, 4])
def test_end_cap_draws_match_full_geometry(n):
    chart = CapChart(n, 0.6)
    delta, samples = 2.0**-6, 20_000
    line = _through_the_cone(chart, delta)
    expected = variance = 0.0
    drawn = 0
    for j in range(4):
        hit, _ = _sound_tube_cut(chart, line, delta, samples, rng_stream(29, n, j))
        rep = line_cone_tube_volume(chart, line, Cuts(), delta, samples, rng_stream(30, n, j))
        z, mean, var = _thinned_law(line, delta, samples, hit, rep)
        assert z <= 4.0
        assert 0 < rep.hits < rep.samples
        expected += mean
        variance += var
        drawn += rep.samples
    assert abs(drawn - expected) <= 5.0 * math.sqrt(variance)


@pytest.mark.parametrize("delta, samples", [
    (0.0, 1_000), (-2.0**-6, 1_000), (math.nan, 1_000), (math.inf, 1_000), (2.0**-6, 0),
], ids=["zero", "negative", "nan", "inf", "no-samples"])
def test_tube_rejects_bad_delta_and_samples(cap3, delta, samples):
    line, cuts = make_transversal_lines(cap3, 0.3, 1, rng_stream(23, 1))[0]
    with pytest.raises(ValueError):
        line_cone_tube_volume(cap3, line, cuts, delta, samples, rng_stream(23, 2))
    if samples:
        with pytest.raises(ValueError):
            tube_components(cap3, line, delta)
