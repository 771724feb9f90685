import gc
import math
import tracemalloc
import warnings
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from projlab import projmap
from projlab.experiments import _aligned_pair as _driver_pair
from projlab.manifold import CapChart, PerturbedCapChart, frame_matrices
from projlab.projmap import (
    _frame_derivative,
    _lens_fraction,
    c2_distance,
    pair_intersection_volume,
    survey_family,
    vertical_slab_volume,
)
from projlab.util import rng_stream, sample_ball


def grid1(count=256):
    return np.linspace(0.0, 1.0, count)[:, None]


def f_map(chart, z, x):
    """The map f_z of the chart's family at the parameters x."""
    return frame_matrices(chart, x) @ z


def f_gradient(chart, z, x):
    """(..., n-1, n-2) Jacobian of f_z at the parameters x."""
    return np.einsum("...ckj,k->...cj", _frame_derivative(chart, x), z)


def test_zero_displacement_gives_zero_map(cap3):
    f = f_map(cap3, np.zeros(3), grid1())
    assert np.abs(f).max() == 0.0


def test_radial_displacement_vanishes_at_its_base_point(cap3):
    x0 = np.array([[0.375]])
    z = 0.3 * cap3.point(x0)[0]
    assert np.linalg.norm(f_map(cap3, z, x0)) < 1e-12
    # and generically does not vanish elsewhere
    vals = np.linalg.norm(f_map(cap3, z, grid1()), axis=-1)
    assert vals.max() > 1e-3


def test_matches_gram_schmidt_projection(cap3):
    x = grid1(256)
    z = np.array([0.2, 0.0, 0.0])
    h = 1e-4
    u1 = cap3.point(x)
    v2 = cap3.point(x + h) - cap3.point(x - h)
    u2 = v2 - (v2 * u1).sum(axis=-1, keepdims=True) * u1
    u2 /= np.linalg.norm(u2, axis=-1, keepdims=True)
    u3 = np.cross(u1, u2)
    oracle = np.stack([u2 @ z, u3 @ z], axis=-1)
    assert np.abs(f_map(cap3, z, x) - oracle).max() <= 1e-10


def test_map_is_linear_in_displacement(cap3):
    r = rng_stream(21, 0)
    x = r.random((100, 1))
    z, w = sample_ball(r, 3, 2, 0.5)
    a, b = 0.7, -1.3
    lhs = f_map(cap3, a * z + b * w, x)
    rhs = a * f_map(cap3, z, x) + b * f_map(cap3, w, x)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_gradient_matches_finite_differences(cap3):
    z = np.array([0.1, -0.2, 0.15])
    x = grid1(33)
    g = f_gradient(cap3, z, x)
    assert g.shape == (33, 2, 1)
    h = 1e-5
    fd = (f_map(cap3, z, x + h) - f_map(cap3, z, x - h)) / (2 * h)
    assert np.abs(g[..., 0] - fd).max() < 1e-6


@pytest.mark.parametrize("chart", [
    CapChart(4, 0.6),
    PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0),
    PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0),
], ids=["cap4", "perturbed3", "perturbed4"])
def test_frame_derivative_matches_fourth_order_differences(chart):
    # column norms vary over these charts, so the unit rows turn as well as
    # the Jacobian columns do
    x = 0.02 + 0.96 * rng_stream(22, chart.n).random((50, chart.dim))
    dB = _frame_derivative(chart, x)
    h = 1e-3
    for j in range(chart.dim):
        step = np.zeros(chart.dim)
        step[j] = h
        fd = sum(wgt * frame_matrices(chart, x + off * step)
                 for off, wgt in zip((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12))) / h
        assert np.abs(dB[..., j] - fd).max() <= 1e-7


def test_draws_measure_the_frame_projection(monkeypatch):
    # the volume draws read |f_w(x)| from the point alone; the frame product
    # is the reference
    for chart in (CapChart(4, 0.6), PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0)):
        w = _driver_pair(chart, rng_stream(5, 1), 0.25)
        delta = 2.0**-6
        projmap._field(chart, None)
        xs, ts = [], []
        point = chart.point
        monkeypatch.setattr(chart, "point", lambda x: xs.append(x) or point(x), raising=False)
        lens = projmap._lens_fraction
        monkeypatch.setattr(projmap, "_lens_fraction", lambda t, c: ts.append(t) or lens(t, c))
        mv = pair_intersection_volume(chart, w, delta, 500_000, rng_stream(6, 1))
        monkeypatch.undo()
        assert len(xs) == len(ts) >= 2 and sum(t.size for t in ts) == mv.evaluated
        for x, t in zip(xs, ts):
            ref = np.linalg.norm(frame_matrices(chart, x) @ w, axis=-1) / delta
            assert np.abs(t - ref).max() <= 1e-12 * np.linalg.norm(w) / delta


def test_c2_distance_of_identical_maps_is_zero(cap3):
    z = np.array([0.2, 0.1, 0.0])
    assert c2_distance(cap3, z - z).value == 0.0


def test_c2_distance_scales_linearly(cap3):
    w = np.array([0.11, -0.07, 0.05])
    one = c2_distance(cap3, w).value
    two = c2_distance(cap3, 2.0 * w).value
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_c2_distance_is_even_in_the_displacement(cap3):
    # d(f_y, f_z) = d(f_z, f_y): the maps enter as w = y - z or as -w
    w = np.array([0.11, -0.07, 0.05])
    assert asdict(c2_distance(cap3, w)) == asdict(c2_distance(cap3, -w))


def test_c2_distance_grid_convergence(cap3):
    w = np.array([0.05, 0.0, 0.0])
    coarse = c2_distance(cap3, w)
    fine = c2_distance(cap3, w, per_axis=(coarse.grid_per_axis - 1) * 4 + 1)
    assert abs(coarse.value - fine.value) <= 0.02 * fine.value
    assert coarse.slack >= 0


def test_displacement_to_norm_ratios_stay_in_fixed_bands(cap3):
    r = rng_stream(9, 3)
    za = sample_ball(r, 3, 1000, 0.5)
    zb = sample_ball(r, 3, 1000, 0.5)
    keep = np.linalg.norm(za - zb, axis=1) > 1e-6
    c1_ratio = []
    c2_ratio = []
    for a, b in zip(za[keep], zb[keep]):
        c = c2_distance(cap3, a - b)
        disp = np.linalg.norm(a - b)
        c1_ratio.append(max(c.sup_value, c.sup_gradient) / disp)
        c2_ratio.append(c.value / disp)
    c1_ratio = np.array(c1_ratio)
    c2_ratio = np.array(c2_ratio)
    assert len(c1_ratio) >= 990
    assert 0.8 <= c1_ratio.min() and c1_ratio.max() <= 6.4
    # full second-order norms sit in a wider but still fixed band
    assert 1.5 <= c2_ratio.min() and c2_ratio.max() <= 40.0
    assert np.all(c2_ratio >= c1_ratio - 1e-12)


def test_radial_difference_has_certified_gradient_floor(cap3):
    # displacement along the base point: the value vanishes at x0 but the
    # derivative stays above the curvature-controlled floor
    x0 = np.array([0.375])
    w = 0.1 * cap3.point(x0[None, :])[0]
    assert np.linalg.norm(f_map(cap3, w, x0[None, :])) < 1e-12
    gnorm = np.linalg.norm(f_gradient(cap3, w, x0[None, :])[0][:, 0])
    floor = 0.1 / (4.0 * cap3.constants.kappa_max)
    assert gnorm >= floor


def test_tangent_difference_has_value_floor(cap3):
    x0 = np.array([0.375])
    e0 = frame_matrices(cap3, x0[None, :])[0, 0]
    value = np.linalg.norm(f_map(cap3, 0.1 * e0, x0[None, :]))
    assert value >= cap3.constants.coeff_margin * 0.1 * (1.0 - 1e-9)


def _pair_certificate(chart, w, per_axis=None):
    """The certificate of the single displacement w, read as scalars, with
    the minimizing grid node as `argmin_x`."""
    ff = projmap._field(chart, per_axis)
    cert = {key: v[0] for key, v in projmap._certificates(ff, w[None, :]).items()}
    cert["argmin_x"] = ff.x[cert["argmin"]]
    return cert


def test_certified_infimum_positive_and_grid_stable(cap3):
    x0 = np.array([[0.375]])
    w = 0.12 * cap3.point(x0)[0]
    certs = [_pair_certificate(cap3, w, per_axis=p) for p in (65, 129, 257)]
    for c in certs:
        assert c["certified"] > 0.0
        assert c["raw"] >= c["certified"]
        assert c["margin"] > 0.0
        assert c["norm_upper"] >= c["norm_c2"] > 0.0
        assert c["argmin_x"].shape == (1,)
    ks = [c["norm_upper"] / c["certified"] for c in certs]
    assert abs(ks[1] - ks[2]) <= 0.2 * ks[2]


@pytest.mark.parametrize("n", [4, 5])
def test_certificate_minimizes_over_xi_exactly(n):
    # the least |grad_xi h| over unit xi is sqrt of the least eigenvalue of
    # the d x d Gram matrix of grad h; a sample of directions only bounds it
    chart = CapChart(n, 0.6)
    ff = projmap._field(chart, None)
    W = sample_ball(rng_stream(17, n), n, 8, 0.5)
    grads = ff.gradients(W)
    gram = np.einsum("pgcj,pgcl->pgjl", grads, grads)
    least = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., 0], 0.0))
    vals = np.linalg.norm(ff.values(W), axis=-1)
    cert = projmap._certificates(ff, W)
    np.testing.assert_allclose(cert["raw"], (vals + least).min(axis=-1), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n", [3, 4])
def test_certificate_margin_bounds_the_true_suprema(cap3, n):
    # the grid maxima of |grad h| and of the Hessian form can fall short of
    # the suprema between nodes; each is raised by the `_c2_stats` slack,
    # the bound the live-cell test also uses
    chart = cap3 if n == 3 else CapChart(4, 0.6)
    ff = projmap._field(chart, None)
    W = sample_ball(rng_stream(18, n), n, 6, 0.5)
    cert = projmap._certificates(ff, W)
    for w, margin in zip(W, cert["margin"]):
        c2 = c2_distance(chart, w)
        assert c2.slack > 0.0
        upper = (c2.sup_gradient + c2.slack) + (c2.sup_hessian + c2.slack)
        assert margin >= upper * ff.half_diag * (1.0 - 1e-12)


def test_family_survey_certifies_every_pair(cap3):
    zs = sample_ball(rng_stream(9, 1), 3, 600, 0.5)
    W = zs[:300] - zs[300:]
    r1 = survey_family(cap3, W, per_axis=65)
    r2 = survey_family(cap3, W, per_axis=129)
    assert r1.all_certified and r2.all_certified
    assert r1.uncertified == r2.uncertified == 0
    assert r1.min_ratio > 0.0
    assert 0.0 < r1.bilipschitz_lo <= r1.bilipschitz_hi < math.inf
    assert r1.bilipschitz_hi / r1.bilipschitz_lo < 50.0
    assert math.isfinite(r1.K_est)
    assert abs(r1.K_est - r2.K_est) <= 0.2 * r2.K_est


def test_uncertified_survey_has_no_finite_constant():
    # on a coarse grid at n = 4 the continuity margin exceeds the grid minimum
    chart = CapChart(4, 0.6)
    zs = sample_ball(rng_stream(15, 4), 4, 40, 0.5)
    W = zs[:20] - zs[20:]
    report = survey_family(chart, W, per_axis=5)
    assert 0 < report.uncertified <= report.samples
    assert report.min_ratio <= 0.0
    assert not report.all_certified
    assert report.K_est == math.inf
    fine = survey_family(CapChart(3, 0.6), W[:, :3] * 0.9)
    assert fine.uncertified == 0 and fine.all_certified and math.isfinite(fine.K_est)


@pytest.mark.parametrize("n", [3, 4])
def test_two_point_survey_is_the_pair_certificate(cap3, n):
    # the pair's certificate is even in w, so the survey of +-w is the pair's
    chart = cap3 if n == 3 else CapChart(4, 0.6)
    zs = sample_ball(rng_stream(12, n), n, 2, 0.5)
    w = zs[0] - zs[1]
    report = survey_family(chart, np.stack([w, -w]))
    cert = _pair_certificate(chart, w)
    assert report.samples == 2
    assert report.min_ratio == cert["ratio"]
    assert report.all_certified == (cert["certified"] > 0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_survey_equals_one_block(cap3, monkeypatch, n):
    chart = cap3 if n == 3 else CapChart(4, 0.6)
    zs = sample_ball(rng_stream(13, n), n, 80, 0.5)
    W = zs[:40] - zs[40:]
    blocked = survey_family(chart, W)
    monkeypatch.setattr(projmap, "_CERT_BLOCK", 10**9)
    assert asdict(blocked) == asdict(survey_family(chart, W))


def test_survey_memory_is_bounded_at_n4():
    # about 2.46 MiB of Hessian form sample per pair: 200 pairs in one block
    # would peak near 490 MiB
    chart = CapChart(4, 0.6)
    projmap._field(chart, None)
    zs = sample_ball(rng_stream(14, 4), 4, 400, 0.5)
    W = zs[:200] - zs[200:]
    tracemalloc.start()
    try:
        report = survey_family(chart, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples == 200
    assert peak < 64 * 2**20


def _doubling_full_matrix(zs, rng, trials=24):
    # the estimate on the full distance matrix: the reference for the
    # row-blocked one
    dist = np.linalg.norm(zs[:, None, :] - zs[None, :, :], axis=-1)
    finite = dist[dist > 0.0]
    best = 1
    for _ in range(trials):
        center = int(rng.integers(0, zs.shape[0]))
        r = float(rng.choice(finite))
        kept: list[int] = []
        for m in np.flatnonzero(dist[center] <= r):
            if all(dist[m, k] > r / 2.0 for k in kept):
                kept.append(int(m))
        best = max(best, len(kept))
    return float(best)


def test_doubling_estimate_matches_the_full_matrix():
    zs = sample_ball(rng_stream(15, 3), 3, 300, 0.5)
    zs[:40] = zs[0]  # repeated points: zero distances off the diagonal
    for seed in range(4):
        got = projmap._doubling_estimate(zs, rng_stream(15, seed))
        assert got == _doubling_full_matrix(zs, rng_stream(15, seed))


def test_doubling_estimate_memory_is_bounded():
    # the full 2,000-point difference array alone is 96 MB
    zs = sample_ball(rng_stream(16, 3), 3, 2000, 0.5)
    tracemalloc.start()
    try:
        projmap._doubling_estimate(zs, rng_stream(16, 0), trials=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [3, 4])
def test_map_gradient_matches_the_frame_field(cap3, n):
    # central differences of f_z along each parameter axis, on the field's grid
    chart = cap3 if n == 3 else CapChart(4, 0.6)
    ff = projmap._field(chart, None)
    z = np.linspace(-0.2, 0.3, n)
    got = ff.gradients(z)[0]
    h = 1e-5
    for j, e in enumerate(h * np.eye(chart.dim)):
        fd = (f_map(chart, z, ff.x + e) - f_map(chart, z, ff.x - e)) / (2 * h)
        assert np.abs(got[..., j] - fd).max() <= 1e-6 * np.abs(got).max()


def test_pair_volume_of_identical_maps_is_the_slab(cap3):
    # w = 0: every cell is live, so every draw is made and has weight 1
    mv = pair_intersection_volume(cap3, np.zeros(3), 2.0**-5, 100_000, np.random.default_rng(8))
    assert mv.value == pytest.approx(vertical_slab_volume(3, 2.0**-5), rel=1e-12)
    assert mv.evaluated == mv.hits == mv.samples


def test_pair_volume_without_live_cells_draws_nothing(cap3):
    w = np.array([0.4, 0.0, 0.0])
    delta = 2.0**-10
    assert not projmap._live_cells(projmap._field(cap3, None), w, 2.0 * delta).any()
    with pytest.warns(UserWarning, match="only 0 hits"):
        mv = pair_intersection_volume(cap3, w, delta, 10_000, np.random.default_rng(3))
    assert mv.evaluated == mv.hits == 0
    assert mv.value == 0.0
    assert mv.low_hits


def _aligned_pair(chart, distance):
    """Displacement of a pair whose difference map crosses zero: radial at
    x=0.4, at the given C^2 distance."""
    u = chart.point(np.array([[0.4]]))[0]
    return (distance / c2_distance(chart, u).value) * u


def test_pair_volume_distance_sweep_slope(cap3):
    delta = 2.0**-10
    vols = []
    for j in range(1, 7):
        w = _aligned_pair(cap3, 2.0**-j)
        mv = pair_intersection_volume(cap3, w, delta, 300_000, np.random.default_rng(40 + j))
        assert not mv.low_hits
        vols.append(mv.value)
    js = -np.arange(1, 7, dtype=float)
    design = np.vstack([js, np.ones(6)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert -1.25 <= slope <= -0.75


def test_pair_volume_delta_sweep_slope(cap3):
    w = _aligned_pair(cap3, 0.25)
    vols = []
    for j in range(7, 12):
        mv = pair_intersection_volume(cap3, w, 2.0**-j, 300_000, np.random.default_rng(60 + j))
        assert not mv.low_hits
        vols.append(mv.value)
    js = -np.arange(7, 12, dtype=float)
    design = np.vstack([js, np.ones(5)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert 2.75 <= slope <= 3.25


def test_lens_fraction_matches_closed_forms():
    t = np.linspace(0.0, 2.0, 81)
    s = t / 2.0
    disk = (2.0 / math.pi) * (np.arccos(s) - s * np.sqrt(1.0 - s * s))
    ball = (2.0 + s) * (1.0 - s) ** 2 / 2.0
    assert np.allclose(_lens_fraction(t, 2), disk, rtol=0.0, atol=1e-14)
    assert np.allclose(_lens_fraction(t, 3), ball, rtol=0.0, atol=1e-14)
    for c in (1, 2, 3, 4):
        assert _lens_fraction(0.0, c) == 1.0
        assert np.all(_lens_fraction([2.0, 2.5, 1e9], c) == 0.0)


def test_lens_fraction_is_accurate_near_zero_and_matches_betainc():
    from scipy.special import betainc

    t = np.concatenate([np.geomspace(1e-8, 1e-2, 25), np.linspace(0.0, 2.0, 201)])
    s = t / 2.0
    assert np.array_equal(_lens_fraction(t, 1), 1.0 - t / 2.0)
    disk = (2.0 / math.pi) * (np.arccos(s) - s * np.sqrt(1.0 - s * s))
    ball = (2.0 + s) * (1.0 - s) ** 2 / 2.0
    assert np.abs(_lens_fraction(t, 2) - disk).max() <= 1e-15
    assert np.abs(_lens_fraction(t, 3) - ball).max() <= 1e-15
    t = np.linspace(0.1, 2.0, 96)
    for c in range(4, 8):
        ref = betainc(0.5 * (c + 1), 0.5, 1.0 - (t / 2.0) ** 2)
        assert np.abs(_lens_fraction(t, c) - ref).max() <= 1e-13
    rim = 2.0 - np.geomspace(1e-16, 1e-2, 1000)
    for c in range(1, 8):
        assert _lens_fraction(rim, c).min() >= 0.0


def _unpruned_draws(chart, w, delta, samples, rng):
    """Uniform draws of x over the whole cube and their t = |f_w(x)| / delta."""
    xs, ts = [], []
    for start in range(0, samples, 262_144):
        x = rng.random((min(262_144, samples - start), chart.dim))
        xs.append(x)
        ts.append(np.linalg.norm(frame_matrices(chart, x) @ w, axis=-1) / delta)
    return np.concatenate(xs), np.concatenate(ts)


# two chunks of draws on every chart
@pytest.mark.parametrize("chart, samples", [
    (CapChart(3, 0.6), 300_000),
    (CapChart(4, 0.6), 300_000),
    (PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0), 300_000),
    (PerturbedCapChart(4, 0.6, amplitude=0.005, frequency=2.0), 300_000),
], ids=["cap3", "cap4", "perturbed3", "perturbed4"])
def test_thinned_draws_keep_the_estimate(chart, samples):
    ff = projmap._field(chart, None)
    cells = (ff.per_axis - 1,) * chart.dim
    evaluated = drawn = 0
    expected = variance = 0.0
    for i, u in enumerate((0.5, 0.25, 0.125, 0.0625, 0.03125)):
        w = _driver_pair(chart, rng_stream(5, i), u)
        for k, delta in enumerate((2.0**-8, 2.0**-11)):
            live = projmap._live_cells(ff, w, 2.0 * delta)
            # the cut is sound: a draw in a dead cell has no weight
            x, t = _unpruned_draws(chart, w, delta, samples, rng_stream(7, i, k))
            cell = np.minimum((x * cells).astype(np.intp), ff.per_axis - 2)
            dead = ~live[np.ravel_multi_index(tuple(cell.T), cells)]
            assert np.all(t[dead] >= 2.0)
            weight = _lens_fraction(t, chart.n - 1)
            # the law holds: thinned draws estimate what all draws estimate
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mv = pair_intersection_volume(chart, w, delta, samples, rng_stream(6, i, k))
            slab = vertical_slab_volume(chart.n, delta)
            ref, ref_se = slab * weight.mean(), slab * weight.std() / math.sqrt(samples)
            assert abs(mv.value - ref) <= 4.0 * math.hypot(mv.stderr, ref_se)
            p = live.mean()
            expected += samples * p
            variance += samples * p * (1.0 - p)
            evaluated += mv.evaluated
            drawn += mv.samples
    assert abs(evaluated - expected) <= 5.0 * math.sqrt(variance)
    assert evaluated < 0.5 * drawn


@pytest.mark.parametrize("n", [3, 4])
def test_conditional_volume_agrees_with_joint_sampling(n):
    chart = CapChart(n, 0.6)
    w = _driver_pair(chart, rng_stream(9, n), 0.25)
    # joint hits scale as delta^(2n-3): at n = 4 the hit floor needs the
    # coarser delta
    delta, samples = {3: 2.0**-7, 4: 2.0**-6}[n], 1_000_000
    mv = pair_intersection_volume(chart, w, delta, samples, rng_stream(10, n))
    # joint sampler: x uniform, y uniform in the delta-ball around f(x),
    # a hit when y lies within delta of g(x)
    rng = rng_stream(11, n)
    x = rng.random((samples, chart.dim))
    y = sample_ball(rng, n - 1, samples, delta)
    gap = y - frame_matrices(chart, x) @ w
    rate = np.count_nonzero(np.linalg.norm(gap, axis=-1) < delta) / samples
    slab = vertical_slab_volume(n, delta)
    joint, joint_se = slab * rate, slab * math.sqrt(rate * (1.0 - rate) / samples)
    assert rate * samples >= 1000
    assert abs(mv.value - joint) <= 4.0 * math.hypot(mv.stderr, joint_se)
    assert mv.stderr < joint_se


def test_frame_field_lives_and_dies_with_the_chart():
    chart = CapChart(3, 0.6)
    c2_distance(chart, np.array([0.2, 0.0, 0.0]))
    field = projmap._field(chart, None)
    assert projmap._field(chart, None) is field
    ref = weakref.ref(field)
    del chart, field
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("delta, samples", [
    (0.0, 1000), (-2.0**-8, 1000), (math.nan, 1000), (math.inf, 1000), (2.0**-8, 0),
])
def test_pair_volume_rejects_bad_delta_and_samples(cap3, delta, samples):
    w = np.array([0.2, 0.0, 0.0])
    with pytest.raises(ValueError):
        pair_intersection_volume(cap3, w, delta, samples, np.random.default_rng(0))


def test_pair_volume_warns_on_starved_estimate(cap3):
    # separated pair whose difference never vanishes: almost no hits
    w = np.array([0.4, 0.0, 0.0])
    with pytest.warns(UserWarning):
        mv = pair_intersection_volume(cap3, w, 2.0**-10, 10_000, np.random.default_rng(3))
    assert mv.low_hits


def test_small_piece_dichotomy_and_growth_bound(cap3):
    # on pieces below the certified size, either the value or the directional
    # derivative stays above norm/(2K) on the whole piece
    x0 = np.array([[0.375]])
    w = 0.12 * cap3.point(x0)[0]
    cert = _pair_certificate(cap3, w, per_axis=257)
    k_est = max(cert["norm_upper"] / cert["certified"], cert["norm_c2"])
    side_exp = math.ceil(math.log2(4.0 * k_est * k_est))
    side = 2.0**-side_exp
    assert side * math.sqrt(1.0) < 1.0 / (4.0 * k_est * k_est)
    norm = cert["norm_c2"]
    thresh = norm / (2.0 * k_est)
    xs = np.linspace(0.0, 1.0, 2**side_exp * 4 + 1)[:, None]
    vals = np.linalg.norm(f_map(cap3, w, xs), axis=-1)
    grads = np.linalg.norm(f_gradient(cap3, w, xs)[..., 0], axis=-1)
    piece = np.minimum((xs[:, 0] / side).astype(int), 2**side_exp - 1)
    triggered = 0
    for p in range(2**side_exp):
        m = piece == p
        if vals[m].min() >= thresh:
            continue
        triggered += 1
        # sampled points witness the true sublevel, so no slack is needed
        assert grads[m].min() >= thresh
        xv = xs[m][:, 0]
        hv = vals[m]
        gap = np.abs(xv[:, None] - xv[None, :])
        tot = hv[:, None] + hv[None, :]
        need = norm * gap / (4.0 * k_est)
        assert np.all(tot + 1e-12 >= need)
    assert triggered > 0

