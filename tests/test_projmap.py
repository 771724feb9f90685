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
from projlab.manifold import frame_matrices, make_cap_chart, make_perturbed_cap_chart
from projlab.projmap import (
    CinematicMap,
    _lens_fraction,
    c2_distance,
    pair_intersection_volume,
    survey_family,
    vertical_slab_volume,
)
from projlab.util import rng_stream, sample_ball


@pytest.fixture(scope="module")
def cap3():
    return make_cap_chart(3, 0.6)


def grid1(count=256):
    return np.linspace(0.0, 1.0, count)[:, None]


def test_zero_displacement_gives_zero_map(cap3):
    f = CinematicMap(cap3, np.zeros(3))(grid1())
    assert np.abs(f).max() == 0.0


def test_radial_displacement_vanishes_at_its_base_point(cap3):
    x0 = np.array([[0.375]])
    z = 0.3 * cap3.point(x0)[0]
    assert np.linalg.norm(CinematicMap(cap3, z)(x0)) < 1e-12
    # and generically does not vanish elsewhere
    vals = np.linalg.norm(CinematicMap(cap3, z)(grid1()), axis=-1)
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
    assert np.abs(CinematicMap(cap3, z)(x) - oracle).max() <= 1e-10


def test_map_is_linear_in_displacement(cap3):
    r = rng_stream(21, 0)
    x = r.random((100, 1))
    z, w = sample_ball(r, 3, 2, 0.5)
    a, b = 0.7, -1.3
    lhs = CinematicMap(cap3, a * z + b * w)(x)
    rhs = a * CinematicMap(cap3, z)(x) + b * CinematicMap(cap3, w)(x)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_gradient_matches_finite_differences(cap3):
    f = CinematicMap(cap3, np.array([0.1, -0.2, 0.15]))
    x = grid1(33)
    g = f.gradient(x)
    assert g.shape == (33, 2, 1)
    h = 1e-5
    fd = (f.value(x + h) - f.value(x - h)) / (2 * h)
    assert np.abs(g[..., 0] - fd).max() < 1e-6


def test_c2_distance_of_identical_maps_is_zero(cap3):
    f = CinematicMap(cap3, np.array([0.2, 0.1, 0.0]))
    assert c2_distance(f, f).value == 0.0


def test_c2_distance_scales_linearly(cap3):
    w = np.array([0.11, -0.07, 0.05])
    zero = CinematicMap(cap3, np.zeros(3))
    one = c2_distance(CinematicMap(cap3, w), zero).value
    two = c2_distance(CinematicMap(cap3, 2.0 * w), zero).value
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_c2_distance_grid_convergence(cap3):
    f = CinematicMap(cap3, np.array([0.1, 0.0, 0.0]))
    g = CinematicMap(cap3, np.array([0.15, 0.0, 0.0]))
    coarse = c2_distance(f, g)
    fine = c2_distance(f, g, per_axis=(coarse.grid_per_axis - 1) * 4 + 1)
    assert abs(coarse.value - fine.value) <= 0.02 * fine.value
    assert coarse.upper >= coarse.value


def test_displacement_to_norm_ratios_stay_in_fixed_bands(cap3):
    r = rng_stream(9, 3)
    za = sample_ball(r, 3, 1000, 0.5)
    zb = sample_ball(r, 3, 1000, 0.5)
    keep = np.linalg.norm(za - zb, axis=1) > 1e-6
    c1_ratio = []
    c2_ratio = []
    for a, b in zip(za[keep], zb[keep]):
        c = c2_distance(CinematicMap(cap3, a), CinematicMap(cap3, b))
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


def test_c2_distance_rejects_mismatched_charts(cap3):
    other = make_cap_chart(3, 0.6)
    f = CinematicMap(cap3, np.array([0.1, 0.0, 0.0]))
    g = CinematicMap(other, np.array([0.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        c2_distance(f, g)


def test_radial_difference_has_certified_gradient_floor(cap3):
    # displacement along the base point: the value vanishes at x0 but the
    # derivative stays above the curvature-controlled floor
    x0 = np.array([0.375])
    w = 0.1 * cap3.point(x0[None, :])[0]
    f = CinematicMap(cap3, w)
    assert np.linalg.norm(f.value(x0[None, :])) < 1e-12
    gnorm = np.linalg.norm(f.gradient(x0[None, :])[0][:, 0])
    floor = 0.1 / (4.0 * cap3.constants.kappa_max)
    assert gnorm >= floor


def test_tangent_difference_has_value_floor(cap3):
    x0 = np.array([0.375])
    e0 = frame_matrices(cap3, x0[None, :])[0, 0]
    f = CinematicMap(cap3, 0.1 * e0)
    value = np.linalg.norm(f.value(x0[None, :]))
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


def test_family_survey_certifies_every_pair(cap3):
    zs = sample_ball(rng_stream(9, 1), 3, 200, 0.5)
    r1 = survey_family(cap3, zs, 300, rng_stream(9, 2), per_axis=65)
    r2 = survey_family(cap3, zs, 300, rng_stream(9, 2), per_axis=129)
    assert r1.all_certified and r2.all_certified
    assert r1.uncertified == r2.uncertified == 0
    assert r1.min_ratio > 0.0
    assert 0.0 < r1.bilipschitz_lo <= r1.bilipschitz_hi < math.inf
    assert r1.bilipschitz_hi / r1.bilipschitz_lo < 50.0
    assert math.isfinite(r1.K_est)
    assert abs(r1.K_est - r2.K_est) <= 0.2 * r2.K_est
    assert r1.D_est >= 1.0


def test_uncertified_survey_has_no_finite_constant():
    # on a coarse grid at n = 4 the continuity margin exceeds the grid minimum
    chart = make_cap_chart(4, 0.6)
    zs = sample_ball(rng_stream(15, 4), 4, 40, 0.5)
    report = survey_family(chart, zs, 20, rng_stream(15, 0), per_axis=5)
    assert 0 < report.uncertified <= report.samples
    assert report.min_ratio <= 0.0
    assert not report.all_certified
    assert report.K_est == math.inf
    fine = survey_family(make_cap_chart(3, 0.6), zs[:, :3] * 0.9, 20, rng_stream(15, 0))
    assert fine.uncertified == 0 and fine.all_certified and math.isfinite(fine.K_est)


@pytest.mark.parametrize("n", [3, 4])
def test_two_point_survey_is_the_pair_certificate(cap3, n):
    # every sampled pair is +-(z0 - z1), so the survey's worst pair is the pair
    chart = cap3 if n == 3 else make_cap_chart(4, 0.6)
    zs = sample_ball(rng_stream(12, n), n, 2, 0.5)
    report = survey_family(chart, zs, 16, rng_stream(12, 0))
    cert = _pair_certificate(chart, zs[0] - zs[1])
    assert report.samples > 0
    assert report.min_ratio == cert["ratio"]
    assert report.all_certified == (cert["certified"] > 0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_survey_equals_one_block(cap3, monkeypatch, n):
    chart = cap3 if n == 3 else make_cap_chart(4, 0.6)
    zs = sample_ball(rng_stream(13, n), n, 40, 0.5)
    blocked = survey_family(chart, zs, 40, rng_stream(13, 0))
    monkeypatch.setattr(projmap, "_CERT_BLOCK", 10**9)
    assert asdict(blocked) == asdict(survey_family(chart, zs, 40, rng_stream(13, 0)))


def test_survey_memory_is_bounded_at_n4():
    # about 2.5 MiB of certificate objective per pair: 200 pairs in one
    # block would peak near 500 MiB
    chart = make_cap_chart(4, 0.6)
    projmap._field(chart, None)
    zs = sample_ball(rng_stream(14, 4), 4, 200, 0.5)
    tracemalloc.start()
    try:
        report = survey_family(chart, zs, 200, rng_stream(14, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples >= 190
    assert peak < 64 * 2**20


def _doubling_full_matrix(zs, scale, rng, trials=24):
    # the estimate on the full distance matrix: the reference for the
    # row-blocked one
    dist = np.linalg.norm(zs[:, None, :] - zs[None, :, :], axis=-1) * scale
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
        got = projmap._doubling_estimate(zs, 1.7, rng_stream(15, seed))
        assert got == _doubling_full_matrix(zs, 1.7, rng_stream(15, seed))


def test_doubling_estimate_memory_is_bounded():
    # the full 2,000-point difference array alone is 96 MB
    zs = sample_ball(rng_stream(16, 3), 3, 2000, 0.5)
    tracemalloc.start()
    try:
        projmap._doubling_estimate(zs, 1.0, rng_stream(16, 0), trials=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [3, 4])
def test_map_gradient_matches_the_frame_field(cap3, n):
    chart = cap3 if n == 3 else make_cap_chart(4, 0.6)
    ff = projmap._field(chart, None)
    z = np.linspace(-0.2, 0.3, n)
    ref = ff.gradients(z)[0]
    got = CinematicMap(chart, z).gradient(ff.x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_pair_volume_of_identical_maps_is_the_slab(cap3):
    f = CinematicMap(cap3, np.array([0.2, 0.0, 0.0]))
    mv = pair_intersection_volume(f, f, 2.0**-5, 100_000, np.random.default_rng(8))
    assert mv.value == pytest.approx(vertical_slab_volume(3, 2.0**-5), rel=1e-12)
    assert mv.hits == mv.samples


def _aligned_pair(chart, distance):
    """Pair whose difference map crosses zero: displacement radial at x=0.4."""
    u = chart.point(np.array([[0.4]]))[0]
    zero = CinematicMap(chart, np.zeros(3))
    unit = c2_distance(CinematicMap(chart, u), zero).value
    return zero, CinematicMap(chart, (distance / unit) * u)


def test_pair_volume_distance_sweep_slope(cap3):
    delta = 2.0**-10
    vols = []
    for j in range(1, 7):
        f, g = _aligned_pair(cap3, 2.0**-j)
        mv = pair_intersection_volume(f, g, delta, 300_000, np.random.default_rng(40 + j))
        assert not mv.low_hits
        vols.append(mv.value)
    js = -np.arange(1, 7, dtype=float)
    design = np.vstack([js, np.ones(6)]).T
    slope = np.linalg.lstsq(design, np.log2(vols), rcond=None)[0][0]
    assert -1.25 <= slope <= -0.75


def test_pair_volume_delta_sweep_slope(cap3):
    f, g = _aligned_pair(cap3, 0.25)
    vols = []
    for j in range(7, 12):
        mv = pair_intersection_volume(f, g, 2.0**-j, 300_000, np.random.default_rng(60 + j))
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


def _unpruned_volume(f, g, delta, samples, rng):
    """The conditional estimator with a frame for every draw of x."""
    chart = f.chart
    t = []
    for start in range(0, samples, 262_144):
        x = rng.random((min(262_144, samples - start), chart.dim))
        t.append(np.linalg.norm(frame_matrices(chart, x) @ (g.z - f.z), axis=-1) / delta)
    t = np.concatenate(t)
    value = vertical_slab_volume(chart.n, delta) * _lens_fraction(t, chart.n - 1).mean()
    return value, int(np.count_nonzero(t < 2.0))


# two chunks of draws on the caps; one on the perturbed cap, whose
# finite-difference frames cost over 20 times as much per row
@pytest.mark.parametrize("chart, samples", [
    (make_cap_chart(3, 0.6), 300_000),
    (make_cap_chart(4, 0.6), 300_000),
    (make_perturbed_cap_chart(3, 0.6, amplitude=0.01, frequency=2.0), 30_000),
], ids=["cap3", "cap4", "perturbed3"])
def test_pruned_frames_leave_the_estimate_unchanged(chart, samples):
    evaluated = drawn = 0
    for i, u in enumerate((0.5, 0.25, 0.125, 0.0625, 0.03125)):
        f, g = _driver_pair(chart, rng_stream(5, i), u)
        for delta in (2.0**-8, 2.0**-11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mv = pair_intersection_volume(f, g, delta, samples, rng_stream(6, i))
            value, hits = _unpruned_volume(f, g, delta, samples, rng_stream(6, i))
            assert mv.hits == hits
            assert mv.value == pytest.approx(value, rel=1e-12, abs=0.0)
            evaluated += mv.extra["evaluated"]
            drawn += mv.samples
    assert evaluated < 0.5 * drawn


@pytest.mark.parametrize("n", [3, 4])
def test_conditional_volume_agrees_with_joint_sampling(n):
    chart = make_cap_chart(n, 0.6)
    f, g = _driver_pair(chart, rng_stream(9, n), 0.25)
    delta, samples = 2.0**-7, 1_000_000
    mv = pair_intersection_volume(f, g, delta, samples, rng_stream(10, n))
    # joint sampler: x uniform, y uniform in the delta-ball around f(x),
    # a hit when y lies within delta of g(x)
    rng = rng_stream(11, n)
    x = rng.random((samples, chart.dim))
    y = sample_ball(rng, n - 1, samples, delta)
    gap = y - frame_matrices(chart, x) @ (g.z - f.z)
    rate = np.count_nonzero(np.linalg.norm(gap, axis=-1) < delta) / samples
    slab = vertical_slab_volume(n, delta)
    joint, joint_se = slab * rate, slab * math.sqrt(rate * (1.0 - rate) / samples)
    assert rate * samples >= 1000
    assert abs(mv.value - joint) <= 4.0 * math.hypot(mv.stderr, joint_se)
    assert mv.stderr < joint_se


def test_frame_field_lives_and_dies_with_the_chart():
    chart = make_cap_chart(3, 0.6)
    f, g = CinematicMap(chart, np.zeros(3)), CinematicMap(chart, np.array([0.2, 0.0, 0.0]))
    c2_distance(f, g)
    field = projmap._field(chart, None)
    assert projmap._field(chart, None) is field
    ref = weakref.ref(field)
    del chart, f, g, field
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("delta, samples", [
    (0.0, 1000), (-2.0**-8, 1000), (math.nan, 1000), (math.inf, 1000), (2.0**-8, 0),
])
def test_pair_volume_rejects_bad_delta_and_samples(cap3, delta, samples):
    f = CinematicMap(cap3, np.zeros(3))
    g = CinematicMap(cap3, np.array([0.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        pair_intersection_volume(f, g, delta, samples, np.random.default_rng(0))


def test_pair_volume_warns_on_starved_estimate(cap3):
    # separated pair whose difference never vanishes: almost no hits
    f = CinematicMap(cap3, np.zeros(3))
    g = CinematicMap(cap3, np.array([0.4, 0.0, 0.0]))
    with pytest.warns(UserWarning):
        mv = pair_intersection_volume(f, g, 2.0**-10, 10_000, np.random.default_rng(3))
    assert mv.low_hits


def test_small_piece_dichotomy_and_growth_bound(cap3):
    # on pieces below the certified size, either the value or the directional
    # derivative stays above norm/(2K) on the whole piece
    x0 = np.array([[0.375]])
    w = 0.12 * cap3.point(x0)[0]
    f = CinematicMap(cap3, np.zeros(3))
    g = CinematicMap(cap3, w)
    cert = _pair_certificate(cap3, w, per_axis=257)
    k_est = max(cert["norm_upper"] / cert["certified"], cert["norm_c2"])
    side_exp = math.ceil(math.log2(4.0 * k_est * k_est))
    side = 2.0**-side_exp
    assert side * math.sqrt(1.0) < 1.0 / (4.0 * k_est * k_est)
    norm = cert["norm_c2"]
    thresh = norm / (2.0 * k_est)
    xs = np.linspace(0.0, 1.0, 2**side_exp * 4 + 1)[:, None]
    vals = np.linalg.norm(f.value(xs) - g.value(xs), axis=-1)
    grads = np.linalg.norm((f.gradient(xs) - g.gradient(xs))[..., 0], axis=-1)
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


def test_survey_rejects_zs_without_a_distinct_pair(cap3):
    # one row of zs gives no pair of distinct indices to survey
    with pytest.raises(ValueError, match="distinct"):
        survey_family(cap3, np.zeros((1, 3)), 10, rng_stream(15, 0))
