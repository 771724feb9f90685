"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line and asserts the criterion at its
stated tolerance plus a wall-clock budget. Tolerances here are contract
values; do not tighten or loosen them to track measurements.
"""
import math
import time
import warnings

import numpy as np
import pytest

from projlab import experiments as ex
from projlab import manifold, sets
from projlab.manifold import CapChart
from projlab.util import rng_stream

SEED = 2026


@pytest.fixture(scope="module")
def collapsing(cap3):
    return ex.make_collapsing_fractal(
        cap3, [0.5], [("cantor", 2, 0.25, 6), ("point",), ("uniform", 8192)]
    )


def report_line(num, ok, label, elapsed):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label} [{elapsed:.1f}s]")


def test_criterion_1_duality_suite():
    t0 = time.perf_counter()
    ok = True
    for c in (0.3, 0.6, 0.9):
        for n in (3, 4, 5):
            chart = CapChart(n, c)
            dual = chart.dual()
            x = rng_stream(SEED, n, round(10 * c)).random((1000, chart.dim))
            height_err = float(np.abs(dual.point(x)[:, -1] - math.sqrt(1.0 - c * c)).max())
            kappa = manifold.principal_curvatures(chart, x)
            kappa_star = manifold.principal_curvatures(dual, x)
            prod_err = float(np.abs(kappa * kappa_star - 1.0).max())
            # Jacobian columns span the tangent plane; QR makes the angle
            # residual independent of any frame normalization
            Q1 = np.linalg.qr(chart.jacobian(x))[0]
            Q2 = np.linalg.qr(dual.jacobian(x))[0]
            R = Q2 - Q1 @ (np.swapaxes(Q1, 1, 2) @ Q2)
            angle = float(np.linalg.norm(R, axis=(1, 2)).max())
            ok = ok and height_err <= 1e-9 and prod_err <= 1e-6 and angle <= 1e-7
    elapsed = time.perf_counter() - t0
    report_line(1, ok and elapsed < 10.0, "duality across 9 cap charts", elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_2_cinematic_suite(cap3):
    t0 = time.perf_counter()
    rep = ex.run_cinematic_check(cap3, SEED, pairs=2000, radius=0.5)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.verdict == "pass"
        and rep.checks["all_certified"]
        and rep.checks["hi_lo_ratio"] < 50.0
        and rep.checks["K_drift"] <= 0.20
    )
    report_line(2, ok and elapsed < 120.0, "2000-pair certified family survey", elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_3_pair_volume_scaling(cap3):
    t0 = time.perf_counter()
    r3 = ex.run_pair_volume_sweep(cap3, SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r4 = ex.run_pair_volume_sweep(CapChart(4, 0.6), SEED)
    elapsed = time.perf_counter() - t0
    ok = (
        r3.verdict == "pass"
        and abs(r3.fits["d_exponent"] + 1.0) <= 0.25
        and abs(r3.fits["delta_exponent"] - 3.0) <= 0.25
        and r3.fits["r2"] >= 0.9
        and abs(r4.fits["d_exponent"] + 2.0) <= 0.35
    )
    report_line(3, ok and elapsed < 600.0, "slab-volume exponents n=3 and n=4", elapsed)
    assert ok
    assert elapsed < 600.0


def test_criterion_4_line_cone_incidence(cap3):
    t0 = time.perf_counter()
    rep = ex.run_cone_incidence(cap3, SEED, a=0.3, sweep_lines=200, check_lines=1000)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.verdict == "pass"
        and abs(rep.fits["slope_min"] - 3.0) <= 0.3
        and abs(rep.fits["slope_max"] - 3.0) <= 0.3
        and 0.0 < rep.fits["constant_lo"] <= rep.fits["constant_hi"] < math.inf
        and rep.checks["point_violations"] == 0
        and rep.checks["component_violations"] == 0
    )
    report_line(4, ok and elapsed < 600.0, "tube scaling and incidence caps", elapsed)
    assert ok
    assert elapsed < 600.0


def test_criterion_5_box_dimension_oracle():
    t0 = time.perf_counter()
    mt = sets.build_cantor_dust(1, 2, 1.0 / 3.0, 12)
    mt_dim = sets.box_dimension(mt.points, 3, 12).slope
    side = np.arange(1024) / 1024.0
    grid = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    grid_dim = sets.box_dimension(grid, 3, 8).slope
    p_cc = sets.product_fractal([("cantor", 2, 0.25, 8), ("cantor", 2, 0.25, 8)])
    cc_dim = sets.box_dimension(p_cc.points, 3, 12).slope
    p_cu = sets.product_fractal([("cantor", 2, 0.25, 8), ("uniform", 1024)])
    cu_dim = sets.box_dimension(p_cu.points, 3, 10).slope
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mt_dim - 0.6309) <= 0.05
        and abs(grid_dim - 2.0) <= 0.05
        and abs(cc_dim - p_cc.similarity_dim) <= 0.05
        and abs(cu_dim - p_cu.similarity_dim) <= 0.05
    )
    report_line(5, ok and elapsed < 60.0, "box-dimension reference values", elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_6_configuration_lower_bound(cap3):
    t0 = time.perf_counter()
    ok = True
    for s, s_prime in ((0.5, 0.5), (0.4, 0.7)):
        rep = ex.run_configuration_lower_bound(cap3, SEED, s, s_prime)
        ok = ok and rep.verdict == "pass"
        ok = ok and rep.fits["exponent"] >= s + s_prime - 0.15
        ok = ok and rep.fits["r2"] >= 0.9
    elapsed = time.perf_counter() - t0
    report_line(6, ok and elapsed < 900.0, "union covering growth exponents", elapsed)
    assert ok
    assert elapsed < 900.0


def test_criterion_7_dimension_conservation(cap3):
    t0 = time.perf_counter()
    dust = sets.build_cantor_dust(3, 4, 2.0**-2.5, 10, placement="planar")
    assert dust.similarity_dim == pytest.approx(0.8)
    assert dust.level >= 10
    sweep = ex.run_projection_dimension_sweep(
        cap3, dust, SEED, x_samples=200, k_window=(4, 10), band=(0.7, 0.9), quantile=0.95
    )
    survey = ex.run_exceptional_set_survey(
        cap3, dust, SEED, s_grid=(0.3, 0.5), x_resolution_exp=7, k_window=(4, 10), tol=0.2
    )
    elapsed = time.perf_counter() - t0
    ok = (
        sweep.status == "complete"
        and sweep.verdict == "pass"
        and sweep.fits["in_band_fraction"] >= 0.95
        and survey.verdict == "pass"
        and survey.fits["profile_slope_s0.3"] <= 0.3 + 0.2
        and survey.fits["profile_slope_s0.5"] <= 0.5 + 0.2
    )
    report_line(7, ok and elapsed < 1800.0, "projected-dimension conservation", elapsed)
    assert ok
    assert elapsed < 1800.0


def test_criterion_8_collapsing_protocol(cap3, collapsing):
    t0 = time.perf_counter()
    fractal, _ = collapsing
    band = (fractal.similarity_dim - 0.15, fractal.similarity_dim + 0.15)
    sweep = ex.run_projection_dimension_sweep(
        cap3, fractal, SEED, x_samples=200, k_window=(4, 10), band=band,
        quantile=0.90, collapse_x=[0.5], collapse_max=1.05,
    )
    member = ex.run_cone_membership_check(cap3, fractal, SEED, delta=2.0**-7, pairs=1000)
    inc = ex.run_incidence_count(cap3, fractal, SEED, [0.5], delta=2.0**-8, z_samples=64)
    elapsed = time.perf_counter() - t0
    ok = (
        sweep.verdict == "pass"
        and sweep.fits["collapse_dim"] <= 1.05
        and sweep.fits["in_band_fraction"] >= 0.90
        and member.verdict == "pass"
        and member.checks["pairs_found"] == 1000
        and member.checks["violations"] == 0
        and inc.verdict == "pass"
        and inc.fits["ring_exponent"] <= inc.fits["projected_dim"] + 0.25
        and inc.fits["r2"] >= 0.9
    )
    report_line(8, ok and elapsed < 2700.0, "collapsing-direction protocol", elapsed)
    assert ok
    assert elapsed < 2700.0


def test_criterion_9_determinism(cap3):
    t0 = time.perf_counter()
    kw = dict(u_ladder=(0.5, 0.25), pairs_per_u=2, deltas=(2.0**-8, 2.0**-9), samples=50_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = ex.run_pair_volume_sweep(cap3, 11, **kw)
        b = ex.run_pair_volume_sweep(cap3, 11, **kw)
    c = ex.run_manifold_info(cap3, seed=11, samples=500)
    d = ex.run_manifold_info(cap3, seed=11, samples=500)
    elapsed = time.perf_counter() - t0
    ok = (
        a.to_json() == b.to_json()
        and a.csv_text() == b.csv_text()
        and c.to_json() == d.to_json()
    )
    report_line(9, ok, "byte-identical reruns", elapsed)
    assert ok
