import dataclasses
import json
import tracemalloc
import warnings
from datetime import datetime

import numpy as np
import pytest

from projlab import cone as cones
from projlab import experiments, projmap
from projlab.experiments import (
    Configuration,
    ConfigurationError,
    ExperimentReport,
    _refuse_low_r2,
    build_configuration,
    make_collapsing_fractal,
    run_cinematic_check,
    run_cone_incidence,
    run_cone_membership_check,
    run_configuration_lower_bound,
    run_exceptional_set_survey,
    run_incidence_count,
    run_manifold_info,
    run_pair_volume_sweep,
    run_projection_dimension_sweep,
)
from projlab.manifold import CapChart, PerturbedCapChart
from projlab.sets import build_cantor_dust, product_fractal


@pytest.fixture(scope="module")
def dust7():
    return build_cantor_dust(3, 4, 2.0**-2.5, 7, placement="planar")


@pytest.fixture(scope="module")
def collapsing(cap3):
    fractal, y = make_collapsing_fractal(
        cap3, [0.5], [("cantor", 2, 0.25, 6), ("point",), ("uniform", 8192)]
    )
    return fractal, y


def test_report_json_is_deterministic(cap3):
    a = run_manifold_info(cap3, seed=0, samples=400)
    b = run_manifold_info(cap3, seed=0, samples=400)
    assert a.to_json() == b.to_json()
    assert a.verdict == "pass"
    # wall clock varies between runs and must stay out of the canonical form
    assert a.wall_clock_seconds is not None
    assert "wall_clock_seconds" not in a.to_dict()
    parsed = json.loads(a.to_json())
    assert parsed["experiment"] == "manifold-info"
    assert parsed["status"] == "complete"


def test_report_write_names_and_sidecar(tmp_path, cap3):
    rep = run_manifold_info(cap3, seed=1, samples=200)
    paths = rep.write(tmp_path, timestamp="20260101T000000Z")
    assert paths["report"].endswith("report_manifold-info_20260101T000000Z.json")
    assert paths["csv"].endswith("raw_manifold-info_20260101T000000Z.csv")
    assert paths["meta"].endswith("report_manifold-info_20260101T000000Z.meta.json")
    text = (tmp_path / "raw_manifold-info_20260101T000000Z.csv").read_text()
    assert text.splitlines()[0] == "delta,quantity,value,stderr,samples"
    assert len(text.splitlines()) == 1 + len(rep.measurements)
    meta = json.loads((tmp_path / "report_manifold-info_20260101T000000Z.meta.json").read_text())
    assert meta["timestamp"] == "20260101T000000Z"
    assert meta["wall_clock_seconds"] > 0.0
    on_disk = (tmp_path / "report_manifold-info_20260101T000000Z.json").read_text()
    assert on_disk == rep.to_json()


def test_writes_within_one_second_keep_every_report(tmp_path, monkeypatch):
    class FrozenClock(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 1, tzinfo=tz)

    monkeypatch.setattr(experiments, "datetime", FrozenClock)
    rep = ExperimentReport("t", {}, 0)
    first, second = rep.write(tmp_path), rep.write(tmp_path)
    assert first["report"].endswith("report_t_20260101T000000Z.json")
    assert second["report"].endswith("report_t_20260101T000000Z-2.json")
    assert second["csv"].endswith("raw_t_20260101T000000Z-2.csv")
    assert len(list(tmp_path.glob("raw_t_*.csv"))) == 2
    assert len(list(tmp_path.glob("report_t_*.meta.json"))) == 2
    reports = [p for p in tmp_path.glob("report_t_*.json") if not p.name.endswith(".meta.json")]
    assert len(reports) == 2 and all(p.read_text() == rep.to_json() for p in reports)


def test_low_r2_refusal_branches():
    rep = ExperimentReport("t", {}, 0)
    assert _refuse_low_r2(rep, False, 0.99) == "fail"
    assert _refuse_low_r2(rep, True, 0.5) == "insufficient"
    assert any("below 0.9" in n for n in rep.notes)
    assert _refuse_low_r2(rep, True, 0.95) == "pass"


@pytest.mark.parametrize("kind", ["cap", "perturbed-cap"])
def test_manifold_info_checks(cap3, kind):
    # a perturbed cap's dual is not at constant height: no such check
    chart = cap3 if kind == "cap" else PerturbedCapChart(3, 0.6, 0.01, 2.0)
    rep = run_manifold_info(chart, seed=0, samples=500)
    assert rep.verdict == "pass"
    assert rep.checks["kappa_product_ok"]
    assert rep.checks["tangent_duality_ok"]
    if kind == "cap":
        assert rep.checks["dual_height_ok"]
    else:
        assert "dual_height_ok" not in rep.checks
    names = {m["quantity"] for m in rep.measurements}
    assert "kappa_product_error" in names
    assert any(q.startswith("constant_") for q in names)


def test_cinematic_check_small(cap3):
    rep = run_cinematic_check(cap3, 5, pairs=200, radius=0.5, grid=33)
    assert rep.verdict == "pass"
    assert rep.checks["all_certified"]
    assert rep.checks["hi_lo_ratio"] < 50.0
    assert rep.checks["K_drift"] <= 0.2
    assert 1.0 < rep.fits["K_est"] < 100.0
    tags = {m["quantity"] for m in rep.measurements}
    assert "K_est_base" in tags and "K_est_doubled" in tags
    assert "doubling" in tags and rep.fits["doubling"] >= 1.0


def test_cinematic_check_marks_an_uncertified_survey(cap3):
    # a 5-per-axis grid is too coarse to certify most pairs
    rep = run_cinematic_check(cap3, 5, pairs=20, radius=0.5, grid=5)
    assert rep.verdict == "fail"
    assert rep.checks["all_certified"] is False
    assert rep.fits["K_est"] is None
    assert rep.checks["K_drift"] is None
    assert rep.checks["K_stable"] is False
    # the sidecar counts each grid's survey; the report names the same counts
    c = rep.counters
    assert set(c) == {f"survey_family.grid{g}.{k}" for g in (5, 9) for k in ("pairs", "uncertified")}
    assert c["survey_family.grid5.pairs"] == c["survey_family.grid9.pairs"] > 0
    assert 0 < c["survey_family.grid5.uncertified"] <= c["survey_family.grid5.pairs"]
    assert (f"{c['survey_family.grid5.uncertified']} of {c['survey_family.grid5.pairs']} "
            "pairs uncertified on the 5-per-axis grid") in rep.notes[0]
    tags = {m["quantity"] for m in rep.measurements}
    assert "K_est_base" not in tags and "min_certified_ratio_base" in tags
    assert "Infinity" not in rep.to_json() and "survey_family" not in rep.to_json()


def test_cinematic_check_rejects_zs_without_a_distinct_pair(cap3):
    # one center gives no pair of distinct indices to survey
    with pytest.raises(ValueError, match="distinct"):
        run_cinematic_check(cap3, 15, pairs=1)


def test_pair_volume_all_pairs_below_separation(cap3):
    rep = run_pair_volume_sweep(
        cap3, 3, u_ladder=(0.0005,), pairs_per_u=2, deltas=(2.0**-5,), samples=1000
    )
    assert rep.verdict == "insufficient"
    assert rep.fits["d_exponent"] is None
    assert rep.fits["delta_exponent"] is None
    skip_notes = [n for n in rep.notes if "skipped" in n]
    assert len(skip_notes) == 2


def test_pair_volume_single_delta_has_no_delta_fit(cap3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_pair_volume_sweep(
            cap3, 3, u_ladder=(0.5,), pairs_per_u=4, deltas=(2.0**-8,), samples=250_000
        )
    assert rep.fits["delta_exponent"] is None
    assert rep.fits["d_exponent"] is not None
    # identical u means the distance regressor has almost no spread, so the
    # marginal fit cannot certify anything
    assert rep.verdict != "pass"


def test_pair_volume_counters_go_to_the_sidecar_only(tmp_path, cap3, monkeypatch):
    volume, vols = projmap.pair_intersection_volume, []

    def recorded(*args):
        vols.append(volume(*args))
        return vols[-1]

    monkeypatch.setattr(projmap, "pair_intersection_volume", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_pair_volume_sweep(cap3, 3, pairs_per_u=1, samples=20_000)
    stamp = "20260101T000000Z"
    rep.write(tmp_path / "with", timestamp=stamp)
    dataclasses.replace(rep, counters={}).write(tmp_path / "without", timestamp=stamp)
    for name in (f"report_pair-volume_{stamp}.json", f"raw_pair-volume_{stamp}.csv"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    meta = json.loads((tmp_path / "with" / f"report_pair-volume_{stamp}.meta.json").read_text())
    assert len(vols) == 20
    assert meta["counters"] == {
        "pair_intersection_volume.samples": sum(v.samples for v in vols),
        "pair_intersection_volume.evaluated": sum(v.evaluated for v in vols),
        "pair_intersection_volume.hits": sum(v.hits for v in vols),
    }


def test_pair_volume_computes_the_c2_stats_once_per_pair(monkeypatch):
    stats, distance = projmap._c2_stats, projmap.c2_distance
    rows, pairs = [], []

    def counted_stats(ff, W):
        rows.extend(W.tolist())
        return stats(ff, W)

    def recorded_distance(chart, w, *args):
        pairs.append(w.tolist())
        return distance(chart, w, *args)

    monkeypatch.setattr(projmap, "_c2_stats", counted_stats)
    monkeypatch.setattr(projmap, "c2_distance", recorded_distance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_pair_volume_sweep(CapChart(3, 0.6), 3, pairs_per_u=1, samples=2_000)
    assert len(pairs) == 5 and len(rep.measurements) == 25
    # c2_distance and the four deltas' live cells share one evaluation
    assert rows == pairs


def test_cone_incidence_counters_go_to_the_sidecar_only(tmp_path, cap3, monkeypatch):
    tube, reports = cones.line_cone_tube_volume, []
    transversal, cut_lists = cones.make_transversal_lines, []

    def recorded_tube(*args, **kwargs):
        reports.append(tube(*args, **kwargs))
        return reports[-1]

    class CountedDraws:
        # a candidate draws its two chart parameters in one (2, dim) call
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, low, high, size):
            drawn.extend([size] * (size == (2, cap3.dim)))
            return self.rng.uniform(low, high, size)

    drawn = []

    def recorded_lines(chart, a, count, rng, tally):
        found = transversal(chart, a, count, CountedDraws(rng), tally)
        cut_lists.extend(cuts for _, cuts in found)
        return found

    # the line searches cut every line they build that passes the draw test
    cut_line, through, built, cut = cones.line_cone_points, cones.LineSegment.through, [], []

    def recorded_cut(cone, line, grid):
        cut.append(line)
        return cut_line(cone, line, grid)

    def recorded_through(cls, *args, **kwargs):
        built.append(through(*args, **kwargs))
        return built[-1]

    polish = cones._polish_root

    # loses the far cut of every secant, so every line drops a root
    def far_half_fails(cone, line, t):
        return None if t > 0.5 * (line.t0 + line.t1) else polish(cone, line, t)

    monkeypatch.setattr(cones, "line_cone_tube_volume", recorded_tube)
    monkeypatch.setattr(cones, "make_transversal_lines", recorded_lines)
    monkeypatch.setattr(cones, "_polish_root", far_half_fails)
    monkeypatch.setattr(cones, "line_cone_points", recorded_cut)
    monkeypatch.setattr(cones.LineSegment, "through", classmethod(recorded_through))
    # a = 0.45 makes the draw test reject candidates
    rep = run_cone_incidence(cap3, 5, a=0.45, sweep_lines=2, check_lines=3,
                             deltas=(2.0**-5, 2.0**-6), samples=4000)
    stamp = "20260101T000000Z"
    rep.write(tmp_path / "with", timestamp=stamp)
    dataclasses.replace(rep, counters={}).write(tmp_path / "without", timestamp=stamp)
    for name in (f"report_cone-incidence_{stamp}.json", f"raw_cone-incidence_{stamp}.csv"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    meta = json.loads((tmp_path / "with" / f"report_cone-incidence_{stamp}.meta.json").read_text())
    assert (len(reports), len(cut_lists)) == (4, 5)
    assert all(cuts.dropped for cuts in cut_lists)
    assert meta["counters"] == {
        "line_cone_tube_volume.samples": sum(r.samples for r in reports),
        "line_cone_tube_volume.evaluated": sum(r.evaluated for r in reports),
        "line_cone_tube_volume.hits": sum(r.hits for r in reports),
        "line_cone_tube_volume.certified_hits": sum(r.certified_hits for r in reports),
        "line_cone_tube_volume.min_hits": min(r.hits for r in reports),
        "line_cone_points.dropped": sum(c.dropped for c in cut_lists),
        "make_transversal_lines.candidates": len(drawn),
        "make_transversal_lines.rejected_by_draw": len(built) - len(cut),
        "make_transversal_lines.cut": len(cut),
    }
    assert 0 < meta["counters"]["line_cone_tube_volume.certified_hits"] < sum(
        r.hits for r in reports)
    # some build was rejected from its draw alone, and every candidate drew
    # a line unless its two points lay too close
    assert len(cut) < len(built) <= len(drawn)


def test_cone_incidence_keeps_empty_tubes_out_of_the_fit(cap3):
    # 20 draws per tube leave most tubes without a hit: log2(0) used to turn
    # the slopes into NaN without a note
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_cone_incidence(cap3, 2026, sweep_lines=2, check_lines=2, samples=20)
    empty = [(m["quantity"], m["delta"]) for m in rep.measurements
             if m["quantity"].endswith("_tube_volume") and m["value"] == 0.0]
    assert empty
    for quantity, delta in empty:
        line = int(quantity[4:7])
        assert f"line {line} delta {delta:g}: no sample hit the tube; " \
               "line kept out of the slope fit" in rep.notes
    assert rep.verdict != "pass"
    assert all(v is None or np.isfinite(v) for v in rep.fits.values())
    assert rep.fits["constant_lo"] != 0.0


def test_cone_incidence_passes_on_the_perturbed_cap():
    chart = PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0)
    rep = run_cone_incidence(chart, 2026, sweep_lines=4, check_lines=4)
    assert rep.checks["point_violations"] == 0
    assert rep.checks["component_violations"] == 0
    assert rep.verdict == "pass"


def test_cone_incidence_notes_roots_that_fail_to_polish(cap3, monkeypatch):
    polish = cones._polish_root

    # secants run from one surface point (t = 0) to another (t = length), so
    # this loses the far cut of every line and keeps the near one
    def far_half_fails(cone, line, t):
        return None if t > 0.5 * (line.t0 + line.t1) else polish(cone, line, t)

    monkeypatch.setattr(cones, "_polish_root", far_half_fails)
    rep = run_cone_incidence(cap3, 5, sweep_lines=1, check_lines=2,
                             deltas=(2.0**-5, 2.0**-6), samples=2000)
    for label in ("line 0", "check line 0", "check line 1"):
        assert any(note.startswith(f"{label}: ") and "root(s) not polished" in note
                   for note in rep.notes), rep.notes


def test_configuration_build_and_validate(cap3):
    cfg = build_configuration(cap3, 2.0**-8, 0.5, 0.5, 1.0)
    assert cfg.validate() == []
    assert cfg.M >= 2.0 ** (8 * 0.5) / 4.0
    assert cfg.centers.shape[1] == 3
    assert np.linalg.norm(cfg.centers, axis=1).max() <= 0.5
    union = cfg.union_points()
    assert union.shape == (cfg.centers.shape[0] * cfg.base_points.shape[0], 3)


def test_configuration_rejects_tampered_centers(cap3):
    cfg = build_configuration(cap3, 2.0**-8, 0.5, 0.5, 1.0)
    bad = Configuration(cap3, 2.0**-8, 0.5, 0.5, 1.0, cfg.centers * 2.2, cfg.base_points)
    problems = bad.validate()
    assert any("leave" in p for p in problems)


def test_configuration_starved_budget_raises(cap3):
    with pytest.raises(ConfigurationError):
        build_configuration(cap3, 2.0**-8, 0.5, 0.5, C=0.25)


def test_configuration_bound_degenerate_base(cap3):
    rep = run_configuration_lower_bound(cap3, 17, 0.5, 0.0)
    assert rep.verdict == "pass"
    assert rep.fits["r2"] >= 0.9
    # with a single-point base the union covering tracks the center family
    assert abs(rep.fits["exponent"] - 0.5) <= 0.15
    assert rep.fits["exponent"] >= rep.fits["target"]


def test_projection_sweep_planar_dust(cap3, dust7):
    rep = run_projection_dimension_sweep(
        cap3, dust7, 31, x_samples=12, k_window=(4, 10), band=(0.7, 0.9)
    )
    assert rep.status == "complete"
    assert rep.verdict == "pass"
    assert rep.fits["in_band_fraction"] == 1.0
    assert 0.7 < rep.fits["dim_min"] <= rep.fits["dim_max"] < 0.9
    assert len(rep.measurements) == 12


def test_box_count_work_goes_to_the_sidecar_only(tmp_path, cap3, dust7, monkeypatch):
    box, fits = experiments.sets.box_dimension, []

    def recorded(*args):
        fits.append(box(*args))
        return fits[-1]

    monkeypatch.setattr(experiments.sets, "box_dimension", recorded)
    stamp = "20260101T000000Z"
    runs = [
        run_projection_dimension_sweep(cap3, dust7, 31, x_samples=3, k_window=(4, 10),
                                       band=(0.7, 0.9), collapse_x=[0.5]),
        run_exceptional_set_survey(cap3, dust7, 33, s_grid=(0.3,), x_resolution_exp=2,
                                   k_window=(4, 10)),
    ]
    assert len(fits) == 4 + 4
    for rep, images in zip(runs, (fits[:4], fits[4:])):
        rep.write(tmp_path / "with", timestamp=stamp)
        dataclasses.replace(rep, counters={}).write(tmp_path / "without", timestamp=stamp)
        for name in (f"report_{rep.experiment}_{stamp}.json", f"raw_{rep.experiment}_{stamp}.csv"):
            assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
        meta = json.loads((tmp_path / "with" / f"report_{rep.experiment}_{stamp}.meta.json").read_text())
        assert meta["counters"] == {
            "box_dimension.images": len(images),
            "box_dimension.points": len(images) * dust7.points.shape[0],
            "box_dimension.rows_keyed": sum(f.rows_keyed for f in images),
            "box_dimension.pieces_expanded": sum(f.pieces_expanded for f in images),
        }
        assert 0 < meta["counters"]["box_dimension.rows_keyed"] < meta["counters"]["box_dimension.points"]


def test_projection_sweep_aborts_on_shallow_fractal(cap3):
    shallow = build_cantor_dust(3, 4, 2.0**-2.5, 2, placement="planar")
    rep = run_projection_dimension_sweep(cap3, shallow, 31, x_samples=4, k_window=(4, 10))
    assert rep.status == "aborted"
    assert rep.verdict == "fail"
    assert "under-resolves" in rep.error
    assert rep.measurements == []


def test_exceptional_survey_no_marked_cells(cap3, dust7):
    rep = run_exceptional_set_survey(
        cap3, dust7, 33, s_grid=(0.3, 0.5), x_resolution_exp=5, k_window=(4, 10)
    )
    assert rep.verdict == "pass"
    assert rep.fits["profile_slope_s0.3"] == 0.0
    assert rep.fits["profile_slope_s0.5"] == 0.0
    assert rep.fits["weaker_bound_s0.5"] == pytest.approx(0.5 + 1.0 - 0.8)


def test_incidence_aborts_when_projection_too_big(cap3):
    flat = product_fractal([("uniform", 128), ("uniform", 128), ("point",)])
    rep = run_incidence_count(cap3, flat, 35, [0.5], k_window=(3, 6))
    assert rep.status == "aborted"
    assert rep.verdict == "fail"
    assert rep.fits["projected_dim"] > 1.1
    assert "hypothesis" in rep.error


def test_membership_no_violations_on_collapsing_set(cap3, collapsing):
    fractal, _ = collapsing
    rep = run_cone_membership_check(cap3, fractal, 37, delta=2.0**-7, pairs=300)
    assert rep.verdict == "pass"
    assert rep.checks["pairs_found"] == 300
    assert rep.checks["violations"] == 0
    assert rep.checks["constructed_pair_distance"] <= 1e-10


def test_membership_insufficient_when_no_pairs_qualify(cap3):
    sparse = build_cantor_dust(3, 4, 2.0**-2.5, 2, placement="planar")
    rep = run_cone_membership_check(cap3, sparse, 41, delta=2.0**-9, pairs=50)
    assert rep.verdict == "insufficient"
    assert rep.checks["pairs_found"] == 0
    assert any("no near-intersecting pairs" in n for n in rep.notes)


def test_membership_screen_keeps_only_cone_pairs_at_n4():
    # the screen measures the distance from w to the line through Sigma(x);
    # at n = 4 the frame rows are not unit vectors, so |B(x) w| would keep
    # pairs outside the 2*delta cone neighborhood
    dust = build_cantor_dust(4, 2, 2**-1.25, 10)
    rep = run_cone_membership_check(CapChart(4, 0.6), dust, seed=2026, pairs=100, xgrid=33)
    assert rep.checks["pairs_found"] == 100
    assert rep.checks["violations"] == 0
    assert rep.verdict == "pass"


def test_membership_screen_memory_is_bounded_at_n4():
    # the default grid has 16,641 nodes at n = 4: one 4,096-pair batch of
    # dot products with all of them is 545 MB
    chart = CapChart(4, 0.6)
    chart.seed_grid(129)
    dust = build_cantor_dust(4, 2, 2**-1.25, 10)
    tracemalloc.start()
    try:
        rep = run_cone_membership_check(chart, dust, seed=2026, pairs=100, xgrid=129)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.checks["pairs_found"] == 100
    assert peak < 64 * 2**20


def test_incidence_count_on_collapsing_set(cap3, collapsing):
    fractal, _ = collapsing
    rep = run_incidence_count(cap3, fractal, 39, [0.5], z_samples=16)
    assert rep.status == "complete"
    assert rep.verdict == "pass"
    assert 0.40 < rep.fits["projected_dim"] < 0.50
    assert rep.fits["ring_exponent"] <= rep.fits["target"]
    assert rep.fits["r2"] >= 0.9
    # the tangency excision is doing real work: without the angle gate the
    # cumulative counts grow faster
    assert rep.fits["ring_exponent_unfiltered"] > rep.fits["ring_exponent"]
