"""Seeded end-to-end experiments with persisted, canonical reports.

Every experiment takes explicit parameters plus a seed, derives all
randomness from named substreams of that seed, and accumulates records in
deterministic loop order.  Reports serialize to canonical JSON (sorted
keys, two-space indent); the wall clock is kept out of the canonical bytes
so identical runs produce identical files, and is written to a sidecar.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import cone as cones
from . import manifold, projmap, sets
from .manifold import CapChart, ManifoldChart, PerturbedCapChart, frame_matrices
from .sets import FractalSet
from .util import fit_line, rng_stream, sample_ball

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentReport",
    "Configuration",
    "ConfigurationError",
    "chart_from_params",
    "make_collapsing_fractal",
    "run_manifold_info",
    "run_cinematic_check",
    "run_pair_volume_sweep",
    "run_cone_incidence",
    "run_configuration_lower_bound",
    "run_projection_dimension_sweep",
    "run_exceptional_set_survey",
    "run_cone_membership_check",
    "run_incidence_count",
    "EXPERIMENTS",
]

SCHEMA_VERSION = 1


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    seed: int
    status: str = "complete"
    verdict: str = "pass"
    measurements: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    error: str | None = None
    schema_version: int = SCHEMA_VERSION
    wall_clock_seconds: float | None = None
    counters: dict = field(default_factory=dict)  # work tallies, sidecar only

    def record(self, delta, quantity, value, stderr=0.0, samples=0):
        self.measurements.append(
            {
                "delta": float(delta),
                "quantity": str(quantity),
                "value": float(value),
                "stderr": float(stderr),
                "samples": int(samples),
            }
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("wall_clock_seconds", None)
        d.pop("counters", None)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def csv_text(self) -> str:
        lines = ["delta,quantity,value,stderr,samples"]
        for m in self.measurements:
            lines.append(
                f"{m['delta']:.12g},{m['quantity']},{m['value']:.17g},"
                f"{m['stderr']:.17g},{m['samples']}"
            )
        return "\n".join(lines) + "\n"

    def write(self, out_dir, timestamp: str | None = None) -> dict:
        """Write report_<name>_<timestamp>.json, raw_<name>_<timestamp>.csv
        and the .meta.json sidecar, which also names out_dir.  Without a
        timestamp the current UTC second is used, suffixed -2, -3, ... past
        the reports of this experiment already in out_dir, so no write
        replaces another."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if timestamp is None:
            timestamp = _claim_timestamp(out, self.experiment)
        report_path = out / f"report_{self.experiment}_{timestamp}.json"
        csv_path = out / f"raw_{self.experiment}_{timestamp}.csv"
        report_path.write_text(self.to_json())
        csv_path.write_text(self.csv_text())
        meta = {"wall_clock_seconds": self.wall_clock_seconds, "timestamp": timestamp,
                "out_dir": str(out_dir), "counters": self.counters}
        meta_path = out / f"report_{self.experiment}_{timestamp}.meta.json"
        meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        return {"report": str(report_path), "csv": str(csv_path), "meta": str(meta_path)}


def _claim_timestamp(out: Path, experiment: str) -> str:
    """The first free timestamp of the current second; creating the report
    file with O_EXCL claims it, so concurrent writers cannot share it."""
    base = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    for k in itertools.count(1):
        stamp = base if k == 1 else f"{base}-{k}"
        try:
            (out / f"report_{experiment}_{stamp}.json").touch(exist_ok=False)
            return stamp
        except FileExistsError:
            continue


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.wall_clock_seconds = time.perf_counter() - t0
        return rep

    return wrapper


def _loglog_fit(xs, ys):
    return fit_line(np.log2(np.asarray(xs, dtype=float)), np.log2(np.asarray(ys, dtype=float)))


def _refuse_low_r2(report: ExperimentReport, ok: bool, r2: float) -> str:
    if not ok:
        return "fail"
    if r2 < 0.9:
        report.notes.append(f"fit R^2 {r2:.3f} below 0.9; pass refused")
        return "insufficient"
    return "pass"


# ---------------------------------------------------------------------------
# builders shared by CLI and tests


def chart_from_params(params: dict) -> ManifoldChart:
    kind = params.get("kind", "cap")
    n = int(params.get("n", 3))
    c = float(params.get("c", 0.6))
    if kind == "cap":
        return CapChart(n, c)
    if kind == "perturbed-cap":
        return PerturbedCapChart(
            n, c,
            amplitude=float(params.get("amplitude", 0.01)),
            frequency=float(params.get("frequency", 2.0)),
        )
    raise ValueError(f"unknown manifold kind {kind!r}")


def make_collapsing_fractal(chart: ManifoldChart, x_star, axes) -> tuple[FractalSet, np.ndarray]:
    """Product fractal rotated so its last (full) axis aligns with the
    cross-section direction at parameter x_star; projecting at x_star then
    collapses that axis.  Returns the rotated set and the direction."""
    x_star = np.asarray(x_star, dtype=float)
    y = chart.point(x_star[None, :] if x_star.ndim == 1 else x_star)
    y = y[0] if y.ndim == 2 else y
    base = sets.product_fractal([tuple(a) for a in axes])
    n = base.n
    comp = cones._complement_basis(y)
    # columns: an orthonormal basis whose last vector is y
    M = np.concatenate([comp, y[None, :]], axis=0).T
    pts = base.points @ M.T
    rotated = FractalSet(
        n=n,
        points=pts,
        similarity_dim=base.similarity_dim,
        cell_side=base.cell_side,
        level=base.level,
        generator={**base.generator, "rotated_to": [float(v) for v in y]},
    )
    return rotated, y


# ---------------------------------------------------------------------------
# configurations (graph families over extracted sets)


class ConfigurationError(ValueError):
    pass


@dataclass
class Configuration:
    """A map family over spread base sets: centers z (separation delta in
    the displacement surrogate), a shared base set X per map with constant
    covering count M (counted once, when built), and the union of graph
    points E in [0,1]^(2n-3)."""

    chart: ManifoldChart
    delta: float
    s: float
    t: float
    C: float
    centers: np.ndarray
    base_points: np.ndarray
    M: int = field(init=False)

    def __post_init__(self):
        self.M = sets.covering_number(self.base_points, self.delta)

    def validate(self) -> list[str]:
        problems = []
        k = sets.scale_exponent(self.delta)
        if self.M < 2.0 ** (k * self.s) / (self.C * 4.0):
            problems.append(
                f"base covering {self.M} below (1/C) delta^-s / 4 = "
                f"{2.0 ** (k * self.s) / (self.C * 4.0):.1f}"
            )
        if self.centers.shape[0] > 1:
            from scipy.spatial import cKDTree

            d, _ = cKDTree(self.centers).query(self.centers, k=2)
            min_sep = float(d[:, 1].min())
            # centers are drawn in a cube scaled into B(o,1/2); the spread
            # separation shrinks by the same factor
            scale = 0.98 / math.sqrt(self.chart.n)
            if min_sep < self.delta * scale * (1.0 - 1e-9):
                problems.append(
                    f"center separation {min_sep:.3e} below scaled delta "
                    f"{self.delta * scale:.3e}"
                )
        if np.max(np.linalg.norm(self.centers, axis=1)) > 0.5:
            problems.append("centers leave B(o, 1/2)")
        return problems

    def union_points(self) -> np.ndarray:
        B = frame_matrices(self.chart, self.base_points)
        vals = np.einsum("xcn,zn->zxc", B, self.centers)
        nx = self.base_points.shape[0]
        nz = self.centers.shape[0]
        xs = np.broadcast_to(self.base_points[None, :, :], (nz, nx, self.base_points.shape[1]))
        return np.concatenate([xs, vals], axis=-1).reshape(nz * nx, -1)


def build_configuration(
    chart: ManifoldChart, delta: float, s: float, t: float, C: float = 1.0
) -> Configuration:
    d = chart.dim
    n = chart.n
    X = sets.spread_delta_s_set(d, delta, s, C)
    z01 = sets.spread_delta_s_set(n, delta, t, C)
    centers = (z01 - 0.5) * (0.98 / math.sqrt(n))
    cfg = Configuration(chart, delta, s, t, C, centers, X)
    problems = cfg.validate()
    if problems:
        raise ConfigurationError("; ".join(problems))
    return cfg


# ---------------------------------------------------------------------------
# experiments


@_timed
def run_manifold_info(chart: ManifoldChart, seed: int = 0, samples: int = 1000) -> ExperimentReport:
    """Curvature constants, duality residuals, and frame conditioning."""
    rep = ExperimentReport(
        "manifold-info",
        {"chart": chart.describe(), "samples": samples},
        seed,
        tolerances={"kappa_product": 1e-6, "dual_height": 1e-9, "tangent_angle": 1e-7},
    )
    rng = rng_stream(seed, 101)
    x = rng.random((samples, chart.dim))
    kappa = manifold.principal_curvatures(chart, x)
    dual = chart.dual()
    kappa_star = manifold.principal_curvatures(dual, x)
    prod_err = float(np.abs(kappa * kappa_star - 1.0).max())
    for name, value in asdict(chart.constants).items():
        rep.record(0.0, f"constant_{name}", value)
    rep.record(0.0, "kappa_product_error", prod_err, samples=samples)
    rep.checks["kappa_product_ok"] = bool(prod_err <= 1e-6)
    d = chart.dim
    E1 = np.swapaxes(frame_matrices(chart, x)[:, :d, :], 1, 2)
    E2 = np.swapaxes(frame_matrices(dual, x)[:, :d, :], 1, 2)
    R = E2 - E1 @ (np.swapaxes(E1, 1, 2) @ E2)
    # Frobenius norm of the residual bounds the sine of the largest
    # principal angle between the two tangent planes from above
    angle = float(np.linalg.norm(R, axis=(1, 2)).max())
    rep.record(0.0, "tangent_duality_angle", angle, samples=samples)
    rep.checks["tangent_duality_ok"] = bool(angle <= 1e-7)
    # only an unperturbed cap has its dual at one closed-form height
    if isinstance(chart, CapChart):
        dual_pts = dual.point(x)
        expected = math.copysign(math.sqrt(1.0 - chart.c * chart.c), chart.c)
        h_err = float(np.abs(dual_pts[:, -1] - expected).max())
        rep.record(0.0, "dual_height_error", h_err, samples=samples)
        rep.checks["dual_height_ok"] = bool(h_err <= 1e-9)
    rep.verdict = "pass" if all(rep.checks.values()) else "fail"
    return rep


@_timed
def run_cinematic_check(
    chart: ManifoldChart,
    seed: int,
    pairs: int = 2000,
    radius: float = 0.5,
    grid: int | None = None,
    hi_lo_max: float = 50.0,
    stability_tol: float = 0.2,
) -> ExperimentReport:
    """Certified cinematic infima over random pairs, with a grid-doubling
    stability check on the estimated constant.  The pairs are drawn once
    and surveyed on both grids."""
    rep = ExperimentReport(
        "cinematic-check",
        {
            "chart": chart.describe(),
            "pairs": pairs,
            "radius": radius,
            "grid": grid,
        },
        seed,
        tolerances={"hi_lo_max": hi_lo_max, "stability": stability_tol},
    )
    zs = sample_ball(rng_stream(seed, 201), chart.n, pairs, radius)
    rng = rng_stream(seed, 202)
    idx = rng.integers(0, pairs, size=(pairs, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    if not idx.shape[0]:
        raise ValueError("cinematic-check: no sampled pair has two distinct indices into zs")
    W = zs[idx[:, 0]] - zs[idx[:, 1]]
    base = projmap.survey_family(chart, W, grid)
    fine = projmap.survey_family(chart, W, 2 * base.grid_per_axis - 1)
    for tag, r in (("base", base), ("doubled", fine)):
        mesh = 1.0 / (r.grid_per_axis - 1)
        rep.counters[f"survey_family.grid{r.grid_per_axis}.pairs"] = r.samples
        rep.counters[f"survey_family.grid{r.grid_per_axis}.uncertified"] = r.uncertified
        if r.uncertified:
            rep.notes.append(f"{r.uncertified} of {r.samples} pairs uncertified on the "
                             f"{r.grid_per_axis}-per-axis grid; K_est is not certified")
        else:
            rep.record(mesh, f"K_est_{tag}", r.K_est, samples=r.samples)
        rep.record(mesh, f"min_certified_ratio_{tag}", r.min_ratio, samples=r.samples)
        rep.record(mesh, f"bilipschitz_lo_{tag}", r.bilipschitz_lo, samples=r.samples)
        rep.record(mesh, f"bilipschitz_hi_{tag}", r.bilipschitz_hi, samples=r.samples)
    # a packing count of the centers zs, which no grid enters
    doubling = projmap._doubling_estimate(zs, rng)
    rep.record(0.0, "doubling", doubling, samples=base.samples)
    certified = base.all_certified and fine.all_certified
    # an uncertified survey has no finite constant whose drift could be read
    drift = abs(fine.K_est / base.K_est - 1.0) if certified else None
    rep.checks["all_certified"] = certified
    rep.checks["hi_lo_ratio"] = base.bilipschitz_hi / base.bilipschitz_lo
    rep.checks["hi_lo_ok"] = bool(rep.checks["hi_lo_ratio"] < hi_lo_max)
    rep.checks["K_drift"] = drift
    rep.checks["K_stable"] = certified and drift <= stability_tol
    rep.fits["K_est"] = fine.K_est if certified else None
    rep.fits["doubling"] = doubling
    ok = rep.checks["all_certified"] and rep.checks["hi_lo_ok"] and rep.checks["K_stable"]
    rep.verdict = "pass" if ok else "fail"
    return rep


def _aligned_pair(chart: ManifoldChart, rng: np.random.Generator, u: float) -> np.ndarray:
    """The displacement w = z' - z of two centers straddling a cone
    direction: their graphs meet near x0, so the intersection volume follows
    the V ~ delta^(2n-3)/d scaling."""
    n = chart.n
    x0 = rng.random(chart.dim)
    center = sample_ball(rng, n, 1, 0.2)[0]
    direction = chart.point(x0[None, :])[0]
    z = center - 0.5 * u * direction
    zp = center + 0.5 * u * direction
    return zp - z


@_timed
def run_pair_volume_sweep(
    chart: ManifoldChart,
    seed: int,
    u_ladder=(0.5, 0.25, 0.125, 0.0625, 0.03125),
    pairs_per_u: int = 4,
    deltas=(2.0**-8, 2.0**-9, 2.0**-10, 2.0**-11),
    samples: int = 1_000_000,
    tol_d: float = 0.25,
    tol_delta: float = 0.25,
    min_hits: int = 100,
) -> ExperimentReport:
    """Scaling of pair slab-intersection volumes in the C2 distance and in
    delta.  Expected exponents: -(n-2) in distance, 2n-3 in delta."""
    n = chart.n
    rep = ExperimentReport(
        "pair-volume",
        {
            "chart": chart.describe(),
            "u_ladder": [float(u) for u in u_ladder],
            "pairs_per_u": pairs_per_u,
            "deltas": [float(d) for d in deltas],
            "samples": samples,
        },
        seed,
        tolerances={"d_exponent": tol_d, "delta_exponent": tol_delta, "min_hits": min_hits},
    )
    max_delta = max(deltas)
    rows = []
    pair_id = 0
    aborted = 0
    tally = {"samples": 0, "evaluated": 0, "hits": 0}
    for u in u_ladder:
        for j in range(pairs_per_u):
            w = _aligned_pair(chart, rng_stream(seed, 301, pair_id), u)
            dc2 = projmap.c2_distance(chart, w).value
            if dc2 < max_delta:
                rep.notes.append(f"pair {pair_id} below the separation precondition; skipped")
                pair_id += 1
                continue
            for delta in deltas:
                vol = projmap.pair_intersection_volume(
                    chart, w, delta, samples, rng_stream(seed, 302, pair_id, round(-math.log2(delta)))
                )
                rep.record(delta, f"pair{pair_id:02d}_volume", vol.value, vol.stderr, vol.samples)
                tally["samples"] += vol.samples
                tally["evaluated"] += vol.evaluated
                tally["hits"] += vol.hits
                if vol.hits < min_hits:
                    aborted += 1
                    rep.notes.append(
                        f"pair {pair_id} delta {delta:g}: {vol.hits} hits, excluded"
                    )
                    continue
                rows.append((dc2, delta, vol.value))
            rep.record(0.0, f"pair{pair_id:02d}_c2_distance", dc2)
            pair_id += 1
    rep.counters = {f"pair_intersection_volume.{k}": v for k, v in tally.items()}
    rep.checks["aborted_measurements"] = aborted
    dvals = sorted({r[0] for r in rows})
    dels = sorted({r[1] for r in rows})
    if len(rows) < 3 or (len(dvals) < 2 and len(dels) < 2):
        rep.fits["d_exponent"] = None
        rep.fits["delta_exponent"] = None
        rep.notes.append("insufficient data for exponent fits")
        rep.verdict = "insufficient"
        return rep
    logv = np.log2([r[2] for r in rows])
    cols = [np.ones(len(rows))]
    names = []
    if len(dvals) >= 2:
        cols.append(np.log2([r[0] for r in rows]))
        names.append("d_exponent")
    if len(dels) >= 2:
        cols.append(np.log2([r[1] for r in rows]))
        names.append("delta_exponent")
    A = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(A, logv, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    fits = dict(zip(names, coef[1:]))
    rep.fits["d_exponent"] = float(fits.get("d_exponent")) if "d_exponent" in fits else None
    rep.fits["delta_exponent"] = (
        float(fits.get("delta_exponent")) if "delta_exponent" in fits else None
    )
    rep.fits["r2"] = r2
    rep.fits["rows"] = len(rows)
    ok = True
    if rep.fits["d_exponent"] is not None:
        ok = ok and abs(rep.fits["d_exponent"] + (n - 2)) <= tol_d
    if rep.fits["delta_exponent"] is not None:
        ok = ok and abs(rep.fits["delta_exponent"] - (2 * n - 3)) <= tol_delta
    rep.verdict = _refuse_low_r2(rep, ok, r2)
    return rep


def _note_dropped_roots(rep: ExperimentReport, label: str, cuts) -> None:
    # a root that missed the cone could hide a third intersection point
    if cuts.dropped:
        rep.notes.append(f"{label}: {cuts.dropped} bracketed root(s) not polished onto the cone")


@_timed
def run_cone_incidence(
    chart: ManifoldChart,
    seed: int,
    a: float = 0.3,
    sweep_lines: int = 200,
    check_lines: int = 1000,
    deltas=(2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9),
    samples: int = 60_000,
    tol: float = 0.3,
    component_delta: float = 2.0**-8,
) -> ExperimentReport:
    """Tube-volume scaling on transversal secants plus the hard incidence
    caps: never more than 2 intersection points or tube components."""
    n = chart.n
    rep = ExperimentReport(
        "cone-incidence",
        {
            "chart": chart.describe(),
            "a": a,
            "sweep_lines": sweep_lines,
            "check_lines": check_lines,
            "deltas": [float(d) for d in deltas],
            "samples": samples,
            "component_delta": component_delta,
        },
        seed,
        tolerances={"slope": tol, "max_points": 2, "max_components": 2},
    )
    search: dict = {}  # the line searches' work, sidecar only
    lines = cones.make_transversal_lines(chart, a, sweep_lines, rng_stream(seed, 401), search)
    slopes = []
    ratios = []
    bad_fit = 0
    empty_lines = 0
    tally = {"samples": 0, "evaluated": 0, "hits": 0, "certified_hits": 0}
    min_hits = None
    dropped = 0
    for i, (line, cuts) in enumerate(lines):
        _note_dropped_roots(rep, f"line {i}", cuts)
        dropped += cuts.dropped
        vols = []
        empty = False
        for delta in deltas:
            tr = cones.line_cone_tube_volume(
                chart, line, cuts, delta, samples,
                rng_stream(seed, 402, i, round(-math.log2(delta))), a=a,
            )
            rep.record(delta, f"line{i:03d}_tube_volume", tr.volume, tr.stderr, tr.samples)
            tally["samples"] += tr.samples
            tally["evaluated"] += tr.evaluated
            tally["hits"] += tr.hits
            tally["certified_hits"] += tr.certified_hits
            min_hits = tr.hits if min_hits is None else min(min_hits, tr.hits)
            vols.append(tr.volume)
            if tr.hits == 0:
                # log2 of a zero volume would turn the line's slope into NaN
                rep.notes.append(f"line {i} delta {delta:g}: no sample hit the tube; "
                                 "line kept out of the slope fit")
                empty = True
            if tr.angle_flag:
                rep.notes.append(f"line {i}: tangent angle {tr.min_tangent_angle:.3f} below a")
        if empty:
            empty_lines += 1
            continue
        ratios.extend(v / delta**n for v, delta in zip(vols, deltas))
        fit = _loglog_fit(deltas, vols)
        slopes.append(fit.slope)
        if fit.r2 < 0.9:
            bad_fit += 1
    slopes = np.array(slopes)
    fitted = slopes.size > 0
    rep.fits["slope_min"] = float(slopes.min()) if fitted else None
    rep.fits["slope_max"] = float(slopes.max()) if fitted else None
    # the np.median value, without the numpy.ma import of its first call
    ordered, half = sorted(slopes.tolist()), slopes.size // 2
    rep.fits["slope_median"] = (None if not fitted else ordered[half] if slopes.size % 2
                                else (ordered[half - 1] + ordered[half]) / 2)
    rep.fits["constant_lo"] = float(min(ratios)) if fitted else None
    rep.fits["constant_hi"] = float(max(ratios)) if fitted else None
    rep.checks["low_r2_lines"] = bad_fit
    slope_ok = bool(np.all(np.abs(slopes - n) <= tol))

    check = cones.make_transversal_lines(chart, a, check_lines, rng_stream(seed, 403), search)
    point_violations = 0
    comp_violations = 0
    for j, (line, cuts) in enumerate(check):
        _note_dropped_roots(rep, f"check line {j}", cuts)
        dropped += cuts.dropped
        if len(cuts) > 2:
            point_violations += 1
        if cones.tube_components(chart, line, component_delta) > 2:
            comp_violations += 1
    rep.counters = {f"line_cone_tube_volume.{k}": v for k, v in tally.items()}
    rep.counters["line_cone_tube_volume.min_hits"] = min_hits
    rep.counters["line_cone_points.dropped"] = dropped
    rep.counters.update(search)
    rep.checks["point_violations"] = point_violations
    rep.checks["component_violations"] = comp_violations
    rep.record(component_delta, "point_violations", point_violations, samples=check_lines)
    rep.record(component_delta, "component_violations", comp_violations, samples=check_lines)
    ok = slope_ok and point_violations == 0 and comp_violations == 0 and bad_fit == 0
    # a line left out of the slope fit was never tested
    rep.verdict = "fail" if not ok else "insufficient" if empty_lines else "pass"
    return rep


@_timed
def run_configuration_lower_bound(
    chart: ManifoldChart,
    seed: int,
    s: float,
    s_prime: float,
    deltas=(2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10, 2.0**-11),
    C: float = 1.0,
    tol: float = 0.15,
) -> ExperimentReport:
    """Covering count of the union of graph pieces over spread sets; the
    count should grow at least like delta^-(s + s')."""
    rep = ExperimentReport(
        "config-bound",
        {
            "chart": chart.describe(),
            "s": s,
            "s_prime": s_prime,
            "deltas": [float(d) for d in deltas],
            "C": C,
        },
        seed,
        tolerances={"exponent_slack": tol},
    )
    counts = []
    used = []
    for delta in deltas:
        cfg = build_configuration(chart, delta, s, s_prime, C)
        count = sets.covering_number(cfg.union_points(), delta)
        rep.record(delta, "union_covering", count, samples=cfg.centers.shape[0] * cfg.M)
        rep.record(delta, "family_size", cfg.centers.shape[0])
        rep.record(delta, "base_covering", cfg.M)
        counts.append(count)
        used.append(delta)
    ks = [-math.log2(d) for d in used]
    fit = fit_line(np.array(ks), np.log2(counts))
    rep.fits["exponent"] = fit.slope
    rep.fits["r2"] = fit.r2
    target = s + s_prime - tol
    rep.fits["target"] = target
    rep.verdict = _refuse_low_r2(rep, fit.slope >= target, fit.r2)
    return rep


def _image_dimension(chart, fractal, x, k_window, tally: dict):
    """Box dimension of the fractal's image under the frame at x, counted
    by construction pieces; adds its work to `tally` (sidecar counters)."""
    B = frame_matrices(chart, np.atleast_2d(np.asarray(x, dtype=float)))[0]
    rows, expanded = fractal.image_rows(B, k_window[1])
    fit = sets.box_dimension(rows, k_window[0], k_window[1], fractal.size)
    fit.pieces_expanded = expanded
    for name, value in (("images", 1), ("points", fractal.size),
                        ("rows_keyed", fit.rows_keyed), ("pieces_expanded", fit.pieces_expanded)):
        key = f"box_dimension.{name}"
        tally[key] = tally.get(key, 0) + value
    return fit


@_timed
def run_projection_dimension_sweep(
    chart: ManifoldChart,
    fractal: FractalSet,
    seed: int,
    x_samples: int = 200,
    k_window=(4, 10),
    band: tuple[float, float] | None = None,
    quantile: float = 0.95,
    collapse_x=None,
    collapse_max: float | None = None,
) -> ExperimentReport:
    """Box dimension of the projected fractal image across sampled
    parameters; optionally pins the collapsing parameter's image dimension."""
    if band is None:
        band = (fractal.similarity_dim - 0.15, fractal.similarity_dim + 0.15)
    rep = ExperimentReport(
        "project-dim",
        {
            "chart": chart.describe(),
            "fractal": _fractal_snapshot(fractal),
            "x_samples": x_samples,
            "k_window": list(k_window),
            "band": [float(band[0]), float(band[1])],
            "quantile": quantile,
        },
        seed,
        tolerances={"band": [float(band[0]), float(band[1])], "quantile": quantile},
    )
    lip = math.sqrt(chart.n - 1)
    if fractal.cell_side * lip > 2.0 ** (-k_window[1] - 1):
        rep.status = "aborted"
        rep.verdict = "fail"
        rep.error = (
            f"fractal cell {fractal.cell_side:.3e} under-resolves scale "
            f"2^-{k_window[1]}"
        )
        return rep
    rng = rng_stream(seed, 501)
    xs = rng.random((x_samples, chart.dim))
    estimates = []
    for i in range(x_samples):
        fitres = _image_dimension(chart, fractal, xs[i], k_window, rep.counters)
        estimates.append(fitres.slope)
        rep.record(2.0 ** -k_window[1], f"x{i:03d}_image_dim", fitres.slope, samples=fractal.size)
    est = np.array(estimates)
    frac = float(np.mean((est >= band[0]) & (est <= band[1])))
    rep.fits["in_band_fraction"] = frac
    rep.fits["dim_mean"] = float(est.mean())
    rep.fits["dim_min"] = float(est.min())
    rep.fits["dim_max"] = float(est.max())
    ok = frac >= quantile
    if collapse_x is not None:
        cfit = _image_dimension(chart, fractal, np.asarray(collapse_x, dtype=float), k_window,
                                rep.counters)
        rep.fits["collapse_dim"] = cfit.slope
        if collapse_max is not None:
            rep.checks["collapse_ok"] = bool(cfit.slope <= collapse_max)
            ok = ok and rep.checks["collapse_ok"]
    rep.verdict = "pass" if ok else "fail"
    return rep


def _fractal_snapshot(fractal: FractalSet) -> dict:
    return {
        "n": fractal.n,
        "points": int(fractal.size),
        "similarity_dim": fractal.similarity_dim,
        "cell_side": fractal.cell_side,
        "level": fractal.level,
        "generator": {k: v for k, v in fractal.generator.items()},
    }


@_timed
def run_exceptional_set_survey(
    chart: ManifoldChart,
    fractal: FractalSet,
    seed: int,
    s_grid=(0.3, 0.5),
    x_resolution_exp: int = 7,
    k_window=(4, 10),
    tol: float = 0.2,
) -> ExperimentReport:
    """Profile of the parameter set where the projected dimension drops
    below each threshold; its box-count slope should stay below s + tol and
    below the cited weaker bound s + 1 - dim Z."""
    d = chart.dim
    rep = ExperimentReport(
        "exceptional-set",
        {
            "chart": chart.describe(),
            "fractal": _fractal_snapshot(fractal),
            "s_grid": [float(s) for s in s_grid],
            "x_resolution_exp": x_resolution_exp,
            "k_window": list(k_window),
        },
        seed,
        tolerances={"slope_slack": tol},
    )
    m = 1 << x_resolution_exp
    axes = [(np.arange(m) + 0.5) / m for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in mesh], axis=-1)
    dims = np.empty(centers.shape[0])
    for i in range(centers.shape[0]):
        dims[i] = _image_dimension(chart, fractal, centers[i], k_window, rep.counters).slope
    ok = True
    for s in s_grid:
        marked = centers[dims < s]
        rep.record(2.0 ** -x_resolution_exp, f"marked_cells_s{s:g}", marked.shape[0],
                   samples=centers.shape[0])
        if marked.shape[0] < 2:
            slope = 0.0
        else:
            prof = sets.box_dimension(marked, 2, max(5, x_resolution_exp - 2))
            slope = prof.slope
        weaker = s + 1.0 - fractal.similarity_dim
        rep.fits[f"profile_slope_s{s:g}"] = float(slope)
        rep.fits[f"weaker_bound_s{s:g}"] = float(weaker)
        ok = ok and slope <= s + tol and slope <= weaker + tol
    rep.verdict = "pass" if ok else "fail"
    return rep


# Floats per block of pair-by-node dot products in `run_cone_membership_check`
# (16 MiB, twice that with its absolute value): at n = 4 the default
# 129-per-axis grid has 16,641 nodes, and a whole 4,096-pair batch would
# take 545 MB.  The maximum is per pair, so blocking changes no number.
_SCREEN_BLOCK = 2**21


@_timed
def run_cone_membership_check(
    chart: ManifoldChart,
    fractal: FractalSet,
    seed: int,
    delta: float = 2.0**-7,
    pairs: int = 1000,
    xgrid: int = 129,
    tol: float = 1e-8,
) -> ExperimentReport:
    """Pairs whose maps nearly agree somewhere must sit in each other's
    2*delta cone neighborhood; counts violations (expected none)."""
    rep = ExperimentReport(
        "cone-membership",
        {
            "chart": chart.describe(),
            "fractal": _fractal_snapshot(fractal),
            "delta": delta,
            "pairs": pairs,
            "xgrid": xgrid,
        },
        seed,
        tolerances={"distance_slack": tol},
    )
    pts = sets.separate_points(fractal.thin_to_scale(delta), delta)
    rng = rng_stream(seed, 601)
    _, sigma = chart.seed_grid(xgrid)
    # pairs per dot-product block: at most _SCREEN_BLOCK floats at a time
    rows = max(1, _SCREEN_BLOCK // sigma.shape[0])
    qualifying = []
    checked = 0
    batch = 4096
    npts = pts.shape[0]
    while len(qualifying) < pairs and checked < 400 * pairs:
        i = rng.integers(0, npts, size=batch)
        j = rng.integers(0, npts, size=batch)
        keep = i != j
        i, j = i[keep], j[keep]
        w = pts[j] - pts[i]
        # distance from w to the nearest line through a grid point Sigma(x):
        # |w - (w . Sigma) Sigma|, least where |w . Sigma| is largest
        along = np.concatenate([np.abs(w[k : k + rows] @ sigma.T).max(axis=1)
                                for k in range(0, w.shape[0], rows)])
        mins = np.sqrt(np.maximum(np.einsum("pn,pn->p", w, w) - along**2, 0.0))
        hit = np.flatnonzero(mins < 2.0 * delta)
        for h in hit:
            qualifying.append(w[h])
            if len(qualifying) >= pairs:
                break
        checked += int(i.shape[0])
    rep.checks["pairs_found"] = len(qualifying)
    rep.checks["pairs_screened"] = checked
    if len(qualifying) == 0:
        rep.verdict = "insufficient"
        rep.notes.append("no near-intersecting pairs found at this scale")
        return rep
    W = np.stack(qualifying, axis=0)
    dist = cones.cone_distance(chart, W)
    violations = int(np.count_nonzero(dist > 2.0 * delta + tol))
    rep.record(delta, "membership_violations", violations, samples=W.shape[0])
    rep.record(delta, "max_cone_distance", float(dist.max()), samples=W.shape[0])
    rep.checks["violations"] = violations
    # constructed generatrix pair: exact containment, maps agree at x0
    x0 = rng.random((1, chart.dim))
    w0 = 0.3 * chart.point(x0)[0]
    rep.checks["constructed_pair_distance"] = float(cones.cone_distance(chart, w0))
    rep.verdict = "pass" if violations == 0 else "fail"
    return rep


@_timed
def run_incidence_count(
    chart: ManifoldChart,
    fractal: FractalSet,
    seed: int,
    collapse_x,
    a: float = 0.2,
    delta: float = 2.0**-8,
    z_samples: int = 64,
    k_window=(4, 10),
    tol: float = 0.25,
    hypothesis_slack: float = 0.1,
) -> ExperimentReport:
    """Ring-stratified counts of fractal points inside cone neighborhoods.

    The cross-section is restricted to directions whose tangent plane makes
    an angle >= a/2 with the collapsing direction (the tangency locus is
    excised, mirroring the underlying case split); the cumulative count
    within radius r should then scale like r^s with s the projected
    dimension along the collapsing direction."""
    n = chart.n
    rep = ExperimentReport(
        "incidence-count",
        {
            "chart": chart.describe(),
            "fractal": _fractal_snapshot(fractal),
            "collapse_x": [float(v) for v in np.atleast_1d(collapse_x)],
            "a": a,
            "delta": delta,
            "z_samples": z_samples,
            "k_window": list(k_window),
        },
        seed,
        tolerances={"ring_exponent_slack": tol, "hypothesis_slack": hypothesis_slack},
    )
    collapse_x = np.atleast_1d(np.asarray(collapse_x, dtype=float))
    y = chart.point(collapse_x[None, :])[0]
    wfit = _image_dimension(chart, fractal, collapse_x, k_window, rep.counters)
    s_meas = wfit.slope
    rep.fits["projected_dim"] = float(s_meas)
    if s_meas > n - 2 + hypothesis_slack:
        rep.status = "aborted"
        rep.verdict = "fail"
        rep.error = f"projected dimension {s_meas:.3f} violates the <= n-2 hypothesis"
        return rep
    Y = sets.separate_points(fractal.thin_to_scale(delta), delta)
    rep.checks["separated_points"] = int(Y.shape[0])
    idx = (np.arange(z_samples, dtype=np.int64) * Y.shape[0]) // z_samples
    k = round(-math.log2(delta))
    radii = [2.0 ** -j for j in range(0, k - 1)]
    # rings wider than a quarter of the ambient ball see the whole set and
    # flatten; they are reported but kept out of the exponent fit
    fit_mask = np.array([r <= 0.25 for r in radii])
    cum = np.zeros((z_samples, len(radii)))
    cum_all = np.zeros_like(cum)
    sin_gate = math.sin(a / 2.0)
    for m, zi in enumerate(idx):
        z = Y[zi]
        w = np.delete(Y, zi, axis=0) - z
        dist, foot_params, _ = cones.cone_nearest(chart, w)
        nu = chart.normal(foot_params)
        angle_ok = np.abs(nu @ y) >= sin_gate
        member = dist < 2.0 * delta
        sep = np.linalg.norm(w, axis=1)
        for jr, r in enumerate(radii):
            inside = sep <= 2.0 * r
            cum[m, jr] = np.count_nonzero(member & angle_ok & inside)
            cum_all[m, jr] = np.count_nonzero(member & inside)
    mean_cum = cum.mean(axis=0)
    mean_all = cum_all.mean(axis=0)
    for r, v, va in zip(radii, mean_cum, mean_all):
        rep.record(delta, f"ring_count_r{r:g}", v, samples=z_samples)
        rep.record(delta, f"ring_count_unfiltered_r{r:g}", va, samples=z_samples)
    usable = fit_mask & (mean_cum >= 0.5)
    if np.count_nonzero(usable) < 2:
        rep.verdict = "insufficient"
        rep.notes.append("too few populated rings for an exponent fit")
        return rep
    fit = fit_line(
        np.log2(np.array(radii)[usable]), np.log2(mean_cum[usable])
    )
    rep.fits["ring_exponent"] = fit.slope
    rep.fits["r2"] = fit.r2
    rep.fits["target"] = float(s_meas + tol)
    mask_all = fit_mask & (mean_all >= 0.5)
    allfit = fit_line(np.log2(np.array(radii)[mask_all]), np.log2(mean_all[mask_all]))
    rep.fits["ring_exponent_unfiltered"] = allfit.slope
    rep.verdict = _refuse_low_r2(rep, fit.slope <= s_meas + tol, fit.r2)
    return rep


EXPERIMENTS = {
    "manifold-info": run_manifold_info,
    "cinematic-check": run_cinematic_check,
    "pair-volume": run_pair_volume_sweep,
    "cone-incidence": run_cone_incidence,
    "config-bound": run_configuration_lower_bound,
    "project-dim": run_projection_dimension_sweep,
    "exceptional-set": run_exceptional_set_survey,
    "cone-membership": run_cone_membership_check,
    "incidence-count": run_incidence_count,
}
