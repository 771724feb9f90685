"""Cones over a spherical cross-section chart, line intersections, tubes.

The cone with apex z over a chart Sigma is {z + r * Sigma(x), r in [-1, 1]}.
Every distance query factors through the angular nearest point on the
cross-section: for p != z with d = (p - z)/|p - z|, the distance from p to
the full cone is |p - z| * sin(theta) where theta is the spherical distance
from d to Sigma union -Sigma, as long as the radial foot r = |p-z| cos
(theta) stays inside [-1, 1]; outside, the rim point is used directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import ManifoldChart

__all__ = [
    "Cone",
    "LineSegment",
    "Cuts",
    "GeneratrixError",
    "ApexError",
    "cone_distance",
    "nearest_direction",
    "tangent_plane_angle",
    "line_cone_points",
    "line_cone_tube_volume",
    "tube_components",
    "make_transversal_lines",
    "TubeReport",
]


class GeneratrixError(ValueError):
    pass


class ApexError(ValueError):
    pass


@dataclass
class LineSegment:
    """Parametrized segment p + t*u for t in [t0, t1], |u| = 1."""

    base: np.ndarray
    direction: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        u = np.asarray(self.direction, dtype=float)
        norm = float(np.linalg.norm(u))
        if norm < 1e-14:
            raise ValueError("line direction must be nonzero")
        self.direction = u / norm

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.base + t[..., None] * self.direction

    @property
    def length(self) -> float:
        return self.t1 - self.t0

    @classmethod
    def through(cls, p, q, pad: float = 0.0):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        length = float(np.linalg.norm(q - p))
        return cls(p, q - p, -pad * length, (1.0 + pad) * length)


# ---------------------------------------------------------------------------
# angular nearest point on the cross-section


def nearest_direction(
    chart: ManifoldChart,
    dirs: np.ndarray,
    seeds_per_axis: int = 64,
    iters: int = 24,
):
    """Chart parameters maximizing dirs . Sigma(x), i.e. the angular nearest
    points on the cross-section, from the chart's `nearest_parameters`:
    closed form on caps, projected Newton from a seed grid of
    seeds_per_axis nodes per axis (at most `iters` steps) elsewhere.
    Returns (params, cosines, converged)."""
    return chart.nearest_parameters(np.atleast_2d(np.asarray(dirs, dtype=float)),
                                    seeds_per_axis, iters)


@dataclass
class Cone:
    """Two-sided cone {apex + r*Sigma(x) : r in [-1,1], x in the chart cube}."""

    chart: ManifoldChart
    apex: np.ndarray

    def __post_init__(self):
        self.apex = np.asarray(self.apex, dtype=float)
        if self.apex.shape != (self.chart.n,):
            raise ValueError("apex dimension does not match the chart")

    def surface_points(self, x, r) -> np.ndarray:
        pts = self.chart.point(np.asarray(x, dtype=float))
        return self.apex + np.asarray(r, dtype=float)[..., None] * pts

    def nearest(self, p):
        """(distance, params, radius) of the closest surface point per query."""
        return _cone_nearest(self, np.atleast_2d(np.asarray(p, dtype=float)))


def _signed_nearest(cone: Cone, d: np.ndarray):
    """Angular nearest chart parameters and cosine of the better of +d and
    -d, with the sign (+1 or -1) that won.  Both signs go to
    `nearest_direction` in one batch."""
    m = d.shape[0]
    x, cosine, _ = nearest_direction(cone.chart, np.concatenate([d, -d]))
    neg = cosine[m:] > cosine[:m]
    return (np.where(neg[:, None], x[m:], x[:m]), np.where(neg, cosine[m:], cosine[:m]),
            np.where(neg, -1.0, 1.0))


def _cone_nearest(cone: Cone, p: np.ndarray):
    rel = p - cone.apex
    dist_apex = np.linalg.norm(rel, axis=-1)
    safe = np.maximum(dist_apex, 1e-300)
    d = rel / safe[..., None]
    x, cosine, sign = _signed_nearest(cone, d)
    r = np.clip(sign * dist_apex * cosine, -1.0, 1.0)
    foot = cone.apex + r[..., None] * cone.chart.point(x)
    dist = np.linalg.norm(p - foot, axis=-1)
    # the apex itself lies on the cone (r = 0)
    dist = np.where(dist_apex < 1e-300, 0.0, np.minimum(dist, dist_apex))
    return dist, x, r


def cone_distance(cone: Cone, p) -> np.ndarray:
    """Distance from p to the cone surface; 0 exactly on generatrix points."""
    arr = np.asarray(p, dtype=float)
    single = arr.ndim == 1
    dist, _, _ = _cone_nearest(cone, np.atleast_2d(arr))
    return float(dist[0]) if single else dist


# ---------------------------------------------------------------------------
# tangent planes


def tangent_plane_angle(cone: Cone, p, line: LineSegment) -> float:
    """Angle in [0, pi/2] between the line direction and the cone's tangent
    plane at p; the plane is the normal complement of the cross-section
    normal at the radial foot, so sin(angle) = |u . nu(x)|."""
    p = np.asarray(p, dtype=float)
    dist, x, r = _cone_nearest(cone, p[None, :])
    if float(dist[0]) > 1e-8:
        raise ValueError(f"point is off the cone surface by {float(dist[0]):.3e}")
    if float(np.linalg.norm(p - cone.apex)) < 1e-12:
        raise ApexError("tangent plane undefined at the apex")
    nu = cone.chart.normal(x)[0]
    s = float(np.clip(np.abs(np.dot(line.direction, nu)), 0.0, 1.0))
    return math.asin(s)


# ---------------------------------------------------------------------------
# bracketed roots


# Bracket width at which `_refine_brackets` stops, and its step cap.
_BRACKET_TOL = 1e-12
_BRACKET_STEPS = 80


def _refine_brackets(f, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of f in the sign-change brackets [lo, hi], all refined together
    by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971).

    Each step (at most _BRACKET_STEPS) makes one batched call f(t) on the
    brackets still at least tol = _BRACKET_TOL wide.  An endpoint kept twice
    in a row has its value halved, so both ends keep moving; trial points
    stay tol/4 inside the bracket, so a root within tol/4 of an end
    collapses it.  Returns the bracket midpoints.
    """
    tol = _BRACKET_TOL
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    kept = np.zeros(lo.shape, dtype=int)  # end kept by the last step: 1 lo, -1 hi
    for _ in range(_BRACKET_STEPS):
        live = np.flatnonzero(hi - lo >= tol)
        if not live.size:
            break
        a, b, fa, fb, k = lo[live], hi[live], flo[live], fhi[live], kept[live]
        m = np.clip(b - fb * (b - a) / (fb - fa), a + 0.25 * tol, b - 0.25 * tol)
        fm = np.asarray(f(m), dtype=float)
        zero = fm == 0.0
        up = ~zero & (np.sign(fm) == np.sign(fa))  # the root lies in [m, b]
        down = ~zero & ~up
        fb = np.where(up & (k == -1), 0.5 * fb, fb)
        fa = np.where(down & (k == 1), 0.5 * fa, fa)
        lo[live] = np.where(up | zero, m, a)
        hi[live] = np.where(down | zero, m, b)
        flo[live] = np.where(up, fm, fa)
        fhi[live] = np.where(down, fm, fb)
        kept[live] = np.where(up, -1, np.where(down, 1, 0))
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# line intersections


class Cuts(list):
    """Points where a segment meets the cone, in order along the segment.

    `dropped` counts bracketed roots that `_polish_root` could not put on
    the cone; they are missing from the list, so the count may be low.
    `angles` holds `tangent_plane_angle` at each cut, in order; it is
    empty until `make_transversal_lines` fills it.
    """

    dropped: int = 0
    angles: tuple[float, ...] | list[float] = ()


def _radial_defect(cone: Cone, pts: np.ndarray):
    """Signed side indicator of the radial projection relative to the
    cross-section: (d - Sigma(xhat)) . nu(xhat) with xhat the angular nearest
    chart point of the better of +-d.  C1 away from the apex; vanishes on
    the cone."""
    rel = pts - cone.apex
    rad = np.linalg.norm(rel, axis=-1)
    d = rel / np.maximum(rad, 1e-300)[..., None]
    x, _, sign = _signed_nearest(cone, d)
    signed_d = sign[:, None] * d
    sigma = cone.chart.point(x)
    nu = cone.chart.normal(x)
    return np.einsum("...n,...n->...", signed_d - sigma, nu), x, sign < 0


def line_cone_points(
    cone: Cone,
    line: LineSegment,
    grid: int = 10_000,
) -> Cuts:
    """All intersection points of the segment with the cone surface.

    Brackets sign changes of the radial side defect along a fine t-grid,
    refines all brackets together to width _BRACKET_TOL, then polishes each
    root on the full system line(t) = apex + r*Sigma(x) and keeps roots with
    on-surface residual below 1e-10.  Segments lying inside a generatrix
    are rejected.
    """
    ts = np.linspace(line.t0, line.t1, grid)
    pts = line.point(ts)
    rel = pts - cone.apex
    rad = np.linalg.norm(rel, axis=-1)
    ok = rad > 1e-12
    if np.count_nonzero(ok) >= 2:
        d = rel[ok] / rad[ok][..., None]
        spread = np.linalg.norm(d - d[0], axis=-1)
        anti = np.linalg.norm(d + d[0], axis=-1)
        if float(np.minimum(spread, anti).max()) < 1e-8:
            raise GeneratrixError("segment lies along a single generatrix direction")
    sigma, _, _ = _radial_defect(cone, pts)
    flips = np.flatnonzero(np.sign(sigma[:-1]) * np.sign(sigma[1:]) < 0)
    roots = list(_refine_brackets(
        lambda t: _radial_defect(cone, line.point(t))[0],
        ts[flips], ts[flips + 1], sigma[flips], sigma[flips + 1],
    ))
    roots.extend(float(ts[i]) for i in np.flatnonzero(np.abs(sigma) < 1e-15))
    out = Cuts()
    seen: list[float] = []
    for t in sorted(roots):
        t = _polish_root(cone, line, float(t))
        if t is None:
            out.dropped += 1
            continue
        if any(abs(t - s) < 1e-9 * max(1.0, abs(t)) + 1e-12 for s in seen):
            continue
        if t < line.t0 - 1e-9 or t > line.t1 + 1e-9:
            continue
        seen.append(t)
        out.append(line.point(np.array([t]))[0])
    return out


def _polish_root(cone: Cone, line: LineSegment, t: float):
    """Newton on F(t, r, x) = line(t) - apex - r*Sigma(x) = 0 (n equations in
    n unknowns), seeded from the radial projection at t."""
    p = line.point(np.array([t]))
    dist, x, r = _cone_nearest(cone, p)
    x = x[0].copy()
    r = float(r[0])
    for _ in range(60):
        pt = line.point(np.array([t]))[0]
        sig = cone.chart.point(x[None, :])[0]
        J = cone.chart.jacobian(x[None, :])[0]
        F = pt - cone.apex - r * sig
        if float(np.linalg.norm(F)) < 1e-14:
            break
        M = np.concatenate(
            [line.direction[:, None], -sig[:, None], -r * J], axis=1
        )
        try:
            step = np.linalg.solve(M, -F)
        except np.linalg.LinAlgError:
            return None
        scale = min(1.0, 0.05 / max(float(np.abs(step).max()), 1e-300))
        t += float(step[0]) * scale
        r += float(step[1]) * scale
        x = np.clip(x + step[2:] * scale, 0.0, 1.0)
    resid = float(cone_distance(cone, line.point(np.array([t]))[0]))
    if resid > 1e-10:
        return None
    if abs(r) > 1.0 + 1e-9:
        return None
    return t


# ---------------------------------------------------------------------------
# tube volumes


@dataclass
class TubeReport:
    volume: float
    stderr: float
    hits: int
    samples: int
    components: int
    min_tangent_angle: float
    angle_flag: bool
    evaluated: int  # samples whose cone distance was computed


def _complement_basis(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    M = np.concatenate([u[None, :], np.eye(n)], axis=0)
    q, _ = np.linalg.qr(M.T)
    return q[:, 1:].T


def _tube_volume_exact(line: LineSegment, delta: float) -> float:
    from .util import unit_ball_volume

    n = line.base.shape[0]
    cyl = line.length * unit_ball_volume(n - 1) * delta ** (n - 1)
    caps = unit_ball_volume(n) * delta ** n
    return cyl + caps


# Slack added to the node threshold of the tube pruning rule.  A computed
# cone distance is the distance to an actual cone point, so it can only
# overestimate, and an overestimate at a grid node could rule out a real hit.
# The overestimate is about |p - apex| times the error in the sine of the
# angle to the cross-section.  The nodes that matter lie within 1 + 3*delta
# of the apex (the cone lies in the unit ball around it).  The largest sine
# error `nearest_direction` was measured to make is 3.2e-16: on caps and
# perturbed caps at n = 3 and n = 4 (40,000 and 8,000 random points),
# against 200 projected Newton steps with no stopping rule; on the n = 4
# cap the cosines were also within 3.3e-16 of the exact optimum over the
# parameter cube.  1e-4 stays as margin for charts the measurement does not
# cover and for rows whose `converged` flag is False.
_NODE_SLACK = 1e-4


def _distance_grid(cone: Cone, line: LineSegment, delta: float) -> np.ndarray:
    """Cone distance at the nodes t0, t0 + s, ... (s = delta/4, covering
    [t0, t1]) along the segment."""
    step = delta / 4.0
    return cone_distance(cone, line.point(np.arange(line.t0, line.t1 + step, step)))


def _slice_components(node_dist: np.ndarray, delta: float) -> int:
    near = node_dist < 2.0 * delta
    return int(np.count_nonzero(np.diff(near.astype(int)) == 1) + int(near[0]))


def _check_tube_args(delta: float, samples: int = 1) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")


def tube_components(cone: Cone, line: LineSegment, delta: float) -> int:
    """Connected components of the 2*delta cone slice along the line,
    discretized at step delta/4 (components have length >= delta)."""
    _check_tube_args(delta)
    return _slice_components(_distance_grid(cone, line, delta), delta)


def line_cone_tube_volume(
    cone: Cone,
    line: LineSegment,
    cuts: Cuts,
    delta: float,
    samples: int,
    rng: np.random.Generator,
    a: float | None = None,
) -> TubeReport:
    """Monte Carlo volume of (cone delta-neighborhood) intersect (line
    delta-tube), plus the component count of the 2*delta slice along the
    line (discretized at step delta/4; true components have length >= delta).

    Both read one distance grid: the cone distance at the nodes of step
    s = delta/4 along the segment.  A tube sample p whose axial foot is
    nearest node t_g lies within delta + s/2 of line(t_g), so, the distance
    to the cone being 1-Lipschitz, p cannot hit (distance < delta) when the
    node's distance is at least 2*delta + s/2.  The cone distance is
    computed only for the other samples; the node threshold carries a fixed
    slack `_NODE_SLACK` = 1e-4 against overestimated node distances.

    A sample is drawn as an axial parameter ts in [t0 - delta, t1 + delta]
    and a radial offset of length `radius` orthogonal to the direction, so
    its foot is clip(ts, t0, t1) and its squared distance to the segment is
    (ts - foot)**2 + radius**2.  The end-cap test and the nearest node are
    read from the draws; the point itself is built only for the samples the
    node bound cannot rule out.  Every sample is still drawn and tested, so
    `samples` counts the draws inside the tube and `hits` equals the count
    over all of them; `evaluated` says how many cone distances were
    computed.  Raises ValueError unless delta is finite and positive and
    samples >= 1.

    Tangent angles are read from `cuts.angles` (the cuts and angles of
    `make_transversal_lines`) at the cuts at least 10*delta from the apex;
    a transversality parameter `a` below any of them flags the report
    instead of failing it.
    """
    _check_tube_args(delta, samples)
    n = line.base.shape[0]
    ts = rng.uniform(line.t0 - delta, line.t1 + delta, size=samples)
    radial = rng.standard_normal((samples, n - 1))
    radius = delta * rng.uniform(0.0, 1.0, size=samples) ** (1.0 / (n - 1))
    # the complement basis is orthonormal and orthogonal to the direction,
    # so a draw's axial foot is its clamped ts; keep the draws inside the
    # segment tube (spherical end caps)
    tt = np.clip(ts, line.t0, line.t1)
    inside = (ts - tt) ** 2 + radius**2 < delta**2
    drawn = int(np.count_nonzero(inside))
    node_dist = _distance_grid(cone, line, delta)
    step = delta / 4.0
    nearest = np.minimum(np.rint((tt - line.t0) / step).astype(int), node_dist.size - 1)
    live = np.flatnonzero(
        inside & (node_dist[nearest] < 2.0 * delta + 0.5 * step + _NODE_SLACK))
    basis = _complement_basis(line.direction)
    hits = 0
    chunk = 262_144
    for i in range(0, live.size, chunk):
        rows = live[i : i + chunk]
        unit = radial[rows]
        unit /= np.maximum(np.linalg.norm(unit, axis=1, keepdims=True), 1e-300)
        pts = line.point(ts[rows]) + (unit * radius[rows, None]) @ basis
        hits += int(np.count_nonzero(cone_distance(cone, pts) < delta))
    frac = hits / max(drawn, 1)
    vol_tube = _tube_volume_exact(line, delta)
    volume = frac * vol_tube
    stderr = vol_tube * math.sqrt(max(frac * (1.0 - frac), 0.0) / max(drawn, 1))
    components = _slice_components(node_dist, delta)

    min_angle = math.pi / 2.0
    for q, angle in zip(cuts, cuts.angles, strict=True):
        if float(np.linalg.norm(q - cone.apex)) >= 10.0 * delta:
            min_angle = min(min_angle, angle)
    flag = a is not None and min_angle < a
    return TubeReport(volume, stderr, hits, drawn, components, min_angle, flag, int(live.size))


_MAX_TRIES = 50


def make_transversal_lines(
    cone: Cone,
    a: float,
    count: int,
    rng: np.random.Generator,
) -> list[tuple[LineSegment, Cuts]]:
    """Random secant lines whose tangent angle at every intersection point
    is at least `a`, each paired with its cuts and their angles (no cut of
    an accepted line lies within 0.05 of the apex); at most _MAX_TRIES
    candidates per requested line."""
    out: list[tuple[LineSegment, Cuts]] = []
    tries = 0
    while len(out) < count and tries < _MAX_TRIES * count:
        tries += 1
        x = rng.uniform(0.05, 0.95, size=(2, cone.chart.dim))
        r = rng.uniform(0.35, 0.9, size=2)
        p, q = cone.surface_points(x, r)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        line = LineSegment.through(p, q, pad=0.15)
        try:
            cuts = line_cone_points(cone, line, grid=4000)
        except GeneratrixError:
            continue
        if not cuts:
            continue
        angles = []
        for c in cuts:
            if float(np.linalg.norm(c - cone.apex)) < 0.05:
                break
            angles.append(tangent_plane_angle(cone, c, line))
        else:
            if angles and min(angles) >= a:
                cuts.angles = angles
                out.append((line, cuts))
    if len(out) < count:
        raise RuntimeError(f"only found {len(out)} of {count} transversal lines")
    return out
