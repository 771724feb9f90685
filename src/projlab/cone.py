"""Cones over a spherical cross-section chart, line intersections, tubes.

The cone over a chart Sigma is {r * Sigma(x), r in [-1, 1]}: its apex is
the origin, and a caller whose apex is z passes p - z.  The projection maps
f_y, f_z are linear in the displacement, so their incidences are read at
w = y - z against this cone.  Every distance query factors through the
angular nearest point on the cross-section: for p != 0 with d = p/|p|, the
distance from p to the full cone is |p| * sin(theta) where theta is the
spherical distance from d to Sigma union -Sigma, as long as the radial foot
r = |p| cos(theta) stays inside [-1, 1]; outside, the rim point is used
directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import ManifoldChart
from .util import check_volume_args, unit_ball_volume

__all__ = [
    "LineSegment",
    "Cuts",
    "GeneratrixError",
    "ApexError",
    "cone_distance",
    "cone_nearest",
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


# Rounding slack on `ManifoldChart.cosine_bound`: a computed cosine can
# exceed the exact optimum by a few ulps.
_BOUND_SLACK = 1e-12


def _signed_nearest(chart: ManifoldChart, d: np.ndarray):
    """Angular nearest chart parameters and cosine of the better of +d and
    -d, with the sign (+1 or -1) that won.

    -d wins only with a strictly larger cosine, so it goes to
    `nearest_direction` only on the rows where the chart's cosine bound for
    -d (plus _BOUND_SLACK) reaches the cosine of +d; elsewhere +d wins."""
    x, cosine, _ = nearest_direction(chart, d)
    sign = np.ones(d.shape[0])
    rows = np.flatnonzero(chart.cosine_bound(-d) + _BOUND_SLACK >= cosine)
    if rows.size:
        x_neg, cos_neg, _ = nearest_direction(chart, -d[rows])
        neg = cos_neg > cosine[rows]
        rows = rows[neg]
        x[rows], cosine[rows], sign[rows] = x_neg[neg], cos_neg[neg], -1.0
    return x, cosine, sign


def cone_nearest(chart: ManifoldChart, p: np.ndarray):
    """(distance, params, radius) of the closest cone point to each row of p."""
    dist_apex = np.linalg.norm(p, axis=-1)
    safe = np.maximum(dist_apex, 1e-300)
    d = p / safe[..., None]
    x, cosine, sign = _signed_nearest(chart, d)
    r = np.clip(sign * dist_apex * cosine, -1.0, 1.0)
    dist = np.linalg.norm(p - r[..., None] * chart.point(x), axis=-1)
    # the apex itself lies on the cone (r = 0)
    dist = np.where(dist_apex < 1e-300, 0.0, np.minimum(dist, dist_apex))
    return dist, x, r


def cone_distance(chart: ManifoldChart, p) -> np.ndarray:
    """Distance from p to the cone surface; 0 exactly on generatrix points."""
    arr = np.asarray(p, dtype=float)
    single = arr.ndim == 1
    dist, _, _ = cone_nearest(chart, np.atleast_2d(arr))
    return float(dist[0]) if single else dist


# ---------------------------------------------------------------------------
# tangent planes


def tangent_plane_angle(chart: ManifoldChart, p, line: LineSegment) -> float:
    """Angle in [0, pi/2] between the line direction and the cone's tangent
    plane at p; the plane is the normal complement of the cross-section
    normal at the radial foot, so sin(angle) = |u . nu(x)|."""
    p = np.asarray(p, dtype=float)
    dist, x, _ = cone_nearest(chart, p[None, :])
    if float(dist[0]) > 1e-8:
        raise ValueError(f"point is off the cone surface by {float(dist[0]):.3e}")
    if float(np.linalg.norm(p)) < 1e-12:
        raise ApexError("tangent plane undefined at the apex")
    return _plane_angle(line.direction, chart.normal(x)[0])


def _plane_angle(u: np.ndarray, nu: np.ndarray) -> float:
    """asin|u . nu|: the angle between the unit direction u and the plane
    with unit normal nu.  One row at a time: a batched product can differ
    from this in the last bit."""
    return math.asin(float(np.clip(np.abs(np.dot(u, nu)), 0.0, 1.0)))


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

    `angles` holds the tangent angle (`tangent_plane_angle`) at each cut, in
    order.  `dropped` counts bracketed roots that no nearest-point query put
    within 1e-10 of the cone; they are missing from the list, so the count
    may be low.
    """

    dropped: int = 0
    angles: tuple[float, ...] | list[float] = ()


def _radial_defect(chart: ManifoldChart, pts: np.ndarray) -> np.ndarray:
    """Signed side indicator of the radial projection relative to the
    cross-section: (d - Sigma(xhat)) . nu(xhat) with xhat the angular nearest
    chart point of the better of +-d.  C1 away from the apex; vanishes on
    the cone."""
    rad = np.linalg.norm(pts, axis=-1)
    d = pts / np.maximum(rad, 1e-300)[..., None]
    x, _, sign = _signed_nearest(chart, d)
    signed_d = sign[:, None] * d
    return np.einsum("...n,...n->...", signed_d - chart.point(x), chart.normal(x))


def _settle_roots(chart: ManifoldChart, line: LineSegment, ts: np.ndarray):
    """(distance to the cone, foot parameters) at line(t) for each root t,
    from one batched nearest-point query."""
    dist, x, _ = cone_nearest(chart, line.point(ts))
    return dist, x


def line_cone_points(
    chart: ManifoldChart,
    line: LineSegment,
    grid: int = 10_000,
) -> Cuts:
    """All intersection points of the segment with the cone surface, with
    their tangent angles.

    Brackets sign changes of the radial side defect along a fine t-grid and
    refines all brackets together to width _BRACKET_TOL.  One nearest-point
    query at the roots then settles them: a root is kept where its distance
    to the (finite) cone is at most 1e-10, which rejects sign changes past
    the rim, and its tangent angle is read from the query's foot.  Segments
    lying inside a generatrix are rejected.
    """
    ts = np.linspace(line.t0, line.t1, grid)
    pts = line.point(ts)
    rad = np.linalg.norm(pts, axis=-1)
    ok = rad > 1e-12
    if np.count_nonzero(ok) >= 2:
        d = pts[ok] / rad[ok][..., None]
        spread = np.linalg.norm(d - d[0], axis=-1)
        anti = np.linalg.norm(d + d[0], axis=-1)
        if float(np.minimum(spread, anti).max()) < 1e-8:
            raise GeneratrixError("segment lies along a single generatrix direction")
    sigma = _radial_defect(chart, pts)
    flips = np.flatnonzero(np.sign(sigma[:-1]) * np.sign(sigma[1:]) < 0)
    # `sorted`: a line has a few roots, and np.sort's kernels would add their
    # code pages to the peak RSS of a run
    roots = np.array(sorted([
        *_refine_brackets(lambda t: _radial_defect(chart, line.point(t)),
                          ts[flips], ts[flips + 1], sigma[flips], sigma[flips + 1]),
        *ts[np.abs(sigma) < 1e-15],
    ]))
    dist, x = _settle_roots(chart, line, roots)
    out = Cuts()
    out.angles = []
    last = None
    for t, p, resid, nu in zip(roots, line.point(roots), dist, chart.normal(x)):
        if resid > 1e-10:
            out.dropped += 1
        elif last is None or t - last >= 1e-9 * max(1.0, abs(t)) + 1e-12:
            last = t
            out.append(p)
            out.angles.append(_plane_angle(line.direction, nu))
    return out


# ---------------------------------------------------------------------------
# tube volumes


@dataclass
class TubeReport:
    volume: float
    stderr: float
    hits: int
    samples: int
    min_tangent_angle: float
    angle_flag: bool
    evaluated: int  # samples whose cone distance was computed
    certified_hits: int  # hits decided by the node bracket, without a cone distance


def _complement_basis(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    M = np.concatenate([u[None, :], np.eye(n)], axis=0)
    q, _ = np.linalg.qr(M.T)
    return q[:, 1:].T


def _tube_volume_exact(line: LineSegment, delta: float) -> float:
    n = line.base.shape[0]
    cyl = line.length * unit_ball_volume(n - 1) * delta ** (n - 1)
    caps = unit_ball_volume(n) * delta ** n
    return cyl + caps


# Slack added to the node threshold of the tube pruning rule and to both
# bounds of the per-sample bracket.  A computed cone distance is the
# distance to an actual cone point, so it can only overestimate, and an
# overestimate at a grid node could rule out a real hit.  The
# overestimate is about |p| times the error in the sine of the angle to the
# cross-section.  The nodes that matter lie within 1 + 3*delta of the
# apex (the cone lies in the unit ball around it).  The largest sine
# error `nearest_direction` was measured to make is 3.3e-16, against 200
# projected Newton steps with no stopping rule: on caps at n = 3 and n = 4
# (40,000 and 8,000 random points), and on the closed-form perturbed caps
# (c = +-0.6, frequency 2, amplitude 0.01 at n = 3 and 0.005 at n = 4;
# 80,000 and 16,000 directions, signed pairs, half near the chart).  On the
# n = 4 cap the cosines were also within 3.3e-16 of the exact optimum over
# the parameter cube.  1e-4 stays as margin for charts the measurement does
# not cover and for rows whose `converged` flag is False.
_NODE_SLACK = 1e-4


def _distance_grid(chart: ManifoldChart, line: LineSegment, delta: float):
    """The nodes t0, t0 + s, ... (s = delta/4, covering [t0, t1]) along the
    segment and the cone distance at each."""
    step = delta / 4.0
    nodes = np.arange(line.t0, line.t1 + step, step)
    return nodes, cone_distance(chart, line.point(nodes))


def tube_components(chart: ManifoldChart, line: LineSegment, delta: float) -> int:
    """Connected components of the 2*delta cone slice along the line,
    discretized at step delta/4 (components have length >= delta)."""
    check_volume_args(delta)
    near = _distance_grid(chart, line, delta)[1] < 2.0 * delta
    return int(np.count_nonzero(np.diff(near.astype(int)) == 1) + int(near[0]))


def _tube_nodes(chart: ManifoldChart, line: LineSegment, delta: float):
    """The `_distance_grid` nodes that own axial intervals of the tube, their
    cone distances, the interval edges and which nodes are live.

    Node g owns [edges[g], edges[g + 1]): the draws whose clamped foot
    rounds to it.  A tube sample there lies within delta + s/2 of line(t_g),
    so it cannot hit unless the node is live: its distance is below
    2*delta + s/2 (plus `_NODE_SLACK`).
    """
    step = delta / 4.0
    nodes, node_dist = _distance_grid(chart, line, delta)
    last = min(int(np.rint(line.length / step)), nodes.size - 1)
    nodes, node_dist = nodes[: last + 1], node_dist[: last + 1]
    edges = np.concatenate([[line.t0 - delta], 0.5 * (nodes[:-1] + nodes[1:]),
                            [line.t1 + delta]])
    return nodes, node_dist, edges, node_dist < 2.0 * delta + 0.5 * step + _NODE_SLACK


def _bracket(near: np.ndarray, rho: np.ndarray, delta: float):
    """(sure hit, undecided) masks of samples at distance rho from a node
    whose cone distance is `near`; the rest surely miss.  The cone distance
    is 1-Lipschitz, so a sample's lies within rho of the node's."""
    sure = near + rho < delta - _NODE_SLACK
    return sure, ~sure & (near - rho < delta + _NODE_SLACK)


def line_cone_tube_volume(
    chart: ManifoldChart,
    line: LineSegment,
    cuts: Cuts,
    delta: float,
    samples: int,
    rng: np.random.Generator,
    a: float | None = None,
) -> TubeReport:
    """Monte Carlo volume of (cone delta-neighborhood) intersect (line
    delta-tube).

    A sample is an axial parameter ts uniform in [t0 - delta, t1 + delta]
    and a radial offset of length `radius` orthogonal to the direction, so
    its foot is clip(ts, t0, t1); it lies in the tube (spherical end caps)
    when (ts - foot)**2 + radius**2 < delta**2, and `samples` counts those.
    The cone distance is first taken at the nodes t_g of step s = delta/4
    along the segment (`_tube_nodes`).  A sample in the axial interval of a
    dead node cannot hit, so only draws in live intervals are made
    (binomial thinning; Owen, Monte Carlo theory, methods and examples,
    ch. 8-9): `samples` draws split Multinomial over the live intervals,
    the dead ones inside [t0, t1] (all in the tube) and the dead end
    regions, where a draw is in the tube with probability
    q = V_n / (2 V_(n-1)).  Live draws are uniform on their intervals.
    Each lies at rho = sqrt((ts - t_g)**2 + radius**2) from line(t_g), and
    `_bracket` decides it from the node distance and rho alone where it
    can; the cone distance is computed only for the rest.  So volume,
    stderr, `hits` and `samples` have the law of drawing all `samples`;
    `certified_hits` counts the hits the bracket decided and `evaluated`
    the cone distances computed.  Both bounds carry the slack
    `_NODE_SLACK` = 1e-4 against misestimated distances.  Raises
    ValueError unless delta is finite and positive and samples >= 1.

    Tangent angles are read from `cuts.angles` (the cuts and angles of
    `make_transversal_lines`) at the cuts at least 10*delta from the apex;
    a transversality parameter `a` below any of them flags the report
    instead of failing it.
    """
    check_volume_args(delta, samples)
    n = line.base.shape[0]
    nodes, node_dist, edges, live = _tube_nodes(chart, line, delta)
    lo, hi = edges[:-1], edges[1:]
    interior = np.clip(hi, line.t0, line.t1) - np.clip(lo, line.t0, line.t1)
    shares = np.array([(hi - lo)[live].sum(), interior[~live].sum(),
                       (hi - lo - interior)[~live].sum()])
    drawn_live, dead, dead_cap = rng.multinomial(samples, shares / shares.sum())
    # a draw in an end region is in the tube with the half-ball's share
    cap_share = unit_ball_volume(n) / (2.0 * unit_ball_volume(n - 1))
    drawn = int(dead) + int(rng.binomial(dead_cap, cap_share))
    owner = np.flatnonzero(live)
    width = (hi - lo)[owner]
    start = np.cumsum(width) - width
    u = rng.uniform(0.0, start[-1] + width[-1], size=drawn_live) if drawn_live else np.empty(0)
    k = np.searchsorted(start, u, side="right") - 1
    g = owner[k]
    ts = np.minimum(lo[g] + (u - start[k]), hi[g])
    radial = rng.standard_normal((drawn_live, n - 1))
    radius = delta * rng.uniform(0.0, 1.0, size=drawn_live) ** (1.0 / (n - 1))
    # the complement basis is orthonormal and orthogonal to the direction,
    # so a draw's axial foot is its clamped ts
    tt = np.clip(ts, line.t0, line.t1)
    inside = (ts - tt) ** 2 + radius**2 < delta**2
    drawn += int(np.count_nonzero(inside))
    sure, undecided = _bracket(node_dist[g], np.hypot(ts - nodes[g], radius), delta)
    evaluate = np.flatnonzero(inside & undecided)
    certified = int(np.count_nonzero(inside & sure))
    hits = certified
    basis = _complement_basis(line.direction)
    chunk = 262_144
    for i in range(0, evaluate.size, chunk):
        rows = evaluate[i : i + chunk]
        unit = radial[rows]
        unit /= np.maximum(np.linalg.norm(unit, axis=1, keepdims=True), 1e-300)
        pts = line.point(ts[rows]) + (unit * radius[rows, None]) @ basis
        hits += int(np.count_nonzero(cone_distance(chart, pts) < delta))
    frac = hits / max(drawn, 1)
    vol_tube = _tube_volume_exact(line, delta)
    volume = frac * vol_tube
    stderr = vol_tube * math.sqrt(max(frac * (1.0 - frac), 0.0) / max(drawn, 1))

    min_angle = math.pi / 2.0
    for q, angle in zip(cuts, cuts.angles, strict=True):
        if float(np.linalg.norm(q)) >= 10.0 * delta:
            min_angle = min(min_angle, angle)
    flag = a is not None and min_angle < a
    return TubeReport(volume, stderr, hits, drawn, min_angle, flag, int(evaluate.size), certified)


_MAX_TRIES = 50

# Margin of the draw-time transversality test.  The draw angle at p is the
# angle at an exact cone point, and `line_cone_points` reads it again at the
# cut there, whose error (distance below 1e-10) moves it far less than this.
_DRAW_SLACK = 1e-6


def make_transversal_lines(
    chart: ManifoldChart,
    a: float,
    count: int,
    rng: np.random.Generator,
    tally: dict | None = None,
) -> list[tuple[LineSegment, Cuts]]:
    """Random secant lines whose tangent angle at every intersection point
    is at least `a`, each paired with its cuts and their angles (no cut of
    an accepted line lies within 0.05 of the apex); at most
    _MAX_TRIES * count candidates in all.

    A candidate is the line through two cone points p = r_p Sigma(x_p) and
    q = r_q Sigma(x_q), so its tangent angles there, asin|u . nu(x_p)| and
    asin|u . nu(x_q)|, are known from the draw: a candidate with either
    below a - _DRAW_SLACK is rejected before it is cut.  `tally`, when
    given, gets the numbers of candidates drawn, rejected by the draw test
    and cut added to its `make_transversal_lines.*` keys.
    """
    out: list[tuple[LineSegment, Cuts]] = []
    counts = dict.fromkeys(("candidates", "rejected_by_draw", "cut"), 0)
    while len(out) < count and counts["candidates"] < _MAX_TRIES * count:
        counts["candidates"] += 1
        x = rng.uniform(0.05, 0.95, size=(2, chart.dim))
        r = rng.uniform(0.35, 0.9, size=2)
        p, q = r[:, None] * chart.point(x)
        if float(np.linalg.norm(p - q)) < 0.2:
            continue
        line = LineSegment.through(p, q, pad=0.15)
        if min(_plane_angle(line.direction, nu) for nu in chart.normal(x)) < a - _DRAW_SLACK:
            counts["rejected_by_draw"] += 1
            continue
        counts["cut"] += 1
        try:
            cuts = line_cone_points(chart, line, grid=4000)
        except GeneratrixError:
            continue
        if cuts and min(map(np.linalg.norm, cuts)) >= 0.05 and min(cuts.angles) >= a:
            out.append((line, cuts))
    if tally is not None:
        for name, value in counts.items():
            key = f"make_transversal_lines.{name}"
            tally[key] = tally.get(key, 0) + value
    if len(out) < count:
        raise RuntimeError(f"only found {len(out)} of {count} transversal lines")
    return out
