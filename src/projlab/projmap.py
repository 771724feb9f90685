"""Distorted projections onto the moving tangent planes of a chart.

For a chart point Sigma(x) with frame {e_1..e_(n-2), nu}, the map sends a
displacement z to f_z(x) = B(x) z = (e_1.z, ..., e_(n-2).z, nu.z), with B
from `frame_matrices`.  Everything here exploits that f_z is linear in z:
one grid of frame tensors B, dB, d2B per chart serves every map of the
family, and a difference f_y - f_z is the single map f_w at w = y - z, so
maps enter these functions as their chart and w.

C^0/C^1/C^2 suprema are measured on sample grids and reported together
with an explicit continuity margin (empirical Lipschitz constant of the
sampled quantity times the mesh half-diagonal), so infimum-type outputs
can be certified lower bounds rather than bare grid minima.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .manifold import ManifoldChart, _fd_hessian, _sample_grid, frame_matrices
from .util import check_volume_args, unit_ball_volume, unit_directions

__all__ = [
    "FrameField",
    "C2Distance",
    "MCVolume",
    "CinematicReport",
    "c2_distance",
    "vertical_slab_volume",
    "pair_intersection_volume",
    "survey_family",
]


# ---------------------------------------------------------------------------
# frame tensor fields


def _frame_derivative(chart: ManifoldChart, x: np.ndarray) -> np.ndarray:
    """d/dx of the frame rows: Hessian columns for e_i, Weingarten for nu.

    Shape (..., n-1, n, n-2): the derivative axis is last.
    """
    H = chart.hessian(x)
    dnu = chart.normal_jacobian(x)
    de = np.einsum("...kij->...ikj", H) / chart.m_sigma
    return np.concatenate([de, dnu[..., None, :, :]], axis=-3)


class FrameField:
    """The frame tensors of a chart, sampled on a regular parameter grid.

    B has shape (G, n-1, n); dB appends a derivative axis, d2B two.  Map
    values, gradients and Hessians are einsums of these against z.
    """

    def __init__(self, chart: ManifoldChart, per_axis: int | None = None):
        d = chart.dim
        if per_axis is None:
            per_axis = {1: 65, 2: 25, 3: 13}[d]
        self.chart = chart
        self.per_axis = per_axis
        self.mesh = 1.0 / (per_axis - 1)
        # every point of the cube lies within this distance of a grid node
        self.half_diag = 0.5 * self.mesh * math.sqrt(d)
        self.x = _sample_grid(d, per_axis)
        self.B = frame_matrices(chart, self.x)
        self.dB = _frame_derivative(chart, self.x)
        self.d2B = _fd_hessian(partial(_frame_derivative, chart), self.x, step=2e-4)
        self._last_stats = None

    def stats(self, w: np.ndarray):
        """`_c2_stats` of the single displacement w.  The last w's are kept:
        `c2_distance` and every delta's `_live_cells` ask for the same w."""
        w = np.asarray(w, dtype=float)
        key = w.tobytes()
        if self._last_stats is None or self._last_stats[0] != key:
            stats = _c2_stats(self, w[None, :])
            for a in stats:  # every caller shares them
                a.setflags(write=False)
            self._last_stats = (key, stats)
        return self._last_stats[1]

    # -- batched per-displacement suprema -----------------------------------

    def values(self, W) -> np.ndarray:
        """(P, G, n-1) values for a batch of displacements W (P, n)."""
        return np.einsum("gck,pk->pgc", self.B, np.atleast_2d(W))

    def gradients(self, W) -> np.ndarray:
        # dB axes: (grid, component, ambient, deriv)
        return np.einsum("gckj,pk->pgcj", self.dB, np.atleast_2d(W))

    def hessians(self, W) -> np.ndarray:
        return np.einsum("gckjl,pk->pgcjl", self.d2B, np.atleast_2d(W))


def _field(chart: ManifoldChart, per_axis: int | None) -> FrameField:
    """The chart's frame field, cached on the chart so the cache lives and
    dies with it."""
    cache = chart.__dict__.setdefault("_frame_fields", {})
    if per_axis not in cache:
        cache[per_axis] = FrameField(chart, per_axis)
    return cache[per_axis]


def _grid_lipschitz(values: np.ndarray, per_axis: int, d: int, mesh: float) -> np.ndarray:
    """Empirical Lipschitz constant of grid-sampled scalars, batch-leading.

    Maximum absolute difference between grid neighbors along each axis,
    divided by the mesh.  values shape (..., G) with G = per_axis**d.
    """
    shaped = values.reshape(values.shape[:-1] + (per_axis,) * d)
    lip = 0.0
    for axis in range(d):
        ax = axis + values.ndim - 1
        diff = np.abs(np.diff(shaped, axis=ax))
        m = diff.max(axis=tuple(range(values.ndim - 1, values.ndim - 1 + d)))
        lip = np.maximum(lip, m / mesh)
    return lip


@dataclass
class C2Distance:
    value: float  # the C^2 norm estimate: max of the three suprema
    sup_value: float
    sup_gradient: float
    sup_hessian: float
    slack: float  # continuity margin: possible excess of the true sup
    grid_per_axis: int

    @property
    def upper(self) -> float:
        return self.value + self.slack


def _c2_stats(ff: FrameField, W: np.ndarray):
    """Grid value norms and least gradient singular values (P, G), then
    per-displacement sup-norms (value, gradient op, Hessian form) and
    slacks."""
    d = ff.chart.dim
    vals = np.linalg.norm(ff.values(W), axis=-1)  # (P, G)
    sv = np.linalg.svd(ff.gradients(W), compute_uv=False)  # (P, G, d), descending
    gnorm = sv[..., 0]
    # unit_directions(1, .) is +-1, so d = 1 reads the one Hessian entry
    xi = unit_directions(d, 32 * d)
    quad = np.einsum("pgcjl,kj,kl->pgkc", ff.hessians(W), xi, xi)
    hnorm = np.linalg.norm(quad, axis=-1).max(axis=-1)
    sup_v = vals.max(axis=-1)
    sup_g = gnorm.max(axis=-1)
    sup_h = hnorm.max(axis=-1)
    lip_v = _grid_lipschitz(vals, ff.per_axis, d, ff.mesh)
    lip_g = _grid_lipschitz(gnorm, ff.per_axis, d, ff.mesh)
    lip_h = _grid_lipschitz(hnorm, ff.per_axis, d, ff.mesh)
    slack = np.maximum(np.maximum(lip_v, lip_g), lip_h) * ff.half_diag
    return vals, sv[..., -1], sup_v, sup_g, sup_h, slack


def c2_distance(chart: ManifoldChart, w: np.ndarray, per_axis: int | None = None) -> C2Distance:
    """C^2 distance of two maps f_y, f_z of the chart's family: the C^2 norm
    of the single map f_w, w = y - z."""
    ff = _field(chart, per_axis)
    _, _, sv, sg, sh, slack = ff.stats(w)
    value = float(max(sv[0], sg[0], sh[0]))
    return C2Distance(
        value=value,
        sup_value=float(sv[0]),
        sup_gradient=float(sg[0]),
        sup_hessian=float(sh[0]),
        slack=float(slack[0]),
        grid_per_axis=ff.per_axis,
    )


def _certificates(ff: FrameField, W: np.ndarray) -> dict:
    """Certified infima of |h| + |grad_xi h| over unit xi for h = B(x) w,
    per row w of W.

    The least |grad_xi h| over unit xi is the least singular value of
    grad h, so the objective is |h| + sigma_min(grad h), minimized over the
    grid nodes to `raw`.  sigma_min is 1-Lipschitz in the operator norm, so
    `raw` less the `margin`, (sup|grad| + sup|Hess|) times the mesh
    half-diagonal with each grid supremum raised by the `_c2_stats` slack
    to bound the true one (as `_live_cells` does), is a certified lower
    bound: a positive `certified` value genuinely separates the maps.
    `ratio` is certified over the C^2 norm's upper estimate `norm_upper`
    (inf when that is 0), `c1` the C^1 norm and `argmin` the grid index of
    the minimizing node; all are arrays over W.
    """
    vals, least, sup_v, sup_g, sup_h, slack = _c2_stats(ff, W)
    objective = vals + least
    raw = objective.min(axis=-1)
    margin = (sup_g + sup_h + 2.0 * slack) * ff.half_diag
    certified = raw - margin
    norm_c2 = np.maximum(np.maximum(sup_v, sup_g), sup_h)
    norm_upper = norm_c2 + slack
    ratio = np.divide(certified, norm_upper, out=np.full_like(certified, math.inf),
                      where=norm_upper > 0.0)
    return {"raw": raw, "certified": certified, "margin": margin, "norm_c2": norm_c2,
            "norm_upper": norm_upper, "ratio": ratio, "c1": np.maximum(sup_v, sup_g),
            "argmin": objective.argmin(axis=-1)}


# ---------------------------------------------------------------------------
# neighborhood volumes


@dataclass
class MCVolume:
    value: float
    stderr: float
    samples: int
    hits: int
    low_hits: bool
    evaluated: int  # draws whose frame was built


def vertical_slab_volume(n: int, delta: float) -> float:
    """Exact volume of a vertical delta-slab over the unit parameter cube.

    The fiber over each x is an (n-1)-ball of radius delta, so the slab
    volume is ball_volume * 1 independently of the map.
    """
    return unit_ball_volume(n - 1) * delta ** (n - 1)


def _lens_fraction(t, c: int) -> np.ndarray:
    """Share of a unit ball in R^c covered by a unit ball at distance t.

    The lens of two equal balls is two caps; the cap-volume identity (S. Li,
    Asian J. Math. Stat., 2011) gives I_x((c+1)/2, 1/2) with s = t/2 and
    x = 1 - s^2, which is 0 from t = 2 on.  I_x is built up in steps of 1 in
    its first argument by I_x(a+1, 1/2) = I_x(a, 1/2) - x^a s / (a B(a, 1/2))
    (DLMF 8.17(iv)) from I_x(1, 1/2) = 1 - s for odd c and I_x(1/2, 1/2) =
    1 - (2/pi) arcsin s for even c.  Working in s avoids the cancellation
    of forming 1 - x near t = 0.
    """
    s = np.minimum(np.asarray(t, dtype=float) / 2.0, 1.0)
    x = (1.0 - s) * (1.0 + s)
    if c % 2:
        a, beta, power, frac = 1.0, 2.0, x, 1.0 - s
    else:
        a, beta, power, frac = 0.5, math.pi, np.sqrt(x), 1.0 - (2.0 / math.pi) * np.arcsin(s)
    while a < 0.5 * (c + 1):
        frac = frac - power * s / (a * beta)
        beta *= a / (a + 0.5)
        power = power * x
        a += 1.0
    # rounding leaves about -2e-16 just inside s = 1 for even c
    return np.where(s == 1.0, 0.0, np.maximum(frac, 0.0))


def _live_cells(ff: FrameField, w: np.ndarray, reach: float) -> np.ndarray:
    """Flat mask over the cells of ff's grid where |B(x) w| may be < reach.

    A cell is ruled out when the least |B w| over its corners, less the
    Lipschitz bound sup|grad| + slack of `_c2_stats` times the mesh
    half-diagonal, is at least reach: every point of a cell lies within the
    half-diagonal of one of its corners.
    """
    d, k = ff.chart.dim, ff.per_axis
    vals, _, _, sup_g, _, slack = ff.stats(w)
    low = vals[0].reshape((k,) * d)
    for axis in range(d):
        low = np.minimum(low.take(range(k - 1), axis), low.take(range(1, k), axis))
    margin = (sup_g[0] + slack[0]) * ff.half_diag
    return (low - margin < reach).ravel()


def pair_intersection_volume(
    chart: ManifoldChart, w: np.ndarray, delta: float, samples: int, rng: np.random.Generator
) -> MCVolume:
    """Volume of the intersection of the vertical delta-slabs of two maps
    f_z and f_y of the chart's family, w = y - z.

    Conditional Monte Carlo (Owen, Monte Carlo theory, methods and examples,
    ch. 8): x is uniform in the cube and the fibre is integrated in closed
    form.  Over x the slab of f_z holds the delta-ball around f_z(x), and
    the slab of f_y covers the `_lens_fraction` at |f_w(x)| / delta of it.
    The estimate is slab_volume * mean fraction over `samples` uniform
    draws of x; `hits` counts the draws with |f_w(x)| < 2 delta, the only
    ones with weight.

    Only the draws that land in the cells `_live_cells` keeps are made: a
    draw anywhere else has weight exactly 0.  The cells of the frame
    field's grid have equal volume, so the number of the `samples` uniform
    draws that land in live ones is Binomial(samples, live share), and given
    that number they are iid uniform on the live cells.  The estimator draws
    the number, then for each draw a live cell and a uniform point in it
    (binomial thinning, Owen ch. 9), so value, stderr, hits and `evaluated`
    (the draws given a frame) have the law of drawing all `samples`.
    """
    check_volume_args(delta, samples)
    d, c = chart.dim, chart.n - 1
    slab = vertical_slab_volume(chart.n, delta)
    ff = _field(chart, None)
    live = _live_cells(ff, w, 2.0 * delta)
    cells = (ff.per_axis - 1,) * d
    ids = np.flatnonzero(live)
    evaluated = int(rng.binomial(samples, ids.size / live.size)) if ids.size else 0
    total = total_sq = 0.0
    hits = 0
    chunk = 32_768  # rows per frame batch, which bounds its memory
    for done in range(0, evaluated, chunk):
        m = min(chunk, evaluated - done)
        # row-major cell ids, like `_live_cells`
        cell = np.unravel_index(ids[rng.integers(0, ids.size, m)], cells)
        x = (np.stack(cell, axis=-1) + rng.random((m, d))) / cells
        t = np.linalg.norm(frame_matrices(chart, x) @ w, axis=-1) / delta
        weight = _lens_fraction(t, c)
        hits += int(np.count_nonzero(t < 2.0))
        total += float(weight.sum())
        total_sq += float(weight @ weight)
    mean = total / samples
    sd = math.sqrt(max(total_sq / samples - mean * mean, 0.0))
    out = MCVolume(value=slab * mean, stderr=slab * sd / math.sqrt(samples), samples=samples,
                   hits=hits, low_hits=hits < 100, evaluated=evaluated)
    if out.low_hits:
        warnings.warn(
            f"pair_intersection_volume: only {hits} hits at delta={delta:g}; "
            "estimate is unreliable",
            stacklevel=2,
        )
    return out


# ---------------------------------------------------------------------------
# family survey


@dataclass
class CinematicReport:
    K_est: float  # certified cinematic constant: sup of norm/infimum ratios; inf if uncertified
    bilipschitz_lo: float  # C^1 distance / displacement ratio bounds
    bilipschitz_hi: float
    samples: int
    min_ratio: float  # smallest certified infimum ratio
    all_certified: bool
    grid_per_axis: int
    uncertified: int  # pairs whose certified infimum is not positive


# Rows of W per `_certificates` call in `survey_family`.  Its peak is the
# Hessian form sample over (rows x grid x xi x components), 2.46 MiB per row
# for a cap at n = 4 on the default grid; every certificate is per row, so
# blocking changes no number.
_CERT_BLOCK = 16


def survey_family(chart: ManifoldChart, W: np.ndarray,
                  per_axis: int | None = None) -> CinematicReport:
    """Empirical cinematic constants over the pair displacements W (P, n).

    Certifies the infimum of |h| + |grad_xi h| for every row of W via one
    shared frame field; reports the certified worst-case ratio (its
    reciprocal is the cinematic constant) and C^1 bilipschitz bounds
    against |w|.
    """
    W = np.asarray(W, dtype=float)
    ff = _field(chart, per_axis)
    blocks = [_certificates(ff, W[i : i + _CERT_BLOCK])
              for i in range(0, W.shape[0], _CERT_BLOCK)]
    cert = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
    bil = cert["c1"] / np.linalg.norm(W, axis=-1)
    uncertified = int(np.count_nonzero(cert["certified"] <= 0.0))
    return CinematicReport(
        K_est=math.inf if uncertified else float(1.0 / max(cert["ratio"].min(), 1e-300)),
        bilipschitz_lo=float(bil.min()),
        bilipschitz_hi=float(bil.max()),
        samples=int(W.shape[0]),
        min_ratio=float(cert["ratio"].min()),
        all_certified=not uncertified,
        grid_per_axis=ff.per_axis,
        uncertified=uncertified,
    )


# Rows of the pairwise distance matrix per block in `_doubling_estimate`:
# 64 x 2,000 points at n = 3 is 3 MiB of differences.
_DOUBLING_BLOCK = 64


def _doubling_estimate(zs: np.ndarray, rng: np.random.Generator, trials: int = 24) -> float:
    """Largest greedy (r/2)-packing of a ball B(z, r) over `trials` draws of
    a center z from zs and of r from the positive pairwise distances.  The
    count is the same for every scaling of the metric.

    Distances are computed _DOUBLING_BLOCK rows at a time, never as the full
    matrix.  r is the k-th positive distance in row-major order for k
    uniform, which is the draw rng.choice makes over their flat array; the
    positive count per row maps k back to its row.
    """
    n = zs.shape[0]
    if n < 8:
        return float("nan")

    def rows(lo, hi):
        return np.linalg.norm(zs[lo:hi, None, :] - zs[None, :, :], axis=-1)

    counts = np.concatenate([np.count_nonzero(rows(i, i + _DOUBLING_BLOCK) > 0.0, axis=1)
                             for i in range(0, n, _DOUBLING_BLOCK)])
    ends = np.cumsum(counts)
    best = 1
    for _ in range(trials):
        center = int(rng.integers(0, n))
        k = int(rng.integers(0, ends[-1]))
        row = int(np.searchsorted(ends, k, side="right"))
        dist = rows(row, row + 1)[0]
        r = float(dist[dist > 0.0][k - (ends[row] - counts[row])])
        # greedy packing in index order: keep the first candidate, drop
        # every later one within r/2 of it, repeat
        candidates = np.flatnonzero(rows(center, center + 1)[0] <= r)
        kept = 0
        while candidates.size:
            m, rest = candidates[0], candidates[1:]
            near = np.linalg.norm(zs[m] - zs[rest], axis=-1) <= r / 2.0
            candidates = rest[~near]
            kept += 1
        best = max(best, kept)
    return float(best)
