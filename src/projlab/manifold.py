"""Curved cross-section charts on the unit sphere.

A chart maps the parameter cube [0,1]^(n-2) onto an (n-2)-dimensional C^2
submanifold of S^(n-1) whose principal curvatures all share one sign.  The
unit normal inside the sphere is oriented so the second fundamental form
(acceleration dotted with the normal) is positive definite; with that
orientation the normal field of a chart parametrizes a second manifold of
the same kind, the dual, whose principal curvatures are the reciprocals of
the original ones.

All chart evaluators are batched: parameter arrays of shape (..., n-2)
produce points (..., n), Jacobians (..., n, n-2) and Hessians
(..., n, n-2, n-2).  Charts are immutable; derived global constants are
cached lazily (worst case under concurrent first access is a duplicated
computation, never an inconsistent one).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ChartError",
    "ChartDomainError",
    "DegenerateJacobianError",
    "NonConvexityError",
    "ManifoldChart",
    "CapChart",
    "PerturbedCapChart",
    "DualChart",
    "ChartConstants",
    "frame_matrices",
    "principal_curvatures",
]

# Fourth-order central differences; the step is a compromise between
# truncation (~h^4) and cancellation (~eps/h) error for C^2 quantities.
FD_STEP = 1e-4
_FD4_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD4_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

_DEGENERATE_TOL = 1e-10

# A full Newton step shorter than this ends the angular nearest-point
# search on its row.  Convergence is quadratic, so the error after such a
# step is of the order of its square.  The value was set when perturbed
# caps had finite-difference derivatives; it stays now they are closed form.
_NEWTON_XTOL = 1e-10

# Direction-node products of the seed-grid search held at once (8 MiB): the
# grid has 64^(n-2) nodes by default, 4,096 at n = 4, so the search takes
# its directions in row blocks.
_SEED_PRODUCTS = 1 << 20


class ChartError(Exception):
    pass


class ChartDomainError(ChartError, ValueError):
    """Parameter or constructor argument outside the admissible range."""


class DegenerateJacobianError(ChartError):
    """Chart Jacobian lost rank (smallest singular value below tolerance)."""


class NonConvexityError(ChartError):
    """Principal curvatures vanish or change sign somewhere on the chart."""


# ---------------------------------------------------------------------------
# angle-product embedding of the unit (d)-sphere patch


def _sphere_embed(u: np.ndarray, order: int = 2):
    """Unit-vector embedding y(u) of d angles into R^(d+1), with derivatives.

    y_k = (prod_{i<k} sin u_i) * cos u_k for k < d, y_d = prod_i sin u_i.
    Returns (y,), (y, dy) or (y, dy, d2y) depending on `order`; derivative
    axes are appended last.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    batch = u.shape[:-1]
    s, c = np.sin(u), np.cos(u)

    def fac(kind, i, der):
        # kind: 'sin' | 'cos' | 'one'; der: derivative order 0..2
        if kind == "one":
            return None if der else 1.0
        a = s[..., i] if kind == "sin" else c[..., i]
        if der == 0:
            return a
        if der == 2:
            return -a
        b = c[..., i] if kind == "sin" else s[..., i]
        return b if kind == "sin" else -b

    def product(kinds, ders):
        out = np.ones(batch)
        for i, kind in enumerate(kinds):
            f = fac(kind, i, ders[i])
            if f is None:
                return None
            out = out * f
        return out

    comps = d + 1
    y = np.empty(batch + (comps,))
    dy = np.zeros(batch + (comps, d)) if order >= 1 else None
    d2y = np.zeros(batch + (comps, d, d)) if order >= 2 else None
    for k in range(comps):
        if k < d:
            kinds = ["sin" if i < k else ("cos" if i == k else "one") for i in range(d)]
        else:
            kinds = ["sin"] * d
        y[..., k] = product(kinds, [0] * d)
        if order >= 1:
            for j in range(d):
                ders = [1 if i == j else 0 for i in range(d)]
                v = product(kinds, ders)
                if v is not None:
                    dy[..., k, j] = v
        if order >= 2:
            for j in range(d):
                for l in range(j, d):
                    ders = [(1 if i == j else 0) + (1 if i == l else 0) for i in range(d)]
                    v = product(kinds, ders)
                    if v is not None:
                        d2y[..., k, j, l] = v
                        if l != j:
                            d2y[..., k, l, j] = v
    return (y, dy, d2y)[: order + 1]


def _fd_hessian(jacobian, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Fourth-order central difference of a Jacobian along each parameter
    axis, symmetrized: its last two axes are the two derivative axes.

    This is the one finite-difference stencil of the package; it serves
    `DualChart.hessian` and the frame field's second derivative.  Evaluation
    slightly outside [0,1]^d is deliberate: every chart formula extends
    analytically.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.shape[-1]):
        acc = 0.0  # the first term sets the shape: jacobian(x) is never needed
        for off, wgt in zip(_FD4_OFFSETS, _FD4_WEIGHTS):
            xs = x.copy()
            xs[..., j] += off * step
            acc += wgt * jacobian(xs)
        columns.append(acc / step)
    h = np.stack(columns, axis=-1)
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def _row_norm(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm takes about five times as long on a column slice
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    # solve hess s = -grad with a guard for the flat (singular) case
    d = grad.shape[-1]
    if d == 1:
        h = hess[..., 0, 0]
        safe = np.abs(h) > 1e-14
        return np.where(safe, -grad[..., 0] / np.where(safe, h, 1.0), 0.0)[..., None]
    if d == 2:
        a, b = hess[..., 0, 0], hess[..., 0, 1]
        c, e = hess[..., 1, 0], hess[..., 1, 1]
        det = a * e - b * c
        safe = np.abs(det) > 1e-14
        det = np.where(safe, det, 1.0)
        s0 = -(e * grad[..., 0] - b * grad[..., 1]) / det
        s1 = -(-c * grad[..., 0] + a * grad[..., 1]) / det
        keep = safe.astype(float)
        return np.stack([s0 * keep, s1 * keep], axis=-1)
    flat = hess.reshape(-1, d, d) + 1e-14 * np.eye(d)
    g = grad.reshape(-1, d)
    out = np.linalg.solve(flat, -g[..., None])[..., 0]
    return out.reshape(grad.shape)


# ---------------------------------------------------------------------------
# chart classes


class ManifoldChart:
    """Base chart; subclasses provide point/jacobian/hessian/normal."""

    n: int
    kind: str

    @property
    def dim(self) -> int:
        return self.n - 2

    # -- geometry kernels ---------------------------------------------------

    def point(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal(self, x: np.ndarray) -> np.ndarray:
        """Unit normal inside the sphere; II is positive definite under it."""
        raise NotImplementedError

    def normal_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d(normal)/dx via the Weingarten identity dnu = -J (J^T J)^-1 (nu . H)."""
        J = self.jacobian(x)
        H = self.hessian(x)
        nu = self.normal(x)
        gram = np.swapaxes(J, -1, -2) @ J
        ii = np.einsum("...k,...kij->...ij", nu, H)
        return -J @ np.linalg.solve(gram, ii)

    # -- cached global constants -------------------------------------------

    @cached_property
    def constants(self) -> "ChartConstants":
        return _estimate_constants(self)

    def seed_grid(self, per_axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Parameters and points of the closed grid with per_axis nodes per
        axis, cached on the chart so the cache lives and dies with it."""
        cache = self.__dict__.setdefault("_seed_grids", {})
        if per_axis not in cache:
            grid = _sample_grid(self.dim, per_axis)
            cache[per_axis] = (grid, self.point(grid))
        return cache[per_axis]

    def nearest_parameters(self, dirs: np.ndarray, seeds_per_axis: int, iters: int):
        """Parameters maximizing dirs . point(x) over the closed cube, one row
        per direction: the angular nearest points on the chart.

        Projected Newton ascent (Bertsekas, SIAM J. Control Optim. 20,
        1982) from the best node of the seed grid.  A coordinate at 0 or 1
        whose gradient points out of the cube is frozen for the step and
        Newton runs on the free ones.  Steps are capped at two grid
        spacings; a step that loses ground falls back to a projected
        gradient step one spacing long when that does better.  A row stops
        after a full Newton step shorter than _NEWTON_XTOL.  Returns
        (x, cosine, converged); `converged` is False on rows still moving
        after `iters` steps.
        """
        grid, pts = self.seed_grid(seeds_per_axis)
        best = np.empty(dirs.shape[0], dtype=np.intp)
        val = np.empty(dirs.shape[0])
        block = max(1, _SEED_PRODUCTS // pts.shape[0])
        for i in range(0, dirs.shape[0], block):
            dots = dirs[i : i + block] @ pts.T
            best[i : i + block] = np.argmax(dots, axis=1)
            val[i : i + block] = dots[np.arange(dots.shape[0]), best[i : i + block]]
        x = grid[best]
        converged = np.zeros(x.shape[0], dtype=bool)
        mesh = 1.0 / (seeds_per_axis - 1)
        eye = np.eye(self.dim)
        live = np.arange(x.shape[0])
        for _ in range(iters):
            if not live.size:
                break
            xl, dl = x[live], dirs[live]
            g = np.einsum("...nk,...n->...k", self.jacobian(xl), dl)
            hess = np.einsum("...nkl,...n->...kl", self.hessian(xl), dl)
            pinned = ((xl <= 0.0) & (g < 0.0)) | ((xl >= 1.0) & (g > 0.0))
            g = np.where(pinned, 0.0, g)
            hess = np.where(pinned[:, :, None] | pinned[:, None, :], eye, hess)
            step = _newton_step(g, hess)
            norm = np.linalg.norm(step, axis=-1)
            full = norm <= 2.0 * mesh
            step *= np.where(full, 1.0, 2.0 * mesh / np.maximum(norm, 1e-300))[:, None]
            cand = np.clip(xl + step, 0.0, 1.0)
            new = np.einsum("...n,...n->...", self.point(cand), dl)
            # at an interior max the Newton step may descend (indefinite
            # Hessian far from it); try a plain ascent step there instead
            lost = new < val[live] - 1e-15
            if np.any(lost):
                gl = g[lost]
                gnorm = np.maximum(np.linalg.norm(gl, axis=-1, keepdims=True), 1e-300)
                gstep = np.clip(xl[lost] + mesh * gl / gnorm, 0.0, 1.0)
                gval = np.einsum("...n,...n->...", self.point(gstep), dl[lost])
                better = gval > new[lost]
                cand[lost] = np.where(better[:, None], gstep, cand[lost])
                new[lost] = np.where(better, gval, new[lost])
            x[live], val[live] = cand, new
            done = full & ~lost & (norm < _NEWTON_XTOL)
            converged[live] = done
            live = live[~done]
        return x, np.clip(val, -1.0, 1.0), converged

    def cosine_bound(self, dirs: np.ndarray) -> np.ndarray:
        """Upper bound on max_x dirs . point(x), one per direction: +inf
        unless the chart knows one in closed form."""
        return np.full(dirs.shape[0], math.inf)

    @cached_property
    def _jacobian_bounds(self) -> tuple[float, float]:
        """Largest and smallest Jacobian singular value over the sample set
        of the global constants."""
        hi, lo = 0.0, math.inf
        for x in _constant_samples(self.dim):
            sv = np.linalg.svd(self.jacobian(x), compute_uv=False)
            hi = max(hi, float(np.max(sv[:, 0])))
            lo = min(lo, float(np.min(sv[:, -1])))
            if lo < _DEGENERATE_TOL:
                raise DegenerateJacobianError(
                    f"chart Jacobian degenerates on the sample set (min sv {lo:.3e})"
                )
        return hi, lo

    def dual(self) -> "ManifoldChart":
        return DualChart(self)

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n}


class CapChart(ManifoldChart):
    """Horizontal cross-section of the sphere at height c, all in closed form.

    The section {x in S^(n-1) : x_n = c} is an (n-2)-sphere of radius
    sqrt(1-c^2).  Polar angles run over a window inside (0, pi) and the
    azimuth over slightly less than a full turn, which keeps the map
    injective on the closed cube with a nondegenerate Jacobian; all
    principal curvatures equal |c|/sqrt(1-c^2).
    """

    kind = "cap"

    # azimuth stops 1/64 turn short of closing the circle (injectivity)
    AZIMUTH_SPAN = 2.0 * math.pi * (63.0 / 64.0)
    POLAR_WINDOW = (0.25 * math.pi, 0.75 * math.pi)

    def __init__(self, n: int, c: float):
        if n < 3:
            raise ChartDomainError(f"ambient dimension must be >= 3, got {n}")
        if not (-1.0 < c < 1.0) or c == 0.0:
            raise ChartDomainError(f"cap height must lie in (-1,0) or (0,1), got {c}")
        self.n = int(n)
        self.c = float(c)
        self.radius = math.sqrt(1.0 - c * c)
        d = self.dim
        lo = [self.POLAR_WINDOW[0]] * (d - 1) + [0.0]
        hi = [self.POLAR_WINDOW[1]] * (d - 1) + [self.AZIMUTH_SPAN]
        self.lo = np.array(lo)
        self.span = np.array(hi) - self.lo

    def _angles(self, x):
        x = np.asarray(x, dtype=float)
        # slack so finite-difference stencils can reach past the corners
        if x.size and (x.min() < -0.01 or x.max() > 1.01):
            raise ChartDomainError(
                f"parameter outside [0,1]^{self.dim}: range "
                f"[{x.min():.4g}, {x.max():.4g}]"
            )
        return self.lo + x * self.span

    def _assemble(self, horiz, vert):
        out = np.concatenate([horiz, np.broadcast_to(vert, horiz.shape[:-1] + (1,))], axis=-1)
        return out

    def point(self, x):
        (y,) = _sphere_embed(self._angles(x), order=0)
        return self._assemble(self.radius * y, self.c)

    def jacobian(self, x):
        _, dy = _sphere_embed(self._angles(x), order=1)
        horiz = self.radius * dy * self.span
        pad = np.zeros(horiz.shape[:-2] + (1, self.dim))
        return np.concatenate([horiz, pad], axis=-2)

    def hessian(self, x):
        _, _, d2y = _sphere_embed(self._angles(x), order=2)
        horiz = self.radius * d2y * self.span[:, None] * self.span[None, :]
        pad = np.zeros(horiz.shape[:-3] + (1, self.dim, self.dim))
        return np.concatenate([horiz, pad], axis=-3)

    def normal(self, x):
        # (-|c| y, sign(c) radius): the orientation with positive definite
        # second fundamental form; for c > 0 the dual image sits at height
        # sqrt(1-c^2).
        (y,) = _sphere_embed(self._angles(x), order=0)
        return self._assemble(-abs(self.c) * y, math.copysign(self.radius, self.c))

    def normal_jacobian(self, x):
        _, dy = _sphere_embed(self._angles(x), order=1)
        horiz = -abs(self.c) * dy * self.span
        pad = np.zeros(horiz.shape[:-2] + (1, self.dim))
        return np.concatenate([horiz, pad], axis=-2)

    def nearest_parameters(self, dirs, seeds_per_axis, iters):
        """Closed form where it applies, projected Newton elsewhere.

        With h the horizontal part of a direction, dirs . point(x) =
        radius * (h . y) + c * dirs_n, which y = h/|h| maximizes over the
        whole sphere.  Its angles invert the embedding: polar angles
        u_k = atan2(|h_(k+1:)|, h_k) and the azimuth atan2 of the last two
        components.  At n = 3 an azimuth in the gap past AZIMUTH_SPAN goes
        to the nearer end of the window, which is the better one.  At
        n >= 4 a row is settled only when every angle lies in its window.
        Rows with h = 0 and unsettled rows go to projected Newton.
        """
        h = dirs[:, :-1]
        phi = np.mod(np.arctan2(h[:, -1], h[:, -2]), 2.0 * math.pi)
        span = self.AZIMUTH_SPAN
        if self.dim == 1:
            phi = np.where(phi <= span, phi,
                           np.where(phi - span < 2.0 * math.pi - phi, span, 0.0))
            angles = phi[:, None]
            settled = np.any(h != 0.0, axis=1)
        else:
            # |h_(k+1:)| for k = 0 .. n-4; h = 0 gives polar angles 0 or pi
            tail = np.sqrt(np.cumsum(h[:, :0:-1] ** 2, axis=1))[:, ::-1]
            polar = np.arctan2(tail[:, : self.dim - 1], h[:, : self.dim - 1])
            angles = np.concatenate([polar, phi[:, None]], axis=1)
            lo, hi = self.POLAR_WINDOW
            settled = np.all((polar >= lo) & (polar <= hi), axis=1) & (phi <= span)
        x = np.clip((angles - self.lo) / self.span, 0.0, 1.0)
        converged = np.ones(x.shape[0], dtype=bool)
        rest = np.flatnonzero(~settled)
        if rest.size:
            x[rest], _, converged[rest] = super().nearest_parameters(
                dirs[rest], seeds_per_axis, iters)
        cosine = np.einsum("...n,...n->...", self.point(x), dirs)
        return x, np.clip(cosine, -1.0, 1.0), converged

    def cosine_bound(self, dirs):
        """radius * |h| + c * dirs_n, with h the horizontal part: the optimum
        over the whole small sphere."""
        return self.radius * _row_norm(dirs[:, :-1]) + self.c * dirs[:, -1]

    def describe(self):
        return {"kind": self.kind, "n": self.n, "c": self.c}


class PerturbedCapChart(ManifoldChart):
    """Cap with a normal-direction sinusoidal ripple, renormalized to S^(n-1).

    point(x) = normalize(cap(x) + b * nu_cap(x)) with
    b = amplitude*sin(2 pi frequency x_1).  The cap's point is
    (cos(theta0) y(u), sin(theta0)) with theta0 = asin(c), and its normal is
    sign(c) times the height-angle derivative (-sin(theta0) y, cos(theta0)),
    so the ripple only turns the height angle: the point is exactly
    (cos(theta) y(u), sin(theta)) with theta = asin(c) + sign(c)*atan(b).
    Point, Jacobian, Hessian and normal are closed form, from the angle
    embedding's derivatives and the 1-D derivatives of theta in x_1.
    Construction rejects amplitudes that destroy one-signed curvature.
    """

    kind = "perturbed-cap"

    def __init__(self, n: int, c: float, amplitude: float, frequency: float):
        if amplitude < 0.0:
            raise ChartDomainError(f"amplitude must be nonnegative, got {amplitude}")
        self.base = CapChart(n, c)
        self.n = self.base.n
        self.c = self.base.c
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self._sign = math.copysign(1.0, self.c)
        self._preflight()

    def _parts(self, x, order: int):
        """Point e, unit height-angle direction e_theta, cos and sin of theta,
        theta', theta'' (trailing axis 1) and embedding derivatives to `order`."""
        x = np.asarray(x, dtype=float)
        y, *derivs = _sphere_embed(self.base._angles(x), order)
        w = 2.0 * math.pi * self.frequency
        b = self.amplitude * np.sin(w * x[..., :1])
        db = self.amplitude * w * np.cos(w * x[..., :1])
        q = 1.0 + b * b
        theta = math.asin(self.c) + self._sign * np.arctan(b)
        d1 = self._sign * db / q
        d2 = -self._sign * b * (w * w * q + 2.0 * db * db) / (q * q)
        ct, st = np.cos(theta), np.sin(theta)
        e = self.base._assemble(ct * y, st)
        e_theta = self.base._assemble(-st * y, ct)
        return e, e_theta, ct, st, d1, d2, derivs

    def point(self, x):
        return self._parts(x, 0)[0]

    def jacobian(self, x):
        # J_j = cos(theta) span_j (dy_j, 0) + [j = 0] theta' e_theta
        e, e_theta, ct, _, d1, _, (dy,) = self._parts(x, 1)
        J = np.zeros(e.shape + (self.dim,))
        J[..., :-1, :] = ct[..., None] * dy * self.base.span
        J[..., 0] += d1 * e_theta
        return J

    def hessian(self, x):
        # H_jl = cos(theta) span_j span_l (d2y_jl, 0)
        #        - theta' sin(theta) ([j = 0] span_l (dy_l, 0) + [l = 0] span_j (dy_j, 0))
        #        + [j = l = 0] (theta'' e_theta - theta'^2 e)
        e, e_theta, ct, st, d1, d2, (dy, d2y) = self._parts(x, 2)
        span = self.base.span
        H = np.zeros(e.shape + (self.dim, self.dim))
        H[..., :-1, :, :] = ct[..., None, None] * d2y * span[:, None] * span
        cross = -(d1 * st)[..., None] * dy * span
        H[..., :-1, 0, :] += cross
        H[..., :-1, :, 0] += cross
        H[..., 0, 0] += d2 * e_theta - d1 * d1 * e
        return H

    def normal(self, x):
        # e_theta and (dy_0, 0) are orthonormal and orthogonal to the point
        # and to every tangent column but J_0; this is the unit vector of
        # their plane orthogonal to J_0, signed as the cap's normal
        _, e_theta, ct, _, d1, _, (dy,) = self._parts(x, 1)
        v = ct * self.base.span[0] * e_theta - d1 * self.base._assemble(dy[..., 0], 0.0)
        return self._sign * v / np.linalg.norm(v, axis=-1, keepdims=True)

    def cosine_bound(self, dirs):
        """Max of |h| cos(theta) + dirs_n sin(theta), with h the horizontal
        part, over the height angles theta in asin(c) -+ atan(amplitude):
        the optimum over the sphere band the chart lies in.  This is
        |dirs| cos(theta - phi) with phi = atan2(dirs_n, |h|), so theta is
        phi clipped to the band."""
        rho = _row_norm(dirs[:, :-1])
        mid, half = math.asin(self.c), math.atan(self.amplitude)
        theta = np.clip(np.arctan2(dirs[:, -1], rho), mid - half, mid + half)
        return rho * np.cos(theta) + dirs[:, -1] * np.sin(theta)

    def _preflight(self):
        # Jacobian columns nonzero and orthogonal, then least principal
        # curvature under the oriented normal (Cholesky is then safe)
        grid = _sample_grid(self.dim, 33 if self.dim == 1 else 9)
        _unit_columns(self.jacobian(grid))
        least = float(np.min(principal_curvatures(self, grid)))
        if not least >= 1e-3:
            raise NonConvexityError(
                f"perturbation amplitude {self.amplitude} breaks the chart hypotheses: "
                f"least principal curvature {least:.3g} on the sample grid"
            )

    def describe(self):
        return {**self.base.describe(), "kind": self.kind,
                "amplitude": self.amplitude, "frequency": self.frequency}


class DualChart(ManifoldChart):
    """Normal field of a base chart, parametrized over the same cube.

    The Jacobian is closed-form via the Weingarten identity applied to the
    base chart; the Hessian falls back to finite differences of that
    Jacobian.  The dual's oriented normal is the base point p: p . nu = 0 and
    d_j p . nu = 0 make p orthogonal to nu and to every d_i nu, and then
    p . d_i d_j nu = -d_j p . d_i nu = II_ij, the base chart's second
    fundamental form, positive definite on every chart the classes admit.
    """

    kind = "dual"

    def __init__(self, base: ManifoldChart):
        self.base = base
        self.n = base.n

    def point(self, x):
        return self.base.normal(x)

    def jacobian(self, x):
        return self.base.normal_jacobian(x)

    def hessian(self, x):
        return _fd_hessian(self.jacobian, x)

    def normal(self, x):
        return self.base.point(x)

    def normal_jacobian(self, x):
        return self.base.jacobian(x)

    def describe(self):
        return {"kind": self.kind, "n": self.n, "base": self.base.describe()}


# ---------------------------------------------------------------------------
# frames and curvature


def principal_curvatures(chart: ManifoldChart, x: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the shape operator at x, batched.

    Solves the symmetric generalized problem II v = kappa (J^T J) v by
    Cholesky whitening.
    """
    J = chart.jacobian(x)
    H = chart.hessian(x)
    nu = chart.normal(x)
    gram = np.swapaxes(J, -1, -2) @ J
    ii = np.einsum("...k,...kij->...ij", nu, H)
    L = np.linalg.cholesky(gram)
    t = np.linalg.solve(L, ii)
    sym = np.linalg.solve(L, np.swapaxes(t, -1, -2))
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    return np.linalg.eigvalsh(sym)


def _unit_columns(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit Jacobian columns e_i = J_i/|J_i| (..., n, n-2) and the norms |J_i|.
    Frames need orthogonal columns, as every chart the package builds has."""
    norms = np.sqrt(np.einsum("...ki,...ki->...i", J, J))
    if norms.size and not norms.min() >= _DEGENERATE_TOL:
        raise DegenerateJacobianError(f"chart Jacobian column norm {norms.min():.3e}")
    e = J / norms[..., None, :]
    if J.shape[-1] > 1:
        off = np.swapaxes(e, -1, -2) @ e - np.eye(J.shape[-1])
        if np.abs(off).max() > 1e-9:
            raise ChartError("chart Jacobian columns are not orthogonal")
    return e, norms


def frame_matrices(chart: ManifoldChart, x: np.ndarray) -> np.ndarray:
    """Batched (n-1) x n matrices B(x) with rows (e_1 .. e_(n-2), nu): an
    orthonormal basis of the tangent space of S^(n-1) at Sigma(x).

    The associated projection of a displacement z is simply B(x) @ z, so a
    single frame batch serves every map with the same chart.
    """
    e, _ = _unit_columns(chart.jacobian(x))
    nu = chart.normal(x)
    return np.concatenate([np.swapaxes(e, -1, -2), nu[..., None, :]], axis=-2)


# ---------------------------------------------------------------------------
# global constants


@dataclass
class ChartConstants:
    """Sampled global quantities of one chart.

    jacobian_scale   sup of the Jacobian operator norm
    jacobian_floor   inf of the smallest Jacobian singular value
    kappa_min/max    principal curvature range over the chart
    sectional_min    min of kappa_i*kappa_j + 1 over pairs (n >= 4 only)
    frame_conditioning  inf of the smallest singular value of [point,e,nu]
    christoffel_bound   max |Gamma^k_ij| of the tangential connection
    coeff_margin     threshold constant separating the value-dominant from
                     the gradient-dominant regime in displacement splits
    samples          number of sample points used
    """

    jacobian_scale: float
    jacobian_floor: float
    kappa_min: float
    kappa_max: float
    sectional_min: float
    frame_conditioning: float
    christoffel_bound: float
    coeff_margin: float
    samples: int


def _constant_samples(d: int) -> list[np.ndarray]:
    """The sample set of a chart's global constants in blocks of 32,768 rows:
    the 64-per-axis grid, then 10,000 seeded uniform draws."""
    xs = np.concatenate([_sample_grid(d, 64), np.random.default_rng(2024).random((10_000, d))])
    return [xs[start : start + 32_768] for start in range(0, xs.shape[0], 32_768)]


def _estimate_constants(chart: ManifoldChart) -> ChartConstants:
    d = chart.dim
    # first, so a singular Gram raises before principal_curvatures' Cholesky
    j_scale, j_floor = chart._jacobian_bounds
    blocks = _constant_samples(d)
    k_lo, k_hi = math.inf, -math.inf
    sec_min = math.inf
    gamma_max = 0.0
    for x in blocks:
        J = chart.jacobian(x)
        H = chart.hessian(x)
        kappa = principal_curvatures(chart, x)
        k_lo = min(k_lo, float(np.min(kappa)))
        k_hi = max(k_hi, float(np.max(kappa)))
        if d >= 2:
            prod = kappa[:, :, None] * kappa[:, None, :]
            iu = np.triu_indices(d, k=1)
            sec_min = min(sec_min, float(np.min(prod[:, iu[0], iu[1]] + 1.0)))
        # Christoffel symbols: tangential coordinates of each Hessian column,
        # Gamma^k_ij = ((J^T J)^-1 J^T H_ij)_k
        gram = np.swapaxes(J, -1, -2) @ J
        jth = np.einsum("...nk,...nij->...kij", J, H)
        gamma = np.linalg.solve(gram, jth.reshape(x.shape[0], d, d * d))
        gamma_max = max(gamma_max, float(np.max(np.abs(gamma))))
    if k_lo <= 0.0:
        raise NonConvexityError("chart has nonpositive principal curvature samples")
    # second pass for the frame conditioning (needs the final jacobian scale)
    cond = math.inf
    for x in blocks:
        p = chart.point(x)
        J = chart.jacobian(x)
        nu = chart.normal(x)
        stacked = np.concatenate(
            [p[:, None, :], np.swapaxes(J, -1, -2) / j_scale, nu[:, None, :]], axis=1
        )
        sv = np.linalg.svd(stacked, compute_uv=False)
        cond = min(cond, float(np.min(sv[:, -1])))
    # The margin constant is only meaningful as a small threshold: floor the
    # Christoffel bound at 1 so charts with vanishing tangential connection
    # (constant-speed circles) still get a finite, valid value.
    coeff_margin = cond / (16.0 * chart.n * max(gamma_max, 1.0) * max(1.0, k_hi * k_hi))
    return ChartConstants(
        jacobian_scale=j_scale,
        jacobian_floor=j_floor,
        kappa_min=k_lo,
        kappa_max=k_hi,
        sectional_min=(sec_min if d >= 2 else math.nan),
        frame_conditioning=cond,
        christoffel_bound=gamma_max,
        coeff_margin=coeff_margin,
        samples=sum(x.shape[0] for x in blocks),
    )


# ---------------------------------------------------------------------------
# parameter grids


def _sample_grid(d: int, per_axis: int) -> np.ndarray:
    """The closed parameter grid with per_axis nodes per axis, (per_axis**d, d),
    first coordinate slowest."""
    axes = [np.linspace(0.0, 1.0, per_axis)] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
