"""Shared numeric helpers: RNG streams, sampling, log-log fitting."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, key...) pair.

    Children with distinct keys are statistically independent; the same
    (seed, key) always yields the same stream regardless of call order.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


def check_volume_args(delta: float, samples: int = 1) -> None:
    """Raise ValueError unless delta is finite and positive and samples >= 1
    (the arguments of the Monte Carlo volume estimators)."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def sample_ball(rng: np.random.Generator, m: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points in the m-ball of the given radius, shape (count, m)."""
    g = rng.standard_normal((count, m))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / m)
    return g / norms * radii[:, None]


def unit_directions(m: int, count: int) -> np.ndarray:
    """Deterministic, well-spread unit vectors in R^m, shape (k, m).

    m = 1 gives {-1, +1}; m = 2 an angle grid; m = 3 a Fibonacci sphere.
    """
    if m == 1:
        return np.array([[-1.0], [1.0]])
    if m == 2:
        th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if m == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        golden = np.pi * (1.0 + 5.0 ** 0.5)
        th = golden * i
        return np.stack(
            [np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th), np.cos(phi)], axis=1
        )
    raise ValueError(f"unsupported direction dimension {m}")


@dataclass
class LogLogFit:
    slope: float
    intercept: float
    r2: float
    residuals: np.ndarray


def fit_line(x, y) -> LogLogFit:
    """Least-squares line fit with R^2 and per-point residuals.

    A zero-variance response is treated as a perfect constant fit
    (slope 0, r2 1) instead of a degenerate division.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    xm = x.sum() / x.size
    ym = y.sum() / x.size
    sxx = ((x - xm) ** 2).sum()
    sxy = ((x - xm) * (y - ym)).sum()
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sst = ((y - ym) ** 2).sum()
    ssr = (resid ** 2).sum()
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    return LogLogFit(float(slope), float(intercept), float(r2), resid)
