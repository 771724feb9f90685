"""Fractal test sets, dyadic covering counts, and canonical spread sets.

Conventions: all scales are dyadic (delta = 2^-k), grids are anchored at
the origin so negative coordinates are handled by floor, and box-counting
cells are half-open cubes.  Cell counts on axis-aligned grids are
comparable to ball-covering numbers up to a dimensional factor (2 sqrt(d))^d.

Cells are counted by sorted Z-order (Morton) keys, after the sorted-key box
counting of Liebovitch & Toth (Phys. Lett. A 141, 1989).  For a window of
scales [k_min, k_max] the cell indices floor(p * 2^k_max) are computed once,
shifted to start at zero, and their bits interleaved into one int64 key per
point; one sort then serves every scale, since the cell at scale k is the
key shifted right by d*(k_max - k) bits, and a linear pass over the sorted
keys counts the distinct ones.  `covering_number` and `box_dimension` count
this way, and `FractalSet.thin_to_scale` keeps the first point of each
distinct key.  When the shifted indices need more than 62 key bits in all,
the cells come from exact row uniques (np.unique over axis 0) instead of from
lossy packed keys.

A self-similar set is covered by the images of its construction pieces
(Hutchinson, Indiana Univ. Math. J. 30, 1981), and so is any linear image
of it.  `box_dimension` can take a piece stride: piece c is the rows
points[c::stride].  A piece whose per-axis minimum and maximum fall in the
same 2^-k_max cell lies in one cell at every k <= k_max (floor is monotone
and scaling by 2^k is exact), so one of its rows stands for all of them;
every row of the other pieces is keyed.  The occupied cells, and so the
counts, are exactly those of all the rows, while only a few percent of a
projected dust's rows are keyed.  `FractalSet.piece_stride` gives the
stride of a `build_cantor_dust` set, whose coarsest digit varies fastest.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .util import fit_line

__all__ = [
    "ScaleError",
    "OverlapError",
    "FractalSet",
    "BoxCountFit",
    "build_cantor_dust",
    "product_fractal",
    "covering_number",
    "box_dimension",
    "spread_delta_s_set",
    "separate_points",
]

_MAX_SCALE_EXP = 50  # beyond this, floor(x * 2^k) is no longer exact in float64
_KEY_BITS = 62  # a Z-order cell key must stay a nonnegative int64
_KEY_BLOCK = 1 << 16  # rows per block while building keys


class ScaleError(ValueError):
    pass


class OverlapError(ValueError):
    pass


def scale_exponent(delta: float) -> int:
    """k such that delta = 2^-k exactly; rejects non-dyadic or too-fine scales."""
    if delta <= 0.0:
        raise ScaleError(f"scale must be positive, got {delta}")
    if not math.isfinite(delta):
        raise ScaleError(f"scale must be finite, got {delta}")
    k = round(-math.log2(delta))
    if k < 0 or k > _MAX_SCALE_EXP:
        raise ScaleError(f"scale 2^-{k} outside supported range (0 <= k <= {_MAX_SCALE_EXP})")
    if abs(delta - 2.0 ** -k) > 1e-12 * delta:
        raise ScaleError(f"scale {delta} is not a dyadic power 2^-k")
    return k


def _cell_indices(points: np.ndarray, k: int) -> np.ndarray:
    scaled = np.floor(np.asarray(points, dtype=float) * (1 << k))
    if scaled.size and not np.abs(scaled).max() < 2.0 ** 63:
        raise ScaleError(f"cell indices at scale 2^-{k} overflow int64; "
                         f"coordinates must be finite and below 2^{63 - k}")
    return scaled.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _spread_table(d: int) -> np.ndarray:
    """Byte b with bit i moved to bit i*d: one byte of one column's key bits."""
    b = np.arange(256, dtype=np.int64)
    table = sum(((b >> i) & 1) << (i * d) for i in range(8) if i * d < _KEY_BITS)
    table.flags.writeable = False
    return table


def _morton_keys(pts: np.ndarray, k_min: int, k_max: int) -> np.ndarray | None:
    """Z-order keys of the cells floor(p * 2^k_max), or None when a key
    would need more than _KEY_BITS bits.

    Each column's index is shifted by its minimum rounded down to a multiple
    of 2^(k_max - k_min), so key >> d*(k_max - k) names the cell of p at
    every k in [k_min, k_max] and two points share it exactly when they
    share that cell.
    """
    d = pts.shape[1]
    scale = 2.0 ** k_max
    cols = [np.floor(pts[:, c] * scale) for c in range(d)]
    lo = [col.min() for col in cols]
    hi = [col.max() for col in cols]
    if not all(abs(v) < 2.0 ** _KEY_BITS for v in lo + hi):  # also False for NaN
        return None
    step = 1 << (k_max - k_min)
    base = [int(v) // step * step for v in lo]
    bits = max(int(h) - b for h, b in zip(hi, base)).bit_length()
    if bits * d > _KEY_BITS:
        return None
    table = _spread_table(d)
    key = np.zeros(pts.shape[0], dtype=np.int64)
    # block by block, so the temporaries stay small and in cache
    for s in range(0, key.size, _KEY_BLOCK):
        out = key[s : s + _KEY_BLOCK]
        for c, col in enumerate(cols):
            idx = col[s : s + _KEY_BLOCK].astype(np.int64)
            idx -= base[c]
            for i in range(0, bits, 8):
                part = table.take((idx >> i) & 0xFF)
                part <<= i * d + c
                out |= part
    return key


def _dyadic_cells(pts: np.ndarray, k_min: int, k_max: int):
    """For k = k_min..k_max in turn, the number of occupied half-open dyadic
    cells of side 2^-k.  One sort of the Z-order keys at k_max serves every
    scale."""
    ks = range(k_min, k_max + 1)
    key = _morton_keys(pts, k_min, k_max) if pts.shape[0] else None
    if key is None:
        idx = _cell_indices(pts, k_max)
        for k in ks:
            yield np.unique(idx >> (k_max - k), axis=0).shape[0]
        return
    key.sort()
    # sorted neighbours lie in different 2^-k cells exactly when their keys
    # differ at or above bit d*(k_max - k)
    split = key[1:] ^ key[:-1]
    d = pts.shape[1]
    for k in ks:
        yield 1 + int(np.count_nonzero(split >= 1 << (d * (k_max - k))))


def _piece_rows(pts: np.ndarray, stride: int, k_max: int) -> tuple[np.ndarray, int]:
    """Rows that occupy exactly the 2^-k cells of pts at every k <= k_max,
    and the number of pieces expanded.

    Piece c is pts[c::stride].  A piece whose minimum and maximum share
    their 2^-k_max cell on every axis is one row; the rows of every other
    piece, including any with a NaN, are all kept.
    """
    d = pts.shape[1]
    grid = pts.reshape(-1, stride, d)
    scale = 2.0 ** k_max
    one = np.all(np.floor(grid.min(axis=0) * scale) == np.floor(grid.max(axis=0) * scale), axis=1)
    rest = grid[:, ~one].reshape(-1, d)
    return np.concatenate([grid[0, one], rest]), stride - int(np.count_nonzero(one))


def covering_number(points: np.ndarray, delta: float) -> int:
    """Number of occupied half-open dyadic cells of side delta."""
    k = scale_exponent(delta)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return next(_dyadic_cells(pts, k, k))


# ---------------------------------------------------------------------------
# fractal constructions


@dataclass
class FractalSet:
    """Finite approximation of a self-similar set with its natural measure.

    Points are level-cell centers; the natural measure puts equal weight on
    each point.  similarity_dim is the exact exponent of the construction,
    cell_side the final cell scale after any rescaling into B(0, 1/2).
    """

    n: int
    points: np.ndarray
    similarity_dim: float
    cell_side: float
    level: int
    generator: dict = field(default_factory=dict)

    def thin_to_scale(self, delta: float) -> np.ndarray:
        """One representative point per delta-cell (a delta-net of the set)."""
        k = scale_exponent(delta)
        pts = self.points
        cells = _morton_keys(pts, k, k) if pts.shape[0] else None
        if cells is None:
            cells = _cell_indices(pts, k)
        # unique's return_index gives each cell's first point
        return pts[np.sort(np.unique(cells, axis=0, return_index=True)[1])]

    def piece_stride(self, k_max: int) -> int | None:
        """Row stride m^L of the level-L construction pieces for counting
        cells down to 2^-k_max, or None when the rows are not a
        `build_cantor_dust` construction.

        L is the smallest level whose pieces have diameter at most
        2^-(k_max+6), so few of them straddle a cell face, capped below
        `level` so a piece keeps more than one point.
        """
        m, r = self.generator.get("m"), self.generator.get("ratio")
        if m is None or r is None or self.level < 2 or self.points.shape[0] != m ** self.level:
            return None
        # diameter of a level-0 piece: the whole construction cube
        top = self.cell_side * math.sqrt(self.n) / r ** self.level
        L = 1
        while L < self.level - 1 and top * r ** L > 2.0 ** -(k_max + 6):
            L += 1
        return m ** L


def _ball_transform(points: np.ndarray, n: int) -> np.ndarray:
    # affine image of [0,1]^n in the centered cube whose half-diagonal is 0.49
    side = 0.98 / math.sqrt(n)
    return (points - 0.5) * side


_PLACEMENTS = ("axis", "planar", "diagonal", "product")


def _branch_offsets(n: int, m: int, r: float, placement: str) -> np.ndarray:
    gap = 1.0 - r
    center = gap / 2.0
    if placement == "axis":
        if m == 1:
            pos = np.array([center])
        else:
            pos = np.linspace(0.0, gap, m)
        off = np.full((m, n), center)
        off[:, 0] = pos
        return off
    if placement == "diagonal":
        pos = np.linspace(0.0, gap, m) if m > 1 else np.array([center])
        return np.tile(pos[:, None], (1, n))
    if placement == "planar":
        if n < 2:
            raise ValueError("planar placement needs ambient dimension >= 2")
        g = math.isqrt(m)
        if g * g != m:
            raise ValueError(f"planar placement needs a square branch count, got {m}")
        pos = np.linspace(0.0, gap, g) if g > 1 else np.array([center])
        a, b = np.meshgrid(pos, pos, indexing="ij")
        off = np.full((m, n), center)
        off[:, 0] = a.ravel()
        off[:, 1] = b.ravel()
        return off
    if placement == "product":
        pos = np.linspace(0.0, gap, m) if m > 1 else np.array([center])
        grids = np.meshgrid(*([pos] * n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    raise ValueError(f"unknown placement {placement!r}; choose from {_PLACEMENTS}")


def _check_disjoint(offsets: np.ndarray, r: float) -> None:
    m = offsets.shape[0]
    if m == 1:
        return
    diff = np.abs(offsets[:, None, :] - offsets[None, :, :]).max(axis=-1)
    iu = np.triu_indices(m, k=1)
    if float(diff[iu].min()) < r - 1e-12:
        raise OverlapError("branch cells overlap; reduce the ratio or branch count")


def build_cantor_dust(
    n: int,
    m: int,
    r: float,
    level: int,
    placement: str = "axis",
    scale_to_ball: bool = True,
) -> FractalSet:
    """Self-similar dust from m branches of ratio r iterated `level` times.

    Placement presets lay the branch translations on a coordinate axis, a
    2-plane grid, the main diagonal, or as an n-fold product of the axis
    digit set.  The similarity dimension is log(branches)/log(1/r).
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"ratio must lie in (0,1), got {r}")
    if m < 1 or level < 0:
        raise ValueError("branch count must be >= 1 and level >= 0")
    offsets = _branch_offsets(n, m, r, placement)
    branches = offsets.shape[0]
    if branches ** level > 100_000_000:
        raise ValueError(f"{branches}^{level} points exceed the 1e8 construction cap")
    _check_disjoint(offsets, r)
    pts = np.zeros((1, n))
    for _ in range(level):
        pts = (offsets[None, :, :] + r * pts[:, None, :]).reshape(-1, n)
    pts = pts + (r ** level) / 2.0
    cell = r ** level
    if scale_to_ball:
        pts = _ball_transform(pts, n)
        cell *= 0.98 / math.sqrt(n)
    dim = 0.0 if branches == 1 else math.log(branches) / math.log(1.0 / r)
    return FractalSet(
        n=n,
        points=pts,
        similarity_dim=dim,
        cell_side=cell,
        level=level,
        generator={"m": branches, "ratio": r, "placement": placement},
    )


def product_fractal(axes: list) -> FractalSet:
    """Cartesian product of independent one-dimensional constructions.

    Each axis spec is ('cantor', m, ratio, level), ('uniform', count) for
    count equispaced points filling the axis, or ('point',) for a centered
    singleton.  Box-counting dimensions add across factors.
    """
    coords = []
    dims = []
    cells = []
    levels = []
    for spec in axes:
        kind = spec[0]
        if kind == "cantor":
            _, m, r, level = spec
            f = build_cantor_dust(1, m, r, level, placement="axis", scale_to_ball=False)
            coords.append(f.points[:, 0])
            dims.append(f.similarity_dim)
            cells.append(f.cell_side)
            levels.append(level)
        elif kind == "uniform":
            count = spec[1]
            coords.append((np.arange(count) + 0.5) / count)
            dims.append(1.0)
            cells.append(1.0 / count)
            levels.append(int(math.ceil(math.log2(max(count, 2)))))
        elif kind == "point":
            coords.append(np.array([0.5]))
            dims.append(0.0)
            cells.append(1.0)
            levels.append(0)
        else:
            raise ValueError(f"unknown product axis kind {kind!r}")
    n = len(coords)
    total = int(np.prod([c.size for c in coords]))
    if total > 100_000_000:
        raise ValueError("product construction exceeds the 1e8 point cap")
    mesh = np.meshgrid(*coords, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    return FractalSet(
        n=n,
        points=_ball_transform(pts, n),
        similarity_dim=float(sum(dims)),
        cell_side=min(cells) * (0.98 / math.sqrt(n)),
        level=max(levels),
        generator={"axes": [list(s) for s in axes], "product": True},
    )


# ---------------------------------------------------------------------------
# box dimension


@dataclass
class BoxCountFit:
    slope: float
    intercept: float
    r2: float
    scales: list[int]  # exponents k actually used
    counts: list[int]
    residuals: np.ndarray
    excluded: list[int]
    warning: str | None = None
    rows_keyed: int = 0  # rows given a cell key
    pieces_expanded: int = 0  # pieces keyed row by row


def box_dimension(points: np.ndarray, k_min: int, k_max: int,
                  stride: int | None = None) -> BoxCountFit:
    """Least-squares slope of log2 N(2^-k) against k over [k_min, k_max].

    Scales where the covering count saturates (approaches the raw point
    count, or stops growing) are excluded from the fit and reported.  With
    a `stride` that divides the row count, cells are counted from the
    pieces points[c::stride] (see the module docstring); the counts are
    those of every row.
    """
    if k_max - k_min < 3:
        raise ScaleError("need at least four scales: k_max - k_min >= 3")
    if k_min < 0 or k_max > _MAX_SCALE_EXP:
        raise ScaleError(f"scales outside supported range (0 <= k <= {_MAX_SCALE_EXP})")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("cannot fit a dimension to an empty set")
    ks = list(range(k_min, k_max + 1))
    n_pts = pts.shape[0]
    rows, expanded = pts, 0
    if stride is not None and n_pts % stride == 0:
        rows, expanded = _piece_rows(pts, stride, k_max)
    counts = list(_dyadic_cells(rows, k_min, k_max))
    work = {"rows_keyed": rows.shape[0], "pieces_expanded": expanded}
    warning = None
    cut = len(ks)
    for i, c in enumerate(counts):
        if c > 0.45 * n_pts:
            cut = i
            warning = f"counts saturate at k={ks[i]} (N={c} of {n_pts} points)"
            break
    kept_ks = ks[:cut]
    kept_counts = counts[:cut]
    excluded = ks[cut:]
    # trim only the trailing plateau; interior flat steps are real structure
    # (lacunary constructions alternate flat and jumping scales)
    while len(kept_counts) >= 2 and kept_counts[-1] < kept_counts[-2] * 2 ** 0.02:
        if warning is None:
            warning = f"counts stop growing at k={kept_ks[-1]}"
        excluded.insert(0, kept_ks[-1])
        kept_ks = kept_ks[:-1]
        kept_counts = kept_counts[:-1]
    if len(kept_ks) < 2:
        if len(set(counts)) == 1:
            # a single occupied cell at every scale: dimension zero exactly
            return BoxCountFit(0.0, math.log2(counts[0]), 1.0, ks, counts,
                               np.zeros(len(ks)), [], None, **work)
        raise ScaleError("fewer than two usable scales after saturation exclusion")
    fit = fit_line(np.array(kept_ks, dtype=float), np.log2(kept_counts))
    return BoxCountFit(
        slope=fit.slope,
        intercept=fit.intercept,
        r2=fit.r2,
        scales=kept_ks,
        counts=kept_counts,
        residuals=fit.residuals,
        excluded=excluded,
        warning=warning,
        **work,
    )


# ---------------------------------------------------------------------------
# spread (delta, s) subsets


def separate_points(pts: np.ndarray, delta: float) -> np.ndarray:
    """Lexicographic greedy thinning to pairwise distance >= delta (closed
    comparison): a point is kept unless an earlier kept point lies within
    delta, so every input point lies within delta of a kept one."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[0] <= 1:
        return pts
    from scipy.spatial import cKDTree

    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    tree = cKDTree(pts)
    keep = np.ones(pts.shape[0], dtype=bool)
    pairs = tree.query_pairs(delta * (1.0 - 1e-12), output_type="ndarray")
    # query_pairs gives a < b in no set order; sorted by (a, b), keep[a] is
    # final before a's own pairs are read
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    for a, b in pairs.tolist():
        if keep[a]:
            keep[b] = False
    return pts[keep]


def spread_delta_s_set(d: int, delta: float, s: float, budget_constant: float = 1.0) -> np.ndarray:
    """Canonical (delta, s) spread set in [0,1]^d.

    Descends the dyadic tree of the full delta-grid, keeping at most
    ceil(budget_constant * 2^(j s)) cells at depth j by even striding through
    the children of the cells kept one depth up.  Returns delta-cell centers.
    """
    k = scale_exponent(delta)
    kept = np.zeros((1, d), dtype=np.int64)
    offs = np.stack(np.meshgrid(*([np.arange(2)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    for j in range(1, k + 1):
        cand = (kept[:, None, :] * 2 + offs[None, :, :]).reshape(-1, d)
        order = np.lexsort(cand.T[::-1])
        cand = cand[order]
        b = int(math.ceil(budget_constant * 2.0 ** (j * s)))
        if cand.shape[0] > b:
            sel = (np.arange(b, dtype=np.int64) * cand.shape[0]) // b
            cand = cand[sel]
        kept = cand
    return (kept + 0.5) * delta
