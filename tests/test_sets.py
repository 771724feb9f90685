import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from projlab.sets import (
    FractalSet,
    OverlapError,
    ScaleError,
    box_dimension,
    build_cantor_dust,
    covering_number,
    product_fractal,
    scale_exponent,
    separate_points,
    spread_delta_s_set,
)
from projlab.manifold import CapChart, frame_matrices
from projlab.experiments import _image_dimension
from projlab.sets import _branch_offsets, _dyadic_cells, _morton_keys
from projlab.util import rng_stream

MIDDLE_THIRD_DIM = math.log(2.0) / math.log(3.0)


def triadic_level3_centers():
    digits = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]
    return np.array([[a / 3 + b / 9 + c / 27 + 1 / 54] for a, b, c in digits])


# -- scale handling ---------------------------------------------------------


def test_scale_exponent_accepts_dyadic_only():
    assert scale_exponent(0.5) == 1
    assert scale_exponent(2.0**-12) == 12
    for bad in (0.3, 1.0 / 27.0, 3.0, float("inf"), float("nan")):
        with pytest.raises(ScaleError):
            scale_exponent(bad)


# -- covering numbers -------------------------------------------------------


def test_covering_counts_equispaced_points():
    pts = (np.arange(16) / 16.0)[:, None]
    assert covering_number(pts, 1.0 / 16.0) == 16


def test_covering_of_triadic_centers_near_exact_count():
    # the triadic count at side 1/27 is 8; the nearest dyadic side is 2^-5
    count = covering_number(triadic_level3_centers(), 2.0**-5)
    assert count == 8
    assert 8 / 4 <= count <= 8 * 4


def test_covering_single_point_is_one():
    p = np.array([[0.37, 0.41, 0.12]])
    for k in (1, 4, 9):
        assert covering_number(p, 2.0**-k) == 1


def test_covering_monotone_and_subadditive():
    r = rng_stream(14, 5)
    a = r.random((300, 2)) * 0.7
    b = r.random((200, 2)) * 0.5 + 0.25
    previous = None
    for k in range(1, 9):
        delta = 2.0**-k
        na = covering_number(a, delta)
        assert covering_number(np.vstack([a, b]), delta) <= na + covering_number(b, delta)
        if previous is not None:
            assert na >= previous
        previous = na


def test_cells_far_from_the_origin_do_not_collide():
    # packing offset cell indices side by side used to send the unit cells
    # (0, 4) and (1, 0) to the same key
    pts = np.array([[0.0, 4.0], [1.0, 0.0]])
    assert covering_number(pts, 1.0) == 2
    fr = FractalSet(n=2, points=pts, similarity_dim=0.0, cell_side=1.0, level=0)
    assert np.array_equal(fr.thin_to_scale(1.0), pts)


def test_wide_range_counts_fall_back_to_exact_rows():
    # at k = 10 the indices span about 2^31 per axis: 93 key bits for d = 3
    pts = rng_stream(14, 9).uniform(-1e6, 1e6, (2000, 3))
    pts[1000:] = pts[:1000] + 2.0**-12  # half the points share a cell with another
    assert _morton_keys(pts, 10, 10) is None
    exact = np.unique(np.floor(pts * 2.0**10), axis=0).shape[0]
    assert covering_number(pts, 2.0**-10) == exact
    fr = FractalSet(n=3, points=pts, similarity_dim=0.0, cell_side=1.0, level=0)
    assert fr.thin_to_scale(2.0**-10).shape[0] == exact
    with pytest.raises(ScaleError):
        covering_number(np.array([[np.nan, 0.0]]), 0.5)


# The packed-key code the Morton engine replaced, kept as the reference for
# the order of kept cells.  Its keys are exact for coordinates in [-2, 2).


def _reference_cell_indices(points, k):
    return np.floor(np.asarray(points, dtype=float) * (1 << k)).astype(np.int64)


def _reference_cell_keys(idx, k):
    d = idx.shape[1]
    bits = k + 2
    if bits * d > 62:
        return None
    key = np.zeros(idx.shape[0], dtype=np.int64)
    for i in range(d):
        key = (key << bits) | (idx[:, i] + (1 << (bits - 1)))
    return key


def _reference_thin(points, k):
    idx = _reference_cell_indices(points, k)
    keys = _reference_cell_keys(idx, k)
    if keys is None:
        _, first = np.unique(idx, axis=0, return_index=True)
    else:
        _, first = np.unique(keys, return_index=True)
    return points[np.sort(first)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_morton_engine_matches_row_unique(d):
    r = rng_stream(14, 20 + d)
    for k_min, k_max in [(0, 0), (3, 3), (0, 6), (2, 9), (5, 12)]:
        for size in (1, 7, 600):
            # clustered so that coarse and fine scales both see shared cells
            hubs = r.uniform(-2.0, 2.0, (5, d))
            pts = hubs[r.integers(0, 5, size)] + 0.05 * r.standard_normal((size, d))
            pts = np.clip(pts, -2.0, 2.0 - 1e-9)
            expect = [np.unique(np.floor(pts * 2.0**k), axis=0).shape[0]
                      for k in range(k_min, k_max + 1)]
            assert list(_dyadic_cells(pts, k_min, k_max)) == expect
            fr = FractalSet(n=d, points=pts, similarity_dim=0.0, cell_side=1.0, level=0)
            for k in (k_min, k_max):
                assert np.array_equal(fr.thin_to_scale(2.0**-k), _reference_thin(pts, k))
    if d > 1:
        # past the 62-bit key budget the counts come from exact row uniques
        # (for d = 1 that takes indices beyond the exact float64 range)
        k_max = 62 // d
        pts = r.uniform(-2.0, 2.0, (300, d))
        pts[150:] = pts[:150] + 2.0 ** -(k_max + 2)
        assert _morton_keys(pts, 0, k_max) is None
        assert list(_dyadic_cells(pts, 0, k_max)) == [
            np.unique(np.floor(pts * 2.0**k), axis=0).shape[0] for k in range(k_max + 1)]


def test_grid_and_packing_counts_comparable():
    r = rng_stream(14, 0)
    delta = 2.0**-4
    for i in range(20):
        d = int(r.integers(1, 4))
        kind = i % 3
        if kind == 0:
            pts = r.random((500, d))
        elif kind == 1:
            hubs = r.random((8, d))
            pts = hubs[r.integers(0, 8, 500)] + 0.02 * r.standard_normal((500, d))
        else:
            pts = r.random((500, d)) * np.array([1.0] + [0.01] * (d - 1))
        pts = np.clip(pts, 0.0, 0.999)
        grid_count = covering_number(pts, delta)
        pack_count = separate_points(pts, delta).shape[0]
        factor = (2.0 * math.sqrt(d)) ** d
        assert grid_count <= factor * pack_count
        assert pack_count <= factor * grid_count


# -- fractal constructions --------------------------------------------------


def test_middle_third_dust_counts_and_dimension():
    fr = build_cantor_dust(3, 2, 1.0 / 3.0, 8, placement="axis")
    assert fr.points.shape == (256, 3)
    assert fr.similarity_dim == pytest.approx(MIDDLE_THIRD_DIM, abs=1e-12)
    assert np.linalg.norm(fr.points, axis=1).max() <= 0.5
    nearest = cKDTree(fr.points).query(fr.points, k=2)[0][:, 1]
    assert nearest.min() >= fr.cell_side


def test_single_branch_gives_single_point():
    fr = build_cantor_dust(3, 1, 0.5, 5)
    assert fr.points.shape == (1, 3)
    assert fr.similarity_dim == 0.0


def test_planar_four_branch_dust_has_dimension_one():
    fr = build_cantor_dust(3, 4, 0.25, 6, placement="planar")
    assert fr.points.shape == (4096, 3)
    assert fr.similarity_dim == pytest.approx(1.0)
    fit = box_dimension(fr.points, 2, 6)
    assert abs(fit.slope - 1.0) <= 0.05


def test_overlapping_branches_rejected():
    with pytest.raises(OverlapError):
        build_cantor_dust(1, 3, 0.4, 2)


def test_oversized_construction_rejected():
    with pytest.raises(ValueError):
        build_cantor_dust(3, 10, 0.05, 9)


def test_thin_to_scale_is_a_net():
    fr = build_cantor_dust(3, 2, 1.0 / 3.0, 10)
    delta = 2.0**-6
    net = fr.thin_to_scale(delta)
    assert net.shape[0] == covering_number(fr.points, delta)
    assert covering_number(net, delta) == net.shape[0]


# -- box dimension ----------------------------------------------------------


def test_box_dimension_of_middle_third_dust():
    fr = build_cantor_dust(1, 2, 1.0 / 3.0, 12)
    wide = box_dimension(fr.points, 3, 12)
    assert abs(wide.slope - MIDDLE_THIRD_DIM) <= 0.05
    assert wide.r2 >= 0.99
    narrow = box_dimension(fr.points, 3, 8)
    assert abs(narrow.slope - MIDDLE_THIRD_DIM) <= 0.05


def test_box_dimension_triadic_alignment_wobble():
    # the same set kept in raw [0,1] coordinates aligns differently with the
    # dyadic lattice; the short-window estimate drifts high, a known artifact
    # of triadic sets measured on dyadic scales
    fr = build_cantor_dust(1, 2, 1.0 / 3.0, 12, scale_to_ball=False)
    fit = box_dimension(fr.points, 3, 8)
    assert fit.slope == pytest.approx(0.7069, abs=2e-3)
    wide = box_dimension(fr.points, 3, 12)
    assert abs(wide.slope - MIDDLE_THIRD_DIM) <= 0.05


def test_box_dimension_of_plane_grid():
    g = (np.arange(1024) + 0.5) / 1024.0
    pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    fit = box_dimension(pts, 3, 8)
    assert abs(fit.slope - 2.0) <= 0.05
    assert fit.warning is None


def test_box_dimension_single_point_is_zero():
    fit = box_dimension(np.array([[0.3, 0.6]]), 3, 8)
    assert fit.slope == 0.0
    assert fit.r2 == 1.0


def test_box_dimension_needs_four_scales():
    with pytest.raises(ScaleError):
        box_dimension(np.random.default_rng(0).random((50, 2)), 3, 5)


def test_box_dimension_excludes_saturated_scales():
    pts = rng_stream(16, 0).random((100, 2))
    fit = box_dimension(pts, 1, 10)
    assert fit.warning is not None
    assert fit.excluded
    assert not set(fit.scales) & set(fit.excluded)
    assert max(fit.scales) < min(fit.excluded)


def test_box_dimension_of_products_adds():
    pair = product_fractal([("cantor", 2, 0.25, 8), ("cantor", 2, 0.25, 8)])
    assert pair.similarity_dim == pytest.approx(1.0)
    fit = box_dimension(pair.points, 3, 12)
    assert abs(fit.slope - 1.0) <= 0.05
    mixed = product_fractal([("cantor", 2, 0.25, 6), ("uniform", 1024)])
    assert mixed.similarity_dim == pytest.approx(1.5)
    fit2 = box_dimension(mixed.points, 3, 10)
    assert abs(fit2.slope - 1.5) <= 0.05


def test_dimension_estimates_track_similarity_dimension():
    cases = [
        (build_cantor_dust(1, 2, 1.0 / 3.0, 12), (3, 12)),
        (build_cantor_dust(3, 4, 0.25, 6, placement="planar"), (2, 6)),
        (product_fractal([("cantor", 2, 0.25, 8), ("cantor", 2, 0.25, 8)]), (3, 12)),
    ]
    for fr, (klo, khi) in cases:
        fit = box_dimension(fr.points, klo, khi)
        assert abs(fit.slope - fr.similarity_dim) <= 0.05


# -- counting by construction pieces ----------------------------------------


def construction_loop(n, m, r, level, placement, scale_to_ball):
    """The dust's rows as the construction loop builds them, one level at a
    time, the newest (coarsest) digit varying fastest."""
    offsets = _branch_offsets(n, m, r, placement)
    pts = np.zeros((1, n))
    for _ in range(level):
        pts = (offsets[None, :, :] + r * pts[:, None, :]).reshape(-1, n)
    pts = pts + (r**level) / 2.0
    if scale_to_ball:
        pts = (pts - 0.5) * (0.98 / math.sqrt(n))
    return pts


@pytest.mark.parametrize("scale_to_ball", [True, False])
@pytest.mark.parametrize("n, m, r, level, placement", [
    (3, 2, 0.3, 9, "axis"), (3, 4, 2.0**-2.5, 7, "planar"), (3, 2, 0.3, 9, "diagonal"),
    (3, 2, 0.25, 5, "product"), (1, 2, 1.0 / 3.0, 12, "axis"), (3, 1, 0.5, 5, "axis"),
])
def test_points_equal_the_construction_loop(n, m, r, level, placement, scale_to_ball):
    fr = build_cantor_dust(n, m, r, level, placement=placement, scale_to_ball=scale_to_ball)
    assert fr.size == fr.pieces.offsets.shape[0] ** level
    assert "points" not in vars(fr)
    ref = construction_loop(n, m, r, level, placement, scale_to_ball)
    assert fr.points.shape == ref.shape and np.array_equal(fr.points, ref)
    # every level-L piece expanded from the sub-dust is the same rows, bit for bit
    for L in range(1, level):
        stride = fr.pieces.offsets.shape[0] ** L
        rows = fr.pieces.expand(np.arange(stride), L)
        assert np.array_equal(rows, ref)
        picked = np.arange(stride)[1::3]
        assert np.array_equal(fr.pieces.expand(picked, L),
                              ref.reshape(-1, stride, n)[:, picked].reshape(-1, n))


def frames(count, seed):
    """Frames of the n = 3 cap at random x."""
    cap = CapChart(3, 0.6)
    return frame_matrices(cap, rng_stream(seed, 0).random((count, cap.dim)))


def face_frames(fr, b, k_max, seed, tries=6, ulps=8):
    """Multiples of frame b that carry the extreme row of a piece, along
    one image axis, across a 2^-k_max cell face in steps of one ulp: where a
    piece box and its rows are rounded apart, only the guard keeps the box
    honest."""
    img = fr.points @ b.T
    stride = fr.pieces.offsets.shape[0] ** fr._piece_level(k_max)
    rng = rng_stream(seed, 1)
    out = []
    for c, axis in zip(rng.integers(0, stride, tries), rng.integers(0, b.shape[0], tries)):
        v = img[c::stride, axis].max()
        face = (math.floor(v * 2.0**k_max) + 1.0) * 2.0**-k_max
        for t in range(-ulps, ulps + 1):
            out.append(b * (face / v * (1.0 + t * 2.0**-52)))
    return out


@pytest.mark.parametrize("placement, level", [("planar", 7), ("axis", 9), ("diagonal", 9)])
def test_one_cell_pieces_lie_in_their_cell(placement, level):
    m = 4 if placement == "planar" else 2
    fr = build_cantor_dust(3, m, 2.0**-2.5 if m == 4 else 0.3, level, placement=placement)
    k_max = 10
    L = fr._piece_level(k_max)
    stride = m**L
    scale = 2.0**k_max
    ones = 0
    for i, b in enumerate(frames(4, 30 + level)):
        for B in [b, *face_frames(fr, b, k_max, i)]:
            one, lo = fr.pieces._boxes(B, k_max, L)
            cells = np.floor((fr.points @ B.T).reshape(-1, stride, B.shape[0]) * scale)
            assert np.array_equal(cells[:, one], np.broadcast_to(
                np.floor(lo[one] * scale), cells[:, one].shape))
            ones += int(np.count_nonzero(one))
    assert ones > 0


@pytest.mark.parametrize("placement, level", [("planar", 7), ("axis", 9), ("diagonal", 9)])
def test_piece_counts_equal_full_keying_at_every_scale(placement, level):
    m = 4 if placement == "planar" else 2
    fr = build_cantor_dust(3, m, 2.0**-2.5 if m == 4 else 0.3, level, placement=placement)
    straddled = 0
    for b in frames(4, 30 + level):
        img = fr.points @ b.T
        for k_min, k_max in [(0, 6), (4, 10), (7, 13)]:
            ref = box_dimension(img, k_min, k_max)
            assert ref.rows_keyed == img.shape[0]
            for L in {1, 3, level - 1, fr._piece_level(k_max)}:
                stride = m**L
                rows, expanded = fr.pieces.image_rows(b, k_max, L)
                fit = box_dimension(rows, k_min, k_max, fr.size)
                assert (fit.scales, fit.counts, fit.excluded, fit.slope, fit.intercept,
                        fit.r2, fit.warning) == (ref.scales, ref.counts, ref.excluded,
                                                 ref.slope, ref.intercept, ref.r2, ref.warning)
                assert np.array_equal(fit.residuals, ref.residuals)
                # one row per one-cell piece, every row of the others; at
                # least the pieces whose rows straddle a cell are expanded
                assert fit.rows_keyed == stride - expanded + expanded * (fr.size // stride)
                cells = np.floor(img.reshape(-1, stride, 2) * 2.0**k_max)
                assert expanded >= np.count_nonzero(np.any(cells != cells[:1], axis=(0, 2)))
                straddled += 0 < expanded < stride
    assert straddled >= 6


def test_piece_level_is_derived_from_the_construction():
    dust = build_cantor_dust(3, 4, 2.0**-2.5, 10, placement="planar")
    # the smallest L with 0.98 r^L <= 2^-16
    assert dust._piece_level(10) == 7
    assert dust._piece_level(4) == 4
    # capped below the construction level, so a piece keeps more than one point
    assert dust._piece_level(40) == 9
    assert build_cantor_dust(3, 4, 2.0**-2.5, 1, placement="planar")._piece_level(10) is None
    plain = FractalSet(n=3, points=dust.points, similarity_dim=0.8, cell_side=1.0, level=10)
    assert plain._piece_level(10) is None


def test_piece_counting_still_rejects_non_finite_rows():
    fr = build_cantor_dust(3, 4, 2.0**-2.5, 6, placement="planar")
    b = frames(1, 41)[0]
    for bad in (np.nan, np.inf, -np.inf):
        for entry in [(0, 1), (1, 2), (slice(None), slice(None))]:
            B = b.copy()
            B[entry] = bad
            with np.errstate(invalid="ignore"):
                rows, _ = fr.image_rows(B, 10)
            with pytest.raises(ScaleError):
                box_dimension(rows, 4, 10, fr.size)


def test_piece_counting_saturates_against_every_point():
    fr = build_cantor_dust(3, 4, 2.0**-2.5, 6, placement="planar")
    b = frames(1, 42)[0]
    rows, _ = fr.image_rows(b, 12)
    fit = box_dimension(rows, 6, 12, fr.size)
    # N(2^-12) exceeds 0.45 of the keyed rows but not 0.45 of all 4096 points
    assert 0.45 * fit.rows_keyed < fit.counts[-1] <= 0.45 * fr.size
    assert fit.scales[-1] == 12 and fit.warning is None
    assert fit.counts == box_dimension(fr.points @ b.T, 6, 12).counts


def test_sets_without_a_piece_table_take_the_full_path():
    pair = product_fractal([("cantor", 2, 0.25, 8), ("uniform", 64)])
    dust = build_cantor_dust(3, 4, 2.0**-2.5, 6, placement="planar")
    plain = FractalSet(n=3, points=dust.points, similarity_dim=0.8, cell_side=1.0, level=6)
    b = frames(1, 43)[0]
    for fr in (pair, plain):
        assert fr.pieces is None and fr._piece_level(10) is None
        rows, expanded = fr.image_rows(b[:, : fr.n], 10)
        assert expanded == 0 and np.array_equal(rows, fr.points @ b[:, : fr.n].T)
    with pytest.raises(ValueError, match="exactly one"):
        FractalSet(n=3, points=None, similarity_dim=0.8, cell_side=1.0, level=6)


def test_dust_and_its_image_counts_stay_small_in_memory(cap3):
    x = rng_stream(44, 0).random((3, cap3.dim))
    tracemalloc.start()
    try:
        dust = build_cantor_dust(3, 4, 2.0**-2.5, 10, placement="planar")
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tally = {}
        fits = [_image_dimension(cap3, dust, xi, (4, 10), tally) for xi in x]
        counted = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1,048,576 rows alone take 24 MiB and one image of them 16 MiB
    assert built < 2**20
    assert counted < 4 * 2**20
    assert "points" not in vars(dust)
    assert tally["box_dimension.points"] == 3 * 4**10
    assert all(abs(f.slope - 0.8) < 0.1 for f in fits)


# -- spread sets ------------------------------------------------------------


def test_spread_set_matches_budget():
    sp = spread_delta_s_set(1, 2.0**-10, 0.5)
    assert sp.shape == (32, 1)
    assert sp.min() >= 0.0 and sp.max() <= 1.0
    gaps = np.diff(np.sort(sp[:, 0]))
    assert gaps.min() >= 2.0**-10


def test_separation_is_the_maximal_greedy():
    # scipy returns query_pairs in no set order; read in that order, the
    # greedy dropped points no kept point covered
    for seed in range(3):
        pts = rng_stream(14, 40, seed).random((400, 2))
        delta = 0.05
        kept = separate_points(pts, delta)
        gap, _ = cKDTree(kept).query(pts)
        assert gap.max() < delta
        pair_gap = cKDTree(kept).query(kept, k=2)[0][:, 1]
        assert pair_gap.min() >= delta
        # the lexicographic greedy: keep a point unless an earlier kept one is near
        order = pts[np.lexsort(pts.T[::-1])]
        greedy = []
        for p in order:
            if all(np.linalg.norm(p - q) >= delta * (1.0 - 1e-12) for q in greedy):
                greedy.append(p)
        assert np.array_equal(kept, np.array(greedy))
