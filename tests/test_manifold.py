import numpy as np
import pytest

from projlab.manifold import (
    CapChart,
    ChartDomainError,
    DegenerateJacobianError,
    NonConvexityError,
    PerturbedCapChart,
    _fd_hessian,
    frame_matrices,
    principal_curvatures,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_cap_point_on_sphere():
    for n in (3, 4, 5):
        ch = CapChart(n, 0.6)
        x = rng(1).random((200, ch.dim))
        p = ch.point(x)
        assert np.abs(np.linalg.norm(p, axis=1) - 1.0).max() <= 1e-9
        assert np.abs(p[:, -1] - 0.6).max() <= 1e-12


def test_cap_height_range_rejected():
    with pytest.raises(ValueError):
        CapChart(3, 1.5)
    with pytest.raises(ValueError):
        CapChart(3, 0.0)
    with pytest.raises(ValueError):
        CapChart(3, -1.0)


def test_domain_validation():
    ch = CapChart(3, 0.6)
    with pytest.raises(ChartDomainError):
        ch.point(np.array([[1.7]]))
    with pytest.raises(ChartDomainError):
        ch.point(np.array([[-0.2]]))


def test_normal_is_unit_and_orthogonal():
    ch = CapChart(3, 0.6)
    x = rng(2).random((300, 1))
    nu = ch.normal(x)
    p = ch.point(x)
    assert np.abs(np.linalg.norm(nu, axis=-1) - 1.0).max() <= 1e-9
    assert np.abs(np.einsum("xn,xn->x", nu, p)).max() <= 1e-9


def test_normal_height_is_dual_height():
    # the normal of the cap at height c has constant vertical part sqrt(1-c^2)
    for c in (0.3, 0.6, 0.9):
        ch = CapChart(3, c)
        x = rng(3).random((100, 1))
        nu = ch.normal(x)
        assert np.abs(nu[..., -1] - np.sqrt(1 - c * c)).max() <= 1e-9


def test_normal_lipschitz_bound():
    ch = CapChart(3, 0.6)
    consts = ch.constants
    bound = (consts.kappa_max * consts.jacobian_scale + 0.1) * 1e-3
    x = rng(4).random((200, 1)) * 0.99
    nu = ch.normal(x)
    nu2 = ch.normal(x + 1e-3)
    step = np.linalg.norm(nu2 - nu, axis=-1).max()
    assert step <= bound


def test_cap_curvature_value():
    # height 0.6 gives radius 0.8 and curvature 0.6/0.8 = 0.75 in every
    # principal direction, for any ambient dimension
    ch = CapChart(3, 0.6)
    x = np.full((1, 1), 0.5)
    kappa = principal_curvatures(ch, x)
    assert kappa.shape == (1, 1)
    assert abs(kappa[0, 0] - 0.75) <= 1e-9
    assert abs(principal_curvatures(ch.dual(), x)[0, 0] - 4.0 / 3.0) <= 1e-9

    ch5 = CapChart(5, 0.6)
    x = rng(5).random((100, 3))
    kap = principal_curvatures(ch5, x)
    assert kap.shape == (100, 3)
    assert np.abs(kap - 0.75).max() <= 1e-7


def test_perturbed_zero_amplitude_matches_cap():
    ch = CapChart(3, 0.6)
    pz = PerturbedCapChart(3, 0.6, amplitude=0.0, frequency=2.0)
    x = rng(6).random((50, 1))
    assert np.abs(ch.point(x) - pz.point(x)).max() <= 1e-12
    ka = principal_curvatures(ch, x)
    kb = principal_curvatures(pz, x)
    assert np.abs(ka - kb).max() <= 1e-5


def test_perturbed_amplitude_keeps_convexity():
    pz = PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0)
    x = rng(7).random((100, 1))
    kap = principal_curvatures(pz, x)
    assert kap.min() > 0


def _fd4_of_point(chart, x, step=1e-4):
    # the fourth-order central stencil of `point` along each parameter axis
    cols = []
    for j in range(chart.dim):
        h = np.zeros(chart.dim)
        h[j] = step
        p = [chart.point(x + k * h) for k in (-2, -1, 1, 2)]
        cols.append((p[0] - 8.0 * p[1] + 8.0 * p[2] - p[3]) / (12.0 * step))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("n, amplitude", [(3, 0.1), (4, 0.005)], ids=["3", "4"])
def test_perturbed_derivatives_match_finite_differences(n, amplitude):
    for c in (0.6, -0.6):
        pz = PerturbedCapChart(n, c, amplitude=amplitude, frequency=2.0)
        x = rng(8).random((300, pz.dim))
        p, J, H, nu = pz.point(x), pz.jacobian(x), pz.hessian(x), pz.normal(x)
        assert np.abs(J - _fd4_of_point(pz, x)).max() <= 1e-9
        assert np.abs(H - _fd_hessian(pz.jacobian, x)).max() <= 1e-8
        assert np.abs(np.linalg.norm(nu, axis=-1) - 1.0).max() <= 1e-12
        assert np.abs(np.einsum("xn,xn->x", nu, p)).max() <= 1e-12
        assert np.abs(np.einsum("xn,xnk->xk", nu, J)).max() <= 1e-12
        ii = np.einsum("xn,xnkl->xkl", nu, H)
        assert np.linalg.eigvalsh(ii)[:, 0].min() > 0.0


@pytest.mark.parametrize("n, amplitude, frequency, rejected", [
    (3, 0.4, 6.0, True),
    (4, 0.01, 2.0, True),
    (4, 0.008, 2.0, True),
    (3, 0.01, 2.0, False),
    (3, 0.1, 2.0, False),
    (4, 0.005, 2.0, False),
], ids=["n3-a0.4-f6", "n4-a0.01-f2", "n4-a0.008-f2", "n3-a0.01-f2", "n3-a0.1-f2",
        "n4-a0.005-f2"])
def test_perturbed_large_amplitude_rejected(n, amplitude, frequency, rejected):
    if rejected:
        with pytest.raises(NonConvexityError):
            PerturbedCapChart(n, 0.6, amplitude=amplitude, frequency=frequency)
    else:
        pz = PerturbedCapChart(n, 0.6, amplitude=amplitude, frequency=frequency)
        assert principal_curvatures(pz, rng(12).random((500, pz.dim))).min() >= 1e-3


def test_perturbed_degenerate_jacobian_is_a_chart_error():
    # amplitude tan(acos(0.6)) at frequency 1/2 lifts the grid node x = 0.5
    # onto the pole, where the chart Jacobian vanishes
    with pytest.raises(DegenerateJacobianError):
        PerturbedCapChart(3, 0.6, amplitude=4.0 / 3.0, frequency=0.5)


@pytest.mark.parametrize("chart", [
    PerturbedCapChart(3, 0.6, amplitude=0.1, frequency=2.0),
    PerturbedCapChart(4, -0.6, amplitude=0.005, frequency=2.0),
    CapChart(3, -0.6),
    CapChart(4, -0.3),
], ids=["perturbed3", "perturbed4-neg", "cap3-neg", "cap4-neg"])
def test_dual_normal_orientation_is_positive(chart):
    # the dual's normal is the base point with no sign probe: its curvatures
    # are positive and the reciprocals of the base chart's
    x = rng(13).random((300, chart.dim))
    kappa = principal_curvatures(chart, x)
    dual = principal_curvatures(chart.dual(), x)
    assert dual.min() > 0.0
    assert np.abs(kappa * dual[:, ::-1] - 1.0).max() <= 1e-6


def test_dual_image_height():
    # duality sends the height-c cross-section to the height sqrt(1-c^2) one
    for c in (0.3, 0.6, 0.9):
        ch = CapChart(3, c)
        du = ch.dual()
        x = rng(8).random((100, 1))
        h = du.point(x)[:, -1]
        assert np.abs(h - np.sqrt(1 - c * c)).max() <= 1e-10


def test_dual_involution():
    ch = CapChart(3, 0.6)
    dd = ch.dual().dual()
    x = rng(9).random((100, 1))
    assert np.abs(dd.point(x)[:, -1] - 0.6).max() <= 1e-8
    # dual normal points back at the original surface point
    du = ch.dual()
    assert np.abs(du.normal(x) - ch.point(x)).max() <= 1e-8


def test_dual_curvature_product():
    for n in (3, 4, 5):
        ch = CapChart(n, 0.6)
        du = ch.dual()
        x = rng(10).random((200, ch.dim))
        prod = principal_curvatures(ch, x) * principal_curvatures(du, x)
        assert np.abs(prod - 1.0).max() <= 1e-6


def test_tangent_space_duality():
    # tangent planes of the chart and its dual agree at matching parameters
    for n in (3, 4, 5):
        ch = CapChart(n, 0.6)
        du = ch.dual()
        x = rng(11).random((100, ch.dim))
        d = ch.dim
        Q1 = np.linalg.qr(np.swapaxes(frame_matrices(ch, x)[:, :d, :], 1, 2))[0]
        Q2 = np.linalg.qr(np.swapaxes(frame_matrices(du, x)[:, :d, :], 1, 2))[0]
        R = Q2 - Q1 @ (np.swapaxes(Q1, 1, 2) @ Q2)
        assert np.linalg.norm(R, axis=(1, 2)).max() <= 1e-7


def test_frame_orthogonality_and_conditioning():
    ch = CapChart(4, 0.6)
    x = np.array([[0.3, 0.7]])
    p = ch.point(x)[0]
    B = frame_matrices(ch, x)[0]
    e, nu = B[:-1], B[-1]
    # position, tangent rows, and normal are mutually orthogonal
    assert np.abs(e @ p).max() <= 1e-9
    assert abs(nu @ p) <= 1e-9
    assert np.abs(e @ nu).max() <= 1e-9
    assert abs(np.linalg.norm(nu) - 1.0) <= 1e-9
    conditioning = np.linalg.svd(np.concatenate([p[None, :], B]), compute_uv=False)[-1]
    assert ch.constants.frame_conditioning > 0.1
    assert conditioning >= ch.constants.frame_conditioning * 0.99


def test_second_fundamental_bounds():
    # the largest curvature of the chart and the smallest of its dual are
    # kappa_max and 1/kappa_max; for a cap both are attained everywhere
    ch = CapChart(3, 0.6)
    x = rng(7).random((2000, ch.dim))
    assert abs(principal_curvatures(ch, x).max() - 0.75) <= 1e-6
    assert abs(principal_curvatures(ch.dual(), x).min() - 4.0 / 3.0) <= 1e-6


def test_second_fundamental_quadratic_scaling():
    # the form nu . (u^T H u) is bilinear, so doubling u multiplies it by 4
    ch = CapChart(4, 0.6)
    x = np.array([[0.4, 0.6]])
    H = ch.hessian(x)
    nu = ch.normal(x)
    u = np.array([0.3, -0.7])
    form = lambda v: float(np.einsum("xk,xkij,i,j->x", nu, H, v, v)[0])
    assert abs(form(2.0 * u) / form(u) - 4.0) <= 1e-12


def test_second_fundamental_quotients_match_curvature():
    ch = CapChart(4, 0.6)
    x = np.array([[0.4, 0.6], [0.1, 0.9]])
    kappa = principal_curvatures(ch, x)
    assert np.abs(kappa[:, 0] - 0.75).max() <= 1e-7
    assert np.abs(kappa[:, -1] - 0.75).max() <= 1e-7


def test_perturbed_bounds_near_cap():
    base = CapChart(3, 0.6).constants
    bumped = PerturbedCapChart(3, 0.6, amplitude=0.01, frequency=2.0).constants
    assert abs(bumped.kappa_max / base.kappa_max - 1.0) <= 0.1
    assert abs(bumped.kappa_min / base.kappa_min - 1.0) <= 0.1


def test_sectional_curvature_hypothesis():
    for n in (4, 5):
        ch = CapChart(n, 0.6)
        assert ch.constants.sectional_min > 1.0
    ch3 = CapChart(3, 0.6)
    assert ch3.constants.kappa_min > 0


def test_frames_leave_the_chart_constants_unfilled():
    # the frame scale is a Jacobian pass of its own; curvatures, Christoffel
    # symbols and the frame conditioning are left for `constants`
    ch = CapChart(4, 0.6)
    frame_matrices(ch, rng(2).random((5, ch.dim)))
    assert "constants" not in ch.__dict__
    assert ch.m_sigma == ch.constants.jacobian_scale


def test_degenerate_jacobian_detected():
    class Collapsed(CapChart):
        def jacobian(self, x):
            return np.zeros_like(super().jacobian(x))

    ch = Collapsed(3, 0.6)
    with pytest.raises(DegenerateJacobianError):
        ch.constants
    with pytest.raises(DegenerateJacobianError):
        frame_matrices(ch, np.array([[0.5]]))
