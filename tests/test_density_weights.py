"""Density, log-convexity, measure identification, and Weyl integration."""

import math

import numpy as np
import pytest

from quantlab import density_weights as dw
from quantlab import lie_core as lc


def test_eta_basics():
    su2 = lc.get_model("su2")
    assert abs(dw.eta(lc.algebra_vec(su2, [0, 0, 0])) - 1.0) < 1e-15
    assert abs(
        dw.eta(lc.algebra_vec(su2, [0, 0, 1.0])) - math.sinh(1.0)
    ) < 1e-14
    # even in Y
    assert abs(
        dw.eta(lc.algebra_vec(su2, [0, 0, -1.3]))
        - dw.eta(lc.algebra_vec(su2, [0, 0, 1.3]))
    ) < 1e-14
    t2 = lc.get_model("t2")
    assert dw.eta(lc.algebra_vec(t2, [0.4, -2.0])) == 1.0


def test_eta_requires_torus_part():
    su2 = lc.get_model("su2")
    with pytest.raises(ValueError):
        dw.eta(lc.algebra_vec(su2, [0.5, 0, 1.0]))


def test_eta_weyl_invariance():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(0)
    ws = lc.weyl_group(su2)
    for _ in range(50):
        t = rng.standard_normal(1) * 2.0
        vals = [float(dw.eta_tilde(su2, w.matrix @ t)) for w in ws]
        assert max(vals) - min(vals) < 1e-12


def test_sinhc_stability():
    xs = np.array([0.0, 1e-9, 1e-5, 1e-3, 0.5, 3.0])
    got = dw.sinhc(xs)
    assert got[0] == 1.0
    for x, g in zip(xs[1:], got[1:]):
        assert abs(g - math.sinh(x) / x) < 1e-14


def test_log_sinhc_values():
    for x in (1e-6, 0.01, 1.0, 5.0, 19.0):
        expect = math.log(math.sinh(x) / x)
        assert abs(dw.log_sinhc(np.array([x]))[0] - expect) < 1e-12
    # large-argument branch: sinh overflows float64 beyond ~710 but the
    # stable form keeps working
    x = 800.0
    expect = x - math.log(2 * x)
    assert abs(dw.log_sinhc(np.array([x]))[0] - expect) < 1e-12


def test_log_convexity_certificate():
    rep = dw.eta_log_convexity_certificate(grid=4000)
    assert rep.passed, rep
    assert rep.metadata["min_closed_form"] > 0


def test_log_convexity_pinned_values():
    # closed form at t = 1 and the limit at 0
    rep = dw.eta_log_convexity_certificate(t_range=(-2, 2), grid=4001)
    assert rep.passed
    t = np.linspace(-2, 2, 4001)
    # t = 1.0 sits on this grid
    val = math.sinh(1.0) ** 2 - 1.0
    assert abs(val - 0.3810978455418155) < 1e-12
    # the grid's midpoint is t = 0 where the series limit applies
    mid = 1.0 / 3.0
    assert rep.metadata["min_closed_form"] <= mid + 1e-12


def test_hessian_of_log_eta_nonnegative_on_grid():
    su2 = lc.get_model("su2")
    t = np.linspace(-5, 5, 2001)
    h = 1e-3
    cols = np.stack([t - h, t, t + h], axis=1).reshape(-1, 1)
    lg = dw.log_eta_tilde(su2, cols).reshape(-1, 3)
    second = (lg[:, 0] - 2 * lg[:, 1] + lg[:, 2]) / h**2
    assert second.min() >= -1e-8


def test_weyl_denominator_su2():
    su2 = lc.get_model("su2")
    taus = np.array([0.5, 1.0, 2.0, math.pi, 5.0])
    delta = dw.weyl_denominator(su2, taus.reshape(-1, 1))
    assert np.allclose(
        np.abs(delta) ** 2, 2.0 - 2.0 * np.cos(taus), atol=1e-12
    )
    # vanishes exactly at the singular torus points tau = 0, 2 pi
    sing = dw.weyl_denominator(su2, np.array([[0.0], [2 * math.pi]]))
    assert np.abs(sing).max() < 1e-12
    # the diagonal read equals eigenvalues per point, sorted by angle,
    # bit for bit
    many = np.random.default_rng(4).uniform(-10.0, 10.0, (200, 1))
    ref = []
    for tc in many:
        lam = np.linalg.eigvals(lc.torus_point(su2, tc).matrix)
        lam = lam[np.argsort(np.angle(lam))]
        ref.append(lam[1] - lam[0])
    assert np.array_equal(dw.weyl_denominator(su2, many), np.array(ref))
    t2 = lc.get_model("t2")
    ones = dw.weyl_denominator(t2, np.array([[0.3, 1.1], [2.0, -0.4]]))
    assert np.allclose(ones, 1.0)


def test_haar_liouville_torus():
    t2 = lc.get_model("t2")
    rep = dw.haar_liouville_consistency(t2, lambda Y: 1.0, level=2)
    assert rep.passed, rep
    assert abs(rep.metadata["side_flat_times_eta_sq"] - 0.5) < 1e-9
    rep0 = dw.haar_liouville_consistency(t2, lambda Y: 0.0, level=1)
    assert rep0.passed
    assert rep0.metadata["side_polar_volume"] == 0.0


def test_haar_liouville_su2_character():
    su2 = lc.get_model("su2")

    def f(Y):
        g = lc.exp_alg(
            lc.algebra_vec(su2, np.zeros(3)), Y
        )
        return abs(np.trace(g.matrix)) ** 2

    rep = dw.haar_liouville_consistency(su2, f, level=3)
    assert rep.passed, rep


def test_haar_liouville_su2_gaussian_profile():
    su2 = lc.get_model("su2")

    def f(Y):
        return math.exp(-float(np.dot(Y.coords, Y.coords)))

    rep = dw.haar_liouville_consistency(su2, f, level=3)
    assert rep.passed, rep


def test_haar_liouville_rejects_non_class():
    su2 = lc.get_model("su2")
    rep = dw.haar_liouville_consistency(su2, lambda Y: float(Y.coords[0]))
    assert not rep.passed
    assert "precondition" in rep.metadata


def test_weyl_integration_constant_and_characters():
    su2 = lc.get_model("su2")
    rep1 = dw.weyl_integration_check(su2, lambda g: 1.0)
    assert rep1.passed, rep1
    assert abs(rep1.metadata["group_integral"] - 1.0) < 1e-12

    def char_sq(j):
        def f(g):
            lam = np.linalg.eigvals(g.matrix)
            z = lam[np.argmax(np.abs(np.angle(lam)))]
            # character as a geometric sum over exponents -j..j
            tau = 2.0 * np.angle(z)
            if abs(math.sin(tau / 2.0)) < 1e-8:
                return float((2 * j + 1) ** 2)
            val = math.sin((2 * j + 1) * tau / 2.0) / math.sin(tau / 2.0)
            return float(val * val)
        return f

    for j in (0.5, 1.0, 1.5, 3.0):
        rep = dw.weyl_integration_check(su2, char_sq(j), level=7)
        assert rep.passed, (j, rep)
        assert abs(rep.metadata["group_integral"] - 1.0) < 1e-9
        assert abs(rep.metadata["c_fitted"] - 2**-0.5) < 1e-9


def test_weyl_integration_torus_trivial():
    t2 = lc.get_model("t2")

    def f(g):
        return float(np.real(g.matrix[0, 0] * np.conj(g.matrix[1, 1])))

    rep = dw.weyl_integration_check(t2, f)
    assert rep.passed, rep
    assert rep.metadata["weyl_order"] == 1


def test_weyl_integration_rejects_non_class():
    # note Re(g00) = trace/2 IS a class function on this group; the
    # off-diagonal modulus is not.
    su2 = lc.get_model("su2")

    def f(g):
        return float(abs(g.matrix[0, 1]) ** 2)

    rep = dw.weyl_integration_check(su2, f)
    assert not rep.passed
    assert "precondition" in rep.metadata


@pytest.mark.parametrize("name", ["t2", "su2"])
def test_class_function_check_reproduces_scalar_loop(name):
    # the per-sample loop moved onto stacked group operations, kept as the
    # reference: same draws, same conjugations, same worst residual
    model = lc.get_model(name)

    def on_group(g):
        return float(np.real(np.trace(g.matrix @ g.matrix))
                     + g.matrix[0, -1].real)

    def on_fiber(y):
        return float(np.dot(y.coords, y.coords) + y.coords[0])

    for f, grouped in ((on_group, True), (on_fiber, False)):
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(32):
            g = lc.random_group_point(model, rng)
            if grouped:
                x = lc.random_group_point(model, rng)
                conj = lc.GroupPoint(
                    model, g.matrix @ x.matrix @ np.linalg.inv(g.matrix))
                worst = max(worst, abs(f(conj) - f(x)))
            else:
                y = lc.random_algebra(model, rng)
                worst = max(worst, abs(f(lc.adjoint_action(g, y)) - f(y)))
        got = dw._check_class_function(model, f, on_group=grouped)
        assert got == worst
        # neither function is a class function on su2
        assert (worst > 1e-3) == (not model.is_abelian)
