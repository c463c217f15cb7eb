"""Density, log-convexity, and the Weyl denominator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quantlab import density_weights as dw
from quantlab import lie_core as lc


def test_eta_basics():
    su2 = lc.get_model("su2")
    assert abs(dw.eta_tilde(su2, [0.0])[0] - 1.0) < 1e-15
    assert abs(dw.eta_tilde(su2, [1.0])[0] - math.sinh(1.0)) < 1e-14
    # even in Y
    assert abs(dw.eta_tilde(su2, [-1.3])[0]
               - dw.eta_tilde(su2, [1.3])[0]) < 1e-14
    t2 = lc.get_model("t2")
    assert dw.eta_tilde(t2, [0.4, -2.0])[0] == 1.0


@pytest.mark.parametrize("name,row", [("su2", [0.7]), ("t2", [0.4, -2.0])])
def test_one_row_in_one_row_out(name, row):
    # a one-row stack gives shape (1,), as every other stacked function
    # does, never a 0-d array
    model = lc.get_model(name)
    for func in (dw.eta_tilde, dw.log_eta_tilde, dw.weyl_denominator):
        assert func(model, np.array([row])).shape == (1,)
        many = func(model, np.array([row, row]))
        assert many.shape == (2,)
        assert func(model, np.array([row]))[0] == many[0]


def test_eta_weyl_invariance():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(0)
    ws = lc.weyl_group(su2)
    for _ in range(50):
        t = rng.standard_normal(1) * 2.0
        vals = [float(dw.eta_tilde(su2, w @ t)[0]) for w in ws]
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


def _log_convexity_series(t: float) -> Fraction:
    # (sinh^2 t - t^2) / t^4 = sum_{k >= 2} 2^{2k-1} t^{2k-4} / (2k)!, in
    # exact rationals at the double t; 40 terms reach past 1e-30 for |t| <= 6
    x2 = Fraction(t) ** 2
    return sum(Fraction(2 ** (2 * k - 1), math.factorial(2 * k)) * x2 ** (k - 2)
               for k in range(2, 42))


@pytest.mark.parametrize("t", [0.0, 1e-6, 0.0012, 0.0499999, -0.0499999,
                               0.05, 0.3, 1.0, 1.9999, 2.0, 2.5, -3.0, 6.0])
def test_log_convexity_closed_form_matches_exact_series(t):
    # a one-point grid: min_closed_form is the closed form at t.  A
    # three-term series below |t| = 0.05 was 6.6e-12 off at t = 0.0499999
    rep = dw.eta_log_convexity_certificate(t_range=(t, t), grid=1)
    want = _log_convexity_series(t)
    got = Fraction(rep.metadata["min_closed_form"])
    assert abs(float((got - want) / want)) <= 1e-15


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


def _vandermonde(model, t_coords):
    # the oracle: the Vandermonde of the defining-representation
    # eigenvalues at the torus points, ordered by angle
    coords = np.zeros((len(t_coords), model.dim))
    coords[:, list(model.torus_indices)] = t_coords
    lam = np.diagonal(lc.exp_alg_batch(model, coords), axis1=1, axis2=2)
    lam = np.take_along_axis(lam, np.argsort(np.angle(lam), axis=1), axis=1)
    out = np.ones(len(t_coords), dtype=complex)
    for a in range(lam.shape[1]):
        for b in range(a + 1, lam.shape[1]):
            out = out * (lam[:, b] - lam[:, a])
    return out


def test_weyl_denominator_su2():
    su2 = lc.get_model("su2")
    taus = np.array([0.5, 1.0, 2.0, math.pi, 5.0])
    delta = dw.weyl_denominator(su2, taus.reshape(-1, 1))
    assert delta.dtype == float and delta.min() > 0.0
    assert np.allclose(delta ** 2, 2.0 - 2.0 * np.cos(taus), atol=1e-12)
    # the root product is the modulus of the eigenvalue Vandermonde
    many = np.random.default_rng(4).uniform(-10.0, 10.0, (200, 1))
    assert np.allclose(dw.weyl_denominator(su2, many),
                       np.abs(_vandermonde(su2, many)), rtol=0, atol=1e-14)
    # both vanish at the singular torus points tau = 0, 2 pi
    sing = np.array([[0.0], [2 * math.pi]])
    assert dw.weyl_denominator(su2, sing).max() < 1e-12
    assert np.abs(_vandermonde(su2, sing)).max() < 1e-12
    t2 = lc.get_model("t2")
    ones = dw.weyl_denominator(t2, np.array([[0.3, 1.1], [2.0, -0.4]]))
    assert np.array_equal(ones, [1.0, 1.0])
