"""Checks for the Kahler structure: omega, the polar-map differential, the
complex structure, the metric, and the completeness certificate.

The polar-map differential is held against a finite-difference oracle that
never touches the block formulas: it differentiates the matrix-valued map
(x, Y) -> x exp(iY) directly in the defining representation and reads the
left-trivialized velocity off the group."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quantlab import kahler_geom as kg
from quantlab import lie_core as lc


def _omega(model, y):
    return kg.omega_batch(model, y)[0]


def _dphi(model, y):
    return kg.dphi_batch(model, np.asarray(y, float)[None])[0]


def _J(model, y):
    return kg.complex_structure_batch(model, np.asarray(y, float)[None])[0]


def _metric(model, ys):
    # the Gram matrices J^T Omega of g(v, w) = omega(Jv, w), one per row of
    # ys, as completeness_certificate forms them
    ys = np.atleast_2d(np.asarray(ys, float))
    return (np.swapaxes(kg.complex_structure_batch(model, ys), 1, 2)
            @ kg.omega_batch(model, ys))


def _exp(model, y, c=None):
    cs = None if c is None else np.asarray(c, float)[None]
    return lc.exp_alg_batch(model, np.asarray(y, float)[None], cs)[0]


def _coords(model, mat):
    return lc.coords_from_matrix_batch(model, mat[None])[0]


def _omega_form(model, y, v, w):
    # <X2,Z1> - <X1,Z2> - <Y,[X1,Z1]> for 2n-vectors v = (X1, X2),
    # w = (Z1, Z2), straight from the definition
    n = model.dim
    lie = _field_bracket(model, v, w)[:n]
    return float(np.dot(v[n:], w[:n]) - np.dot(v[:n], w[n:])
                 - np.dot(y, lie))


# ---------------------------------------------------------------------------
# omega


def test_omega_examples():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(1)
    om = _omega(su2, rng.standard_normal(3))
    e1 = np.array([1.0, 0, 0, 0, 0, 0])
    assert abs(e1 @ om @ np.roll(e1, 3) - (-1.0)) < 1e-14
    assert np.abs(om + om.T).max() < 1e-14
    # at Y = e3: omega((e1, 0), (e2, 0)) = -<e3, [e1, e2]> = -1
    om3 = _omega(su2, [0, 0, 1.0])
    assert abs(e1 @ om3 @ np.roll(e1, 1) - (-1.0)) < 1e-14


def test_omega_matrix_matches_form():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(2)
    y = rng.standard_normal(3)
    mat = _omega(su2, y)
    for _ in range(5):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert abs(_omega_form(su2, y, a, b) - a @ mat @ b) < 1e-13


# ---------------------------------------------------------------------------
# the polar-map differential


def _dphi_fd_oracle(model, y_coords, h=1e-6):
    """Columns: left-trivialized velocity of s -> x exp(s E1) exp(i(Y+s E2))
    for each frame direction, via central differences in the defining rep."""
    n = model.dim
    y = np.asarray(y_coords, float)
    base_inv = np.linalg.inv(_exp(model, np.zeros(n), y))
    cols = []
    for idx in range(2 * n):
        e1 = np.zeros(n)
        e2 = np.zeros(n)
        (e1 if idx < n else e2)[idx % n] = 1.0
        def phi(s):
            return _exp(model, s * e1) @ _exp(model, np.zeros(n), y + s * e2)
        m = base_inv @ (phi(h) - phi(-h)) / (2 * h)
        a_part = (m - m.conj().T) / 2.0
        b_part = (m + m.conj().T) / 2j
        cols.append(
            np.concatenate([_coords(model, a_part), _coords(model, b_part)])
        )
    return np.stack(cols, axis=1)


def test_dphi_identity_at_zero_and_on_torus():
    su2 = lc.get_model("su2")
    assert np.allclose(_dphi(su2, [0, 0, 0]), np.eye(6), atol=1e-14)
    t2 = lc.get_model("t2")
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.standard_normal(2)
        assert np.allclose(_dphi(t2, y), np.eye(4), atol=1e-14)
    # su(2) with Y in t: the formula need not be the identity off t-directions,
    # but restricted to the torus block it is.
    d = _dphi(su2, [0, 0, 0.8])
    for idx in (2, 5):
        col = np.zeros(6)
        col[idx] = 1.0
        assert np.allclose(d @ col, col, atol=1e-12)


def test_dphi_matches_finite_difference_oracle():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        y = rng.standard_normal(3) * rng.uniform(0.1, 2.0)
        got = _dphi(su2, y)
        oracle = _dphi_fd_oracle(su2, y)
        worst = max(worst, np.abs(got - oracle).max())
    assert worst < 1e-6, worst


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_polar_differential_certificate_reproduces_scalar_loop(name):
    # the per-sample loop the certificate replaced, kept as its reference
    model = lc.get_model(name)
    rng_batch = np.random.default_rng(0)
    rng_loop = np.random.default_rng(0)
    report = kg.polar_differential_certificate(model, rng_batch, seed=0,
                                               samples=40)
    worst = 0.0
    for _ in range(40):
        y = rng_loop.standard_normal(model.dim) * rng_loop.uniform(0.1, 2.0)
        got = _dphi(model, y)
        worst = max(worst, float(np.abs(got - _dphi_fd_oracle(model, y)).max()))
    assert report.passed
    assert report.max_error == worst
    assert worst > 0.0
    assert rng_batch.random() == rng_loop.random()


# the coefficients that cancel as theta -> 0, each with its Taylor
# coefficients in theta^2 (enough for theta <= 1e-2 to rounding) and the
# naive quotient that loses digits there
_CANCELLING_COEFFICIENTS = {
    "b_onemcos": (lambda t: kg._block_values(t)[1],
                  [1 / 2, 1 / 24, 1 / 720, 1 / 40320],
                  lambda t: (np.cosh(t) - 1) / t**2),
    "c_sinc": (lambda t: kg._block_values(t)[3],
               [-1 / 6, -1 / 120, -1 / 5040, -1 / 362880],
               lambda t: (1 - np.sinh(t) / t) / t**2),
    "c_ur": (lambda t: kg._j_block_values(t)[1],
             [-1 / 12, 1 / 120, -17 / 20160, 31 / 362880],
             lambda t: (2 * np.tanh(t / 2) / t - 1) / t**2),
    "c_ll": (lambda t: kg._j_block_values(t)[2],
             [1 / 6, -7 / 360, 31 / 15120, -127 / 604800],
             lambda t: (1 - t / np.sinh(t)) / t**2),
}


@pytest.mark.parametrize("theta", [1e-8, 1e-6, 1.1e-6, 1e-5, 1e-4, 1e-3,
                                   1e-2])
def test_block_values_keep_every_digit_at_small_eigenvalues(theta):
    # every dphi and J coefficient that cancels as theta -> 0 matches its
    # Taylor series to rounding, where the naive quotient misses it
    t = np.array([theta])
    for name, (coefficient, series, naive) in (
            _CANCELLING_COEFFICIENTS.items()):
        taylor = sum(c * theta ** (2 * k) for k, c in enumerate(series))
        assert abs(coefficient(t)[0] / taylor - 1) < 1e-15, name
        assert abs(naive(t)[0] / taylor - 1) > 1e-12, name


def test_dphi_near_zero_taylor_branch():
    su2 = lc.get_model("su2")
    y = np.array([1e-8, -2e-8, 1e-8])
    got = _dphi(su2, y)
    oracle = _dphi_fd_oracle(su2, y, h=1e-5)
    assert np.abs(got - oracle).max() < 1e-6


# ---------------------------------------------------------------------------
# complex structure


def test_J_flat_at_zero():
    su2 = lc.get_model("su2")
    j = _J(su2, [0, 0, 0])
    expect = np.zeros((6, 6))
    expect[:3, 3:] = -np.eye(3)
    expect[3:, :3] = np.eye(3)
    assert np.allclose(j, expect, atol=1e-13)


def test_J_on_vertical_Y_direction():
    # J sends (0, 2Y) to (-2Y, 0) at every base point over Y.
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.standard_normal(3) * rng.uniform(0.2, 2.5)
        j = _J(su2, y)
        vin = np.concatenate([np.zeros(3), 2 * y])
        vout = j @ vin
        assert np.allclose(vout, np.concatenate([-2 * y, np.zeros(3)]),
                           atol=1e-10)


def _solve_route_J(model, ys):
    # the definition J = dphi^{-1} J_flat dphi, as a linear solve: the
    # oracle the closed form is held against
    n = model.dim
    flat = np.zeros((2 * n, 2 * n))
    flat[:n, n:] = -np.eye(n)
    flat[n:, :n] = np.eye(n)
    dphi = kg.dphi_batch(model, ys)
    return np.linalg.solve(dphi, flat @ dphi)


@settings(max_examples=200, deadline=None)
@given(
    radius=st.one_of(
        st.sampled_from([0.0, 1e-7, 1e-6 - 1e-12, 1e-6, 1e-6 + 1e-12, 1e-5,
                         1e-3, 10.0]),
        st.floats(0.0, 10.0)),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_closed_form_J_matches_the_solve_route(radius, direction):
    su2 = lc.get_model("su2")
    d = np.array(direction)
    assume(np.linalg.norm(d) > 1e-3)
    y = radius * d / np.linalg.norm(d)
    got = _J(su2, y)
    want = _solve_route_J(su2, y[None])[0]
    # the solve loses digits as the condition of dphi grows like
    # cosh(|Y|)^2; the closed form does not
    assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.cosh(radius) ** 2)
    assert np.abs(got @ got + np.eye(6)).max() < 1e-14


@pytest.mark.parametrize("name", ["u1", "t2"])
def test_closed_form_J_is_the_solve_route_on_tori(name):
    model = lc.get_model(name)
    ys = np.random.default_rng(11).standard_normal((50, model.dim)) * 3
    assert np.array_equal(kg.complex_structure_batch(model, ys),
                          _solve_route_J(model, ys))


def test_j_squared_fails_on_a_perturbed_block(monkeypatch):
    # J is assembled from its block coefficients, not conjugated from
    # J_flat, so one wrong coefficient breaks J^2 = -1 and the certificate
    # must see it
    su2 = lc.get_model("su2")
    assert kg.j_squared_certificate(su2, np.random.default_rng(0), 0).passed
    coefficients = kg._j_block_values

    def perturbed(theta):
        b_ul, c_ur, c_ll = coefficients(theta)
        return b_ul, c_ur * (1.0 + 1e-6), c_ll

    monkeypatch.setattr(kg, "_j_block_values", perturbed)
    assert not kg.j_squared_certificate(su2, np.random.default_rng(0),
                                        0).passed


def _eigh_route(model, ys):
    """dphi and J from one eigendecomposition of the hermitian i ad(Y) per
    row: the functions of ad(Y) applied eigenvalue by eigenvalue, the
    oracle the quadratics in ad(Y) are held against.  With eigenvalue lam
    of i ad(Y), dphi has block values [[cosh lam, -2i sinh(lam/2)^2/lam],
    [i sinh lam, sinh(lam)/lam]] and J has [[-i tanh(lam/2),
    -2 tanh(lam/2)/lam], [lam/sinh lam, i tanh(lam/2)]].

    The eigenvalues are 0 and +-|Y|.  eigh can return the 0 as a subnormal
    (5e-324 or 6e-321 on the pinned examples), whose quotients keep only a
    few bits, so every eigenvalue below the smallest normal double takes
    the limit values at 0."""
    ad = np.einsum("mi,ijk->mkj", ys, model.structure_constants)
    lam, vec = np.linalg.eigh(1j * ad)
    zero = np.abs(lam) < np.finfo(float).tiny
    safe = np.where(zero, 1.0, lam)

    def assemble(vals):
        vals = np.broadcast_to(vals, lam.shape)
        return ((vec * vals[:, None, :])
                @ np.conj(np.swapaxes(vec, 1, 2))).real

    def block_matrix(rows):
        return np.block([[assemble(v) for v in row] for row in rows])

    tanh_half = np.tanh(lam / 2)
    dphi = block_matrix(
        [[np.cosh(lam), 1j * (-2 * np.sinh(lam / 2) ** 2 / safe)],
         [1j * np.sinh(lam), np.where(zero, 1.0, np.sinh(lam) / safe)]])
    js = block_matrix(
        [[-1j * tanh_half, np.where(zero, -1.0, -2 * tanh_half / safe)],
         [safe / np.where(zero, 1.0, np.sinh(lam)), 1j * tanh_half]])
    return dphi, js


# radii start at 1e-100, where theta^2 = |Y|^2, which the closed forms
# read, is still a normal double
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 2.0, 20.0]),
                  st.floats(1e-100, 20.0)),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)),
    min_size=1, max_size=6))
@example(rows=[(0.0, [0.0, 0.0, 1.0]), (0.0, [0.0, 0.0, 1.0]),
               (1e-08, [0.5, 6.7e-194, 2.9e-107])])
@example(rows=[(0.01, [0.5, 9.895139752109423e-65, 0.0])])
def test_quadratics_in_ad_match_the_eigh_route(rows):
    su2 = lc.get_model("su2")
    ys = []
    for radius, direction in rows:
        d = np.array(direction)
        assume(np.linalg.norm(d) > 1e-3)
        ys.append(radius * d / np.linalg.norm(d))
    ys = np.array(ys)
    dphi = kg.dphi_batch(su2, ys)
    js = kg.complex_structure_batch(su2, ys)
    want_dphi, want_js = _eigh_route(su2, ys)
    # the eigh route carries rounding of the size of the largest entry,
    # cosh|Y|
    scale = 1e-13 * np.cosh(np.linalg.norm(ys, axis=1))
    assert np.all(np.abs(dphi - want_dphi).max(axis=(1, 2)) <= scale)
    assert np.all(np.abs(js - want_js).max(axis=(1, 2)) <= scale)
    assert np.abs(js @ js + np.eye(6)).max() <= 1e-14


def test_J_squared_and_spectrum():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((500, 3)) * rng.uniform(0.1, 2.5, size=(500, 1))
    js = kg.complex_structure_batch(su2, ys)
    resid = np.abs(np.einsum("mij,mjk->mik", js, js) + np.eye(6)).max()
    assert resid < 1e-10
    eig = np.linalg.eigvals(js[0])
    assert np.allclose(np.sort(eig.imag), [-1, -1, -1, 1, 1, 1], atol=1e-10)
    assert np.abs(eig.real).max() < 1e-10


# ---------------------------------------------------------------------------
# metric


def test_metric_flat_at_zero():
    su2 = lc.get_model("su2")
    g = _metric(su2, np.zeros(3))[0]
    assert np.abs(g - np.eye(6)).max() < 1e-13


def test_metric_symmetric_and_compatible():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(7)
    ys = rng.standard_normal((10, 3))
    gs = _metric(su2, ys)
    assert np.abs(gs - np.swapaxes(gs, 1, 2)).max() < 1e-10
    for y in ys:
        j = _J(su2, y)
        om = _omega(su2, y)
        # omega(Jv, Jw) = omega(v, w)
        assert np.abs(j.T @ om @ j - om).max() < 1e-9


def test_metric_positive_definite_at_e3():
    # g = J^T Omega is positive definite only for this orientation of J:
    # -J squares to -identity too, but gives a negative definite g
    su2 = lc.get_model("su2")
    g = _metric(su2, np.array([0, 0, 1.0]))[0]
    assert np.linalg.eigvalsh(g).min() > 0


# ---------------------------------------------------------------------------
# exterior-derivative consistency (Palais formulas with finite differences)


def _lie_derivative(model, func, y, direction, h=1e-6):
    # derivative along the left-invariant field of the 2n-vector
    # direction = (X1, X2); theta and omega do not depend on the group
    # point, so only the flat part X2 moves the argument Y
    x2 = direction[model.dim:]
    return (func(y + h * x2) - func(y - h * x2)) / (2 * h)


def _field_bracket(model, v, w):
    # [v, w] of left-invariant fields: ([X1, Z1], 0)
    n = model.dim
    return np.concatenate([lc.bracket(model, v[None, :n], w[None, :n])[0],
                           np.zeros(n)])


def test_dtheta_reproduces_omega():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(8)

    def theta(y, v):
        # the tautological 1-form <Y, X1>
        return float(np.dot(y, v[:3]))

    worst = 0.0
    for _ in range(10):
        y = rng.standard_normal(3)
        v = rng.standard_normal(6)
        w = rng.standard_normal(6)
        dv = _lie_derivative(su2, lambda q: theta(q, w), y, v)
        dw = _lie_derivative(su2, lambda q: theta(q, v), y, w)
        dtheta = dv - dw - theta(y, _field_bracket(su2, v, w))
        worst = max(worst, abs(dtheta - v @ _omega(su2, y) @ w))
    assert worst < 1e-6, worst


def test_domega_vanishes():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(9)

    def omega(y, a, b):
        return a @ _omega(su2, y) @ b

    worst = 0.0
    for _ in range(5):
        y = rng.standard_normal(3)
        u, v, w = rng.standard_normal((3, 6))
        total = (
            _lie_derivative(su2, lambda q: omega(q, v, w), y, u)
            - _lie_derivative(su2, lambda q: omega(q, u, w), y, v)
            + _lie_derivative(su2, lambda q: omega(q, u, v), y, w)
            - omega(y, _field_bracket(su2, u, v), w)
            + omega(y, _field_bracket(su2, u, w), v)
            - omega(y, _field_bracket(su2, v, w), u)
        )
        worst = max(worst, abs(total))
    assert worst < 1e-5, worst


# ---------------------------------------------------------------------------
# Kahler potential reproduces omega through a holomorphic chart


def _potential_value(model, gmat):
    w, vec = np.linalg.eigh(gmat.conj().T @ gmat)
    lg = vec @ np.diag(np.log(w)) @ vec.conj().T
    coords = _coords(model, -0.5j * lg)
    return float(np.dot(coords, coords))


def _complex_hessian(fun, n, h=1e-3):
    def at(zx, zy):
        return fun(zx + 1j * zy)
    hess = np.zeros((n, n), dtype=complex)
    base_x = np.zeros(n)
    for k in range(n):
        for l in range(n):
            def second(mask_k, mask_l):
                zx = np.zeros(n)
                zy = np.zeros(n)
                def bump(s_k, s_l):
                    zx[:] = 0.0
                    zy[:] = 0.0
                    for (m, sel, s) in ((k, mask_k, s_k), (l, mask_l, s_l)):
                        if sel == "x":
                            zx[m] += s * h
                        else:
                            zy[m] += s * h
                    return at(zx.copy(), zy.copy())
                if k == l and mask_k == mask_l:
                    return (bump(1, 0) - 2 * bump(0, 0) + bump(-1, 0)
                            ) / h**2
                return (bump(1, 1) - bump(1, -1) - bump(-1, 1) + bump(-1, -1)
                        ) / (4 * h**2)
            xx = second("x", "x")
            yy = second("y", "y")
            xy = second("x", "y")
            yx = second("y", "x")
            hess[k, l] = 0.25 * ((xx + yy) + 1j * (xy - yx))
    return hess


@pytest.mark.parametrize("name,y", [("u1", [0.4]), ("su2", [0.1, -0.2, 0.5])])
def test_kahler_potential_consistency(name, y):
    model = lc.get_model(name)
    n = model.dim
    center = _exp(model, np.zeros(n), y)

    def chart_value(z):
        zmat = sum(z[k] * model.generators[k] for k in range(n))
        import scipy.linalg
        return _potential_value(model, center @ scipy.linalg.expm(zmat))

    hess = _complex_hessian(chart_value, n)
    dphi = _dphi(model, y)
    om = _omega(model, y)
    worst = 0.0
    for a in range(2 * n):
        for b in range(2 * n):
            va = np.zeros(2 * n)
            vb = np.zeros(2 * n)
            va[a] = 1.0
            vb[b] = 1.0
            ta = dphi @ va
            tb = dphi @ vb
            za = ta[:n] + 1j * ta[n:]
            zb = tb[:n] + 1j * tb[n:]
            rhs = -1j * (za @ hess @ np.conj(zb) - zb @ hess @ np.conj(za))
            worst = max(worst, abs(om[a, b] - np.real(rhs)))
            worst = max(worst, abs(np.imag(rhs)))
    assert worst < 1e-5, worst


def _chart_points(model):
    # omega_potential_certificate's two chart points, then ten random ones
    n = model.dim
    if model.is_abelian:
        pts = [0.5 * np.ones(n), -0.3 * np.ones(n)]
    else:
        pts = [np.array([0.1, -0.2, 0.5]), np.array([0.0, 0.0, 1.1])]
    rng = np.random.default_rng(20)
    return pts + list(rng.standard_normal((10, n)))


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_batched_hessian_is_the_scalar_loop(name, monkeypatch):
    # the stacked stencil evaluation against one chart call per stencil
    # point, combined by the scalar loop above: equal bit for bit
    model = lc.get_model(name)
    n = model.dim
    hessians = []
    batched_hessian = kg._complex_hessian

    def spy(fun, n):
        hessians.append(batched_hessian(fun, n))
        return hessians[-1]

    monkeypatch.setattr(kg, "_complex_hessian", spy)
    for y in _chart_points(model):
        kg._omega_potential_error(model, y)
        center = _exp(model, np.zeros(n), y)

        def chart_value(z):
            zmat = sum(z[k] * model.generators[k] for k in range(n))
            gmat = center @ lc._exp_matrices(model, zmat[None])[0]
            return _potential_value(model, gmat)

        reference = _complex_hessian(chart_value, n)
        assert np.array_equal(hessians[-1], reference), y


# ---------------------------------------------------------------------------
# completeness certificate


def test_completeness_values():
    su2 = lc.get_model("su2")
    # |Y| = 1 gives exactly 1.0 through the closed form; the metric route
    # must match it.
    y = np.array([1.0, 0, 0])
    g = _metric(su2, y)[0]
    cov = np.concatenate([np.zeros(3), 2 * y / 2.0])
    val = cov @ np.linalg.solve(g, cov)
    assert abs(val - 1.0) < 1e-9


def test_completeness_certificate_passes():
    for name in ("u1", "su2"):
        rep = kg.completeness_certificate(
            lc.get_model(name), sample_count=20_000, seed=3
        )
        assert rep.passed, rep
        assert rep.metadata["sup_norm_sq"] <= 4.0 + 1e-9


def test_omega_potential_fails_on_a_nan_chart_point(monkeypatch):
    # the first chart point is exact, the second reads NaN
    real = kg._omega_potential_error
    calls = []

    def nan_second(model, y):
        calls.append(y)
        return np.nan if len(calls) == 2 else real(model, y)

    monkeypatch.setattr(kg, "_omega_potential_error", nan_second)
    rep = kg.omega_potential_certificate(lc.get_model("su2"))
    assert len(calls) == 2
    assert rep.passed is False
    assert "failure" in rep.metadata


# ---------------------------------------------------------------------------
# blocks written in place, certificates over row blocks


def _np_block_J(model, ys):
    # J assembled by np.block from the same four blocks
    ad, ad2, theta = kg._ad_powers(model, ys)
    eye = np.eye(model.dim)
    b_ul, c_ur, c_ll = kg._j_block_values(theta)
    return np.block([[b_ul * ad, c_ur * ad2 - eye],
                     [c_ll * ad2 + eye, -b_ul * ad]])


def _np_block_dphi(model, ys):
    # dphi assembled by np.block from the same four blocks
    ad, ad2, theta = kg._ad_powers(model, ys)
    eye = np.eye(model.dim)
    c_cos, b_onemcos, b_msin, c_sinc = kg._block_values(theta)
    return np.block([[eye + c_cos * ad2, b_onemcos * ad],
                     [b_msin * ad, eye + c_sinc * ad2]])


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
@pytest.mark.parametrize("seed", [0, 3])
def test_blocks_written_in_place_are_the_np_block_ones(name, seed):
    model = lc.get_model(name)
    ys = np.random.default_rng(seed).standard_normal((10_000, model.dim))
    ys *= 1.5
    for got, want in ((kg.complex_structure_batch(model, ys),
                       _np_block_J(model, ys)),
                      (kg.dphi_batch(model, ys), _np_block_dphi(model, ys))):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_private_writers_fill_a_leading_row_view(name):
    # the certificates hand J and Omega the leading rows of a larger
    # buffer; NaN first, so an entry left unwritten shows
    model = lc.get_model(name)
    n2 = 2 * model.dim
    ys = np.random.default_rng(4).standard_normal((300, model.dim)) * 1.5
    ad, ad2, theta = kg._ad_powers(model, ys)
    for want, write in (
            (kg.complex_structure_batch(model, ys),
             lambda out: kg._complex_structure(ad, ad2, theta, out=out)),
            (kg.omega_batch(model, ys), lambda out: kg._omega(ad, out=out))):
        big = np.full((len(ys) + 5, n2, n2), np.nan)
        view = write(big[:len(ys)])
        assert np.shares_memory(view, big)
        assert np.array_equal(big[:len(ys)].view(np.uint64),
                              want.view(np.uint64))
        assert np.isnan(big[len(ys):]).all()


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_omega_upper_left_block_is_the_bracket_contraction(name):
    # Omega's block -B, B[i, j] = <Y, [e_i, e_j]>, is written as A = ad(Y),
    # which the structure constants' total antisymmetry makes the same
    # numbers, the signs of zeros included
    model = lc.get_model(name)
    n = model.dim
    ys = np.random.default_rng(6).standard_normal((1000, n)) * 1.5
    ys[:2] = 0.0
    got = kg.omega_batch(model, ys)[:, :n, :n]
    want = -np.einsum("ijk,mk->mij", model.structure_constants, ys)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _whole_stack_j_squared(model, seed):
    # worst |J^2 + I| over the certificate's whole (10,000, n) stack at once
    ys = np.random.default_rng(seed).standard_normal((10_000, model.dim))
    js = kg.complex_structure_batch(model, ys * 1.5)
    return float(np.abs(js @ js + np.eye(2 * model.dim)).max())


def _whole_stack_completeness(model, seed):
    # (agreement, sup of both routes) over the whole stack at once
    rng = np.random.default_rng(seed)
    n = model.dim
    ys = rng.standard_normal((10_000, n)) * rng.uniform(
        0.1, 3.0, size=(10_000, 1))
    norms_sq = np.sum(ys**2, axis=1)
    cov = np.zeros((10_000, 2 * n))
    cov[:, n:] = 2.0 * ys / (1.0 + norms_sq)[:, None]
    sharped = np.linalg.solve(
        _metric(model, ys), cov[:, :, None])[:, :, 0]
    via_metric = np.einsum("mi,mi->m", cov, sharped)
    closed = 4.0 * norms_sq / (1.0 + norms_sq) ** 2
    return (float(np.abs(via_metric - closed).max()),
            float(max(via_metric.max(), closed.max())))


@pytest.mark.parametrize("block", [7, 333, 10_000])
@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_row_blocks_give_the_whole_stack_maxima(monkeypatch, block, name):
    model = lc.get_model(name)
    want_j = _whole_stack_j_squared(model, 3)
    agreement, sup = _whole_stack_completeness(model, 3)
    monkeypatch.setattr(lc, "_ROW_BLOCK", block)
    rep = kg.j_squared_certificate(model, np.random.default_rng(3), 3)
    assert rep.max_error == want_j
    rep = kg.completeness_certificate(model, seed=3)
    assert rep.metadata["agreement"] == agreement
    assert rep.metadata["sup_norm_sq"] == sup
    assert rep.max_error == max(agreement, max(0.0, sup - 4.0 - 1e-9))
    if not model.is_abelian:
        assert want_j > 0.0 and agreement > 0.0


@pytest.mark.parametrize("certify", [
    lambda model: kg.j_squared_certificate(
        model, np.random.default_rng(0), 0),
    lambda model: kg.completeness_certificate(model),
], ids=["j_squared", "completeness"])
def test_su2_certificates_peak_memory(certify):
    # 10,000 su2 rows, evaluated over row blocks: the (N, 6, 6) stacks of
    # J, J^2, the metric and its solve are one block's.  Over the whole
    # stack, j_squared peaked at 8.5 MiB and completeness at 9.0 MiB.
    model = lc.get_model("su2")
    certify(model)
    tracemalloc.start()
    try:
        rep = certify(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 4 * 2**20, peak / 2**20
