"""Exactness and convergence checks for the integration rules.

Characters of the spin-j representations are evaluated here through the
Chebyshev polynomials of the second kind (an independent route that never
touches the package's own representation code): if a group element has
eigenvalues e^{+/- i tau/2}, its spin-j character is U_{2j}(cos(tau/2)).
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import erf, eval_chebyu

from quantlab import quadrature as quad
from quantlab.lie_core import exp_alg_batch, get_model


def _product(*axes):
    # the product grid of one-axis rules, a reference for the node-by-node
    # sums: nodes (N, d), one column per axis, and weights (N,), in C
    # order, last axis fastest
    nodes = np.stack(np.meshgrid(*[p for p, _ in axes], indexing="ij"),
                     axis=-1).reshape(-1, len(axes))
    weights = functools.reduce(np.multiply.outer, [w for _, w in axes])
    return nodes, weights.reshape(-1)


def test_torus_rule_mass_and_exactness():
    theta, w = quad.torus_rule(modes=8)
    assert abs(w.sum() - 1.0) < 1e-14
    for n in range(1, 9):
        val = w @ np.exp(1j * n * theta)
        assert abs(val) < 1e-13


def test_torus_rule_rank2():
    nodes, weights = _product(*[quad.torus_rule(modes=5)] * 2)
    assert abs(weights.sum() - 1.0) < 1e-14
    t1, t2 = nodes[:, 0], nodes[:, 1]
    assert abs(weights @ np.exp(1j * (3 * t1 - 2 * t2))) < 1e-13
    # frequency 0 integrates to 1
    assert abs(weights @ np.ones(len(t1)) - 1.0) < 1e-14


def _haar_matrices(nodes) -> np.ndarray:
    # the defining-representation matrix exp(a e3) exp(b e2) exp(c e3) at
    # each Euler-angle node (a, b, c)
    su2 = get_model("su2")
    basis = np.eye(3)
    a, b, c = nodes.T
    return (exp_alg_batch(su2, np.outer(a, basis[2]))
            @ exp_alg_batch(su2, np.outer(b, basis[1]))
            @ exp_alg_batch(su2, np.outer(c, basis[2])))


def _su2_character(mats: np.ndarray, j: float) -> np.ndarray:
    half_trace = np.real(np.trace(mats, axis1=-2, axis2=-1)) / 2.0
    return eval_chebyu(int(round(2 * j)), half_trace)


def test_su2_haar_rule_schur_orthogonality():
    nodes, weights = _product(*quad.su2_haar_rule(level=4))
    assert abs(weights.sum() - 1.0) < 1e-13
    js = [0.0, 0.5, 1.0, 1.5, 2.0]
    mats = _haar_matrices(nodes)
    chars = {j: _su2_character(mats, j) for j in js}
    for j in js:
        for k in js:
            val = weights @ (chars[j] * np.conj(chars[k]))
            expect = 1.0 if j == k else 0.0
            assert abs(val - expect) < 1e-12, (j, k, val)


def test_su2_haar_rule_against_monte_carlo():
    # Uniform quaternions on S^3 sample probability Haar; compare a smooth
    # non-class integrand between rule and Monte Carlo.
    nodes, weights = _product(*quad.su2_haar_rule(level=3))
    rng = np.random.default_rng(101)
    q = rng.standard_normal((200_000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    # g = q0 + i(q1 sigma1 + q2 sigma2 + q3 sigma3): entry (0,0) = q0 + i q3
    def integrand_mats(mats):
        g00 = mats[..., 0, 0]
        g01 = mats[..., 0, 1]
        return np.abs(g00) ** 2 * np.real(g01) ** 2
    mc_g00 = q[:, 0] + 1j * q[:, 3]
    mc_g01 = q[:, 2] + 1j * q[:, 1]
    mc = np.mean(np.abs(mc_g00) ** 2 * np.real(mc_g01) ** 2)
    val = weights @ integrand_mats(_haar_matrices(nodes))
    assert abs(val - mc) < 5e-3


def test_su2_haar_nodes_are_unitary():
    mats = _haar_matrices(_product(*quad.su2_haar_rule(level=2))[0])
    prods = mats @ np.conj(np.swapaxes(mats, -1, -2))
    assert np.abs(prods - np.eye(2)).max() < 1e-12
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    assert np.abs(dets - 1.0).max() < 1e-12


def test_gaussian_rule_mass_and_moments():
    # closed forms: int e^{-2 pi y^2} dy = 2^{-1/2},
    #               int y^2 e^{-2 pi y^2} dy = 2^{-1/2} / (4 pi).
    y, w = quad.gaussian_rule(level=1)
    assert abs(w.sum() - 2**-0.5) < 1e-13
    m2 = w @ y**2
    assert abs(m2 - 2**-0.5 / (4 * math.pi)) < 1e-13
    # the rank-2 weight is the product of two copies of the one axis
    _, weights = _product(quad.gaussian_rule(1), quad.gaussian_rule(1))
    assert abs(weights.sum() - 0.5) < 1e-13


def test_gaussian_rule_axis_is_the_cached_read_only_pair():
    # every call hands out the one cached pair, so a write must raise
    # rather than change the rule every later sum reads
    y, w = quad.gaussian_rule(level=2)
    assert quad.gaussian_rule(2)[0] is y and quad.gaussian_rule(2)[1] is w
    for part in (y, w):
        with pytest.raises(ValueError, match="read-only"):
            part[:] = 0.0
    assert abs(quad.gaussian_rule(2)[1].sum() - 2**-0.5) < 1e-13


def test_radial_rule_mass():
    _, w = quad.radial_rule(level=2)
    assert abs(w.sum() - 2**-1.5) < 1e-12


def test_radial_rule_tilted_against_erf_closed_form():
    # int_0^inf r^2 e^{b r} e^{-2 pi r^2} dr, by completing the square:
    a = 2 * math.pi
    def closed(b):
        c = b / (2 * a)
        tail = math.sqrt(math.pi / a) / 2 * (1 + erf(c * math.sqrt(a)))
        return c / (2 * a) + math.exp(a * c * c) * (1 / (2 * a) + c * c) * tail
    for b in (0.0, 2.0, 6.0, 8.0):
        r, w = quad.radial_rule(level=3, tilt=b)
        val = w @ np.exp(b * r) / (4 * math.pi)
        assert abs(val - closed(b)) < 1e-12 * max(1.0, closed(b)), b


def test_weights_nonnegative_everywhere():
    for _, w in (
        quad.torus_rule(6),
        *quad.su2_haar_rule(2),
        quad.gaussian_rule(1),
        quad.radial_rule(1, tilt=8.0),
    ):
        assert np.all(w >= 0)


@pytest.mark.parametrize("level", range(1, 24))
def test_every_rule_has_finite_nonnegative_weights_and_its_mass(level):
    # 23 is the last level whose Gauss-Hermite weights are all finite
    # doubles; the torus and Haar rules are probability rules and
    # e^{-2 pi y^2} has mass 2^{-1/2}
    haar = [w for _, w in quad.su2_haar_rule(level)]
    masses = [(quad.torus_rule(level)[1], 1.0),
              (functools.reduce(np.multiply.outer, haar), 1.0),
              (quad.gaussian_rule(level)[1], 2**-0.5)]
    for w in haar + [w for w, _ in masses] + [
            quad.radial_rule(level)[1], quad.radial_rule(level, 8.0)[1]]:
        assert np.all(np.isfinite(w)) and np.all(w >= 0)
    for w, mass in masses:
        assert abs(w.sum() - mass) < 1e-12 * mass


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        quad.su2_haar_rule(0)
    with pytest.raises(ValueError):
        quad.gaussian_rule(0)
    with pytest.raises(ValueError):
        quad.radial_rule(0)

