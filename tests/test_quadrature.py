"""Exactness and convergence checks for the integration rules.

Characters of the spin-j representations are evaluated here through the
Chebyshev polynomials of the second kind (an independent route that never
touches the package's own representation code): if a group element has
eigenvalues e^{+/- i tau/2}, its spin-j character is U_{2j}(cos(tau/2)).
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import erf, eval_chebyu

from quantlab import quadrature as quad
from quantlab.lie_core import exp_alg_batch, get_model


def test_torus_rule_mass_and_exactness():
    rule = quad.torus_rule(1, modes=8)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    theta = rule.nodes[:, 0]
    for n in range(1, 9):
        val = rule.weights @ np.exp(1j * n * theta)
        assert abs(val) < 1e-13


def test_torus_rule_rank2():
    rule = quad.torus_rule(2, modes=5)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    t1, t2 = rule.nodes[:, 0], rule.nodes[:, 1]
    assert abs(rule.weights @ np.exp(1j * (3 * t1 - 2 * t2))) < 1e-13
    # frequency 0 integrates to 1
    assert abs(rule.weights @ np.ones(len(t1)) - 1.0) < 1e-14


def _haar_matrices(rule) -> np.ndarray:
    # the defining-representation matrix exp(a e3) exp(b e2) exp(c e3) at
    # each Euler-angle node (a, b, c)
    su2 = get_model("su2")
    basis = np.eye(3)
    a, b, c = rule.nodes.T
    return (exp_alg_batch(su2, np.outer(a, basis[2]))
            @ exp_alg_batch(su2, np.outer(b, basis[1]))
            @ exp_alg_batch(su2, np.outer(c, basis[2])))


def _su2_character(mats: np.ndarray, j: float) -> np.ndarray:
    half_trace = np.real(np.trace(mats, axis1=-2, axis2=-1)) / 2.0
    return eval_chebyu(int(round(2 * j)), half_trace)


def test_su2_haar_rule_schur_orthogonality():
    rule = quad.su2_haar_rule(level=4)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    js = [0.0, 0.5, 1.0, 1.5, 2.0]
    mats = _haar_matrices(rule)
    chars = {j: _su2_character(mats, j) for j in js}
    for j in js:
        for k in js:
            val = rule.weights @ (chars[j] * np.conj(chars[k]))
            expect = 1.0 if j == k else 0.0
            assert abs(val - expect) < 1e-12, (j, k, val)


def test_su2_haar_rule_against_monte_carlo():
    # Uniform quaternions on S^3 sample probability Haar; compare a smooth
    # non-class integrand between rule and Monte Carlo.
    rule = quad.su2_haar_rule(level=3)
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
    val = rule.weights @ integrand_mats(_haar_matrices(rule))
    assert abs(val - mc) < 5e-3


def test_su2_haar_nodes_are_unitary():
    mats = _haar_matrices(quad.su2_haar_rule(level=2))
    prods = mats @ np.conj(np.swapaxes(mats, -1, -2))
    assert np.abs(prods - np.eye(2)).max() < 1e-12
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    assert np.abs(dets - 1.0).max() < 1e-12


def test_gaussian_rule_mass_and_moments():
    # closed forms: int e^{-2 pi y^2} dy = 2^{-1/2},
    #               int y^2 e^{-2 pi y^2} dy = 2^{-1/2} / (4 pi).
    rule = quad.gaussian_rule(1, level=1)
    assert abs(rule.weights.sum() - 2**-0.5) < 1e-13
    y = rule.nodes[:, 0]
    m2 = rule.weights @ y**2
    assert abs(m2 - 2**-0.5 / (4 * math.pi)) < 1e-13
    rule2 = quad.gaussian_rule(2, level=1)
    assert abs(rule2.weights.sum() - 0.5) < 1e-13


def test_gaussian_rule_arrays_are_not_shared():
    # rules hand out fresh arrays, so editing one leaves later rules intact
    for r in (1, 2):
        first = quad.gaussian_rule(r, level=2)
        first.nodes[:] = 0.0
        first.weights[:] = 0.0
        again = quad.gaussian_rule(r, level=2)
        assert abs(again.weights.sum() - 2.0 ** (-r / 2)) < 1e-13
        assert np.abs(again.nodes).max() > 1.0


def _model_torus(name, modes):
    # torus_rule's angles times the period scale: a model's own torus
    # coordinates, tau in [0, 4 pi) on su2
    model = get_model(name)
    return quad.QuadratureRule(tuple(
        (theta * (period / (2 * math.pi)), w) for (theta, w), period in zip(
            quad.torus_rule(model.rank, modes).axes, model.torus_periods)))


@pytest.mark.parametrize("rule", [
    quad.torus_rule(1, 4),
    quad.torus_rule(2, 5),
    _model_torus("su2", 6),
    _model_torus("t2", 3),
    quad.su2_haar_rule(3),
    quad.gaussian_rule(1, 2),
    quad.gaussian_rule(2, 1),
    quad.radial_rule(2, tilt=4.0),
], ids=["torus-1", "torus-2", "model-torus-su2", "model-torus-t2", "su2-haar",
        "gaussian-1", "gaussian-2", "radial"])
def test_rule_grid_is_the_product_of_its_axes(rule):
    # nodes and weights run over the axes in C order, last axis fastest:
    # one coordinate and one weight factor per axis
    nodes = list(itertools.product(*[p for p, _ in rule.axes]))
    weights = [math.prod(ws) for ws in
               itertools.product(*[w for _, w in rule.axes])]
    assert rule.nodes.shape == (len(nodes), len(rule.axes))
    assert np.array_equal(rule.nodes, np.array(nodes))
    assert np.abs(rule.weights - np.array(weights)).max() < 1e-16


def test_negative_axis_weight_rejected():
    theta, w = quad.torus_rule(1, 3).axes[0]
    with pytest.raises(ValueError, match="nonnegative"):
        quad.QuadratureRule(((theta, w), (theta, -w)))


def test_radial_rule_mass():
    rule = quad.radial_rule(level=2)
    assert abs(rule.weights.sum() - 2**-1.5) < 1e-12


def test_radial_rule_tilted_against_erf_closed_form():
    # int_0^inf r^2 e^{b r} e^{-2 pi r^2} dr, by completing the square:
    a = 2 * math.pi
    def closed(b):
        c = b / (2 * a)
        tail = math.sqrt(math.pi / a) / 2 * (1 + erf(c * math.sqrt(a)))
        return c / (2 * a) + math.exp(a * c * c) * (1 / (2 * a) + c * c) * tail
    for b in (0.0, 2.0, 6.0, 8.0):
        rule = quad.radial_rule(level=3, tilt=b)
        r = rule.nodes[:, 0]
        val = rule.weights @ np.exp(b * r) / (4 * math.pi)
        assert abs(val - closed(b)) < 1e-12 * max(1.0, closed(b)), b


def test_weights_nonnegative_everywhere():
    for rule in (
        quad.torus_rule(2, 6),
        quad.su2_haar_rule(2),
        quad.gaussian_rule(3, 1),
        quad.radial_rule(1, tilt=8.0),
    ):
        assert np.all(rule.weights >= 0)


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        quad.su2_haar_rule(0)
    with pytest.raises(ValueError):
        quad.gaussian_rule(1, 0)
