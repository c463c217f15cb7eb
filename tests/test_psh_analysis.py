import math

import numpy as np
import pytest

from quantlab.lie_core import (
    adjoint_action_batch,
    get_model,
    random_group_point,
)
from quantlab.psh_analysis import (
    InvariantPotential,
    canonical_semi_negativity_certificate,
    make_potential,
    mu_gradient,
    psh_verdict,
    theta_matrix_oracle,
    theta_spectrum,
    twist_positivity_certificate,
)

SU2 = get_model("su2")
U1 = get_model("u1")
T2 = get_model("t2")


def torus_vec(model, *tvals):
    coords = np.zeros(model.dim)
    coords[list(model.torus_indices)] = tvals
    return coords


def _ad(model, g, y):
    return adjoint_action_batch(model, g[None], y[None])[0]


def test_square_gradient_is_doubling():
    K = make_potential(SU2, "square")
    y = np.array([0.3, -0.1, 0.7])
    mu = mu_gradient(K, np.eye(2, dtype=complex), y)
    assert np.allclose(mu, 2 * y, atol=1e-12)


def test_mu_is_equivariant():
    rng = np.random.default_rng(7)
    for name in ("square", "logeta", "combined:1.5,0.5"):
        K = make_potential(SU2, name)
        for _ in range(40):
            x = random_group_point(SU2, rng).matrix
            h = random_group_point(SU2, rng).matrix
            y = 1.3 * rng.standard_normal(3)
            conj = h @ x @ h.conj().T
            left = mu_gradient(K, conj, _ad(SU2, h, y))
            right = _ad(SU2, h, mu_gradient(K, x, y))
            assert np.abs(left - right).max() < 1e-10


def test_spectrum_square_at_unit_torus_point():
    # Hessian eigenvalue 2; root values 2(coth(1) +/- 1)
    K = make_potential(SU2, "square")
    rep = theta_spectrum(K, torus_vec(SU2, 1.0))
    coth1 = 1.0 / math.tanh(1.0)
    assert rep.hessian_eigenvalues.shape == (1,)
    assert abs(rep.hessian_eigenvalues[0] - 2.0) < 1e-10
    got = sorted(v for _, v in rep.root_eigenvalues)
    want = sorted([2 * (coth1 + 1), 2 * (coth1 - 1)])
    assert np.allclose(got, want, atol=1e-10)
    assert abs(rep.min_eigenvalue - 2 * (coth1 - 1)) < 1e-10


def test_spectrum_logeta_at_origin_is_one_third():
    K = make_potential(SU2, "logeta")
    rep = theta_spectrum(K, torus_vec(SU2, 0.0))
    vals = rep.all_values()
    assert vals.shape == (3,)
    assert np.abs(vals - 1.0 / 3.0).max() < 1e-9


def test_wall_limit_matches_nearby_closed_form():
    # At alpha(Y) = 1e-3 the closed-form value must agree with the
    # across-wall limit formula to 1e-5.
    for name in ("square", "logeta", "combined:6.283185307179586,2",
                 "combined:6.283185307179586,1"):
        K = make_potential(SU2, name)
        y = 1e-3
        rep = theta_spectrum(K, torus_vec(SU2, y))
        hess0 = float(K.hess(np.array([0.0]))[0, 0])
        for (cov,), val in rep.root_eigenvalues:
            ay = cov * y
            limit = hess0 * (ay / math.tanh(ay) + ay)
            assert abs(val - limit) < 1e-5


def test_spectrum_exactly_on_wall_uses_limit():
    K = make_potential(SU2, "square")
    rep = theta_spectrum(K, torus_vec(SU2, 0.0))
    assert np.abs(rep.all_values() - 2.0).max() < 1e-12


def test_gradient_sign_lemma_for_convex_potentials():
    # alpha(grad) has the sign of alpha(Y) when the potential is convex
    for name in ("square", "combined:6.283185307179586,2"):
        K = make_potential(SU2, name)
        for y in np.linspace(-5, 5, 41):
            if abs(y) < 1e-12:
                continue
            ratio = float(K.grad(np.array([y]))[0]) / y
            assert ratio >= -1e-10


@pytest.mark.parametrize("name", ["square", "logeta",
                                  "combined:6.283185307179586,2"])
@pytest.mark.parametrize("y", [0.35, 1.0, 2.2])
def test_oracle_matrix_matches_closed_spectrum_su2(name, y):
    K = make_potential(SU2, name)
    Y = torus_vec(SU2, y)
    mat = theta_matrix_oracle(K, Y)
    assert np.abs(mat - mat.conj().T).max() < 1e-8
    oracle = np.linalg.eigvalsh(mat)
    closed = np.sort(theta_spectrum(K, Y).all_values())
    scale = max(1e-8, np.abs(closed).max())
    assert np.abs(oracle - closed).max() / scale < 1e-4


def test_oracle_reduces_to_hessian_on_torus_models():
    K = make_potential(U1, "square")
    mat = theta_matrix_oracle(K, torus_vec(U1, 0.8))
    assert np.abs(mat - 2.0 * np.eye(1)).max() < 1e-6
    K2 = make_potential(T2, "square")
    mat2 = theta_matrix_oracle(K2, torus_vec(T2, 0.4, -1.1))
    assert np.abs(mat2 - 2.0 * np.eye(2)).max() < 1e-6


def test_psh_verdict_accepts_square_and_rejects_negative_square():
    grid = np.linspace(-4, 4, 81)
    good = psh_verdict(make_potential(SU2, "square"), grid)
    assert good.passed
    bad_pot = InvariantPotential(
        "negsquare", SU2,
        tilde=lambda t: -float(t @ t),
        grad_fn=lambda t: -2.0 * t,
        hess_fn=lambda t: -2.0 * np.eye(t.size),
    )
    bad = psh_verdict(bad_pot, grid)
    assert not bad.passed
    assert bad.metadata["min_eigenvalue"] < -1.9


def test_psh_verdict_locates_witness_for_cosine():
    pot = InvariantPotential(
        "cosine", SU2,
        tilde=lambda t: float(np.cos(t[0])),
        grad_fn=lambda t: -np.sin(t),
        hess_fn=lambda t: np.diag(-np.cos(t)),
    )
    rep = psh_verdict(pot, np.linspace(-3, 3, 121))
    assert not rep.passed
    assert rep.metadata["min_eigenvalue"] < -0.5
    # the witness really attains the reported minimum
    witness = torus_vec(SU2, rep.metadata["witness_point"][0])
    again = theta_spectrum(pot, witness)
    assert abs(again.min_eigenvalue - rep.metadata["min_eigenvalue"]) < 1e-12


def test_canonical_certificate_su2_and_torus():
    rep = canonical_semi_negativity_certificate(SU2)
    assert rep.passed
    assert rep.metadata["min_eigenvalue"] >= -1e-8
    flat = canonical_semi_negativity_certificate(T2)
    assert flat.passed
    assert abs(flat.metadata["min_eigenvalue"]) < 1e-12


def test_twist_certificates_for_shipped_coefficients():
    two_pi = 2 * math.pi
    for b in (2.0, 1.0):
        rep = twist_positivity_certificate(SU2, two_pi, b)
        assert rep.passed
        assert rep.metadata["min_eigenvalue"] > 1e-6


def test_twist_certificate_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        twist_positivity_certificate(SU2, -1.0, 2.0)
    rep = twist_positivity_certificate(SU2, 0.001, -5.0)
    assert not rep.passed


def test_combined_parse_errors():
    with pytest.raises(ValueError):
        make_potential(SU2, "combined:1")
    with pytest.raises(ValueError):
        make_potential(SU2, "no-such-potential")
