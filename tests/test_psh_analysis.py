import math

import numpy as np
import pytest

from quantlab import psh_analysis
from quantlab.lie_core import (
    adjoint_action_batch,
    get_model,
    random_group_point,
)
from quantlab.psh_analysis import (
    InvariantPotential,
    canonical_semi_negativity_certificate,
    combined_potential,
    logeta_potential,
    mu_gradient,
    spectrum_curve_certificate,
    square_potential,
    theta_matrix_oracle,
    theta_spectrum,
    twist_positivity_certificate,
    wall_limit_certificate,
)

SU2 = get_model("su2")
U1 = get_model("u1")
T2 = get_model("t2")
TWO_PI = 2 * math.pi


def _twisted(a, b):
    return lambda model: combined_potential(model, a, b)


# the three potentials the oracle and wall certificates run, by report name
PRESETS = {
    "square": square_potential,
    "logeta": logeta_potential,
    "combined:6.283185307179586,2": _twisted(TWO_PI, 2.0),
}


def torus_vec(model, *tvals):
    coords = np.zeros(model.dim)
    coords[list(model.torus_indices)] = tvals
    return coords


def _ad(model, g, y):
    return adjoint_action_batch(model, g[None], y[None])[0]


def _mu(K, x, y):
    # one point: a one-row call of the stacked gradient map
    return mu_gradient(K, x[None], y[None])[0]


def _spectrum(K, y):
    # one point: a one-row call, a (1, r + R) array
    return theta_spectrum(K, y[None])


def test_square_gradient_is_doubling():
    K = square_potential(SU2)
    y = np.array([0.3, -0.1, 0.7])
    mu = _mu(K, np.eye(2, dtype=complex), y)
    assert np.allclose(mu, 2 * y, atol=1e-12)


def test_mu_is_equivariant():
    rng = np.random.default_rng(7)
    for potential in (square_potential, logeta_potential, _twisted(1.5, 0.5)):
        K = potential(SU2)
        for _ in range(40):
            x = random_group_point(SU2, rng).matrix
            h = random_group_point(SU2, rng).matrix
            y = 1.3 * rng.standard_normal(3)
            conj = h @ x @ h.conj().T
            left = _mu(K, conj, _ad(SU2, h, y))
            right = _ad(SU2, h, _mu(K, x, y))
            assert np.abs(left - right).max() < 1e-10


def test_spectrum_square_at_unit_torus_point():
    # Hessian eigenvalue 2; root values 2(coth(1) +/- 1)
    K = square_potential(SU2)
    spec = _spectrum(K, torus_vec(SU2, 1.0))
    coth1 = 1.0 / math.tanh(1.0)
    # rank 1 and two roots: the Hessian eigenvalue, then the root values
    assert spec.shape == (1, 3)
    assert abs(spec[0, 0] - 2.0) < 1e-10
    got = sorted(spec[0, 1:])
    want = sorted([2 * (coth1 + 1), 2 * (coth1 - 1)])
    assert np.allclose(got, want, atol=1e-10)
    assert abs(spec.min(axis=1)[0] - 2 * (coth1 - 1)) < 1e-10


def test_spectrum_logeta_at_origin_is_one_third():
    K = logeta_potential(SU2)
    vals = _spectrum(K, torus_vec(SU2, 0.0))
    assert vals.shape == (1, 3)
    assert np.abs(vals - 1.0 / 3.0).max() < 1e-9


def test_wall_limit_matches_nearby_closed_form():
    # At alpha(Y) = 1e-3 the closed-form value must agree with the
    # across-wall limit formula to 1e-5.
    for potential in [*PRESETS.values(), _twisted(TWO_PI, 1.0)]:
        K = potential(SU2)
        y = 1e-3
        spec = _spectrum(K, torus_vec(SU2, y))
        hess0 = float(K.hess(np.zeros((1, 1)))[0, 0, 0])
        for a, val in zip(SU2.roots[:, 0], spec[0, SU2.rank:]):
            ay = a * y
            limit = hess0 * (ay / math.tanh(ay) + ay)
            assert abs(val - limit) < 1e-5


def test_spectrum_exactly_on_wall_uses_limit():
    K = square_potential(SU2)
    assert np.abs(_spectrum(K, torus_vec(SU2, 0.0)) - 2.0).max() < 1e-12


def test_gradient_sign_lemma_for_convex_potentials():
    # alpha(grad) has the sign of alpha(Y) when the potential is convex
    for potential in (square_potential, _twisted(TWO_PI, 2.0)):
        K = potential(SU2)
        ys = np.linspace(-5, 5, 41)
        ys = ys[np.abs(ys) >= 1e-12]
        ratio = K.grad(ys[:, None])[:, 0] / ys
        assert ratio.min() >= -1e-10


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("y", [0.35, 1.0, 2.2])
def test_oracle_matrix_matches_closed_spectrum_su2(preset, y):
    K = PRESETS[preset](SU2)
    Y = torus_vec(SU2, y)
    mat = theta_matrix_oracle(K, Y[None])[0]
    assert np.abs(mat - mat.conj().T).max() < 1e-8
    oracle = np.linalg.eigvalsh(mat)
    closed = np.sort(_spectrum(K, Y)[0])
    scale = max(1e-8, np.abs(closed).max())
    assert np.abs(oracle - closed).max() / scale < 1e-4


def test_oracle_reduces_to_hessian_on_torus_models():
    K = square_potential(U1)
    mat = theta_matrix_oracle(K, torus_vec(U1, 0.8)[None])
    assert np.abs(mat - 2.0 * np.eye(1)).max() < 1e-6
    K2 = square_potential(T2)
    mat2 = theta_matrix_oracle(K2, torus_vec(T2, 0.4, -1.1)[None])
    assert np.abs(mat2 - 2.0 * np.eye(2)).max() < 1e-6


def test_scan_certificates_reject_a_negative_square(monkeypatch):
    assert spectrum_curve_certificate(SU2).passed
    neg_square = InvariantPotential(
        SU2,
        grad=lambda t: -2.0 * t,
        hess=lambda t: -2.0 * np.eye(t.shape[1]) * np.ones((len(t), 1, 1)),
    )
    monkeypatch.setattr(psh_analysis, "logeta_potential",
                        lambda model: neg_square)
    monkeypatch.setattr(psh_analysis, "combined_potential",
                        lambda model, a, b: neg_square)
    for rep in (canonical_semi_negativity_certificate(SU2),
                twist_positivity_certificate(SU2, TWO_PI, 2.0)):
        assert not rep.passed
        assert rep.metadata["min_eigenvalue"] < -1.9


def test_scan_certificate_witness_attains_the_minimum(monkeypatch):
    cosine = InvariantPotential(
        SU2,
        grad=lambda t: -np.sin(t),
        hess=lambda t: -np.cos(t)[:, :, None] * np.eye(t.shape[1]),
    )
    monkeypatch.setattr(psh_analysis, "logeta_potential",
                        lambda model: cosine)
    rep = canonical_semi_negativity_certificate(SU2)
    assert not rep.passed
    assert rep.metadata["min_eigenvalue"] < -0.5
    # the witness really attains the reported minimum
    witness = torus_vec(SU2, rep.metadata["witness_point"][0])
    again = _spectrum(cosine, witness).min(axis=1)[0]
    assert abs(again - rep.metadata["min_eigenvalue"]) < 1e-12


def test_scan_certificates_fail_on_a_nan_potential(monkeypatch):
    nan_pot = InvariantPotential(
        SU2,
        grad=lambda t: np.full_like(t, np.nan),
        hess=lambda t: np.full((len(t), 1, 1), np.nan),
    )
    monkeypatch.setattr(psh_analysis, "logeta_potential",
                        lambda model: nan_pot)
    rep = canonical_semi_negativity_certificate(SU2)
    assert rep.passed is False
    assert "failure" in rep.metadata


def test_canonical_certificate_su2_and_torus():
    rep = canonical_semi_negativity_certificate(SU2)
    assert rep.passed
    assert rep.metadata["min_eigenvalue"] >= -1e-8
    flat = canonical_semi_negativity_certificate(T2)
    assert flat.passed
    assert abs(flat.metadata["min_eigenvalue"]) < 1e-12
    # a flat spectrum's error is 0.0, not -0.0
    assert math.copysign(1.0, flat.max_error) == 1.0


def test_twist_certificates_for_shipped_coefficients():
    for b in (2.0, 1.0):
        rep = twist_positivity_certificate(SU2, TWO_PI, b)
        assert rep.passed
        assert rep.metadata["min_eigenvalue"] > 1e-6


def test_twist_certificate_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        twist_positivity_certificate(SU2, -1.0, 2.0)
    rep = twist_positivity_certificate(SU2, 0.001, -5.0)
    assert not rep.passed


def _scan_coords(model):
    # the scan line of the certificates plus points at and near the wall
    ts = np.concatenate([np.linspace(-5.0, 5.0, 41),
                         [0.0, 1e-7, -5e-7, 3e-5, -2e-4]])
    coords = np.zeros((len(ts), model.dim))
    for axis, idx in enumerate(model.torus_indices):
        coords[:, idx] = ts * 0.3**axis
    return coords


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", [U1, T2, SU2], ids=lambda m: m.name)
def test_theta_spectrum_rows_equal_one_row_calls(model, preset):
    K = PRESETS[preset](model)
    coords = _scan_coords(model)
    spec = theta_spectrum(K, coords)
    assert spec.shape == (len(coords), model.rank + len(model.roots))
    # the Hessian eigenvalues come first, in ascending order
    hess = spec[:, :model.rank]
    assert np.array_equal(hess, np.sort(hess, axis=1))
    for i, y in enumerate(coords):
        assert np.array_equal(_spectrum(K, y)[0], spec[i])


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", [U1, T2, SU2], ids=lambda m: m.name)
def test_theta_matrix_oracle_rows_equal_one_row_calls(model, preset):
    K = PRESETS[preset](model)
    coords = _scan_coords(model)[::4]
    mats = theta_matrix_oracle(K, coords)
    assert mats.shape == (len(coords), model.dim, model.dim)
    for y, mat in zip(coords, mats):
        assert np.array_equal(theta_matrix_oracle(K, y[None])[0], mat)


@pytest.mark.parametrize("alpha", [-5.0, -3.0, -1.0, 1e-5, 2.0])
def test_root_values_keep_their_digits_below_the_wall(alpha):
    # the square potential's root value is 2 (alpha coth(alpha) + alpha),
    # that is 4 alpha e^{2 alpha} / (e^{2 alpha} - 1), where the sum
    # cancels for alpha << 0
    spec = _spectrum(square_potential(SU2), torus_vec(SU2, alpha))
    e = math.exp(2.0 * alpha)
    want = 4.0 * alpha * e / math.expm1(2.0 * alpha)
    # the first root column
    got = spec[0, SU2.rank]
    assert abs(got / want - 1.0) < 1e-15


# coth x - 1/x = sum_k a_k x^(2k+1), a_k = 2^(2k+2) B_(2k+2) / (2k+2)!
_COTH_MINUS_RECIPROCAL_SERIES = [1 / 3, -1 / 45, 2 / 945, -1 / 4725,
                                 2 / 93555, -1382 / 638512875]


@pytest.mark.parametrize("x", [1.0001e-4, 2e-4, 1e-3, 1e-2])
def test_logeta_derivatives_keep_their_digits_at_small_arguments(x):
    # on su2 the logeta gradient is coth x - 1/x and its Hessian
    # 1/x^2 - 1/sinh(x)^2, the derivative of the gradient; both cancel
    # for small x.  The reference is their Taylor series, summed until a
    # term falls below rounding
    grad_terms = [a * x ** (2 * k + 1)
                  for k, a in enumerate(_COTH_MINUS_RECIPROCAL_SERIES)]
    hess_terms = [(2 * k + 1) * a * x ** (2 * k)
                  for k, a in enumerate(_COTH_MINUS_RECIPROCAL_SERIES)]
    for terms in (grad_terms, hess_terms):
        assert abs(terms[-1]) < 1e-17 * abs(math.fsum(terms))
    K = logeta_potential(SU2)
    for sign in (1.0, -1.0):
        t = np.array([[sign * x]])
        assert abs(K.grad(t)[0, 0] / (sign * math.fsum(grad_terms)) - 1) < 1e-15
        assert abs(K.hess(t)[0, 0, 0] / math.fsum(hess_terms) - 1) < 1e-15


@pytest.mark.parametrize("certificate", [
    lambda: canonical_semi_negativity_certificate(SU2),
    lambda: twist_positivity_certificate(SU2, TWO_PI, 2.0),
    lambda: spectrum_curve_certificate(SU2),
    lambda: wall_limit_certificate(SU2),
], ids=["canonical_semi_negativity", "twist_positivity", "spectrum_curve",
        "wall_limit"])
def test_certificates_fail_on_a_nan_spectrum(monkeypatch, certificate):
    # a NaN in the last entry of the last row: not the first row, so a
    # fold that drops NaN would skip it
    real = psh_analysis.theta_spectrum

    def nan_spectrum(K, ys):
        spec = real(K, ys)
        spec[-1, -1] = np.nan
        return spec

    monkeypatch.setattr(psh_analysis, "theta_spectrum", nan_spectrum)
    rep = certificate()
    assert rep.passed is False
    assert "failure" in rep.metadata


@pytest.mark.parametrize("model", [U1, T2, SU2], ids=lambda m: m.name)
def test_scan_certificates_read_one_scan(model):
    # the canonical certificate and the logeta curve scan one grid
    semi = canonical_semi_negativity_certificate(model)
    curve = spectrum_curve_certificate(model).metadata["spectrum_min"]
    assert semi.metadata["min_eigenvalue"] == min(curve["logeta"])
    # the twist certificate and the oracle preset are one potential
    coords = _scan_coords(model)
    preset = psh_analysis._PRESETS["combined:6.283185307179586,2"](model)
    twisted = combined_potential(model, TWO_PI, 2.0)
    assert np.array_equal(theta_spectrum(twisted, coords),
                          theta_spectrum(preset, coords))
    twist = twist_positivity_certificate(model, TWO_PI, 2.0)
    _, mins = psh_analysis._scan(preset)
    assert twist.metadata["min_eigenvalue"] == mins.min()
