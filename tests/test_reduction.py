import math

import numpy as np
import pytest

from quantlab.coherent_transform import PeterWeylVector
from quantlab.kahler_geom import BasePoint
from quantlab.lie_core import (
    AlgebraVec,
    GroupPoint,
    adjoint_action,
    alg_to_matrix,
    algebra_vec,
    exp_alg,
    get_model,
    random_algebra,
    random_group_point,
    torus_point,
)
from quantlab.reduction import (
    ReducedRepresentative,
    momentum_equivariance_certificate,
    momentum_map,
    momentum_map_batch,
    qr_commutes_certificate,
    reduction_unitary,
    torus_representative,
    weyl_canonicalize,
    zero_set_point,
)

SU2 = get_model("su2")
U1 = get_model("u1")


def base_point(g, Y):
    return BasePoint(g, Y)


def identity(model):
    return GroupPoint(model, np.eye(model.defining_rep_dim, dtype=complex))


def commuting_pair(rng, tau=None, y=None):
    # a random conjugate of a torus pair: always on the zero set
    tau = rng.uniform(0.3, 5.5) if tau is None else tau
    y = rng.uniform(-2, 2) if y is None else y
    h0 = random_group_point(SU2, rng)
    t0 = torus_point(SU2, [tau])
    y0 = algebra_vec(SU2, [0, 0, y])
    g = GroupPoint(SU2, h0.matrix @ t0.matrix @ h0.matrix.conj().T)
    return base_point(g, adjoint_action(h0, y0)), t0, y0


def test_momentum_trivial_cases():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Y = random_algebra(SU2, rng)
        assert momentum_map(base_point(identity(SU2), Y)).norm < 1e-14
        g = random_group_point(SU2, rng)
        zero = algebra_vec(SU2, [0, 0, 0])
        assert momentum_map(base_point(g, zero)).norm < 1e-14


def test_momentum_quarter_turn_example():
    g = exp_alg(algebra_vec(SU2, [0, 0, math.pi / 2]))
    j = momentum_map(base_point(g, algebra_vec(SU2, [1, 0, 0])))
    assert np.allclose(j.coords, [-1.0, 1.0, 0.0], atol=1e-12)
    assert abs(j.norm - math.sqrt(2)) < 1e-12


def test_momentum_equivariance():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        g = random_group_point(SU2, rng)
        Y = random_algebra(SU2, rng)
        h = random_group_point(SU2, rng)
        p = base_point(g, Y)
        moved = base_point(
            GroupPoint(SU2, h.matrix @ g.matrix @ h.matrix.conj().T),
            adjoint_action(h, Y),
        )
        lhs = momentum_map(moved).coords
        rhs = adjoint_action(h, momentum_map(p)).coords
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-10


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_momentum_map_batch_rows_equal_scalar(name):
    model = get_model(name)
    rng = np.random.default_rng(5)
    gs = [random_group_point(model, rng) for _ in range(40)]
    ys = rng.standard_normal((40, model.dim))
    got = momentum_map_batch(model, np.array([g.matrix for g in gs]), ys)
    for g, y, row in zip(gs, ys, got):
        want = momentum_map(base_point(g, AlgebraVec(model, y))).coords
        assert np.array_equal(row, want)


def _scalar_momentum_equivariance(model, rng, samples):
    # the per-sample loop the certificate replaced, kept as its reference
    worst = 0.0
    for _ in range(samples):
        g = random_group_point(model, rng)
        Y = random_algebra(model, rng)
        h = random_group_point(model, rng)
        p = base_point(g, Y)
        moved = base_point(
            GroupPoint(model, h.matrix @ g.matrix @ h.matrix.conj().T),
            adjoint_action(h, Y),
        )
        gap = np.abs(
            momentum_map(moved).coords
            - adjoint_action(h, momentum_map(p)).coords
        ).max()
        worst = max(worst, float(gap))
    return worst


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_momentum_certificate_reproduces_scalar_loop(name):
    model = get_model(name)
    rng_batch = np.random.default_rng(0)
    rng_loop = np.random.default_rng(0)
    report = momentum_equivariance_certificate(model, rng_batch, seed=0,
                                               samples=300)
    assert report.passed
    assert report.max_error == _scalar_momentum_equivariance(
        model, rng_loop, 300)
    if not model.is_abelian:
        assert report.max_error > 0.0
    # the suite keeps drawing from the same stream afterwards
    assert rng_batch.random() == rng_loop.random()


def test_zero_set_gate():
    rng = np.random.default_rng(2)
    p, _, _ = commuting_pair(rng)
    zp = zero_set_point(p)
    assert zp.residual < 1e-9
    bad = base_point(
        exp_alg(algebra_vec(SU2, [0, 0, 1.0])), algebra_vec(SU2, [1.0, 0, 0])
    )
    with pytest.raises(ValueError):
        zero_set_point(bad)


def assert_representative_invariant(rep, p):
    h = rep.conjugator
    lhs_g = h.matrix @ p.x.matrix @ h.matrix.conj().T
    assert np.abs(lhs_g - rep.t.matrix).max() < 1e-9
    lhs_y = adjoint_action(h, p.Y).coords
    assert np.abs(lhs_y - rep.Y0.coords).max() < 1e-9


def test_torus_representative_generic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p, _, _ = commuting_pair(rng)
        rep = torus_representative(zero_set_point(p))
        assert_representative_invariant(rep, p)
        assert abs(rep.Y0.coords[0]) < 1e-12
        assert abs(rep.Y0.coords[1]) < 1e-12


def test_torus_representative_fixed_points():
    # central group part with algebra part along e1
    minus_eye = GroupPoint(SU2, -np.eye(2, dtype=complex))
    p = base_point(minus_eye, algebra_vec(SU2, [0.7, 0, 0]))
    rep = torus_representative(zero_set_point(p))
    assert_representative_invariant(rep, p)
    assert abs(abs(rep.Y0.coords[2]) - 0.7) < 1e-10


def test_torus_representative_already_reduced():
    p = base_point(torus_point(SU2, [1.2]), algebra_vec(SU2, [0, 0, 0.5]))
    rep = torus_representative(zero_set_point(p))
    assert_representative_invariant(rep, p)
    canon = weyl_canonicalize(rep)
    assert abs(canon.Y0.coords[2] - 0.5) < 1e-10
    assert np.abs(canon.t.matrix - p.x.matrix).max() < 1e-9


def assert_su2_conjugator_diagonalizes(rep, p):
    h = rep.conjugator.matrix
    assert abs(np.linalg.det(h) - 1.0) < 1e-12
    assert np.abs(h @ h.conj().T - np.eye(2)).max() < 1e-12
    for mat in (p.x.matrix, 1j * alg_to_matrix(SU2, p.Y.coords)):
        conj = h @ mat @ h.conj().T
        assert max(abs(conj[0, 1]), abs(conj[1, 0])) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_torus_representative_conjugator_for_central_g(sign):
    central = GroupPoint(SU2, sign * np.eye(2, dtype=complex))
    rng = np.random.default_rng(5)
    for y in (np.zeros(3), rng.standard_normal(3)):
        p = base_point(central, algebra_vec(SU2, y))
        assert_su2_conjugator_diagonalizes(
            torus_representative(zero_set_point(p)), p)


def test_torus_representative_conjugator_for_zero_y():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = base_point(random_group_point(SU2, rng),
                       algebra_vec(SU2, np.zeros(3)))
        assert_su2_conjugator_diagonalizes(
            torus_representative(zero_set_point(p)), p)


def test_torus_representative_conjugator_for_generic_pair():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, _, _ = commuting_pair(rng)
        assert_su2_conjugator_diagonalizes(
            torus_representative(zero_set_point(p)), p)
    # pairs a hair off the torus, where the eigenvector's first entry
    # cancels unless the square-root sign is chosen against it
    for eps in (1e-4, 1e-8, 1e-12):
        h0 = exp_alg(algebra_vec(SU2, [eps, 0.3 * eps, 0.0]))
        for tau, y in ((0.5, -1.5), (4.0, 0.0), (5.5, 1.5)):
            t0 = torus_point(SU2, [tau])
            g = GroupPoint(SU2, h0.matrix @ t0.matrix @ h0.matrix.conj().T)
            p = base_point(g, adjoint_action(h0, algebra_vec(SU2, [0, 0, y])))
            assert_su2_conjugator_diagonalizes(
                torus_representative(zero_set_point(p)), p)


def test_weyl_canonicalize_flip_and_idempotence():
    t = torus_point(SU2, [2.1])
    rep = ReducedRepresentative(
        t, algebra_vec(SU2, [0, 0, -0.8]), identity(SU2)
    )
    canon = weyl_canonicalize(rep)
    assert canon.Y0.coords[2] == pytest.approx(0.8, abs=1e-14)
    assert canon.weyl_canonical
    again = weyl_canonicalize(canon)
    assert np.abs(again.t.matrix - canon.t.matrix).max() < 1e-12
    assert np.abs(again.Y0.coords - canon.Y0.coords).max() < 1e-12


def test_weyl_canonicalize_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, t0, y0 = commuting_pair(rng)
        rep = weyl_canonicalize(torus_representative(zero_set_point(p)))
        direct = weyl_canonicalize(
            ReducedRepresentative(t0, y0, identity(SU2))
        )
        assert abs(rep.Y0.coords[2] - direct.Y0.coords[2]) < 1e-8
        assert np.abs(rep.t.matrix - direct.t.matrix).max() < 1e-8


def test_weyl_canonicalize_angle_tie_break():
    rep = ReducedRepresentative(
        torus_point(SU2, [3.0 * math.pi]), algebra_vec(SU2, [0, 0, 0]),
        identity(SU2)
    )
    canon = weyl_canonicalize(rep)
    from quantlab.reduction import _su2_torus_angle

    assert _su2_torus_angle(canon.t) <= 2 * math.pi + 1e-9
    again = weyl_canonicalize(canon)
    assert np.abs(again.t.matrix - canon.t.matrix).max() < 1e-12


def test_reduction_unitary_torus_identity():
    f = PeterWeylVector(U1, 3, {((2,), 0, 0): 1.0})
    sec = reduction_unitary(f)
    taus = sec.rule.nodes[:, 0]
    assert np.abs(sec.values - np.exp(2j * taus)).max() < 1e-12
    assert abs(sec.norm_sq - 1.0) < 1e-12


def test_reduction_unitary_su2_isometry():
    for j in (0.0, 0.5, 1.0, 2.0):
        d = int(2 * j + 1)
        coeffs = {(j, a, a): 1.0 / math.sqrt(d) for a in range(d)}
        f = PeterWeylVector(SU2, 2.0, coeffs)
        sec = reduction_unitary(f)
        assert abs(sec.norm_sq - 1.0) < 1e-10


def test_reduction_unitary_preserves_orthogonality():
    secs = {}
    for j in (0.5, 1.0, 1.5):
        d = int(2 * j + 1)
        coeffs = {(j, a, a): 1.0 / math.sqrt(d) for a in range(d)}
        secs[j] = reduction_unitary(
            PeterWeylVector(SU2, 2.0, coeffs), modes=16
        )
    for ja in secs:
        for jb in secs:
            inner = np.sum(
                secs[ja].rule.weights * secs[ja].values
                * np.conj(secs[jb].values)
            )
            want = 1.0 if ja == jb else 0.0
            assert abs(inner - want) < 1e-10


def test_reduction_unitary_rejects_non_class():
    f = PeterWeylVector(SU2, 1.0, {(1.0, 0, 1): 1.0})
    with pytest.raises(ValueError):
        reduction_unitary(f)


def test_qr_certificate_su2():
    rep = qr_commutes_certificate(SU2, 2.0)
    assert rep.passed
    assert rep.max_error < 1e-4
    assert rep.metadata["dimension"] == 5
    assert rep.metadata["dims_match"]
    gram_a = np.array(rep.metadata["gram_a"])
    gram_b = np.array(rep.metadata["gram_b"])
    assert np.abs(gram_a - np.eye(5)).max() < 1e-4
    assert np.abs(gram_b - np.eye(5)).max() < 1e-4


def test_qr_certificate_su2_cutoff_six():
    # 13 spins: the axis-first character Gram keeps this inside tier 1
    rep = qr_commutes_certificate(SU2, 6.0)
    assert rep.passed
    assert rep.metadata["dimension"] == 13
    assert rep.metadata["dims_match"]


def test_su2_torus_character_values_are_the_weight_sums():
    # chi_j(diag(e^{-i tau/2}, e^{i tau/2})) = sum of e^{i m tau}, m = -j..j
    from quantlab.reduction import _torus_character_values

    taus = np.linspace(0.0, 4.0 * math.pi, 41)[:, None]
    for j in (0.0, 0.5, 1.0, 2.5, 4.0):
        want = sum(np.exp(1j * (k - j) * taus[:, 0])
                   for k in range(int(2 * j) + 1))
        got = _torus_character_values(SU2, j, taus)
        assert np.abs(got - want).max() < 1e-13 * (2 * j + 1)


def test_qr_certificate_truncation_monotone():
    small = qr_commutes_certificate(SU2, 1.0)
    big = qr_commutes_certificate(SU2, 2.0)
    ga_small = np.array(small.metadata["gram_a"])
    ga_big = np.array(big.metadata["gram_a"])
    n = ga_small.shape[0]
    assert np.abs(ga_small - ga_big[:n, :n]).max() < 1e-8


def test_qr_certificate_torus_exact():
    rep = qr_commutes_certificate(U1, 4)
    assert rep.passed
    assert rep.max_error < 1e-9
    assert rep.metadata["gram_a"] == rep.metadata["gram_b"]
