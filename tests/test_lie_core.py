"""Structural checks for the group models: brackets, exponentials, adjoint
orbits, roots, and Weyl groups."""

import math

import numpy as np
import pytest
import scipy.linalg

from quantlab import lie_core as lc
from quantlab.kahler_geom import _ad_eigensystem


def test_builtin_models_validate():
    for name in ("u1", "t2", "su2"):
        model = lc.get_model(name)
        assert model.name == name
        lc.validate_model(model)


def test_bracket_su2_basis():
    su2 = lc.get_model("su2")
    e1 = lc.algebra_vec(su2, [1, 0, 0])
    e2 = lc.algebra_vec(su2, [0, 1, 0])
    e3 = lc.algebra_vec(su2, [0, 0, 1])
    assert np.allclose(lc.bracket(e1, e2).coords, e3.coords)
    assert np.allclose(lc.bracket(e2, e3).coords, e1.coords)
    assert np.allclose(lc.bracket(e3, e1).coords, e2.coords)


def test_bracket_antisymmetry_and_self():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = lc.random_algebra(su2, rng)
        y = lc.random_algebra(su2, rng)
        assert np.allclose(
            lc.bracket(x, y).coords, -lc.bracket(y, x).coords, atol=1e-14
        )
        assert np.allclose(lc.bracket(x, x).coords, 0.0, atol=1e-14)


def test_bracket_torus_abelian():
    t2 = lc.get_model("t2")
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = lc.random_algebra(t2, rng)
        y = lc.random_algebra(t2, rng)
        assert np.allclose(lc.bracket(x, y).coords, 0.0)


def test_bracket_model_mismatch_is_usage_error():
    su2 = lc.get_model("su2")
    u1 = lc.get_model("u1")
    with pytest.raises(ValueError):
        lc.bracket(
            lc.algebra_vec(su2, [1, 0, 0]), lc.algebra_vec(u1, [1.0])
        )


def test_adjoint_identity_and_torus():
    for name in ("u1", "t2", "su2"):
        model = lc.get_model(name)
        rng = np.random.default_rng(11)
        y = lc.random_algebra(model, rng)
        e = lc.GroupPoint(model, np.eye(model.defining_rep_dim, dtype=complex))
        assert np.allclose(lc.adjoint_action(e, y).coords, y.coords)
    t2 = lc.get_model("t2")
    rng = np.random.default_rng(12)
    g = lc.random_group_point(t2, rng)
    y = lc.random_algebra(t2, rng)
    assert np.allclose(lc.adjoint_action(g, y).coords, y.coords)


def test_adjoint_rotation_oracle():
    # Conjugating e_1 by exp(t e_3) in the 2x2 defining rep and projecting
    # back to coordinates must give the plane rotation (cos t, sin t, 0).
    su2 = lc.get_model("su2")
    e1 = lc.algebra_vec(su2, [1, 0, 0])
    for t in (0.25, 0.7, math.pi / 2, 2.0):
        g_mat = scipy.linalg.expm(t * su2.generators[2])
        oracle = lc.coords_from_matrix(
            su2, g_mat @ su2.generators[0] @ g_mat.conj().T
        )
        assert np.allclose(oracle, [math.cos(t), math.sin(t), 0.0], atol=1e-12)
        got = lc.adjoint_action(
            lc.exp_alg(lc.algebra_vec(su2, [0, 0, t])), e1
        )
        assert np.allclose(got.coords, oracle, atol=1e-12)


def test_adjoint_preserves_inner_product():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        g = lc.random_group_point(su2, rng)
        x = lc.random_algebra(su2, rng)
        y = lc.random_algebra(su2, rng)
        lhs = np.dot(
            lc.adjoint_action(g, x).coords, lc.adjoint_action(g, y).coords
        )
        worst = max(worst, abs(lhs - np.dot(x.coords, y.coords)))
    assert worst < 1e-10


def test_adjoint_rejects_nonunitary():
    su2 = lc.get_model("su2")
    bad = lc.GroupPoint(su2, np.diag([2.0 + 0j, 0.5]))
    with pytest.raises(ValueError):
        lc.adjoint_action(bad, lc.algebra_vec(su2, [1, 0, 0]))


def test_exp_alg_identity_and_polar_factors():
    su2 = lc.get_model("su2")
    zero = lc.algebra_vec(su2, [0, 0, 0])
    assert np.allclose(lc.exp_alg(zero, zero).matrix, np.eye(2))
    rng = np.random.default_rng(14)
    y = lc.random_algebra(su2, rng)
    u = lc.exp_alg(y).matrix
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    p = lc.exp_alg(zero, y).matrix
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(p) > 0)


def test_exp_alg_u1_phase():
    u1 = lc.get_model("u1")
    theta = 0.9
    g = lc.exp_alg(lc.algebra_vec(u1, [theta]))
    assert np.allclose(g.matrix, [[np.exp(1j * theta)]])


def test_exp_alg_center_element():
    # exp X = cos(|x|/2) I + sinc(|x|/2) X in the defining rep, so the
    # center element -identity sits at |Y| = 2*pi along any axis.
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(15)
    for _ in range(5):
        axis = rng.standard_normal(3)
        axis *= 2 * math.pi / np.linalg.norm(axis)
        g = lc.exp_alg(lc.algebra_vec(su2, axis))
        assert np.allclose(g.matrix, -np.eye(2), atol=1e-12)


def test_exp_alg_matches_expm():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(16)
    for _ in range(20):
        y = lc.random_algebra(su2, rng, scale=1.5)
        c = lc.random_algebra(su2, rng, scale=1.5)
        direct = scipy.linalg.expm(
            lc.alg_to_matrix(su2, y.coords)
        ) @ scipy.linalg.expm(1j * lc.alg_to_matrix(su2, c.coords))
        assert np.allclose(lc.exp_alg(y, c).matrix, direct, atol=1e-12)


def test_ad_matrix_spectrum_on_torus_element():
    # ad(y e_3) acts on the root plane with eigenvalues +/- i y and kills
    # t, so the hermitian i ad(y e_3) has eigenvalues {-y, 0, y}.
    su2 = lc.get_model("su2")
    ys = np.array([[0, 0, y] for y in (0.3, 1.0, 2.7)])
    lam, _ = _ad_eigensystem(su2, ys)
    for y, eig in zip(ys[:, 2], lam):
        assert np.allclose(eig, [-y, 0.0, y], atol=1e-10)


def test_weyl_group_torus_trivial():
    for name in ("u1", "t2"):
        ws = lc.weyl_group(lc.get_model(name))
        assert len(ws) == 1
        assert np.allclose(ws[0].matrix, np.eye(lc.get_model(name).rank))


def test_weyl_group_su2():
    su2 = lc.get_model("su2")
    ws = lc.weyl_group(su2)
    assert len(ws) == 2
    mats = sorted(float(w.matrix[0, 0]) for w in ws)
    assert np.allclose(mats, [-1.0, 1.0])


def test_weyl_elements_permute_roots():
    su2 = lc.get_model("su2")
    covs = [r.covector for r in su2.roots]
    for w in lc.weyl_group(su2):
        for cov in covs:
            image = w.matrix.T @ cov
            assert any(np.allclose(image, c, atol=1e-12) for c in covs)


def test_unitary_log_round_trip():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = lc.random_group_point(su2, rng)
        back = lc.exp_alg(lc.unitary_log(g))
        assert np.allclose(back.matrix, g.matrix, atol=1e-9)
    minus = lc.GroupPoint(su2, -np.eye(2, dtype=complex))
    lg = lc.unitary_log(minus)
    assert abs(lg.norm - 2 * math.pi) < 1e-9
    assert np.allclose(lc.exp_alg(lg).matrix, -np.eye(2), atol=1e-9)
    u1 = lc.get_model("u1")
    g = lc.torus_point(u1, [2.0])
    assert np.allclose(lc.unitary_log(g).coords, [2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# stacked operations: every row equals the scalar result exactly


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_stacked_ops_rows_equal_scalar_results(name):
    model = lc.get_model(name)
    rng = np.random.default_rng(21)
    count = 64
    ys = rng.standard_normal((count, model.dim)) * 2.5
    cs = rng.standard_normal((count, model.dim))
    cs[::5] = 0.0  # zero rows of C contribute the identity
    mats = lc.alg_to_matrix_batch(model, ys)
    coords = lc.coords_from_matrix_batch(model, mats)
    units = lc.exp_alg_batch(model, ys)
    polar = lc.exp_alg_batch(model, ys, cs)
    moved = lc.adjoint_action_batch(model, units, cs)
    for i in range(count):
        y = lc.algebra_vec(model, ys[i])
        c = lc.algebra_vec(model, cs[i])
        assert np.array_equal(mats[i], lc.alg_to_matrix(model, ys[i]))
        assert np.array_equal(coords[i], lc.coords_from_matrix(model, mats[i]))
        assert np.array_equal(units[i], lc.exp_alg(y).matrix)
        assert np.array_equal(polar[i], lc.exp_alg(y, c).matrix)
        g = lc.GroupPoint(model, units[i])
        assert np.array_equal(moved[i], lc.adjoint_action(g, c).coords)
    assert np.allclose(coords, ys, atol=1e-12)


def test_exp_alg_batch_matches_expm():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(22)
    ys = rng.standard_normal((20, 3)) * 1.5
    cs = rng.standard_normal((20, 3)) * 1.5
    got = lc.exp_alg_batch(su2, ys, cs)
    for i in range(20):
        direct = scipy.linalg.expm(
            lc.alg_to_matrix(su2, ys[i])
        ) @ scipy.linalg.expm(1j * lc.alg_to_matrix(su2, cs[i]))
        assert np.allclose(got[i], direct, atol=1e-12)
    # exp of an su(2) image keeps the exact form [[a, -b*], [b, a*]]: the
    # determinant behind the closed form is exactly real
    u = lc.exp_alg_batch(su2, rng.standard_normal((500, 3)) * 3.0)
    assert np.array_equal(u[:, 0, 0], np.conj(u[:, 1, 1]))
    assert np.array_equal(u[:, 0, 1], -np.conj(u[:, 1, 0]))
    # rows at the removable singularity of sinh(z)/z: exp(X) = I + X
    tiny = np.array([[0.0, 0.0, 0.0], [1e-31, 0.0, 0.0]])
    got = lc.exp_alg_batch(su2, tiny)
    want = np.eye(2) + lc.alg_to_matrix_batch(su2, tiny)
    assert np.array_equal(got, want)
    assert got[1, 0, 1] != 0.0


@pytest.mark.parametrize("name", ["su2", "t2"])
def test_exp_matrices_on_complex_combinations_match_expm(name):
    # the holomorphic chart exp(sum_k z_k e_k) of kahler.omega_potential
    model = lc.get_model(name)
    rng = np.random.default_rng(23)
    zs = (rng.standard_normal((30, model.dim))
          + 1j * rng.standard_normal((30, model.dim))) * 1.5
    mats = np.einsum("nk,kab->nab", zs, np.stack(model.generators))
    got = lc._exp_matrices(model, mats)
    for i in range(30):
        direct = scipy.linalg.expm(mats[i])
        err = np.abs(got[i] - direct).max() / np.abs(direct).max()
        assert err < 1e-13


def _scalar_group_point(model, rng):
    # the scalar sampler the stacked draws must reproduce
    if model.is_abelian:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=model.rank)
        return lc.torus_point(model, angles)
    return lc.exp_alg(lc.random_algebra(model, rng, scale=2.0))


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_random_coords_batch_keeps_the_scalar_stream(name):
    # rounds of (group, algebra, group), drawn in batch and one by one
    model = lc.get_model(name)
    batch_rng = np.random.default_rng(23)
    scalar_rng = np.random.default_rng(23)
    g_c, y_c, h_c = lc.random_coords_batch(
        model, batch_rng, 50, ("group", "algebra", "group"))
    g_mats = lc.exp_alg_batch(model, g_c)
    for i in range(50):
        g = _scalar_group_point(model, scalar_rng)
        y = lc.random_algebra(model, scalar_rng)
        h = _scalar_group_point(model, scalar_rng)
        assert np.array_equal(g.matrix, g_mats[i])
        assert np.array_equal(y.coords, y_c[i])
        assert np.array_equal(h.matrix, lc.exp_alg_batch(model, h_c[i:i + 1])[0])
    assert batch_rng.random() == scalar_rng.random()
    one_rng = np.random.default_rng(23)
    assert np.array_equal(lc.random_group_point(model, one_rng).matrix, g_mats[0])
    with pytest.raises(ValueError):
        lc.random_coords_batch(model, batch_rng, 1, ("torus",))


def test_unitarity_rejects_a_small_drift():
    # the old allclose test kept rtol=1e-5 and passed this point
    su2 = lc.get_model("su2")
    drift = lc.GroupPoint(su2, np.diag([1 + 1e-7, 1 - 1e-7]).astype(complex))
    assert not drift.is_unitary
    e1 = lc.algebra_vec(su2, [1, 0, 0])
    with pytest.raises(ValueError):
        lc.adjoint_action(drift, e1)
    with pytest.raises(ValueError):
        lc.unitary_log(drift)
    rng = np.random.default_rng(24)
    (coords,) = lc.random_coords_batch(su2, rng, 10_000, ("group",))
    g_mats = lc.exp_alg_batch(su2, coords)
    ys = rng.standard_normal((10_000, 3))
    assert lc.is_unitary_batch(g_mats)
    lc.adjoint_action_batch(su2, g_mats, ys)
    g_mats[6789] = drift.matrix
    assert not lc.is_unitary_batch(g_mats)
    with pytest.raises(ValueError):
        lc.adjoint_action_batch(su2, g_mats, ys)
