"""Structural checks for the group models: brackets, exponentials, adjoint
orbits, roots, and Weyl groups."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from quantlab import lie_core as lc


def _exp(model, y, c=None):
    # one point: a one-row call of the stacked exponential
    cs = None if c is None else np.asarray(c, float)[None]
    return lc.exp_alg_batch(model, np.asarray(y, float)[None], cs)[0]


def _ad(model, g, y):
    return lc.adjoint_action_batch(model, np.asarray(g)[None],
                                   np.asarray(y, float)[None])[0]


def test_builtin_models_validate():
    for name in ("u1", "t2", "su2"):
        model = lc.get_model(name)
        assert model.name == name
        lc.validate_model(model)


def _su2_plus_su2_fields():
    # su(2) + su(2) as LieModel fields: direct-sum structure constants,
    # generators block diagonal in the 4x4 sum of two defining
    # representations
    su2 = lc.get_model("su2")
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = c[3:, 3:, 3:] = su2.structure_constants
    gens = []
    for k in range(6):
        g = np.zeros((4, 4), dtype=complex)
        b = 2 * (k // 3)
        g[b:b + 2, b:b + 2] = su2.generators[k % 3]
        gens.append(g)
    roots = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float)
    return dict(
        name="su2+su2", dim=6, structure_constants=c,
        torus_indices=(2, 5), torus_periods=(4 * math.pi,) * 2, roots=roots,
        defining_rep_dim=4, generators=tuple(gens))


def test_validate_model_refuses_su2_plus_su2():
    # A = ad(Y) is block diagonal with blocks of moduli theta_1, theta_2,
    # so A^3 + theta^2 A, theta^2 = theta_1^2 + theta_2^2, is not zero
    fields = _su2_plus_su2_fields()
    y = np.array([0.3, -1.2, 0.7, 1.1, 0.4, -0.5])
    ad = np.einsum("i,ijk->kj", y, fields["structure_constants"])
    theta_sq = -0.5 * np.trace(ad @ ad)
    assert np.abs(ad @ ad @ ad + theta_sq * ad).max() > 0.1
    # the cubic identity is checked last, so every earlier invariant
    # (antisymmetry, Jacobi, ad-invariance, commuting torus, bracket table)
    # has passed when this message is raised; building the model raises it
    with pytest.raises(ValueError, match=r"ad\(Y\)\^3 = -theta\^2 ad\(Y\)"):
        lc.LieModel(**fields)


def test_validate_model_refuses_a_rescaled_su2_basis():
    # e_0 -> 2 e_0 keeps a Lie algebra, so the constants stay antisymmetric
    # in (i, j) and satisfy Jacobi, but the basis is no longer orthonormal
    # for an ad-invariant product: c[0, 1, 2] = 2 while c[1, 2, 0] = 1/2.
    # kahler_geom writes Omega's block -B as ad(Y), which needs this
    # refusal, and building the model raises it
    su2 = lc.get_model("su2")
    scale = np.array([2.0, 1.0, 1.0])
    c = su2.structure_constants * np.einsum("i,j,k->ijk", scale, scale,
                                            1.0 / scale)
    assert np.abs(c + np.swapaxes(c, 0, 1)).max() == 0.0
    assert np.abs(c + np.swapaxes(c, 1, 2)).max() > 1.0
    with pytest.raises(ValueError, match="inner product is not ad-invariant"):
        lc.LieModel(
            name="su2-rescaled", dim=3, structure_constants=c,
            torus_indices=su2.torus_indices, torus_periods=su2.torus_periods,
            roots=su2.roots, defining_rep_dim=2,
            generators=tuple(s * g for s, g in zip(scale, su2.generators)))


def test_bracket_su2_basis():
    # [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2, one row each
    su2 = lc.get_model("su2")
    e = np.eye(3)
    assert np.allclose(lc.bracket(su2, e, np.roll(e, -1, axis=0)),
                       np.roll(e, -2, axis=0))


def test_bracket_antisymmetry_and_self():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, 20, 3))
    assert np.allclose(
        lc.bracket(su2, x, y), -lc.bracket(su2, y, x), atol=1e-14
    )
    assert np.allclose(lc.bracket(su2, x, x), 0.0, atol=1e-14)


def test_bracket_torus_abelian():
    t2 = lc.get_model("t2")
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 10, 2))
    assert np.allclose(lc.bracket(t2, x, y), 0.0)


def test_bracket_model_mismatch_is_usage_error():
    # coordinates of another model's length are refused, a length-1 row
    # included, which einsum alone would broadcast; so is a bare (n,)
    # vector, which is not a stack
    su2 = lc.get_model("su2")
    with pytest.raises(ValueError):
        lc.bracket(su2, np.array([[1.0, 0, 0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        lc.bracket(su2, np.array([[1.0, 0]]), np.array([[1.0, 0]]))
    with pytest.raises(ValueError):
        lc.bracket(su2, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))


def test_adjoint_identity_and_torus():
    for name in ("u1", "t2", "su2"):
        model = lc.get_model(name)
        rng = np.random.default_rng(11)
        y = rng.standard_normal(model.dim)
        e = np.eye(model.defining_rep_dim, dtype=complex)
        assert np.allclose(_ad(model, e, y), y)
    t2 = lc.get_model("t2")
    rng = np.random.default_rng(12)
    g = lc.random_group_point(t2, rng)
    y = rng.standard_normal(2)
    assert np.allclose(_ad(t2, g.matrix, y), y)


def test_adjoint_rotation_oracle():
    # Conjugating e_1 by exp(t e_3) in the 2x2 defining rep and projecting
    # back to coordinates must give the plane rotation (cos t, sin t, 0).
    su2 = lc.get_model("su2")
    for t in (0.25, 0.7, math.pi / 2, 2.0):
        g_mat = scipy.linalg.expm(t * su2.generators[2])
        oracle = lc.coords_from_matrix_batch(
            su2, (g_mat @ su2.generators[0] @ g_mat.conj().T)[None]
        )[0]
        assert np.allclose(oracle, [math.cos(t), math.sin(t), 0.0], atol=1e-12)
        got = _ad(su2, _exp(su2, [0, 0, t]), [1, 0, 0])
        assert np.allclose(got, oracle, atol=1e-12)


def test_adjoint_preserves_inner_product():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        g = lc.random_group_point(su2, rng).matrix
        x, y = rng.standard_normal((2, 3))
        lhs = np.dot(_ad(su2, g, x), _ad(su2, g, y))
        worst = max(worst, abs(lhs - np.dot(x, y)))
    assert worst < 1e-10


def test_adjoint_rejects_nonunitary():
    su2 = lc.get_model("su2")
    bad = np.diag([2.0 + 0j, 0.5])
    with pytest.raises(ValueError):
        _ad(su2, bad, [1, 0, 0])


def test_exp_alg_identity_and_polar_factors():
    su2 = lc.get_model("su2")
    zero = np.zeros(3)
    assert np.allclose(_exp(su2, zero, zero), np.eye(2))
    rng = np.random.default_rng(14)
    y = rng.standard_normal(3)
    u = _exp(su2, y)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    p = _exp(su2, zero, y)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(p) > 0)


def test_exp_alg_u1_phase():
    u1 = lc.get_model("u1")
    theta = 0.9
    assert np.allclose(_exp(u1, [theta]), [[np.exp(1j * theta)]])


def test_exp_alg_center_element():
    # exp X = cos(|x|/2) I + sinc(|x|/2) X in the defining rep, so the
    # center element -identity sits at |Y| = 2*pi along any axis.
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(15)
    for _ in range(5):
        axis = rng.standard_normal(3)
        axis *= 2 * math.pi / np.linalg.norm(axis)
        assert np.allclose(_exp(su2, axis), -np.eye(2), atol=1e-12)


def test_exp_alg_matches_expm():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(16)
    for _ in range(20):
        y, c = 1.5 * rng.standard_normal((2, 3))
        y_mat, c_mat = lc.alg_to_matrix_batch(su2, np.stack([y, c]))
        direct = scipy.linalg.expm(y_mat) @ scipy.linalg.expm(1j * c_mat)
        assert np.allclose(_exp(su2, y, c), direct, atol=1e-12)


def test_ad_matrix_spectrum_on_torus_element():
    # ad(y e_3) acts on the root plane with eigenvalues +/- i y and kills
    # t, so the hermitian i ad(y e_3) has eigenvalues {-y, 0, y}.
    su2 = lc.get_model("su2")
    for y in (0.3, 1.0, 2.7):
        # column j of ad(y e_3) is [y e_3, e_j] = y c[2, j, :]
        ad = y * su2.structure_constants[2].T
        assert np.allclose(np.linalg.eigvalsh(1j * ad), [-y, 0.0, y],
                           atol=1e-10)


def test_weyl_group_torus_trivial():
    for name in ("u1", "t2"):
        rank = lc.get_model(name).rank
        ws = lc.weyl_group(lc.get_model(name))
        assert ws.shape == (1, rank, rank)
        assert np.allclose(ws[0], np.eye(rank))


def test_weyl_group_su2():
    su2 = lc.get_model("su2")
    ws = lc.weyl_group(su2)
    assert ws.shape == (2, 1, 1)
    assert np.allclose(np.sort(ws[:, 0, 0]), [-1.0, 1.0])


def test_weyl_group_refuses_more_than_one_positive_root():
    # validate_model reads no roots, so su2 listing the roots +-1 and +-2
    # builds; its two positive roots are refused by weyl_group itself
    model = dataclasses.replace(lc.get_model("su2"), name="su2-four-roots",
                                roots=np.array([[1.0], [-1.0], [2.0], [-2.0]]))
    with pytest.raises(ValueError, match="2 positive roots"):
        lc.weyl_group(model)


def test_weyl_elements_permute_roots():
    su2 = lc.get_model("su2")
    for w in lc.weyl_group(su2):
        for cov in su2.roots:
            image = w.T @ cov
            assert any(np.allclose(image, c, atol=1e-12) for c in su2.roots)


def test_unitary_log_round_trip():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = lc.random_group_point(su2, rng)
        back = _exp(su2, lc.unitary_log(g))
        assert np.allclose(back, g.matrix, atol=1e-9)
    minus = lc.GroupPoint(su2, -np.eye(2, dtype=complex))
    lg = lc.unitary_log(minus)
    assert abs(np.linalg.norm(lg) - 2 * math.pi) < 1e-9
    assert np.allclose(_exp(su2, lg), -np.eye(2), atol=1e-9)
    u1 = lc.get_model("u1")
    g = lc.GroupPoint(u1, _exp(u1, [2.0]))
    assert np.allclose(lc.unitary_log(g), [2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# stacked operations: every row equals a one-row call exactly, so a
# caller with one point gets what a row of a stack gets


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
        row = slice(i, i + 1)
        assert np.array_equal(mats[i],
                              lc.alg_to_matrix_batch(model, ys[row])[0])
        assert np.array_equal(coords[i],
                              lc.coords_from_matrix_batch(model, mats[row])[0])
        assert np.array_equal(units[i], _exp(model, ys[i]))
        assert np.array_equal(polar[i], _exp(model, ys[i], cs[i]))
        assert np.array_equal(moved[i], _ad(model, units[i], cs[i]))
    assert np.allclose(coords, ys, atol=1e-12)


def test_exp_alg_batch_matches_expm():
    su2 = lc.get_model("su2")
    rng = np.random.default_rng(22)
    ys = rng.standard_normal((20, 3)) * 1.5
    cs = rng.standard_normal((20, 3)) * 1.5
    got = lc.exp_alg_batch(su2, ys, cs)
    y_mats = lc.alg_to_matrix_batch(su2, ys)
    c_mats = lc.alg_to_matrix_batch(su2, cs)
    for i in range(20):
        direct = scipy.linalg.expm(y_mats[i]) @ scipy.linalg.expm(
            1j * c_mats[i])
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


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_random_group_coords_draws_one_block(name):
    # uniform torus angles in [0, 2 pi) on tori, zero off the torus axes,
    # and 2 * standard normal otherwise, each one block from the stream
    model = lc.get_model(name)
    block = lc.random_group_coords(model, np.random.default_rng(23), 50)
    assert block.shape == (50, model.dim)
    same_seed = np.random.default_rng(23)
    if model.is_abelian:
        torus = list(model.torus_indices)
        angles = block[:, torus]
        assert angles.min() >= 0.0 and angles.max() < 2.0 * math.pi
        assert np.array_equal(
            angles, 2.0 * math.pi * same_seed.random((50, model.rank)))
        assert not np.any(np.delete(block, torus, axis=1))
    else:
        assert np.array_equal(
            block, 2.0 * same_seed.standard_normal((50, model.dim)))
    one = lc.random_group_point(model, np.random.default_rng(23))
    assert np.array_equal(one.matrix, lc.exp_alg_batch(model, block)[0])


def test_unitarity_rejects_a_small_drift():
    # the old allclose test kept rtol=1e-5 and passed this point
    su2 = lc.get_model("su2")
    drift = lc.GroupPoint(su2, np.diag([1 + 1e-7, 1 - 1e-7]).astype(complex))
    assert not drift.is_unitary
    with pytest.raises(ValueError):
        _ad(su2, drift.matrix, [1, 0, 0])
    with pytest.raises(ValueError):
        lc.unitary_log(drift)
    rng = np.random.default_rng(24)
    coords = lc.random_group_coords(su2, rng, 10_000)
    g_mats = lc.exp_alg_batch(su2, coords)
    ys = rng.standard_normal((10_000, 3))
    assert lc.is_unitary_batch(g_mats)
    lc.adjoint_action_batch(su2, g_mats, ys)
    g_mats[6789] = drift.matrix
    assert not lc.is_unitary_batch(g_mats)
    with pytest.raises(ValueError):
        lc.adjoint_action_batch(su2, g_mats, ys)
    nan_row = lc.exp_alg_batch(su2, coords)
    nan_row[6789, 0, 1] = np.nan
    assert not lc.is_unitary_batch(nan_row)
    assert not lc.GroupPoint(su2, nan_row[6789]).is_unitary


# the leading axes of every operand pair the sampling path multiplies:
# stack by stack, a fixed matrix on either side of a stack, and one factor
# per row against six per row
MATMUL_LEADS = [((50,), (50,)), ((), (50,)), ((50,), ()), ((50, 1), (50, 6))]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("leads", MATMUL_LEADS)
def test_matmul_batch_matches_matmul(k, dtype, leads):
    rng = np.random.default_rng(31)

    def draw(lead):
        shape = lead + (k, k)
        if dtype is float:
            return rng.standard_normal(shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = (draw(lead) for lead in leads)
    got, ref = lc.matmul_batch(a, b), np.matmul(a, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    # no entry of a product exceeds k * max|a| * max|b|
    scale = k * np.abs(a).max() * np.abs(b).max()
    assert np.abs(got - ref).max() <= 1e-15 * scale
    # a row of a stack is the product of that row alone, bit for bit
    row = (a[3:4] if a.ndim > 2 else a, b[3:4] if b.ndim > 2 else b)
    assert np.array_equal(lc.matmul_batch(*row)[0], got[3])


def test_positive_roots_are_the_rows_with_a_positive_leading_entry():
    su2 = lc.get_model("su2")
    assert su2.roots.shape == (2, 1)
    assert np.array_equal(su2.positive_roots(), [[1.0]])
    for name, rank in (("u1", 1), ("t2", 2)):
        model = lc.get_model(name)
        assert model.roots.shape == (0, rank)
        assert model.positive_roots().shape == (0, rank)
    # the leading entry is the first nonzero one: (0, 1) is positive, on
    # t2 listing su(2) + su(2)'s roots (validate_model reads no roots)
    four = dataclasses.replace(
        lc.get_model("t2"), roots=_su2_plus_su2_fields()["roots"])
    assert np.array_equal(four.positive_roots(), [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("block", [1, 3, 7, 100])
def test_row_block_max_is_the_max_over_every_row(monkeypatch, block):
    monkeypatch.setattr(lc, "_ROW_BLOCK", block)
    a = np.random.default_rng(0).standard_normal((20, 2))
    b = np.arange(20.0)
    calls = []

    def both(a, b):
        calls.append(len(a))
        return np.abs(a).max(initial=0.0), (a[:, 0] + b).max(initial=-1.0)

    got = lc._row_block_max(both, a, b)
    assert got.tolist() == [np.abs(a).max(), (a[:, 0] + b).max()]
    assert calls == [min(block, 20 - lo) for lo in range(0, 20, block)]
    # a NaN in any block reads NaN, as a whole-stack max does
    a[13, 1] = np.nan
    assert math.isnan(lc._row_block_max(lambda a: a.max(), a))
    # an empty stack is one empty block
    calls.clear()
    assert lc._row_block_max(both, a[:0], b[:0]).tolist() == [0.0, -1.0]
    assert calls == [0]
