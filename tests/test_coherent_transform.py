import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import norm, qmc

from quantlab.coherent_transform import (
    _basis_owner,
    _fold,
    _rep_exp,
    _su2_gram_rules,
    _su2_spin_matrices,
    _weights,
    build_sigma_table,
    character_gram,
    equivariance_certificate,
    group_action,
    irrep_labels,
    sigma,
    spin_weighted_gram,
    transform_C_phi,
    transform_bytes,
    unitarity_certificate,
)
from quantlab.lie_core import (
    GroupPoint,
    exp_alg_batch,
    get_model,
    random_group_point,
    unitary_log,
)
from quantlab.density_weights import eta_tilde
from quantlab.quadrature import (
    gaussian_rule,
    radial_rule,
    su2_haar_rule,
    torus_rule,
)

SU2 = get_model("su2")
U1 = get_model("u1")
T2 = get_model("t2")


def _haar_matrices(rule) -> np.ndarray:
    # the defining-representation matrix exp(a e3) exp(b e2) exp(c e3) at
    # each Euler-angle node (a, b, c) of an su2 Haar rule
    basis = np.eye(3)
    a, b, c = rule.nodes.T
    return (exp_alg_batch(SU2, np.outer(a, basis[2]))
            @ exp_alg_batch(SU2, np.outer(b, basis[1]))
            @ exp_alg_batch(SU2, np.outer(c, basis[2])))


def _su2_characters(half: np.ndarray, spins) -> np.ndarray:
    # the su2 characters at complexified points, the oracle of the
    # character tests: one row per spin j, the sum of z^{2m} over its
    # weights m, from -j up, with z an eigenvalue of a 2x2 point of
    # half-trace ``half``; the |z| >= 1 branch keeps complexified powers
    # stable
    root = np.sqrt(half * half - 1.0 + 0j)
    z1, z2 = half + root, half - root
    z = np.where(np.abs(z1) >= np.abs(z2), z1, z2)
    out = np.empty((len(spins),) + z.shape, dtype=complex)
    for i, w in enumerate(_weights(SU2, spins)):
        acc = np.zeros_like(z)
        for m in w[::-1, 0].tolist():
            acc = acc + z ** (2 * m)
        out[i] = acc
    return out


def sigma_u1_closed(n: int) -> float:
    # complete the square: int e^{2ny} e^{-2pi y^2} dy
    return math.exp(n * n / (2 * math.pi)) / math.sqrt(2.0)


def radial_piece_closed(b: float) -> float:
    # int_0^inf r^2 e^{br} e^{-2pi r^2} dr by completing the square to erf
    a = 2.0 * math.pi
    c = b / (2.0 * a)
    gauss = 0.5 * math.sqrt(math.pi / a) * (1.0 + erf(c * math.sqrt(a)))
    return c / (2 * a) + math.exp(a * c * c) * (1.0 / (2 * a) + c * c) * gauss


def sigma_su2_closed(j: float) -> float:
    total = 0.0
    m = -j
    while m <= j + 1e-9:
        total += radial_piece_closed(2.0 * m)
        m += 1.0
    return 4.0 * math.pi * total / (2 * j + 1)


def rep_unitary(model, label, g):
    # pi(g) for a unitary group point, via the exponentiated log
    return _rep_exp(model, label, unitary_log(g))


def character(model, label, mat):
    # the trace of pi at a (possibly complexified) defining-representation
    # point: the torus phase prod_k t_k^{n_k}, or the su2 character at the
    # half-trace
    mat = np.asarray(mat, complex)
    if model.is_abelian:
        return complex(np.prod(np.diagonal(mat) ** np.asarray(label)))
    # a length-1 array, not a scalar: numpy's scalar complex power rounds
    # differently from the array one
    half = np.trace(mat[None], axis1=1, axis2=2) / 2.0
    return complex(_su2_characters(half, [label])[0, 0])


def phi_kernel(tmat, model, labels, sigmas):
    # the truncated entire kernel of the transform (Hall 1994): sum over
    # irreps of dim / sqrt(sigma) times the character of the inverse point
    tinv = np.linalg.inv(np.asarray(tmat, complex))
    out = 0.0 + 0.0j
    for label, s, w in zip(labels, sigmas, _weights(model, labels)):
        out += len(w) / math.sqrt(s) * character(model, label, tinv)
    return complex(out)


def sigma_table(model, cutoff):
    # the labels within the cutoff and their sigmas, in label order
    labels = irrep_labels(model, cutoff)
    return labels, build_sigma_table(model, labels)


def test_label_validation_and_dimensions():
    # a torus label is its only weight, spin j has the weights j, ..., -j,
    # and the character at the identity is the dimension
    for n in (-3, 0, 5):
        (w,) = _weights(U1, [n])
        assert w.tolist() == [[n]]
        assert abs(character(U1, (n,), np.eye(1)) - 1) < 1e-12
    assert _weights(T2, [(3, -2)])[0].tolist() == [[3, -2]]
    for j in (0.0, 0.5, 1.0, 2.0):
        (w,) = _weights(SU2, [j])
        assert w[:, 0].tolist() == [j - k for k in range(int(2 * j + 1))]
        assert abs(character(SU2, j, np.eye(2)) - len(w)) < 1e-10
    with pytest.raises(ValueError):
        _weights(SU2, [0.3])
    with pytest.raises(ValueError):
        _weights(T2, [4])


# every public function that takes labels refuses one that names no irrep,
# where it used to return a number: a spin below 0, a fractional or
# infinite torus mode, a spin that is not a half-integer, an infinite spin;
# and a NaN mode or spin, a ragged t2 label list and a bare int on t2
@pytest.mark.parametrize("func,args", [
    (build_sigma_table, (SU2, [-1.0])),
    (build_sigma_table, (U1, [(2.5,)])),
    (build_sigma_table, (U1, [(math.inf,)])),
    (build_sigma_table, (SU2, [math.inf])),
    (character_gram, (U1, [(2.5,), (0,)])),
    (sigma, (U1, [(2.5,)])),
    (sigma, (SU2, [math.inf])),
    (build_sigma_table, (SU2, [0.3])),
    (build_sigma_table, (U1, [(math.nan,)])),
    (build_sigma_table, (SU2, [math.nan])),
    (character_gram, (T2, [(1, 2), (3,)])),
    (build_sigma_table, (T2, [4])),
], ids=["sigma-table-negative-spin", "sigma-table-fractional-mode",
        "sigma-table-infinite-mode", "sigma-table-infinite-spin",
        "character-gram-fractional-mode", "sigma-fractional-mode",
        "sigma-infinite-spin", "sigma-table-fractional-spin",
        "sigma-table-nan-mode",
        "sigma-table-nan-spin", "character-gram-ragged-t2-labels",
        "sigma-table-bare-int-on-t2"])
def test_entry_points_refuse_a_label_that_names_no_irrep(func, args):
    with pytest.raises(ValueError):
        func(*args)


def test_spin_half_matches_defining_rep():
    assert np.abs(_su2_spin_matrices(0.5) - SU2.generators).max() < 1e-12


def test_spin_matrices_represent_su2():
    # skew-hermitian images that keep the bracket table, with i J_3
    # diagonal and carrying the weights, for every spin up to 8
    c = SU2.structure_constants
    for j in (k / 2.0 for k in range(17)):
        g = _su2_spin_matrices(j)
        assert g.shape == (3, int(2 * j + 1), int(2 * j + 1))
        assert np.abs(g + np.transpose(g.conj(), (0, 2, 1))).max() < 1e-10
        comm = np.einsum("iab,jbc->ijac", g, g)
        comm = comm - np.transpose(comm, (1, 0, 2, 3))
        assert np.abs(comm - np.einsum("ijk,kab->ijab", c, g)).max() < 1e-10
        h = 1j * g[SU2.torus_indices[0]]
        assert np.array_equal(h, np.diag(np.diagonal(h)))
        assert np.array_equal(np.diagonal(h).real, _weights(SU2, [j])[0][:, 0])
        # built once per spin and shared, so read-only
        assert _su2_spin_matrices(j) is g and not g.flags.writeable


def test_closed_form_wigner_matches_rep_unitary_at_haar_nodes():
    from quantlab.coherent_transform import _su2_axis_tables

    labels = [k / 2.0 for k in range(7)]
    for level in (1, 2, 3, 4):
        rule = su2_haar_rule(level)
        (alpha, _), (beta, _), (gamma, _) = rule.axes
        d_b, twice_p, twice_k, _, _ = _su2_axis_tables(SU2, labels, rule)
        # D^x_pk at node (a, b, c) = e^{-i m_p a} d^x_pk(b) e^{-i m_k c}
        closed = (np.exp(-0.5j * np.multiply.outer(alpha, twice_p))[
            :, None, None, :] * d_b[None, :, None, :]
            * np.exp(-0.5j * np.multiply.outer(gamma, twice_k))[
            None, None, :, :]).reshape(len(rule.nodes), -1)
        for node, got in zip(_haar_matrices(rule), closed):
            want = np.concatenate([
                rep_unitary(SU2, lab, GroupPoint(SU2, node)).reshape(-1)
                for lab in labels])
            assert np.abs(got - want).max() < 1e-13


def test_torus_rep_unitary_rejects_nonunitary_points():
    bad = GroupPoint(T2, np.diag([2.0, 1.0]).astype(complex))
    good = GroupPoint(T2, np.eye(2, dtype=complex))
    labels = irrep_labels(T2, 2)
    f = np.zeros(len(labels), complex)
    f[labels.index((1, -2))] = 1.0
    with pytest.raises(ValueError):
        rep_unitary(T2, (1, -2), bad)
    with pytest.raises(ValueError):
        group_action(T2, labels, f, bad, good)
    with pytest.raises(ValueError):
        group_action(T2, labels, f, good, bad)
    with pytest.raises(ValueError):
        rep_unitary(U1, (3,), GroupPoint(U1, np.array([[0.5 + 0j]])))


def test_torus_rep_unitary_is_the_phase():
    theta = np.array([0.7, -2.9])
    g = GroupPoint(T2, np.diag(np.exp(1j * theta)))
    got = rep_unitary(T2, (3, -2), g)
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - np.exp(1j * (3 * theta[0] - 2 * theta[1]))) < 1e-13


def test_rep_unitary_is_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_group_point(SU2, rng)
        h = random_group_point(SU2, rng)
        gh = GroupPoint(SU2, g.matrix @ h.matrix)
        lhs = rep_unitary(SU2, 1.5, gh)
        rhs = rep_unitary(SU2, 1.5, g) @ rep_unitary(SU2, 1.5, h)
        assert np.abs(lhs - rhs).max() < 1e-10
        # unitary and character consistent with the eigenvalue route
        assert np.abs(lhs @ lhs.conj().T - np.eye(4)).max() < 1e-10
        assert abs(np.trace(lhs) - character(SU2, 1.5, gh.matrix)) < 1e-10


def test_character_on_torus_points():
    for tau in (0.3, 1.7, -2.2):
        g = exp_alg_batch(SU2, np.array([[0.0, 0.0, tau]]))[0]
        want = sum(np.exp(1j * m * tau) for m in (-1, 0, 1))
        assert abs(character(SU2, 1.0, g) - want) < 1e-12


def test_sigma_u1_against_closed_form():
    labels = list(range(-8, 9))
    for n, got in zip(labels, sigma(U1, labels, level=4)):
        assert abs(got - sigma_u1_closed(n)) / sigma_u1_closed(n) < 1e-10


def test_sigma_trivial_is_gaussian_mass():
    assert abs(sigma(U1, [0])[0] - 2 ** -0.5) < 1e-12
    assert abs(sigma(T2, [(0, 0)])[0] - 0.5) < 1e-12
    assert abs(sigma(SU2, [0.0])[0] - 2 ** -1.5) < 1e-12


def test_sigma_su2_against_erf_oracle():
    # every spin up to 40, where the sum of e^{2 r m} is still a finite
    # double at every radial node
    labels = [k / 2.0 for k in range(1, 81)]
    got = sigma(SU2, labels, level=4)
    assert got.shape == (len(labels),)
    for j, value in zip(labels, got):
        want = sigma_su2_closed(j)
        assert abs(value - want) / want < 1e-10, j


def test_sigma_su2_against_quasirandom_3d():
    # independent 3-D check: scrambled-Sobol points mapped to the Gaussian
    # N(0, 1/(4 pi)); sigma = 2^{-3/2} E[HS^2(|Y|)] / dim
    j = 1.0
    sampler = qmc.Sobol(d=3, scramble=True, seed=12345)
    pts = sampler.random_base2(m=21)
    y = norm.ppf(pts) / math.sqrt(4 * math.pi)
    r = np.linalg.norm(y, axis=1)
    ms = np.arange(-j, j + 1)
    hs = np.exp(2.0 * np.outer(r, ms)).sum(axis=1)
    est = 2 ** -1.5 * hs.mean() / (2 * j + 1)
    want = sigma_su2_closed(j)
    assert abs(est - want) / want < 1e-3


def test_sigma_symmetric_under_weyl():
    plus = sigma(U1, list(range(9)))
    minus = sigma(U1, [-n for n in range(9)])
    assert np.all(np.abs(plus - minus) <= 1e-10 * np.maximum(1.0, plus))


def test_sigma_table_is_the_closed_form():
    # the table is Hall's closed form, with no quadrature level: the erf
    # sum on su2 and e^{|n|^2 / 2 pi} 2^{-r/2} on the tori, to rounding
    labels, table = sigma_table(SU2, 2.0)
    assert labels == [0.0, 0.5, 1.0, 1.5, 2.0]
    want = np.array([sigma_su2_closed(j) for j in labels])
    assert np.abs(table / want - 1.0).max() <= 1e-14
    labels, table = sigma_table(U1, 30)
    want = np.array([sigma_u1_closed(n) for (n,) in labels])
    assert np.abs(table / want - 1.0).max() <= 1e-14
    labels, table = sigma_table(T2, 5)
    want = np.array([sigma_u1_closed(a) * sigma_u1_closed(b)
                     for a, b in labels])
    assert np.abs(table / want - 1.0).max() <= 1e-14
    with pytest.raises(TypeError):
        build_sigma_table(SU2, [1.0], 4)


def test_phi_kernel_u1_direct_sum():
    labels, table = sigma_table(U1, 8)
    theta = 0.9
    t = np.array([[np.exp(1j * theta)]])
    want = sum(
        np.exp(-1j * n * theta) / math.sqrt(s)
        for (n,), s in zip(labels, table)
    )
    assert abs(phi_kernel(t, U1, labels, table) - want) < 1e-12


def test_phi_kernel_conjugation_invariance():
    rng = np.random.default_rng(11)
    table = sigma_table(SU2, 2.0)
    x = random_group_point(SU2, rng)
    g = random_group_point(SU2, rng)
    conj = GroupPoint(SU2, g.matrix @ x.matrix @ g.matrix.conj().T)
    assert abs(phi_kernel(x.matrix, SU2, *table)
               - phi_kernel(conj.matrix, SU2, *table)) < 1e-9


def test_phi_truncation_tail():
    # at the identity the N -> N+5 difference is exactly the sigma tail
    t = np.array([[1.0 + 0j]])
    t8 = sigma_table(U1, 8)
    labels, table = t13 = sigma_table(U1, 13)
    diff = phi_kernel(t, U1, *t13) - phi_kernel(t, U1, *t8)
    tail = sum(
        1.0 / math.sqrt(s) for (n,), s in zip(labels, table) if abs(n) > 8
    )
    assert abs(diff - tail) < 1e-10
    assert tail < 12 * math.exp(-(9 ** 2) / (4 * math.pi))


def test_transform_diagonal_action_u1_against_quadrature():
    # quadrature of the defining convolution against the diagonal rule,
    # at a complexified point t = e^{i(theta + i y)}
    cutoff = 6
    labels, table = sigma_table(U1, cutoff)
    rule = torus_rule(1, 2 * cutoff + 2)
    theta, yy = 0.7, 0.4
    tpoint = np.array([[np.exp(1j * (theta + 1j * yy))]])
    for n in (-4, 0, 3):
        vals = []
        for (ang,) in rule.nodes:
            x = np.array([[np.exp(1j * ang)]])
            xinv_t = np.linalg.inv(x) @ tpoint
            vals.append(np.exp(1j * n * ang)
                        * phi_kernel(xinv_t, U1, labels, table))
        got = complex(np.dot(rule.weights, vals))
        want = character(U1, (n,), tpoint) / math.sqrt(
            table[labels.index((n,))])
        assert abs(got - want) < 1e-8


def test_transform_su2_character_against_quadrature():
    cutoff = 2.0
    labels, table = sigma_table(SU2, cutoff)
    rule = su2_haar_rule(3)
    tpoint = exp_alg_batch(
        SU2, np.array([[0.2, -0.1, 0.4]]), np.array([[0.0, 0.0, 0.3]])
    )[0]
    vals = np.empty(len(rule.weights), dtype=complex)
    for i, x in enumerate(_haar_matrices(rule)):
        vals[i] = character(SU2, 0.5, x) * phi_kernel(
            np.linalg.inv(x) @ tpoint, SU2, labels, table
        )
    got = complex(np.dot(rule.weights, vals))
    want = character(SU2, 0.5, tpoint) / math.sqrt(
        table[labels.index(0.5)])
    assert abs(got - want) < 1e-8


def test_transform_zero_and_cutoff_mismatch():
    labels, table = sigma_table(U1, 4)
    owner = _basis_owner(U1, labels)
    zero = np.zeros(owner.size, dtype=complex)
    assert np.array_equal(transform_C_phi(zero, table, owner), zero)
    # an array over the cutoff-6 basis does not fit the cutoff-4 table
    f = np.zeros(len(irrep_labels(U1, 6)), dtype=complex)
    f[-1] = 1.0
    with pytest.raises(ValueError):
        transform_C_phi(f, table, owner)


def test_parseval_truncated():
    # quadrature norm equals coefficient norm for a trig polynomial
    rng = np.random.default_rng(5)
    cutoff = 5
    labels = irrep_labels(U1, cutoff)
    coeffs = np.array([complex(*rng.standard_normal(2)) for _ in labels])
    rule = torus_rule(1, 2 * cutoff)
    vals = np.zeros(rule.nodes.shape[0], dtype=complex)
    for (n,), c in zip(labels, coeffs):
        vals += c * np.exp(1j * n * rule.nodes[:, 0])
    quad_norm = float(np.dot(rule.weights, np.abs(vals) ** 2))
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    assert abs(quad_norm - norm_sq) < 1e-10


def test_group_action_u1_phases():
    a = 0.8
    h1 = GroupPoint(U1, np.array([[np.exp(1j * a)]]))
    h2 = GroupPoint(U1, np.eye(1, dtype=complex))
    labels = irrep_labels(U1, 3)
    f = np.zeros(len(labels), complex)
    f[labels.index((2,))] = 1.0
    acted = group_action(U1, labels, f, h1, h2)
    want = f.copy()
    want[labels.index((2,))] = np.exp(-2j * a)
    assert np.abs(acted - want).max() < 1e-12


def test_unitarity_certificate_u1():
    rep = unitarity_certificate(U1, 8)
    assert rep.passed
    assert rep.max_error < 1e-6
    assert rep.metadata["basis_size"] == 17


def test_unitarity_certificate_su2():
    rep = unitarity_certificate(SU2, 2.0)
    assert rep.passed
    assert rep.max_error < 1e-4
    assert rep.metadata["basis_size"] == 55
    assert rep.metadata["block_leakage"] < 1e-10


def test_unitarity_certificate_su2_cutoff_three():
    rep = unitarity_certificate(SU2, 3.0)
    assert rep.passed
    assert rep.max_error <= 1e-13
    assert rep.metadata["basis_size"] == 140


def _full_node_sums(model, labels, level):
    # sigma and both Gram factors as sums over every node of the product
    # rules, one row of label pairs at a time
    n = np.asarray(labels, float).reshape(len(labels), model.rank)
    y_rule = gaussian_rule(model.rank, level)
    g_rule = torus_rule(model.rank, 2 * int(np.abs(n).max()))
    sig = y_rule.weights @ np.exp(2.0 * y_rule.nodes @ n.T)
    haar = np.array([g_rule.weights @ np.exp(1j * g_rule.nodes @ (na - n).T)
                     for na in n])
    gauss = np.array([y_rule.weights @ np.exp(-y_rule.nodes @ (na + n).T)
                      for na in n])
    return sig, haar, gauss


def test_fold_of_unit_blocks_is_the_gram_itself():
    rng = np.random.default_rng(2)
    gram = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    # two reduceat passes over one-row blocks copy every entry bit for bit
    want = np.add.reduceat(np.add.reduceat(gram, np.arange(7), axis=0),
                           np.arange(7), axis=1)
    got = _fold(gram, [1] * 7)
    assert got is gram
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fold_sums_mixed_blocks():
    rng = np.random.default_rng(3)
    gram = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    sizes = [1, 3, 2, 1, 2]
    edges = np.cumsum([0] + sizes)
    want = np.array([[gram[a:b, c:d].sum(axis=0).sum() for c, d in
                      zip(edges[:-1], edges[1:])]
                     for a, b in zip(edges[:-1], edges[1:])])
    got = _fold(gram, sizes)
    assert got.shape == (5, 5)
    # the rows of each block are summed first, then its columns
    starts = edges[:-1]
    exact = np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts,
                            axis=1)
    assert np.array_equal(got.view(np.uint64), exact.view(np.uint64))
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_torus_grams_match_pairwise_formula():
    from quantlab.coherent_transform import _basis_grams

    for model, cutoff, level in ((U1, 8, 3), (U1, 8, 4), (T2, 3, 3),
                                 (T2, 3, 4)):
        labels = irrep_labels(model, cutoff)
        _, haar, gauss = _full_node_sums(model, labels, level)
        want = haar * gauss
        scale = np.abs(want).max()
        got = character_gram(model, labels, level)
        assert np.abs(got - want).max() <= 1e-14 * scale
        hl2, l2 = _basis_grams(model, labels, level)
        assert hl2.shape == l2.shape == (len(labels), len(labels))
        assert np.abs(hl2 - want).max() <= 1e-14 * scale
        assert np.abs(l2 - haar).max() <= 1e-14


@pytest.mark.parametrize("model,cutoff", [(U1, 8), (T2, 5)])
def test_axis_first_torus_tables_match_full_node_sums(model, cutoff):
    from quantlab.coherent_transform import _torus_gram_factors

    labels = irrep_labels(model, cutoff)
    for level in (3, 4):
        sig, haar, gauss = _full_node_sums(model, labels, level)
        got = sigma(model, labels, level)
        assert np.abs(got / sig - 1.0).max() <= 1e-14
        got_haar, got_gauss = _torus_gram_factors(model, labels, level)
        # the Haar factor is the identity, so its scale is 1
        assert np.abs(got_haar - haar).max() <= 1e-14
        assert np.abs(got_gauss / gauss - 1.0).max() <= 1e-14


def test_axis_first_sigma_keeps_the_untilted_rule_error():
    # the Gauss-Hermite rule is still centred at 0, not at the tilted peak
    # n / (2 pi): at |n| = 20 and level 3 it misses the closed form by
    # about 1.5e-2, and the axis-first sum reproduces that error
    for label in ((20,), (-20,)):
        got = sigma(U1, [label], level=3)[0]
        node_sum, _, _ = _full_node_sums(U1, [label], 3)
        assert abs(got / node_sum[0] - 1.0) <= 1e-14
        closed = build_sigma_table(U1, [label])[0]
        assert 1.4e-2 < abs(got - closed) / closed < 1.6e-2


def _quadrature_sigma_error(model, cutoff, level):
    # the worst relative error of the Gauss-Hermite sigma against the
    # closed form, one sigma_u1_closed factor per axis, over the labels
    # within the cutoff
    labels = irrep_labels(model, cutoff)
    quad = sigma(model, labels, level)
    closed = np.array([math.prod(sigma_u1_closed(n) for n in lab)
                       for lab in labels])
    return float(np.abs(quad / closed - 1.0).max())


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.tuples(st.just("u1"), st.integers(1, 40)),
                 st.tuples(st.just("t2"), st.integers(1, 16))))
def test_unitarity_sees_the_quadrature_sigma_error(case):
    # the Gram is scaled by the closed form, so the quadrature's own sigma
    # error shows in the unitarity residual instead of cancelling; 1e-14
    # allows for rounding where that error is itself rounding
    name, cutoff = case
    model = get_model(name)
    rep = unitarity_certificate(model, cutoff, 3)
    want = _quadrature_sigma_error(model, cutoff, 3)
    assert rep.max_error + 1e-14 >= 0.5 * want


def test_unitarity_fails_where_the_torus_quadrature_is_unresolved():
    # u1 at cutoff 20, level 3: the untilted Gauss-Hermite rule misses the
    # top sigma by 1.5e-2, and unitarity reports that error
    rep = unitarity_certificate(U1, 20, 3)
    want = _quadrature_sigma_error(U1, 20, 3)
    assert 1.4e-2 < want < 1.6e-2
    assert not rep.passed
    assert want / 2 <= rep.max_error <= 2 * want


def _identity(model):
    return GroupPoint(model, np.eye(model.defining_rep_dim, dtype=complex))


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("model,cutoff", [(U1, 4), (T2, 2), (SU2, 1.0)],
                         ids=["u1", "t2", "su2"])
def test_group_action_rejects_wrong_length(model, cutoff, extra):
    # an array one entry off the basis size is refused, not sliced
    labels = irrep_labels(model, cutoff)
    size = sum(len(w) ** 2 for w in _weights(model, labels))
    e = _identity(model)
    f = np.arange(size, dtype=complex)
    assert np.array_equal(group_action(model, labels, f, e, e), f)
    with pytest.raises(ValueError, match="basis of"):
        group_action(model, labels, np.arange(size + extra, dtype=complex),
                     e, e)


# The array form of the per-key checks: group_action, the public entry for
# a coefficient array, refuses a label that normalizes to no irrep (a
# fractional torus mode, a spin that is not a half-integer), an array over
# a larger cutoff than its labels, and an array with an entry added past a
# block's end or dropped before its start, which shifts every later entry.
@pytest.mark.parametrize("model,labels,size,match", [
    (U1, [(0,), (2.5,)], 2, "integers"),
    (SU2, [0.0, "0.75"], 2, "half-integers"),
    (T2, irrep_labels(T2, 2), len(irrep_labels(T2, 3)), "basis of"),
    (SU2, irrep_labels(SU2, 1.0), 1 + 4 + 9 + 16, "basis of"),
    (T2, irrep_labels(T2, 2), 25 + 1, "basis of"),
    (SU2, irrep_labels(SU2, 1.0), 1 + 4 + 9 + 1, "basis of"),
    (SU2, irrep_labels(SU2, 1.0), 1 + 4 + 9 - 1, "basis of"),
], ids=["unnormalized-u1", "unnormalized-su2", "beyond-cutoff-t2",
        "beyond-cutoff-su2", "index-t2", "index-su2", "negative-index-su2"])
def test_public_construction_rejects_invalid_keys(model, labels, size, match):
    e = _identity(model)
    with pytest.raises(ValueError, match=match):
        group_action(model, labels, np.ones(size, dtype=complex), e, e)


def _random_coeffs(size, rng):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.mark.parametrize("model,cutoff", [(T2, 5), (SU2, 2.0)])
def test_action_and_transform_match_per_label_loop(model, cutoff):
    # the oracle walks the basis with its own block offsets: label by
    # label, d^2 entries each, row-major
    rng = np.random.default_rng(11)
    labels, table = sigma_table(model, cutoff)
    owner = _basis_owner(model, labels)
    for _ in range(3):
        f = _random_coeffs(owner.size, rng)
        h1 = random_group_point(model, rng)
        h2 = random_group_point(model, rng)
        want_act, want_tr = [], []
        lo = 0
        for lab, s in zip(labels, table):
            left = rep_unitary(model, lab, h1)
            d = len(left)
            block = f[lo:lo + d * d].reshape(d, d)
            want_act.append((left.conj() @ block
                             @ rep_unitary(model, lab, h2).T).reshape(-1))
            want_tr.append(block.reshape(-1) / math.sqrt(s))
            lo += d * d
        assert lo == f.size
        for got, want in ((group_action(model, labels, f, h1, h2), want_act),
                          (transform_C_phi(f, table, owner), want_tr)):
            want = np.concatenate(want)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("model,cutoff", [(U1, 3), (T2, 2), (SU2, 1.5)])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_group_action_is_a_unitary_representation(model, cutoff, seed):
    # composition (k1, k2) . ((h1, h2) . f) = (k1 h1, k2 h2) . f, the
    # coefficient norm preserved, and the action commuting with the
    # blockwise transform
    rng = np.random.default_rng(seed)
    labels, table = sigma_table(model, cutoff)
    owner = _basis_owner(model, labels)
    f = _random_coeffs(owner.size, rng)
    h1, h2, k1, k2 = (random_group_point(model, rng) for _ in range(4))

    def act(g1, g2, coeffs):
        return group_action(model, labels, coeffs, g1, g2)

    def times(a, b):
        return GroupPoint(model, a.matrix @ b.matrix)

    moved = act(h1, h2, f)
    scale = np.linalg.norm(f)
    assert abs(np.linalg.norm(moved) - scale) <= 1e-12 * scale
    assert (np.abs(act(k1, k2, moved) - act(times(k1, h1), times(k2, h2), f))
            .max() <= 1e-10 * scale)
    assert (np.abs(transform_C_phi(moved, table, owner)
                   - act(h1, h2, transform_C_phi(f, table, owner))).max()
            <= 1e-12 * scale)


def _node_sum_character_gram(labels, g_rule, r_rule, radial_weights):
    # brute force: every character at every Haar x radial node, then one
    # weighted sum over both node sets
    grow = np.exp(r_rule.nodes[:, 0] / 2.0)
    mats = _haar_matrices(g_rule)
    half_tr = (np.outer(mats[:, 0, 0], grow)
               + np.outer(mats[:, 1, 1], 1.0 / grow)) / 2.0
    chi = _su2_characters(half_tr, [float(lab) for lab in labels])
    return np.einsum("g,r,agr,bgr->ab", g_rule.weights, radial_weights, chi,
                     chi.conj())


def _relative_to_diagonal(got, want):
    # |got - want| entrywise, relative to sqrt(G_ii G_jj) of the reference
    diag = np.abs(np.diagonal(want))
    return float((np.abs(got - want) / np.sqrt(np.outer(diag, diag))).max())


@pytest.mark.parametrize("eta_weight", [False, True])
@pytest.mark.parametrize("cutoff", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_su2_character_gram_matches_node_sum(cutoff, eta_weight):
    labels = irrep_labels(SU2, cutoff)
    g_rule = su2_haar_rule(max(1, math.ceil(2 * cutoff)))
    r_rule = radial_rule(4, tilt=4.0 * cutoff)
    weights = r_rule.weights
    if eta_weight:
        weights = weights * eta_tilde(SU2, r_rule.nodes)
    want = _node_sum_character_gram(labels, g_rule, r_rule, weights)
    got = character_gram(SU2, labels, 4, eta_weight=eta_weight)
    assert _relative_to_diagonal(got, want) < 1e-13


def test_su2_character_gram_keeps_the_aliasing_of_a_coarse_rule():
    # level 1 integrates products of total spin <= 1 exactly; spins up to 2
    # need level 4.  The angle tables are summed, not assumed to be Kronecker
    # deltas, so the too-coarse rule aliases exactly as the node sum does.
    from quantlab.coherent_transform import _su2_character_gram

    labels = irrep_labels(SU2, 2.0)
    g_rule = su2_haar_rule(1)
    r_rule = radial_rule(4, tilt=8.0)
    want = _node_sum_character_gram(labels, g_rule, r_rule, r_rule.weights)
    got = _su2_character_gram(SU2, labels, g_rule, r_rule, r_rule.weights)
    assert _relative_to_diagonal(got, want) < 1e-13
    off = got - np.diag(np.diagonal(got))
    assert _relative_to_diagonal(off, want) > 1e-2


def test_spin_weighted_gram_su2_is_the_character_grams():
    labels = irrep_labels(SU2, 2.0)
    rep = spin_weighted_gram(SU2, 2.0)
    for key, eta_weight in (("flat_diagonal", False), ("eta_diagonal", True)):
        want = np.real(np.diagonal(
            character_gram(SU2, labels, 4, eta_weight=eta_weight)))
        assert np.abs(np.array(rep.metadata[key]) / want - 1.0).max() < 1e-14


def _node_sum_basis_grams(labels, level):
    # brute force: sqrt(d_x) D^x(g) E^x(u, r) at every Haar node g, every
    # direction node u (the c = 0 nodes of the same rule) and every radial
    # node r, with E^x(u, r) = D^x(u) diag(e^{r m}) D^x(u)^dagger; one Haar
    # node at a time, summed over the whole direction x radial set
    g_rule = su2_haar_rule(max(1, math.ceil(2 * max(labels))))
    r_rule = radial_rule(level, tilt=4.0 * max(labels))
    (_, w_a), (_, w_u), (_, w_c) = g_rule.axes
    mats = _haar_matrices(g_rule)
    dirs = mats.reshape(len(w_a), len(w_u), len(w_c), 2, 2)[:, :, 0]
    w_ur = np.multiply.outer(np.outer(w_a, w_u), r_rule.weights).reshape(-1)
    gauss = []
    for lab in labels:
        d_u = np.array([rep_unitary(SU2, lab, GroupPoint(SU2, u))
                        for u in dirs.reshape(-1, 2, 2)])
        # the weights in basis order: the diagonal of i J_3
        m = np.real(np.diagonal(1j * _su2_spin_matrices(lab)[2]))
        grow = np.exp(np.outer(r_rule.nodes[:, 0], m))
        gauss.append(np.einsum("upk,rk,uqk->urpq", d_u, grow, d_u.conj())
                     .reshape(-1, len(m), len(m)))
    dims = [e.shape[1] for e in gauss]
    n = sum(d * d for d in dims)
    hl2 = np.zeros((n, n), dtype=complex)
    l2 = np.zeros((n, n), dtype=complex)
    for node, w_g in zip(mats, g_rule.weights):
        d_g = [rep_unitary(SU2, lab, GroupPoint(SU2, node)) for lab in labels]
        flat = np.concatenate([math.sqrt(d) * g.reshape(-1)
                               for d, g in zip(dims, d_g)])
        holo = np.concatenate([math.sqrt(d) * (g @ e).reshape(len(e), -1)
                               for d, g, e in zip(dims, d_g, gauss)], axis=1)
        l2 += w_g * np.outer(flat, flat.conj())
        hl2 += w_g * ((holo.T * w_ur) @ holo.conj())
    return hl2, l2


@pytest.mark.parametrize("cutoff", [0.5, 1.0])
def test_su2_basis_grams_match_node_sum(cutoff):
    from quantlab.coherent_transform import _basis_grams

    labels = irrep_labels(SU2, cutoff)
    want_hl2, want_l2 = _node_sum_basis_grams(labels, 3)
    hl2, l2 = _basis_grams(SU2, labels, 3)
    assert _relative_to_diagonal(hl2, want_hl2) <= 1e-13
    assert np.abs(l2 - want_l2).max() <= 1e-13


def test_gram_entries_stable_under_cutoff_growth():
    # entries shared between cutoffs move by less than 1e-8 even though the
    # larger cutoff re-derives its quadrature rules
    from quantlab.coherent_transform import _basis_grams

    small_labels = irrep_labels(SU2, 1.0)
    big_labels = irrep_labels(SU2, 2.0)
    hl2_small, _ = _basis_grams(SU2, small_labels, 3)
    hl2_big, _ = _basis_grams(SU2, big_labels, 3)
    # the small basis is the leading part of the big one, label by label
    n = hl2_small.shape[0]
    assert n == sum((2 * j + 1) ** 2 for j in small_labels)
    assert np.abs(hl2_small - hl2_big[:n, :n]).max() < 1e-8


def test_equivariance_certificates():
    for model, cutoff in ((U1, 6), (SU2, 1.5)):
        rep = equivariance_certificate(model, cutoff, samples=8, seed=2)
        assert rep.passed
        assert rep.max_error < 1e-8


@pytest.mark.parametrize("model,cutoff", [(T2, 2), (SU2, 1.5)])
def test_equivariance_draws_each_label_real_then_imaginary(monkeypatch, model,
                                                           cutoff):
    # one call per sample reads the stream the per-label draws read: each
    # label's real d x d part, then its imaginary part, then h1 and h2
    from quantlab import coherent_transform
    real = coherent_transform.group_action
    seen = []

    def record(model, labels, coeffs, h1, h2):
        seen.append((coeffs, h1.matrix, h2.matrix))
        return real(model, labels, coeffs, h1, h2)

    monkeypatch.setattr(coherent_transform, "group_action", record)
    equivariance_certificate(model, cutoff, samples=3, seed=5)
    rng = np.random.default_rng(5)
    labels = irrep_labels(model, cutoff)
    for coeffs, h1, h2 in seen[::2]:
        want = np.concatenate([
            (rng.standard_normal((len(w), len(w)))
             + 1j * rng.standard_normal((len(w), len(w)))).reshape(-1)
            for w in _weights(model, labels)])
        assert np.array_equal(coeffs, want)
        assert np.array_equal(h1, random_group_point(model, rng).matrix)
        assert np.array_equal(h2, random_group_point(model, rng).matrix)
    assert len(seen) == 6


def test_spin_weighted_gram_su2():
    rep = spin_weighted_gram(SU2, 2.0)
    assert rep.passed
    assert rep.metadata["deviation_eta"] < 1e-13
    assert rep.metadata["deviation_flat"] < 1e-13
    assert rep.max_error == max(rep.metadata["deviation_eta"],
                                rep.metadata["deviation_flat"])
    # the flat diagonal reproduces the sigma values, and the eta diagonal
    # the torus norm at j + 1/2 over |W| = 2: 2^{-3/2} e^{(j + 1/2)^2 / 2 pi}
    labels, table = sigma_table(SU2, 2.0)
    assert rep.metadata["labels"] == [str(lab) for lab in labels]
    for got, want in zip(rep.metadata["flat_diagonal"], table):
        assert abs(got - want) / want < 1e-13
    for got, j in zip(rep.metadata["eta_diagonal"], labels):
        want = 2 ** -1.5 * math.exp((j + 0.5) ** 2 / (2 * math.pi))
        assert abs(got - want) / want < 1e-13


@pytest.mark.parametrize("model,cutoff", [(SU2, 11.5), (SU2, 16.0),
                                          (T2, 9), (T2, 12), (U1, 13),
                                          (U1, 16)])
def test_spin_weighted_gram_scaled_by_its_closed_form(model, cutoff):
    # an absolute off-diagonal grows with the Gram's scale and failed at
    # these cutoffs; the Grams scaled by their closed diagonals do not
    rep = spin_weighted_gram(model, cutoff)
    assert rep.passed
    assert rep.max_error <= 1e-12


def test_spin_weighted_gram_fails_on_a_wrong_eta(monkeypatch):
    # sinh(1.01 t) / t in place of sinh(t) / t moves every eta-weighted
    # norm off sigma_T(j + 1/2) / 2, though the characters stay orthogonal
    from quantlab import coherent_transform

    def wrong_eta(model, t_coords):
        t = np.asarray(t_coords, float)[:, 0]
        return np.sinh(1.01 * t) / np.where(t == 0, 1.0, t) + (t == 0) * 1.01

    monkeypatch.setattr(coherent_transform, "eta_tilde", wrong_eta)
    rep = spin_weighted_gram(SU2, 2.0)
    assert not rep.passed
    assert rep.metadata["deviation_eta"] > 1e-3
    assert rep.metadata["deviation_flat"] < 1e-13


def test_spin_weighted_gram_torus_trivial():
    rep = spin_weighted_gram(U1, 4)
    assert rep.passed
    assert rep.metadata["eta_diagonal"] == rep.metadata["flat_diagonal"]


@pytest.mark.parametrize("model,grams", [(U1, 1), (T2, 1), (SU2, 2)])
def test_spin_weighted_gram_builds_the_torus_gram_once(monkeypatch, model,
                                                       grams):
    # with no positive roots eta~ is 1, so the eta Gram is the flat one
    from quantlab import coherent_transform
    real = coherent_transform.character_gram
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("eta_weight"))
        return real(*args, **kwargs)

    monkeypatch.setattr(coherent_transform, "character_gram", counted)
    assert spin_weighted_gram(model).passed
    assert len(calls) == grams


@given(st.floats(0.0, 8.0, exclude_min=True))
def test_su2_irrep_labels_are_the_half_integers_within_the_cutoff(cutoff):
    # with 1e-12 of slack, so a cutoff rounded just below a half-integer
    # keeps it; the basis holds (2j + 1)^2 entries per label
    labels = irrep_labels(SU2, cutoff)
    assert labels == [k / 2.0 for k in range(17) if k / 2.0 <= cutoff + 1e-12]
    owner = _basis_owner(SU2, labels)
    assert np.array_equal(np.bincount(owner),
                          [(2 * j + 1) ** 2 for j in labels])


def test_spin_weighted_gram_fails_on_a_nan_flat_gram(monkeypatch):
    # the eta-weighted Gram stays exact; only the flat one carries a NaN
    from quantlab import coherent_transform
    real = coherent_transform.character_gram

    def nan_flat(model, labels, level=4, eta_weight=False):
        gram = real(model, labels, level, eta_weight)
        if not eta_weight:
            gram[-1, -1] = np.nan
        return gram

    monkeypatch.setattr(coherent_transform, "character_gram", nan_flat)
    rep = spin_weighted_gram(SU2, 2.0)
    assert rep.passed is False
    assert "failure" in rep.metadata


def test_equivariance_fails_on_one_nan_sample(monkeypatch):
    # the first sample's transform is NaN, every later one is exact
    from quantlab import coherent_transform
    real = coherent_transform.transform_C_phi
    calls = []

    def nan_first(coeffs, sigmas, owner):
        out = real(coeffs, sigmas, owner)
        if not calls:
            out = np.full_like(out, np.nan)
        calls.append(out)
        return out

    monkeypatch.setattr(coherent_transform, "transform_C_phi", nan_first)
    rep = equivariance_certificate(SU2, 1.0, samples=4, seed=2)
    assert len(calls) == 8
    assert rep.passed is False
    assert "failure" in rep.metadata


@pytest.mark.parametrize("name,cutoff", [
    ("u1", 8), ("u1", 20), ("t2", 3), ("t2", 9.5), ("su2", 0.5),
    ("su2", 2.0), ("su2", 6.7)])
@pytest.mark.parametrize("level", [1, 3, 12])
def test_transform_bytes_reads_the_sizes_the_grams_are_built_at(
        name, cutoff, level):
    # the estimate works the sizes out without listing the basis: it must
    # agree with the basis, the Haar rule and the Gauss rules built here
    model = get_model(name)
    labels = irrep_labels(model, cutoff)
    size = _basis_owner(model, labels).size
    points = len(gaussian_rule(1, max(level, 4)).axes[0][0])
    assert points == len(radial_rule(max(level, 4)).axes[0][0])
    rows = 0
    if not model.is_abelian:
        haar_b = _su2_gram_rules(model, labels, level)[0].axes[1][0]
        rows = len(haar_b) * points
    assert transform_bytes(model, cutoff, level) == 80 * (
        size * size + rows * size + points * points)
    assert transform_bytes(model, None, level) == transform_bytes(
        model, {"u1": 8, "t2": 3, "su2": 2.0}[name], level)
