import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quantlab import lie_core, reduction
from quantlab.coherent_transform import (
    _highest_weights,
    _scaled,
    _torus_norms,
    _weights,
    build_sigma_table,
    character_gram,
    irrep_labels,
)
from quantlab.density_weights import weyl_denominator
from quantlab.lie_core import (
    adjoint_action_batch,
    alg_to_matrix_batch,
    exp_alg_batch,
    get_model,
    matmul_batch,
    random_group_coords,
    random_group_point,
    weyl_group,
)
from quantlab.quadrature import gaussian_rule, torus_rule
from quantlab.reduction import (
    QR_DEFAULT_CUTOFF,
    ReducedRepresentative,
    _su2_torus_angle,
    momentum_equivariance_certificate,
    momentum_map_batch,
    qr_commutes_certificate,
    reduction_bytes,
    torus_representative,
    weyl_canonicalize,
    weyl_isometry_certificate,
)

SU2 = get_model("su2")
U1 = get_model("u1")
EYE2 = np.eye(2, dtype=complex)


def _exp(model, y):
    # one point: a one-row call of the stacked exponential
    return exp_alg_batch(model, np.asarray(y, float)[None])[0]


def _ad(model, g, y):
    return adjoint_action_batch(model, g[None], np.asarray(y, float)[None])[0]


def _momentum(model, g, y):
    return momentum_map_batch(model, g[None], np.asarray(y, float)[None])[0]


def torus_pair(tau, y):
    return _exp(SU2, [0, 0, tau]), np.array([0.0, 0.0, y])


def commuting_pair(rng, tau=None, y=None):
    # a random conjugate of a torus pair: always on the zero set
    tau = rng.uniform(0.3, 5.5) if tau is None else tau
    y = rng.uniform(-2, 2) if y is None else y
    h0 = random_group_point(SU2, rng).matrix
    t0, y0 = torus_pair(tau, y)
    return (h0 @ t0 @ h0.conj().T, _ad(SU2, h0, y0)), t0, y0


def _rep(model, g, y):
    # one pair: a one-row call of the stacked normal form
    return torus_representative(model, g[None], np.asarray(y, float)[None])


def _canon(t, y, h=EYE2):
    # the canonical form of one torus pair (t, y) with conjugator h
    return weyl_canonicalize(SU2, ReducedRepresentative(t[None], y[None],
                                                        h[None]))


def _reduce(g, y):
    return weyl_canonicalize(SU2, _rep(SU2, g, y))


def test_momentum_trivial_cases():
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.standard_normal(3)
        assert np.linalg.norm(_momentum(SU2, EYE2, y)) < 1e-14
        g = random_group_point(SU2, rng).matrix
        assert np.linalg.norm(_momentum(SU2, g, np.zeros(3))) < 1e-14


def test_momentum_quarter_turn_example():
    g = _exp(SU2, [0, 0, math.pi / 2])
    j = _momentum(SU2, g, [1, 0, 0])
    assert np.allclose(j, [-1.0, 1.0, 0.0], atol=1e-12)
    assert abs(np.linalg.norm(j) - math.sqrt(2)) < 1e-12


def test_momentum_equivariance():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        g = random_group_point(SU2, rng).matrix
        y = rng.standard_normal(3)
        h = random_group_point(SU2, rng).matrix
        lhs = _momentum(SU2, h @ g @ h.conj().T, _ad(SU2, h, y))
        rhs = _ad(SU2, h, _momentum(SU2, g, y))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-10


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_momentum_map_batch_rows_equal_scalar(name):
    # every row of a stack equals the one-row call for that point
    model = get_model(name)
    rng = np.random.default_rng(5)
    gs = np.array([random_group_point(model, rng).matrix for _ in range(40)])
    ys = rng.standard_normal((40, model.dim))
    got = momentum_map_batch(model, gs, ys)
    for g, y, row in zip(gs, ys, got):
        assert np.array_equal(row, _momentum(model, g, y))


def _scalar_momentum_equivariance(model, g_c, ys, h_c):
    # the per-sample loop the certificate replaced, kept as its reference:
    # one point at a time over the rows of the certificate's own blocks
    worst = 0.0
    for g_row, y, h_row in zip(g_c, ys, h_c):
        g, h = _exp(model, g_row), _exp(model, h_row)
        # the certificate's product kernel on a one-row stack: a matrix
        # alone multiplies in numpy scalars, whose complex product rounds
        # apart from a stack's in the last bit
        moved = matmul_batch(matmul_batch(h[None], g[None]),
                             h.conj().T[None])[0]
        gap = np.abs(
            _momentum(model, moved, _ad(model, h, y))
            - _ad(model, h, _momentum(model, g, y))
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
    # the certificate's blocks, in its order: g, then Y, then h
    g_c = random_group_coords(model, rng_loop, 300)
    ys = rng_loop.standard_normal((300, model.dim))
    h_c = random_group_coords(model, rng_loop, 300)
    assert report.max_error == _scalar_momentum_equivariance(
        model, g_c, ys, h_c)
    if not model.is_abelian:
        assert report.max_error > 0.0
    # the suite keeps drawing from the same stream afterwards
    assert rng_batch.random() == rng_loop.random()


@pytest.mark.parametrize("block", [7, 333, 10_000])
def test_momentum_row_blocks_give_the_whole_stack_max(monkeypatch, block):
    # the certificate's three draws, exponentiated and conjugated over the
    # whole (10,000, 3) stacks at once
    whole = np.random.default_rng(3)
    g = exp_alg_batch(SU2, random_group_coords(SU2, whole, 10_000))
    ys = whole.standard_normal((10_000, 3))
    h = exp_alg_batch(SU2, random_group_coords(SU2, whole, 10_000))
    moved_g = matmul_batch(matmul_batch(h, g), np.conj(np.swapaxes(h, 1, 2)))
    lhs = momentum_map_batch(SU2, moved_g, adjoint_action_batch(SU2, h, ys))
    rhs = adjoint_action_batch(SU2, h, momentum_map_batch(SU2, g, ys))
    want = float(np.abs(lhs - rhs).max())
    monkeypatch.setattr(lie_core, "_ROW_BLOCK", block)
    rng = np.random.default_rng(3)
    rep = momentum_equivariance_certificate(SU2, rng, 3)
    assert rep.max_error == want > 0.0
    # the draws are the same three blocks, so the stream is where the
    # whole-stack draws left it
    assert rng.random() == whole.random()


def test_momentum_certificate_peak_memory():
    # 10,000 su2 rows over row blocks: the (N, 2, 2) group stacks and their
    # products are one block's.  Over the whole stack it peaked at 5.1 MiB.
    momentum_equivariance_certificate(SU2, np.random.default_rng(0), 0)
    tracemalloc.start()
    try:
        rep = momentum_equivariance_certificate(
            SU2, np.random.default_rng(0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 4 * 2**20, peak / 2**20


@pytest.mark.parametrize("name,cutoff", [
    ("u1", 66), ("t2", 8), ("t2", 12), ("su2", 16), ("su2", 24)])
def test_reduction_bytes_bounds_the_suite_peak(name, cutoff):
    # the estimate reads the sizes alone; at cutoffs where the W x W
    # weight-pair tables outweigh the sampled checks it must bound the
    # suite's traced peak without overstating it by half
    from quantlab.cli_report import SuiteConfig, _suite_reduction

    config = SuiteConfig(model=name, suite="reduction", cutoff=cutoff)
    tracemalloc.start()
    try:
        _suite_reduction(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = reduction_bytes(get_model(name), cutoff)
    assert peak <= need <= 1.5 * peak, (peak / 2**20, need / 2**20)


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_reduction_bytes_and_qr_commutes_share_the_default_cutoff(name):
    model = get_model(name)
    cutoff = QR_DEFAULT_CUTOFF[name]
    assert qr_commutes_certificate(model).metadata["cutoff"] == cutoff
    assert reduction_bytes(model, None) == reduction_bytes(model, cutoff)


def test_zero_set_gate():
    # torus_representative refuses a pair off the zero set
    rng = np.random.default_rng(2)
    (g, y), _, _ = commuting_pair(rng)
    assert np.linalg.norm(_momentum(SU2, g, y)) < reduction.ZERO_SET_TOL
    _rep(SU2, g, y)
    bad_g, bad_y = _exp(SU2, [0, 0, 1.0]), np.array([1.0, 0, 0])
    with pytest.raises(ValueError, match="zero-set tolerance"):
        _rep(SU2, bad_g, bad_y)
    # the gate reads every row: one pair off the zero set among good ones
    # is refused, and named
    gs = np.array([g, bad_g, g])
    ys = np.array([y, bad_y, y])
    with pytest.raises(ValueError, match="row 1 exceeds"):
        torus_representative(SU2, gs, ys)
    # on a torus every pair commutes, but the gate still reads j = 0
    t2 = get_model("t2")
    rep = _rep(t2, _exp(t2, [0.4, 1.0]), np.array([1.0, 2]))
    assert np.array_equal(rep.conjugator, np.eye(2)[None])


def assert_representative_invariant(rep, g, y):
    h = rep.conjugator[0]
    assert np.abs(h @ g @ h.conj().T - rep.t[0]).max() < 1e-9
    assert np.abs(_ad(SU2, h, y) - rep.Y0[0]).max() < 1e-9


def test_torus_representative_generic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        (g, y), _, _ = commuting_pair(rng)
        rep = _rep(SU2, g, y)
        assert_representative_invariant(rep, g, y)
        assert abs(rep.Y0[0, 0]) < 1e-12
        assert abs(rep.Y0[0, 1]) < 1e-12


def test_torus_representative_fixed_points():
    # central group part with algebra part along e1
    g, y = -EYE2, np.array([0.7, 0, 0])
    rep = _rep(SU2, g, y)
    assert_representative_invariant(rep, g, y)
    assert abs(abs(rep.Y0[0, 2]) - 0.7) < 1e-10


def test_torus_representative_already_reduced():
    g, y = torus_pair(1.2, 0.5)
    rep = _rep(SU2, g, y)
    assert_representative_invariant(rep, g, y)
    canon = weyl_canonicalize(SU2, rep)
    assert abs(canon.Y0[0, 2] - 0.5) < 1e-10
    assert np.abs(canon.t[0] - g).max() < 1e-9


def assert_su2_conjugator_diagonalizes(rep, g, y, row=0, tol=1e-12):
    h = rep.conjugator[row]
    assert abs(np.linalg.det(h) - 1.0) < 1e-12
    assert np.abs(h @ h.conj().T - np.eye(2)).max() < 1e-12
    for mat in (g, 1j * alg_to_matrix_batch(SU2, y[None])[0]):
        conj = h @ mat @ h.conj().T
        assert max(abs(conj[0, 1]), abs(conj[1, 0])) < tol


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_torus_representative_conjugator_for_central_g(sign):
    central = sign * EYE2
    rng = np.random.default_rng(5)
    for y in (np.zeros(3), rng.standard_normal(3)):
        assert_su2_conjugator_diagonalizes(
            _rep(SU2, central, y), central, y)


def test_torus_representative_conjugator_for_zero_y():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g, y = random_group_point(SU2, rng).matrix, np.zeros(3)
        assert_su2_conjugator_diagonalizes(
            _rep(SU2, g, y), g, y)


def test_torus_representative_conjugator_for_generic_pair():
    rng = np.random.default_rng(7)
    for _ in range(25):
        (g, y), _, _ = commuting_pair(rng)
        assert_su2_conjugator_diagonalizes(
            _rep(SU2, g, y), g, y)
    # pairs a hair off the torus, where the eigenvector's first entry
    # cancels unless the square-root sign is chosen against it
    for eps in (1e-4, 1e-8, 1e-12):
        h0 = _exp(SU2, [eps, 0.3 * eps, 0.0])
        for tau, yv in ((0.5, -1.5), (4.0, 0.0), (5.5, 1.5)):
            t0, y0 = torus_pair(tau, yv)
            g, y = h0 @ t0 @ h0.conj().T, _ad(SU2, h0, y0)
            assert_su2_conjugator_diagonalizes(
                _rep(SU2, g, y), g, y)


def test_weyl_canonicalize_flip_and_idempotence():
    t, y = torus_pair(2.1, -0.8)
    canon = _canon(t, y)
    assert canon.Y0[0, 2] == pytest.approx(0.8, abs=1e-14)
    again = weyl_canonicalize(SU2, canon)
    assert np.abs(again.t - canon.t).max() < 1e-12
    assert np.abs(again.Y0 - canon.Y0).max() < 1e-12


def test_weyl_canonicalize_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        (g, y), t0, y0 = commuting_pair(rng)
        rep = _reduce(g, y)
        direct = _canon(t0, y0)
        assert abs(rep.Y0[0, 2] - direct.Y0[0, 2]) < 1e-8
        assert np.abs(rep.t - direct.t).max() < 1e-8


def test_weyl_canonicalize_angle_tie_break():
    t, y = torus_pair(3.0 * math.pi, 0.0)
    canon = _canon(t, y)
    assert _su2_torus_angle(canon.t)[0] <= 2 * math.pi + 1e-9
    again = weyl_canonicalize(SU2, canon)
    assert np.abs(again.t - canon.t).max() < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    tau=st.floats(0.0, 4.0 * math.pi, exclude_max=True),
    y=st.one_of(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11]),
                st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_weyl_canonicalize_lands_in_the_fundamental_domain(tau, y, seed):
    # the pair (t, y e3) conjugated by a random h0, reduced and
    # canonicalized; |y| <= 1e-12 is the wall
    assume(abs(abs(y) - 1e-12) > 1e-15)
    h0 = random_group_point(SU2, np.random.default_rng(seed)).matrix
    t0, y0 = torus_pair(tau, y)
    g, yy = h0 @ t0 @ h0.conj().T, _ad(SU2, h0, y0)
    canon = _reduce(g, yy)
    assert canon.Y0[0, 2] >= 0.0
    if abs(y) <= 1e-12:
        assert canon.Y0[0, 2] == 0.0
        assert 0.0 <= _su2_torus_angle(canon.t)[0] <= 2.0 * math.pi + 1e-12
    else:
        assert abs(canon.Y0[0, 2] - abs(y)) < 1e-9
    again = weyl_canonicalize(SU2, canon)
    assert np.array_equal(again.t, canon.t)
    assert np.array_equal(again.Y0, canon.Y0)
    assert np.array_equal(again.conjugator, canon.conjugator)
    h = canon.conjugator[0]
    assert np.abs(h @ g @ h.conj().T - canon.t[0]).max() < 1e-9
    assert np.abs(_ad(SU2, h, yy) - canon.Y0[0]).max() < 1e-9


def _pair_stack(seed=8):
    # commuting pairs of every kind: generic conjugates of torus pairs,
    # central g with generic and zero y, pairs on the wall y = 0 with the
    # angle on either side of 2 pi, and pairs a hair off the torus
    rng = np.random.default_rng(seed)
    pairs = [commuting_pair(rng)[0] for _ in range(12)]
    pairs += [(sign * EYE2, y) for sign in (1.0, -1.0)
              for y in (np.zeros(3), rng.standard_normal(3))]
    pairs += [commuting_pair(rng, tau=tau, y=0.0)[0]
              for tau in (1.0, 3.0 * math.pi, 2.0 * math.pi)]
    pairs += [torus_pair(tau, y) for tau, y in ((5.0, 0.0), (2.1, -0.8))]
    h0 = _exp(SU2, [1e-8, 3e-9, 0.0])
    t0, y0 = torus_pair(4.0, 0.0)
    pairs.append((h0 @ t0 @ h0.conj().T, _ad(SU2, h0, y0)))
    return (np.array([g for g, _ in pairs]), np.array([y for _, y in pairs]))


def _assert_rows_equal(stacked, rows):
    for field in ("t", "Y0", "conjugator"):
        got = getattr(stacked, field)
        for i, row in enumerate(rows):
            assert np.array_equal(got[i], getattr(row, field)[0])


def test_torus_representative_rows_equal_one_row_calls():
    gs, ys = _pair_stack()
    stacked = torus_representative(SU2, gs, ys)
    rows = [_rep(SU2, g, y) for g, y in zip(gs, ys)]
    _assert_rows_equal(stacked, rows)
    _assert_rows_equal(weyl_canonicalize(SU2, stacked),
                       [weyl_canonicalize(SU2, row) for row in rows])
    t2 = get_model("t2")
    rng = np.random.default_rng(9)
    gs2 = exp_alg_batch(t2, rng.uniform(0, 2 * math.pi, (6, 2)))
    ys2 = rng.standard_normal((6, 2))
    _assert_rows_equal(torus_representative(t2, gs2, ys2),
                       [_rep(t2, g, y) for g, y in zip(gs2, ys2)])


def _gaps(top):
    # an eigenvalue gap of the zero-set tests: exactly 0, or 1e-12 to top
    return st.one_of(st.just(0.0), st.floats(1e-12, top))


@settings(max_examples=300, deadline=None)
@given(gap_g=_gaps(2.0), gap_y=_gaps(10.0), tie=st.booleans(),
       near_minus=st.booleans(), y_sign=st.sampled_from([1.0, -1.0]),
       h_coords=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
# g a hair from scalar: its off-diagonal entries are 5.7e-158, whose
# product underflows to a subnormal unless the eigenvector is scaled first
@example(gap_g=0.0, gap_y=0.0, tie=False, near_minus=False, y_sign=1.0,
         h_coords=[0.0, 6.744402381053159e-71, 6.744402381053159e-71])
def test_conjugator_diagonalizes_zero_set_pairs_at_every_gap(
        gap_g, gap_y, tie, near_minus, y_sign, h_coords):
    # a conjugated torus pair whose g has the eigenvalue gap 2 |sin phi| =
    # gap_g and whose iY has the gap |Y| = gap_y, or the same gap as g when
    # ``tie``: the conjugator diagonalizes whichever is wider and must
    # diagonalize both
    phi = math.asin(gap_g / 2.0)
    if near_minus:
        phi = math.pi - phi
    t0, y0 = torus_pair(2.0 * phi, y_sign * (gap_g if tie else gap_y))
    h0 = _exp(SU2, h_coords)
    g, y = h0 @ t0 @ h0.conj().T, _ad(SU2, h0, y0)
    rep = _rep(SU2, g, y)
    assert_su2_conjugator_diagonalizes(rep, g, y, tol=1e-9)


def test_conjugator_off_the_zero_set_raises_naming_the_row():
    # momentum residual 4e-10, inside the zero-set tolerance, but g and Y
    # do not commute closely enough for Y's eigenbasis (|Y| = 2.8e-5, the
    # wider gap) to diagonalize g (gap 2e-5) to 1e-9
    g = _exp(SU2, [0.0, 0.0, 2e-5])
    y = np.array([2e-5, 0.0, 2e-5])
    assert np.linalg.norm(_momentum(SU2, g, y)) == pytest.approx(4e-10,
                                                               rel=1e-3)
    with pytest.raises(ArithmeticError, match="row 0"):
        _rep(SU2, g, y)
    good, _, _ = commuting_pair(np.random.default_rng(4))
    with pytest.raises(ArithmeticError, match="row 1"):
        torus_representative(SU2, np.stack([good[0], g]),
                             np.stack([good[1], y]))


def _round_trip_loop(model, rng, trips):
    # the trip-by-trip loop the certificate replaced, kept as its
    # reference: the certificate's blocks, drawn in its order, then
    # reduced and compared one trip at a time
    def reduce(g, y):
        return weyl_canonicalize(model, _rep(model, g, y))

    if model.is_abelian:
        taus = random_group_coords(model, rng, trips)
        ys = rng.uniform(-2, 2, (trips, model.rank))
        hs = [None] * trips
    else:
        taus = rng.uniform(0.3, 5.5, trips)
        ys = rng.uniform(-2, 2, trips)
        hs = random_group_coords(model, rng, trips)
    worst = 0.0
    for tau, y, h_row in zip(taus, ys, hs):
        if model.is_abelian:
            t0 = _exp(model, tau)
            rep = reduce(t0, y)
            t_ref, y_ref = t0, y
        else:
            h0 = _exp(model, h_row)
            t0, y0 = torus_pair(tau, y)
            # the certificate's product kernel on a one-row stack
            h = h0[None]
            moved = matmul_batch(matmul_batch(h, t0[None]),
                                 h.conj().swapaxes(1, 2))[0]
            rep = reduce(moved, _ad(model, h0, y0))
            direct = reduce(t0, y0)
            t_ref, y_ref = direct.t[0], direct.Y0[0]
        worst = max(worst, float(np.abs(rep.t[0] - t_ref).max()),
                    float(np.abs(rep.Y0[0] - y_ref).max()))
    return worst


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_round_trip_certificate_reproduces_the_trip_loop(name):
    model = get_model(name)
    rng_batch = np.random.default_rng(3)
    rng_loop = np.random.default_rng(3)
    report = reduction.round_trip_certificate(model, rng_batch, seed=3,
                                              trips=60)
    assert report.passed
    assert report.max_error == _round_trip_loop(model, rng_loop, 60)
    assert rng_batch.random() == rng_loop.random()


def _sampled_reduced_gram(model, labels):
    # the reduced characters sampled on the model's torus grid, torus_rule's
    # angles times the period scale: one row per label, the sum of
    # e^{i m.tau} over its weights times |W|^{-1/2} |delta|, and their Gram
    top = float(np.abs(_highest_weights(model, labels)).max())
    theta, w = torus_rule(4 * math.ceil(top) + 6)
    # the product grid of rank copies of the one axis, in C order
    nodes = np.stack(np.meshgrid(*[theta] * model.rank, indexing="ij"),
                     axis=-1).reshape(-1, model.rank)
    weights = functools.reduce(np.multiply.outer, [w] * model.rank)
    taus = nodes * (np.array(model.torus_periods) / (2 * math.pi))
    values = (np.array([np.exp(1j * taus @ w.T).sum(axis=1)
                        for w in _weights(model, labels)])
              * weyl_denominator(model, taus)
              / math.sqrt(len(weyl_group(model))))
    return taus, (values * weights.reshape(-1)) @ values.conj().T


@pytest.mark.parametrize("name,cutoff", [
    ("u1", 1), ("u1", 4), ("u1", 8), ("t2", 1), ("t2", 4), ("t2", 8),
    ("su2", 0.5), ("su2", 2.0), ("su2", 3.5), ("su2", 8.0)])
def test_reduced_gram_is_the_gram_of_the_sampled_characters(name, cutoff):
    model = get_model(name)
    labels = irrep_labels(model, cutoff)
    taus, want = _sampled_reduced_gram(model, labels)
    got = reduction._reduced_gram(model, labels)
    assert got.shape == (len(labels), len(labels))
    assert np.abs(got - want).max() <= 5e-14
    # unit characters reduce to an orthonormal system
    assert np.abs(want - np.eye(len(labels))).max() < 1e-12
    if name == "su2":
        # half-integer spins have half-integer weights, e^{i m tau} with
        # period 4 pi: the grid covers that whole period
        assert taus.max() > 2 * math.pi


def test_qr_certificate_su2():
    rep = qr_commutes_certificate(SU2, 2.0)
    assert rep.passed
    assert rep.max_error < 1e-4
    assert rep.metadata["dimension"] == 5
    gram_a = np.array(rep.metadata["gram_a"])
    gram_b = np.array(rep.metadata["gram_b"])
    assert np.abs(gram_a - np.eye(5)).max() < 1e-4
    assert np.abs(gram_b - np.eye(5)).max() < 1e-4


def test_qr_certificate_su2_cutoff_six():
    # 13 spins: the axis-first character Gram keeps this inside tier 1
    rep = qr_commutes_certificate(SU2, 6.0)
    assert rep.passed
    assert rep.metadata["dimension"] == 13
    assert len(rep.metadata["gram_b"]) == 13


def test_qr_certificate_truncation_monotone():
    small = qr_commutes_certificate(SU2, 1.0)
    big = qr_commutes_certificate(SU2, 2.0)
    ga_small = np.array(small.metadata["gram_a"])
    ga_big = np.array(big.metadata["gram_a"])
    n = ga_small.shape[0]
    assert np.abs(ga_small - ga_big[:n, :n]).max() < 1e-8


def test_qr_certificate_torus_exact():
    # reduction by the trivial Weyl group is trivial: route B is the
    # holomorphic torus Gram over the closed-form norms, bit for bit, and
    # both routes sit at the identity
    for model in (U1, get_model("t2")):
        rep = qr_commutes_certificate(model, 4)
        assert rep.passed
        assert rep.max_error < 1e-9
        labels = irrep_labels(model, 4)
        holomorphic = _scaled(character_gram(model, labels, 4)[0],
                              build_sigma_table(model, labels))
        assert rep.metadata["gram_b"] == np.real(holomorphic).tolist()
        assert rep.metadata["weyl_invariance_residual"] == 0.0
        for key in ("gram_a", "gram_b"):
            gram = np.array(rep.metadata[key])
            assert np.abs(gram - np.eye(len(labels))).max() < 1e-9


@pytest.mark.parametrize("name", ["u1", "t2"])
def test_qr_torus_broken_restriction_shows_on_route_a_only(monkeypatch,
                                                           name):
    # a Weyl denominator 1% too large: route A's reduced Gram reads 1.01^2
    # on its diagonal, route B never restricts
    delta = reduction.weyl_denominator
    monkeypatch.setattr(reduction, "weyl_denominator",
                        lambda model, taus: 1.01 * delta(model, taus))
    rep = qr_commutes_certificate(get_model(name))
    assert not rep.passed
    assert abs(rep.metadata["deviation_quantize_then_reduce"] - 0.0201) < 1e-12
    assert rep.metadata["deviation_reduce_then_quantize"] < 1e-12


def _shifted_weights(shift, spin=None, index=0):
    # su2 weight lists with ``shift`` added to every weight, or only to the
    # weight at ``index`` of ``spin``
    weights = reduction._weights

    def shifted(model, labels):
        out = [w.copy() for w in weights(model, labels)]
        for label, w in zip(labels, out):
            if spin is None:
                w += shift
            elif label == spin:
                w[index] += shift
        return out
    return shifted


def test_qr_su2_phase_shifted_restriction_fails_on_the_weyl_residual(
        monkeypatch):
    # weights shifted by 1/2 shift every reduced character by the phase
    # e^{i tau / 2}: the weight differences, so every Gram, stay as they
    # are, but the integer frequencies 2 m + 1 of each label are no longer
    # those of its Weyl image, -2 m - 1
    monkeypatch.setattr(reduction, "_weights", _shifted_weights(0.5))
    rep = qr_commutes_certificate(SU2)
    assert not rep.passed
    assert rep.max_error == rep.metadata["weyl_invariance_residual"] == 2.0
    assert rep.metadata["deviation_quantize_then_reduce"] < 1e-13
    assert rep.metadata["deviation_reduce_then_quantize"] < 1e-13


@pytest.mark.parametrize("index", [0, 1, 2])
def test_weyl_residual_reads_a_single_stray_weight(monkeypatch, index):
    # one weight of spin 1 moved by 1/2 is one integer frequency moved by 1:
    # the residual is linear in the defect, not its square
    monkeypatch.setattr(reduction, "_weights",
                        _shifted_weights(0.5, spin=1.0, index=index))
    rep = qr_commutes_certificate(SU2)
    assert not rep.passed
    assert rep.metadata["weyl_invariance_residual"] >= 1.0


@pytest.mark.parametrize("name", ["u1", "t2", "su2"])
def test_weyl_isometry_reads_the_whole_gram(name):
    # the off-diagonal table sums are rounding, never an exact 0
    rep = weyl_isometry_certificate(get_model(name))
    assert rep.passed
    assert 0.0 < rep.max_error < 1e-13


def _node_grid_side_b(labels, level):
    # route B summed over a torus x Gaussian node grid, one Weyl-orbit sum
    # (e^{i m tau} e^{-m y} + e^{-i m tau} e^{m y}) / sqrt(2 sigma_T(m)) per
    # spin m = j (the mode alone at j = 0)
    reps = [float(lab) for lab in labels]
    y, w_y = gaussian_rule(level)
    y = y[None, :]
    theta, w_t = torus_rule(4 * int(math.ceil(2 * max(reps))) + 6)
    taus = 2.0 * theta[:, None]
    norms = _torus_norms(np.array(reps)[:, None])
    vecs = []
    for m, c in zip(reps, norms):
        orbit = [m] if m == 0 else [m, -m]
        vecs.append((sum(np.exp(1j * mm * taus) * np.exp(-mm * y)
                         for mm in orbit)
                     / math.sqrt(len(orbit) * c)).reshape(-1))
    vecs = np.array(vecs)
    wt = np.outer(w_t, w_y).reshape(-1)
    return (vecs * wt) @ vecs.conj().T


@pytest.mark.parametrize("cutoff", [0.5, 1.0, 2.0, 3.5, 5.0, 8.0])
def test_su2_side_b_tables_match_the_node_grid(cutoff):
    labels = irrep_labels(SU2, cutoff)
    got = reduction._side_b_gram(SU2, labels, 4)
    want = _node_grid_side_b(labels, 4)
    assert got.shape == (len(labels), len(labels))
    assert np.abs(got - want).max() <= 1e-14


def test_qr_commutes_fails_on_a_nan_route_b(monkeypatch):
    real = reduction._side_b_gram

    def nan_gram(model, labels, level):
        gram = real(model, labels, level)
        gram[-1, -1] = np.nan
        return gram

    monkeypatch.setattr(reduction, "_side_b_gram", nan_gram)
    rep = qr_commutes_certificate(SU2, 2.0)
    assert rep.passed is False
    assert "failure" in rep.metadata


def test_weyl_isometry_fails_on_a_nan_character(monkeypatch):
    # one torus node of |delta| reads NaN, the others are exact
    real = reduction.weyl_denominator

    def nan_node(model, taus):
        out = real(model, taus)
        out[0] = np.nan
        return out

    monkeypatch.setattr(reduction, "weyl_denominator", nan_node)
    rep = weyl_isometry_certificate(SU2)
    assert rep.passed is False
    assert "failure" in rep.metadata


def test_round_trip_fails_on_a_nan_y0(monkeypatch):
    # the conjugated trips reduce to a NaN Y0 in one row; t stays exact
    real = reduction.weyl_canonicalize
    calls = []

    def nan_y0(model, rep):
        out = real(model, rep)
        if not calls:
            y0 = out.Y0.copy()
            y0[0, -1] = np.nan
            out = ReducedRepresentative(out.t, y0, out.conjugator)
        calls.append(out)
        return out

    monkeypatch.setattr(reduction, "weyl_canonicalize", nan_y0)
    rep = reduction.round_trip_certificate(SU2, np.random.default_rng(0), 0)
    assert rep.passed is False
    assert "failure" in rep.metadata
