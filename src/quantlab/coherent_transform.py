"""Truncated harmonic-analysis transform onto holomorphic coefficients.

The workbench expands functions on the compact group in the orthonormal
matrix-coefficient basis b^j_ab = sqrt(dim_j) pi_j(x)_ab.  The coherent
transform convolves with an entire kernel built from per-irrep weights

    sigma(pi) = (1/dim) INT |pi(e^{iY})^{-1}|_HS^2 e^{-2 pi |Y|^2} dY,

and on each irrep block it acts as the scalar sigma^{-1/2}, with sigma in
closed form (Hall 1994).  Unitarity onto the Gaussian-weighted holomorphic
space is not assumed: the certificates here recompute the Gram matrices by
quadrature over group x algebra, scale them by the closed form and compare
against the flat L2 Gram.

An irrep is its label, read as its highest weight.  A torus label is an
integer tuple n, the irrep's only weight, so d = 1 and pi(exp X) = e^{i n.X}.
An su2 label is a half-integer spin j >= 0, with the d = 2 j + 1 weights
j, j - 1, ..., -j.  ``_highest_weights`` refuses a label that names no irrep,
and every dimension, weight and spin matrix here is read from ``_weights``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from quantlab.density_weights import eta_tilde
from quantlab.lie_core import (
    GroupPoint,
    LieModel,
    get_model,
    random_group_point,
    unitary_log,
    weyl_group,
)
from quantlab.quadrature import (
    QuadratureRule,
    gaussian_rule,
    radial_rule,
    su2_haar_rule,
    torus_rule,
)
from quantlab.report import CheckReport

__all__ = [
    "irrep_labels",
    "top_label",
    "transform_bytes",
    "sigma",
    "build_sigma_table",
    "sigma_oracle_certificate",
    "transform_C_phi",
    "group_action",
    "unitarity_certificate",
    "equivariance_certificate",
    "character_gram",
    "spin_weighted_gram",
]

# the cutoff a certificate uses when given none: t2's basis grows as
# (2 c + 1)^2, so it stops lower than u1
DEFAULT_CUTOFF = {"u1": 8, "t2": 3, "su2": 2.0}


def _default_cutoff(model: LieModel, cutoff):
    return DEFAULT_CUTOFF[model.name] if cutoff is None else cutoff


@lru_cache(maxsize=None)
def _su2_spin_matrices(j: float) -> np.ndarray:
    # the skew-hermitian images of the su2 generators in spin j, built once
    # per spin; read-only, since every caller shares them
    m = _weights(get_model("su2"), [j])[0][:, 0]
    j, d = m[0], len(m)
    jz = np.diag(m)
    jp = np.zeros((d, d))
    for i in range(1, d):
        mm = m[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    out = np.stack([-1j * jx, -1j * jy, -1j * jz])
    out.flags.writeable = False
    return out


def _highest_weights(model: LieModel, labels) -> np.ndarray:
    """The labels as highest weights, one row of torus coordinates per
    label, after checking that every label names an irrep: a torus label
    is its only weight, and the spin j is the highest weight of its
    irrep.  The list is read as one (L, rank) float array, whose entries
    must be finite integers on a torus and finite, nonnegative
    half-integers on su2.  Raises ValueError for a list of another shape
    and for the first label that names no irrep."""
    try:
        tops = np.array(labels, float).reshape(len(labels), model.rank)
    except ValueError:
        raise ValueError(f"{model.name} labels are weights of rank "
                         f"{model.rank}, not {labels!r}") from None
    if model.is_abelian:
        ok = np.isfinite(tops) & (tops == np.round(tops))
        rule = "torus mode labels must be integers"
    else:
        ok = np.isfinite(tops) & (tops >= 0) & (2 * tops == np.round(2 * tops))
        rule = "spin labels are finite, nonnegative half-integers"
    if not ok.all():
        raise ValueError(f"{rule}, not {labels[int(np.argmin(ok.all(1)))]!r}")
    return tops


def _weights(model: LieModel, labels) -> list:
    """Each label's weights, highest first, as a (d, rank) array whose
    length d is the irrep's dimension: the label alone on a torus, and
    j, j - 1, ..., -j for the spin j."""
    tops = _highest_weights(model, labels)
    if model.is_abelian:
        return list(tops[:, None, :])
    return [(j - np.arange(int(2 * j) + 1))[:, None] for j in tops[:, 0]]


def _rep_exp(model: LieModel, label, coords: np.ndarray) -> np.ndarray:
    # pi(exp X) in the irrep ``label`` from the coordinates of X; on a
    # torus that is the phase e^{i n.X} itself
    if model.is_abelian:
        return np.exp(1j * _highest_weights(model, [label]) @ coords)[:, None]
    skew = np.einsum("k,kab->ab", coords, _su2_spin_matrices(label))
    lam, vec = np.linalg.eigh(-1j * skew)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def top_label(model: LieModel, cutoff) -> object:
    """The label of ``irrep_labels(model, cutoff)`` with the largest sigma,
    without enumerating the others."""
    if model.is_abelian:
        return (int(cutoff),) * model.rank
    return math.floor(2.0 * (float(cutoff) + 1e-12)) / 2.0


def irrep_labels(model: LieModel, cutoff) -> list:
    """All labels up to the cutoff: |n_k| <= cutoff componentwise for torus
    models, j in {0, 1/2, ..., cutoff} for the non-abelian model, with 1e-12
    of slack so a cutoff rounded just below a half-integer keeps it."""
    top = top_label(model, cutoff)
    if model.is_abelian:
        return list(itertools.product(range(-top[0], top[0] + 1),
                                      repeat=model.rank))
    return [k / 2.0 for k in range(int(2 * top) + 1)]


def transform_bytes(model: LieModel, cutoff, level: int) -> int:
    """Estimated peak memory of the transform certificates, from the sizes
    alone, before any array is built: 80 B per entry of the N x N basis
    Grams, of su2's radial node tables (a row per Haar b node and radial
    node, a column per basis element) and of the P x P companion matrix
    of a Gauss rule, with P = 16 max(level, 4) nodes per rule."""
    top = top_label(model, _default_cutoff(model, cutoff))
    points = 16 * max(level, 4)
    if model.is_abelian:
        size, node_rows = (2 * top[0] + 1) ** model.rank, 0
    else:
        d = int(2 * top) + 1
        size = d * (d + 1) * (2 * d + 1) // 6
        node_rows = (2 * max(1, d - 1) + 2) * points
    return 80 * (size * size + node_rows * size + points * points)


def _basis_owner(model: LieModel, labels) -> np.ndarray:
    """The basis order every coefficient array and Gram uses: the labels in
    order, each label's d x d block row-major.  Entry i is the position in
    ``labels`` of basis element i's label."""
    return np.repeat(np.arange(len(labels)),
                     [len(w) ** 2 for w in _weights(model, labels)])


def sigma(model: LieModel, labels, level: int = 3) -> np.ndarray:
    """Quadrature value of the per-irrep Gaussian weight, one per label in
    label order.

    Torus models integrate e^{2 n.y} against the Gaussian one Gauss-Hermite
    axis at a time: sigma(n) = prod_k sum_y w(y) e^{2 n_k y}.  The rank-1
    non-abelian model reduces by unitary invariance to the radial rule,
    tilted for spin j, with the Hilbert-Schmidt norm the sum of e^{2 r m}
    over the weights m of the representation.
    """
    if model.is_abelian:
        n = _highest_weights(model, labels)
        return np.prod([np.exp(2.0 * np.outer(n[:, k], y)) @ w
                        for k, (y, w) in enumerate(
                            gaussian_rule(model.rank, level).axes)], axis=0)
    out = np.empty(len(labels))
    for i, w in enumerate(_weights(model, labels)):
        rule = radial_rule(level, tilt=2.0 * float(w[0, 0]))
        hs = np.exp(2.0 * np.outer(rule.nodes[:, 0], w[:, 0]))
        out[i] = float(rule.weights @ hs.sum(axis=1)) / len(w)
    return out


def _torus_norms(weights: np.ndarray) -> np.ndarray:
    """int e^{-2 m.y} e^{-2 pi |y|^2} dy = e^{|m|^2 / 2 pi} 2^{-r/2} for
    every row m of an (N, r) array of real weights; inf past a double."""
    m = np.asarray(weights, float)
    with np.errstate(over="ignore"):
        return (np.exp(np.sum(m * m, axis=1) / (2 * math.pi))
                * 2.0 ** (-m.shape[1] / 2))


def build_sigma_table(model: LieModel, labels) -> np.ndarray:
    """sigma for every label, in label order, in closed form: the torus
    norm at n on a torus.  On su2, pairing the weights m and -m makes each
    radial integral a full Gaussian moment, so sigma is the sum over
    m = j, ..., -j of sigma_T(m) (1 + m^2 / pi) / (2 dim).  inf past a
    double: from |n| = 67 on u1, j = 67 on su2 and n = (48, 48) on t2."""
    tops = _highest_weights(model, labels)
    if model.is_abelian:
        return _torus_norms(tops)
    out = np.full(len(labels), np.inf)
    # the highest weight's term overflows first, so past it sigma is inf
    # too, and a huge spin's weights are never listed
    finite = np.flatnonzero(np.isfinite(_torus_norms(tops)))
    for i, w in zip(finite, _weights(model, tops[finite, 0])):
        m = w[:, 0]
        out[i] = np.sum(_torus_norms(w)
                        * ((1 + m * m / math.pi) / (2 * len(m))))
    return out


def sigma_oracle_certificate(model: LieModel, cutoff=None,
                             level: int = 4) -> CheckReport:
    """The quadrature sigma, which only this check reads, against the
    closed form, relative error, over every label within the cutoff; torus
    labels stop at 8, where the untilted Gauss-Hermite rule still resolves
    e^{2 n.y}."""
    cutoff = _default_cutoff(model, cutoff)
    labels = irrep_labels(model, cutoff if not model.is_abelian else
                          min(cutoff, 8))
    quad = sigma(model, labels, level)
    closed = build_sigma_table(model, labels)
    return CheckReport.from_error(
        "transform.sigma_oracle",
        "per-block Gaussian normalization by quadrature matches its "
        "complete-the-square closed form",
        tolerance=1e-10,
        max_error=float(np.max(np.abs(quad - closed) / closed)),
        labels=len(labels),
        cutoff=cutoff,
    )


def _scaled(gram: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # diag(norms)^{-1/2} gram diag(norms)^{-1/2}
    s = 1.0 / np.sqrt(norms)
    return s[:, None] * gram * s[None, :]


def transform_C_phi(coeffs: np.ndarray, sigmas: np.ndarray,
                    owner: np.ndarray) -> np.ndarray:
    """Blockwise scalar action on a basis-ordered coefficient array: each
    irrep block is scaled by sigma^{-1/2}; the output lives in the
    holomorphically extended basis."""
    return coeffs / np.sqrt(sigmas)[owner]


def group_action(model: LieModel, labels, coeffs: np.ndarray,
                 h1: GroupPoint, h2: GroupPoint) -> np.ndarray:
    """The two-sided action (h1, h2) . f (x) = f(h1^{-1} x h2) on a
    basis-ordered coefficient array: each block C -> conj(pi(h1)) C
    pi(h2)^T.  On a torus every block is 1x1, so the action is one phase
    per label, conj(e^{i n.x1}) e^{i n.x2}."""
    x1 = unitary_log(h1)
    x2 = unitary_log(h2)
    owner = _basis_owner(model, labels)
    coeffs = np.asarray(coeffs, complex)
    if coeffs.shape != owner.shape:
        raise ValueError(f"{coeffs.shape} coefficients for a basis of "
                         f"{owner.size}")
    tops = _highest_weights(model, labels)
    if model.is_abelian:
        return (np.exp(1j * (tops @ x1)).conj() * coeffs
                * np.exp(1j * (tops @ x2)))
    out = np.empty_like(coeffs)
    for k, j in enumerate(tops[:, 0].tolist()):
        block = owner == k
        rep1, rep2 = _rep_exp(model, j, x1), _rep_exp(model, j, x2)
        out[block] = (rep1.conj() @ coeffs[block].reshape(len(rep1), -1)
                      @ rep2.T).reshape(-1)
    return out


def _frequencies(model: LieModel, weights) -> np.ndarray:
    """The integer frequencies n = m period / 2 pi of the rows m of
    ``weights``: e^{i m.tau} = e^{i n.theta} at tau = theta period / 2 pi,
    so n is m itself on a torus and 2 m on su2."""
    scale = np.asarray(model.torus_periods) / (2.0 * math.pi)
    return np.rint(np.asarray(weights, float).reshape(-1, model.rank)
                   * scale).astype(int)


def _fold(gram: np.ndarray, sizes) -> np.ndarray:
    """A Gram over weights summed over consecutive blocks of ``sizes``
    rows and columns: the Gram of the blocks' sums.  When every block has
    one row, as on a torus, that is ``gram`` itself, returned as is."""
    sizes = np.asarray(sizes)
    if np.all(sizes == 1):
        return gram
    starts = np.cumsum(sizes) - sizes
    return np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts,
                           axis=1)


def _torus_gram_factors(model: LieModel, weights, level: int):
    """Haar and Gaussian factors of the Gram of the holomorphic torus modes
    e^{i m.tau} e^{-m.y}, one per weight m: the rows of ``weights``, in the
    model's torus coordinates (the labels themselves on a torus).

    The product measure splits the Gram entrywise, G = A * B, with A_ab =
    sum_tau e^{i (m_a - m_b).tau} over the probability angle rule (exact,
    so the identity) and B_ab = sum_y e^{-(m_a + m_b).y} over the Gaussian
    rule.  Both rules are products over the torus axes, so each factor is
    a product over k of one-axis sums that depend only on (m_a - m_b)_k or
    (m_a + m_b)_k: tables over -span..span, summed on the rule's nodes
    rather than taken as Kronecker deltas.  They run over the integer
    frequencies n (``_frequencies``), with y scaled by 2 pi / period."""
    scale = np.asarray(model.torus_periods) / (2.0 * math.pi)
    n = _frequencies(model, weights)
    span = 2 * int(np.abs(n).max())
    shifts = np.arange(-span, span + 1)
    haar = gauss = 1.0
    for k, ((theta, w_t), (y, w_y)) in enumerate(zip(
            torus_rule(model.rank, span).axes,
            gaussian_rule(model.rank, level).axes)):
        col = n[:, k]
        haar = haar * (np.exp(1j * np.outer(shifts, theta)) @ w_t)[
            col[:, None] - col[None, :] + span]
        gauss = gauss * (np.exp(-np.outer(shifts, y / scale[k])) @ w_y)[
            col[:, None] + col[None, :] + span]
    return haar, gauss


def _su2_axis_tables(model: LieModel, labels, g_rule: QuadratureRule):
    """Euler-axis tables of the spin matrices of ``labels`` on the rule
    ``g_rule``, one column per basis element (x, p, k) in label order.

    D^x_pk(a, b, c) = e^{-i m_p a} d^x_pk(b) e^{-i m_k c}.  Returns
    (d_b, twice_p, twice_k, t_a, t_c): d_b[u, (x, p, k)] = d^x_pk(b_u) at
    the rule's distinct b, from one eigh of J_y per label; the integers
    2 m_p and 2 m_k; and the trapezoid sums t_a[s] = sum_a w_a e^{-i h a}
    and t_c (the same over c) at the half-integer shifts h = (s - span) / 2
    with span = len(t_a) // 2, which covers every (m_k - m_q) - (m_k' -
    m_q') of the labels.  The shift tables are summed on the rule's nodes,
    not taken as Kronecker deltas, so a rule too coarse for the spins shows
    up as the aliasing the node sum would have.
    """
    (alpha, w_a), (beta, _), (gamma, w_c) = g_rule.axes
    d_b, twice_p, twice_k = [], [], []
    for w in _weights(model, labels):
        lam, vec = np.linalg.eigh(1j * _su2_spin_matrices(w[0, 0])[1])
        d_b.append(np.einsum("pk,uk,qk->upq", vec,
                             np.exp(-1j * np.outer(beta, lam)),
                             vec.conj()).reshape(len(beta), -1))
        m2 = _frequencies(model, w)[:, 0]
        twice_p.append(np.repeat(m2, len(w)))
        twice_k.append(np.tile(m2, len(w)))
    twice_p = np.concatenate(twice_p)
    span = 4 * int(np.abs(twice_p).max())
    shifts = np.arange(-span, span + 1) / 2.0
    return (np.concatenate(d_b, axis=1), twice_p, np.concatenate(twice_k),
            np.exp(-1j * np.outer(shifts, alpha)) @ w_a,
            np.exp(-1j * np.outer(shifts, gamma)) @ w_c)


def _su2_gram_rules(model: LieModel, labels, level: int):
    # the Haar rule integrates every product of two spin-j coefficients
    # within the labels exactly, and the radial rule resolves the largest
    # growth e^{2 j_max r}
    top = float(_highest_weights(model, labels).max())
    return (su2_haar_rule(max(1, int(math.ceil(2 * top)))),
            radial_rule(level, tilt=4.0 * top))


def _basis_grams(model: LieModel, labels, level: int):
    """Quadrature Gram of the orthonormal basis over group x algebra.

    Returns (hl2, l2): the holomorphic and the flat Gram, each one matrix
    over the basis in label order, d_j^2 rows per label.

    On a torus every block is 1x1, so the Grams are the character Gram
    factors themselves.  For su2 every node sum is one matrix product over
    the whole basis, from the axis tables of ``_su2_axis_tables``:

    * the flat Gram is sqrt(d_x d_y) A with A = T_a[m_p - m_p'] T_c[m_k -
      m_k'] sum_u w_u d^x_pk(b_u) conj(d^y_p'k'(b_u));
    * the Gaussian integral runs in polar form, Y = r Ad_u e3, with the
      direction average over the c = 0 nodes of the same rule.  There
      E^x(u, r) = D^x(u) diag(e^{r m}) D^x(u)^dagger has entries e^{-i
      (m_k - m_q) a} F^x_kq(b, r), F^x_kq = sum_s d^x_ks conj(d^x_qs)
      e^{r m_s}, so its Gram over the directions and radii is B =
      T_a[(m_k - m_q) - (m_k' - m_q')] sum_{u, r} w_u w_r F^x_kq
      conj(F^y_k'q');
    * hl2 = sqrt(d_x d_y) sum_{k, k'} A[(p, k), (p', k')] B[(k, q), (k',
      q')], one small product per label pair over blocks already built.
    """
    if model.is_abelian:
        haar, gauss = _torus_gram_factors(
            model, _highest_weights(model, labels), level)
        return haar * gauss, haar
    g_rule, r_rule = _su2_gram_rules(model, labels, level)
    w_u = g_rule.axes[1][1]
    r = r_rule.nodes[:, 0]
    d_b, twice_p, twice_k, t_a, t_c = _su2_axis_tables(model, labels, g_rule)
    span = len(t_a) // 2
    dims = [len(w) for w in _weights(model, labels)]
    a_full = (t_a[twice_p[:, None] - twice_p[None, :] + span]
              * t_c[twice_k[:, None] - twice_k[None, :] + span]
              * ((d_b.T * w_u) @ d_b.conj()))
    # f_nodes[(u, r), (x, k, q)] = F^x_kq(b_u, r)
    f_nodes = []
    offs = np.concatenate([[0], np.cumsum([d * d for d in dims])])
    for d, lo, hi in zip(dims, offs[:-1], offs[1:]):
        dd = d_b[:, lo:hi].reshape(-1, d, d)
        grow = np.exp(np.outer(twice_k[lo:lo + d] / 2.0, r))
        f = (dd[:, :, None, :] * dd.conj()[:, None, :, :]) @ grow
        f_nodes.append(f.transpose(0, 3, 1, 2).reshape(-1, d * d))
    f_nodes = np.concatenate(f_nodes, axis=1)
    w_ur = np.outer(w_u, r_rule.weights).reshape(-1)
    diff = twice_p - twice_k
    b_full = (t_a[diff[:, None] - diff[None, :] + span]
              * ((f_nodes.T * w_ur) @ f_nodes.conj()))
    hl2 = np.empty_like(a_full)
    for dx, xl, xh in zip(dims, offs[:-1], offs[1:]):
        for dy, yl, yh in zip(dims, offs[:-1], offs[1:]):
            # A[(p, p'), (k, k')] @ B[(k, k'), (q, q')], regrouped to
            # [(p, q), (p', q')]
            a_blk, b_blk = (
                m[xl:xh, yl:yh].reshape(dx, dx, dy, dy).transpose(0, 2, 1, 3)
                .reshape(dx * dy, dx * dy) for m in (a_full, b_full))
            hl2[xl:xh, yl:yh] = (a_blk @ b_blk).reshape(
                dx, dy, dx, dy).transpose(0, 2, 1, 3).reshape(dx * dx, dy * dy)
    scale = np.sqrt(np.asarray(dims, float)[_basis_owner(model, labels)])
    scale = np.outer(scale, scale)
    return scale * hl2, scale * a_full


def unitarity_certificate(model: LieModel, cutoff=None,
                          level: int = 3) -> CheckReport:
    """Gram of the transformed basis in the Gaussian-weighted holomorphic
    inner product versus the flat Gram of the source basis.

    Exactness of the Haar-side rule makes the flat Gram the identity, so
    the reported deviation is the Gaussian-side quadrature's error against
    the closed-form sigma (1.5e-2 on u1 at cutoff 20, level 3).
    """
    cutoff = _default_cutoff(model, cutoff)
    labels = irrep_labels(model, cutoff)
    hl2, big_l2 = _basis_grams(model, labels, level)
    owner = _basis_owner(model, labels)
    big_c = _scaled(hl2, build_sigma_table(model, labels)[owner])
    off_block = owner[:, None] != owner[None, :]
    leakage = float(np.abs(big_c[off_block]).max()) if len(labels) > 1 else 0.0
    return CheckReport.from_error(
        f"transform.unitarity.{model.name}",
        "the sigma^{-1/2}-scaled matrix-coefficient basis has the same Gram "
        "in the Gaussian-weighted holomorphic inner product as the source "
        "basis has on the group",
        tolerance=1e-6 if model.is_abelian else 1e-4,
        max_error=float(np.abs(big_c - big_l2).max()),
        cutoff=cutoff,
        basis_size=int(big_c.shape[0]),
        block_leakage=leakage,
        quadrature_level=level,
    )


def equivariance_certificate(model: LieModel, cutoff=None, samples: int = 10,
                             seed: int = 0) -> CheckReport:
    """Two-sided translations commute with the transform.  Each sample
    draws its coefficients in one standard-normal call, label by label the
    real and then the imaginary d x d part, and then h1 and h2."""
    cutoff = _default_cutoff(model, cutoff)
    rng = np.random.default_rng(seed)
    labels = irrep_labels(model, cutoff)
    sigmas = build_sigma_table(model, labels)
    owner = _basis_owner(model, labels)
    sizes = np.bincount(owner)  # d^2 per label
    # a sample's stream holds each label's real d x d part, then its
    # imaginary part: basis element i reads its real part at i plus the
    # sizes of the earlier labels, and its imaginary part d^2 further on
    re_at = np.arange(len(owner)) + (np.cumsum(sizes) - sizes)[owner]
    im_at = re_at + sizes[owner]
    worst = 0.0
    for _ in range(samples):
        z = rng.standard_normal(2 * len(owner))
        f = z[re_at] + 1j * z[im_at]
        h1 = random_group_point(model, rng)
        h2 = random_group_point(model, rng)
        left = transform_C_phi(group_action(model, labels, f, h1, h2),
                               sigmas, owner)
        right = group_action(model, labels,
                             transform_C_phi(f, sigmas, owner), h1, h2)
        worst = np.maximum(worst, np.abs(left - right).max())
    return CheckReport.from_error(
        f"transform.equivariance.{model.name}",
        "the transform scales each irrep block by a scalar, so two-sided "
        "translations pass through it",
        tolerance=1e-8,
        max_error=worst,
        samples=samples,
        cutoff=cutoff,
    )


def _su2_character_gram(model: LieModel, labels, g_rule: QuadratureRule,
                        r_rule: QuadratureRule,
                        radial_weights: np.ndarray) -> np.ndarray:
    """su2 character Gram under ``radial_weights`` (weights on the nodes of
    ``r_rule``), from axis tables of the Euler-angle rule ``g_rule``.

    At g e^{rH}, H = diag(1/2, -1/2), the spin-j character is
    chi_j = sum_m D^j_mm(g) e^{r m}, with D^j_mm = e^{-i m (a + c)}
    d^j_mm(b) on the rule's axes.  So each Gram entry is a sum over weight
    pairs (m, m') of labels (x, y) of four one-axis factors:

        G_xy = sum T_a[m - m'] T_b[m, m'] T_c[m - m'] R[m + m'],

    with T_a and T_c the trapezoid sums of e^{-i (m - m') angle} over the
    a and c axes, T_b[m, m'] = sum_u w_u d^x_mm(b_u) conj(d^y_m'm'(b_u))
    over the n_u distinct b, and R[m + m'] = sum_r w_r e^{r (m + m')}.
    T_a, T_c and the Wigner diagonals are those of ``_su2_axis_tables``.
    """
    d_b, twice_p, twice_k, t_a, t_c = _su2_axis_tables(model, labels, g_rule)
    span = len(t_a) // 2
    # the Wigner diagonals: the p = k columns, which within one label are
    # the columns with m_p = m_k
    on_diag = twice_p == twice_k
    twice_m = twice_p[on_diag]
    d_diag = d_b[:, on_diag]
    t_b = (d_diag.T * g_rule.axes[1][1]) @ d_diag.conj()
    haar = (t_a * t_c)[twice_m[:, None] - twice_m[None, :] + span] * t_b
    # R[m + m'] at every 2 (m + m') in -top..top
    top = 2 * int(np.abs(twice_m).max())
    radial = radial_weights @ np.exp(np.outer(
        r_rule.nodes[:, 0], np.arange(-top, top + 1) / 2.0))
    return _fold(haar * radial[twice_m[:, None] + twice_m[None, :] + top],
                 [len(w) for w in _weights(model, labels)])


def character_gram(model: LieModel, labels, level: int = 4,
                   eta_weight: bool = False) -> np.ndarray:
    """Quadrature Gram of the holomorphically extended characters in the
    Gaussian-weighted inner product over group x algebra, optionally with
    the fiber density eta~ as an extra radial weight.

    Class invariance lets the algebra integral run in polar form with a
    fixed direction: the group average is exact for the spins involved, so
    the direction dependence integrates away.  On a torus the Gram is the
    product of a Haar and a Gaussian character table over label
    differences and sums.  On su2 it is contracted from one-axis tables,
    never from characters at the Haar x radial nodes: a trapezoid table
    in each of the angles a and c over m - m', a Gauss-Legendre table in
    b of the Wigner diagonals d^x_mm d^y_m'm', and a radial table over
    m + m' (``_su2_character_gram``).
    """
    labels = list(labels)
    if model.is_abelian:
        haar, gauss = _torus_gram_factors(
            model, _highest_weights(model, labels), level)
        return haar * gauss
    g_rule, r_rule = _su2_gram_rules(model, labels, level)
    weights = r_rule.weights
    if eta_weight:
        weights = weights * eta_tilde(model, r_rule.nodes)
    return _su2_character_gram(model, labels, g_rule, r_rule, weights)


def spin_weighted_gram(model: LieModel, cutoff=None,
                       level: int = 4) -> CheckReport:
    """Gram of the holomorphic characters under the fiber-density-weighted
    Gaussian measure, and the unweighted one, each scaled by its closed
    diagonal c: diag(c)^{-1/2} G diag(c)^{-1/2} against the identity.

    c is sigma unweighted.  Weighted it is the torus norm at the rho-shifted
    highest weight over |W| (Hall 2002), with rho half the sum of the
    model's positive roots and |W| the order of ``weyl_group``:
    sigma_T(j + 1/2) / 2 on su2, and sigma on a torus, where rho = 0,
    |W| = 1 and the two Grams coincide.
    """
    cutoff = _default_cutoff(model, cutoff)
    labels = irrep_labels(model, cutoff)
    gram = character_gram(model, labels, level, eta_weight=False)
    norms = build_sigma_table(model, labels)
    roots = model.positive_roots()
    # eta~ is the empty product 1 without positive roots
    gram_eta = (character_gram(model, labels, level, eta_weight=True)
                if len(roots) else gram)
    rho = roots.sum(axis=0) / 2
    norms_eta = (_torus_norms(_highest_weights(model, labels) + rho)
                 / len(weyl_group(model)))
    dev_eta, dev_flat = (float(np.abs(_scaled(g, c) - np.eye(len(c))).max())
                         for g, c in ((gram_eta, norms_eta), (gram, norms)))
    return CheckReport.from_error(
        f"transform.spin_gram.{model.name}",
        "holomorphic characters stay orthogonal under the fiber-density "
        "weight, with the closed-form norms: sigma unweighted, the "
        "rho-shifted torus norm over |W| weighted",
        tolerance=1e-6,
        max_error=np.maximum(dev_eta, dev_flat),
        labels=[str(l) for l in labels],
        eta_diagonal=np.real(np.diagonal(gram_eta)).tolist(),
        flat_diagonal=np.real(np.diagonal(gram)).tolist(),
        deviation_eta=dev_eta,
        deviation_flat=dev_flat,
    )
