"""Singular symplectic quotient at the zero level of the conjugation
momentum map.

The conjugation action of the group on its polarized phase space has
momentum map j(g, Y) = Ad_g Y - Y.  On the zero set g and e^{tY} commute,
so every orbit meets the torus part; the quotient is (T x t)/W.  The
operations here construct that normal form numerically: find a conjugator
into T x t, canonicalize under the Weyl group, and realize the reduction
isometry on class functions as multiplication by |W|^{-1/2} |delta|
followed by torus restriction, whose Gram is read from the characters'
weight lists as one |delta|^2-weighted shift table.

The headline certificate builds the reduced quantization two ways, with
the same calls on every model: once by reducing the invariant part of the
quantization, and once by quantizing the reduced space directly, from the
W-invariant holomorphic torus modes (Hall 2002; Hall-Kirwin 2007), whose
Gram is summed from the torus Gram tables over Weyl orbits.  It compares
the resulting Gram matrices with the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from quantlab.coherent_transform import (
    _fold,
    _frequencies,
    _highest_weights,
    _scaled,
    _torus_gram_factors,
    _torus_norms,
    _weights,
    build_sigma_table,
    character_gram,
    irrep_labels,
    top_label,
)
from quantlab.density_weights import weyl_denominator
from quantlab.lie_core import (
    LieModel,
    _row_block_max,
    adjoint_action_batch,
    alg_to_matrix_batch,
    exp_alg_batch,
    matmul_batch,
    random_group_coords,
    weyl_group,
)
from quantlab.quadrature import torus_rule
from quantlab.report import CheckReport

__all__ = [
    "reduction_bytes",
    "ReducedRepresentative",
    "momentum_map_batch",
    "momentum_equivariance_certificate",
    "torus_representative",
    "weyl_canonicalize",
    "round_trip_certificate",
    "weyl_isometry_certificate",
    "qr_commutes_certificate",
]

ZERO_SET_TOL = 1e-9
# the cutoff qr_commutes uses when given none
QR_DEFAULT_CUTOFF = {"u1": 4, "t2": 4, "su2": 2.0}


def reduction_bytes(model: LieModel, cutoff) -> int:
    """Estimated peak memory of the reduction suite at ``cutoff``, from the
    sizes alone, before any Gram is built, per pair of the labels' W
    weights (one per label on a torus, 2 j + 1 for the spin j): 160 B on a
    torus, where both routes' label Grams, their gather indices and the
    report's two lists are W x W, and 48 B on su2, where the character
    Gram's weight-pair tables are.  The sampled checks' few MiB, the same
    at every cutoff, are not counted."""
    top = top_label(model, QR_DEFAULT_CUTOFF[model.name]
                    if cutoff is None else cutoff)
    if model.is_abelian:
        return 160 * (2 * top[0] + 1) ** (2 * model.rank)
    d = int(2 * top) + 1
    return 48 * (d * (d + 1) // 2) ** 2


def _conjugate(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # h g h^-1 for unitary h, row by row of (..., k, k) stacks
    return matmul_batch(matmul_batch(h, g), np.conj(np.swapaxes(h, -1, -2)))


def momentum_map_batch(model: LieModel, g_mats: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """j(g, Y) = Ad_g Y - Y row by row, for (N, k, k) group matrices and
    (N, n) algebra coordinates; returns (N, n)."""
    return adjoint_action_batch(model, g_mats, ys) - ys


def momentum_equivariance_certificate(
    model: LieModel, rng: np.random.Generator, seed: int,
    samples: int = 10_000,
) -> CheckReport:
    """j(h g h^-1, Ad_h Y) = Ad_h j(g, Y) at random (g, Y, h).

    Draws from ``rng`` three (samples, n) blocks in turn: g and h as
    ``random_group_coords`` and Y as standard normal coordinates, g, then
    Y, then h.  The exponentials and conjugations are then taken one
    block of rows at a time.  ``seed`` is the seed ``rng`` was made from,
    recorded in the report.
    """
    g_coords = random_group_coords(model, rng, samples)
    ys = rng.standard_normal((samples, model.dim))
    h_coords = random_group_coords(model, rng, samples)

    def worst(g_coords, ys, h_coords):
        g = exp_alg_batch(model, g_coords)
        h = exp_alg_batch(model, h_coords)
        moved_g = _conjugate(h, g)
        moved_y = adjoint_action_batch(model, h, ys)
        lhs = momentum_map_batch(model, moved_g, moved_y)
        rhs = adjoint_action_batch(model, h, momentum_map_batch(model, g, ys))
        return np.abs(lhs - rhs).max(initial=0.0)

    return CheckReport.from_error(
        "reduction.momentum_equivariance",
        "the momentum map intertwines conjugation on the group with "
        "the adjoint action on the fiber",
        tolerance=1e-10,
        max_error=float(_row_block_max(worst, g_coords, ys, h_coords)),
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class ReducedRepresentative:
    """Points (t, Y0) of T x t as an (N, k, k) stack of torus matrices and
    (N, n) coordinates, with the (N, k, k) conjugators h that carried the
    original pairs (g, Y) there: h g h^-1 = t and Ad_h Y = Y0 row by
    row."""

    t: np.ndarray
    Y0: np.ndarray
    conjugator: np.ndarray


def _su2_torus_angle(t: np.ndarray) -> np.ndarray:
    # t = diag(e^{-i tau/2}, e^{i tau/2}), one per row of an (N, 2, 2)
    # stack; tau wrapped to [0, 4 pi)
    tau = 2.0 * np.angle(t[:, 1, 1])
    return tau % (4.0 * math.pi)


def _torus_rows(model: LieModel, taus: np.ndarray) -> np.ndarray:
    # (N, n) coordinates tau e_3 of su2 torus points
    coords = np.zeros((len(taus), model.dim))
    coords[:, 2] = taus
    return coords


def _unit_eigenvectors(mats: np.ndarray) -> np.ndarray:
    # one unit eigenvector per 2x2 matrix of an (N, 2, 2) stack: with
    # h = (a - d)/2 and s = sqrt(h^2 + bc), (s + h, c) is an eigenvector
    # for (a + d)/2 + s, and the root whose sign makes Re(conj(h) s) >= 0
    # keeps |s + h|^2 >= |s|^2 + |h|^2, free of cancellation.  A power of
    # two brings the largest of h, b, c into [1/2, 1): exact, so it moves
    # no bit of a result in the normal range, and it keeps bc and |v|^2 of
    # a matrix a hair from scalar (b c ~ 1e-315) clear of underflow
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    h = 0.5 * (a - d)
    _, e = np.frexp(np.max(np.abs([h, b, c]), axis=0))
    scale = np.ldexp(1.0, -np.maximum(e, -1021))
    h, b, c = h * scale, b * scale, c * scale
    s = np.sqrt(h * h + b * c)
    s = np.where((np.conj(h) * s).real < 0, -s, s)
    v = np.stack([s + h, c], axis=1)
    norm = np.linalg.norm(v, axis=1)
    # zero only for a scalar matrix, where every vector is an eigenvector
    scalar = norm == 0
    v[scalar] = [1.0, 0.0]
    return v / np.where(scalar, 1.0, norm)[:, None]


def torus_representative(model: LieModel, gs: np.ndarray,
                         ys: np.ndarray) -> ReducedRepresentative:
    """Conjugators h with (h g h^{-1}, Ad_h Y) in T x t, row by row, for an
    (N, k, k) stack of group matrices gs and (N, n) coordinates ys of
    points of the zero set.

    Raises ValueError unless the momentum residual |j(g, Y)| of every row
    is below ZERO_SET_TOL.  The pair commutes on the zero set, so the
    defining-representation matrices are simultaneously diagonalizable,
    and an eigenbasis of either one diagonalizes both unless its
    eigenvalues coincide.  Each row diagonalizes whichever of g and iY has
    the wider eigenvalue gap: 2 |sin phi| = sqrt|det(g - g^*)| for g with
    eigenvalues e^{+-i phi}, and |Y| for iY, whose eigenvalues are
    +-|Y| / 2.  Its 2x2 Schur basis is one unit eigenvector v and its
    orthogonal complement, which together form the SU(2) matrix
    [[v0, -v1*], [v1, v0*]].  A row whose conjugator leaves off-diagonal
    parts above 1e-9 raises ArithmeticError naming the row.
    """
    gs = np.asarray(gs)
    ys = np.asarray(ys, float)
    residual = np.linalg.norm(momentum_map_batch(model, gs, ys), axis=1)
    bad = ~(residual < ZERO_SET_TOL)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"momentum residual {residual[row]:g} of row {row} exceeds the "
            f"zero-set tolerance {ZERO_SET_TOL:g}"
        )
    if model.is_abelian:
        eye = np.eye(model.defining_rep_dim, dtype=complex)
        return ReducedRepresentative(
            gs, ys, np.broadcast_to(eye, gs.shape).copy())
    skew = gs - np.conj(np.swapaxes(gs, -1, -2))
    gap_g = np.sqrt(np.abs(skew[:, 0, 0] * skew[:, 1, 1]
                           - skew[:, 0, 1] * skew[:, 1, 0]))
    use_g = gap_g >= np.linalg.norm(ys, axis=1)
    v = _unit_eigenvectors(np.where(use_g[:, None, None], gs,
                                    1j * alg_to_matrix_batch(model, ys)))
    h = np.empty((len(ys), 2, 2), dtype=complex)
    h[:, 0, 0] = np.conj(v[:, 0])
    h[:, 0, 1] = np.conj(v[:, 1])
    h[:, 1, 0] = -v[:, 1]
    h[:, 1, 1] = v[:, 0]
    t_mat = _conjugate(h, gs)
    y_new = adjoint_action_batch(model, h, ys)
    # the discarded off-diagonal and off-torus parts must be below 1e-9
    off = np.max(np.abs(np.stack([t_mat[:, 0, 1], t_mat[:, 1, 0],
                                  y_new[:, 0], y_new[:, 1]])), axis=0)
    bad = ~(off <= 1e-9)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ArithmeticError(
            f"the conjugator of row {row} leaves off-diagonal parts of "
            f"{off[row]:g}, above 1e-9"
        )
    y_out = np.zeros_like(ys)
    y_out[:, 2] = y_new[:, 2]
    taus = 2.0 * np.angle(t_mat[:, 1, 1])
    return ReducedRepresentative(
        exp_alg_batch(model, _torus_rows(model, taus)), y_out, h)


def weyl_canonicalize(model: LieModel,
                      rep: ReducedRepresentative) -> ReducedRepresentative:
    """The unique fundamental-domain representative of each row: y > 0
    kept, y < 0 flipped, and on the |y| <= 1e-12 boundary Y0 set to 0 and
    the torus angle flipped into its own fundamental arc [0, 2 pi].  The
    flip conjugates by exp(pi e1), which swaps the torus diagonal and
    negates t.  Idempotent."""
    if model.is_abelian:
        return rep
    y = rep.Y0[:, 2]
    on_wall = np.abs(y) <= 1e-12
    y0 = np.where(on_wall[:, None], 0.0, rep.Y0)
    flipped = (y < -1e-12) | (
        on_wall & (_su2_torus_angle(rep.t) > 2.0 * math.pi + 1e-12))
    flip = exp_alg_batch(model, np.array([[math.pi, 0.0, 0.0]]))[0]
    rows = flipped[:, None, None]
    return ReducedRepresentative(
        np.where(rows, _conjugate(flip, rep.t), rep.t),
        np.where(flipped[:, None], -y0, y0),
        np.where(rows, matmul_batch(flip, rep.conjugator), rep.conjugator))


def round_trip_certificate(model: LieModel, rng: np.random.Generator,
                           seed: int, trips: int = 200) -> CheckReport:
    """Reduce a conjugated torus pair and compare with the pair's own
    canonical representative.

    Draws from ``rng`` one block per coordinate, each over all trips: on
    tori the angles (``random_group_coords``) and then a flat vector in
    [-2, 2)^r, a pair that is its own representative; on su2 tau, then y,
    then the ``random_group_coords`` of h, and reduces
    (h t h^-1, Ad_h y e3).  All trips are reduced in one stack.  ``seed``
    is the seed ``rng`` was made from, recorded in the report.
    """
    def reduce(g, y):
        return weyl_canonicalize(model, torus_representative(model, g, y))

    if model.is_abelian:
        t0 = exp_alg_batch(model, random_group_coords(model, rng, trips))
        y0 = rng.uniform(-2, 2, (trips, model.rank))
        rep = reduce(t0, y0)
    else:
        taus = rng.uniform(0.3, 5.5, trips)
        y0 = _torus_rows(model, rng.uniform(-2, 2, trips))
        h0 = exp_alg_batch(model, random_group_coords(model, rng, trips))
        t0 = exp_alg_batch(model, _torus_rows(model, taus))
        rep = reduce(_conjugate(h0, t0), adjoint_action_batch(model, h0, y0))
        direct = reduce(t0, y0)
        t0, y0 = direct.t, direct.Y0
    worst = np.max([np.abs(rep.t - t0).max(initial=0.0),
                    np.abs(rep.Y0 - y0).max(initial=0.0)])
    return CheckReport.from_error(
        "reduction.round_trip",
        "conjugating a torus pair by a random element and reducing "
        "recovers the same canonical representative",
        tolerance=1e-8,
        max_error=worst,
        samples=trips,
        seed=seed,
    )


def _reduced_gram(model: LieModel, labels) -> np.ndarray:
    """The torus Gram of the reduced characters |W|^{-1/2} |delta| chi of
    ``labels``, from their weight lists: with n the integer frequencies of
    the weights (``_frequencies``), each entry sums one shift table F(n -
    n') = sum_theta w |delta|^2 / |W| e^{i (n - n').theta} over the weight
    pairs of its two labels.  |delta|^2 does not split by axis, so F is
    summed on the product of r copies of ``torus_rule``'s s nodes (tau =
    theta period / 2 pi), one axis at a time, with the phases reduced
    modulo s in integers, so it is exactly s-periodic.  With top the
    largest |m|, s = 4 ceil(top) + 7 resolves every weight difference times
    |delta|^2; F at a nonzero shift is summed, not taken as 0, so a rule
    too coarse for the labels shows as aliasing."""
    weights = _weights(model, labels)
    n = _frequencies(model, np.concatenate(weights))
    top = float(np.abs(_highest_weights(model, labels)).max())
    s = 4 * int(math.ceil(top)) + 7
    theta, w = torus_rule(s - 1)
    scale = np.asarray(model.torus_periods) / (2.0 * math.pi)
    taus = np.meshgrid(*[theta * c for c in scale], indexing="ij")
    table = (functools.reduce(np.multiply.outer, [w] * model.rank)
             * weyl_denominator(model, np.stack(taus, -1).reshape(
                 -1, model.rank)).reshape(taus[0].shape) ** 2
             / len(weyl_group(model)))
    phase = np.exp(2j * math.pi / s * (np.outer(range(s), range(s)) % s))
    for axis in range(model.rank):
        table = np.moveaxis(np.tensordot(phase, table, (1, axis)), 0, axis)
    return _fold(table[tuple((n[:, None, a] - n[None, :, a]) % s
                             for a in range(model.rank))],
                 [len(w) for w in weights])


def weyl_isometry_certificate(model: LieModel) -> CheckReport:
    """The reduced Gram of unit-norm characters is the identity: modes
    0..3 of the first torus axis, or spins 0..3 in half steps on su2, all
    read from one ``_reduced_gram`` table."""
    if model.is_abelian:
        labels = [tuple([k] + [0] * (model.rank - 1)) for k in range(4)]
    else:
        labels = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    gram = _reduced_gram(model, labels)
    return CheckReport.from_error(
        "reduction.weyl_isometry",
        "restriction to the torus weighted by the absolute Weyl "
        "denominator preserves the inner products of the characters",
        tolerance=1e-6,
        max_error=float(np.abs(gram - np.eye(len(labels))).max()),
        characters=len(labels),
    )


def _side_a_grams(model: LieModel, labels, level: int):
    """Reduction after quantization: the sigma^{-1/2}-scaled character Gram
    in the holomorphic inner product, ``_reduced_gram``, and the largest
    change of a label's sorted integer frequencies under a Weyl element
    other than the identity (none on a torus): 0 exactly when every reduced
    character is Weyl-even, at least 1 for a single stray weight."""
    hl2 = _scaled(character_gram(model, labels, level)[0],
                  build_sigma_table(model, labels))
    winv = 0.0
    for w in weyl_group(model)[1:]:
        for m in _weights(model, labels):
            n, image = (f[np.lexsort(f.T[::-1])] for f in (
                _frequencies(model, m), _frequencies(model, m @ w.T)))
            winv = max(winv, float(np.abs(n - image).max()))
    return hl2, _reduced_gram(model, labels), winv


def _side_b_gram(model: LieModel, labels, level: int):
    """Quantization after reduction: the Gram of the W-invariant
    holomorphic torus modes in the Gaussian-weighted inner product on
    T x t, scaled to the identity by closed-form norms.

    Each label contributes the orbit sum of e^{i m.tau} e^{-m.y} over the
    distinct Weyl images m of its top weight: the label alone on a torus,
    j and -j on su2.  The Gram of every orbit weight is the product of the
    Haar and Gaussian torus tables; summed over orbit blocks it is the Gram
    of the orbit sums.  The Haar factor makes the modes of one orbit
    orthogonal, so an orbit sum has norm |orbit| times the torus norm of
    its top weight."""
    tops = _highest_weights(model, labels)
    orbits = [list(dict.fromkeys(map(tuple, images)))
              for images in np.einsum("wab,nb->nwa", weyl_group(model), tops)]
    sizes = np.array([len(orbit) for orbit in orbits])
    haar, gauss = _torus_gram_factors(model, np.concatenate(orbits), level)
    return _scaled(_fold(haar * gauss, sizes), sizes * _torus_norms(tops))


def qr_commutes_certificate(model: LieModel, cutoff=None,
                            level: int = 4) -> CheckReport:
    """Quantization and reduction commute at desk scale.  Route A
    (``_side_a_grams``) quantizes and then reduces, reading the reduced
    characters from their weight lists; route B (``_side_b_gram``)
    quantizes the reduced space.  Every Gram must be the identity and every
    reduced character Weyl-even.  On a torus route B is route A's
    holomorphic Gram, so a broken |delta| shows on route A only.  The
    default cutoff is ``QR_DEFAULT_CUTOFF``'s."""
    if cutoff is None:
        cutoff = QR_DEFAULT_CUTOFF[model.name]
    labels = irrep_labels(model, cutoff)
    hl2, gram_red, winv = _side_a_grams(model, labels, level)
    gram_b = _side_b_gram(model, labels, level)
    eye = np.eye(len(labels))
    dev_a_hl2 = float(np.abs(hl2 - eye).max())
    dev_a_red = float(np.abs(gram_red - eye).max())
    dev_b = float(np.abs(gram_b - eye).max())
    return CheckReport.from_error(
        f"reduction.qr_commutes.{model.name}",
        "the invariant part of the quantization, reduced to the torus, and "
        "the quantization of the reduced space span unitarily equivalent "
        "systems: both Gram matrices are the identity at each cutoff",
        tolerance=1e-9 if model.is_abelian else 1e-4,
        max_error=np.max([dev_a_hl2, dev_a_red, dev_b, winv]),
        cutoff=cutoff,
        dimension=len(labels),
        deviation_quantize_then_reduce=float(np.maximum(dev_a_hl2, dev_a_red)),
        deviation_reduce_then_quantize=dev_b,
        weyl_invariance_residual=float(winv),
        gram_a=np.real(gram_red).tolist(),
        gram_b=np.real(gram_b).tolist(),
    )
