"""Convexity and plurisubharmonicity certificates for invariant potentials.

A Weyl-invariant function on t extends to an invariant potential on the
whole phase space; its complex Hessian at a torus point is unitarily
equivalent to a hermitian endomorphism of the algebra whose spectrum splits
into the flat Hessian eigenvalues plus one value per root,

    alpha(mu(Y)) * (coth(alpha(Y)) + 1),

where mu is the equivariant gradient.  On a root hyperplane the quotient is
taken as a limit: the ratio alpha(mu)/alpha(Y) degenerates to a second
derivative of the potential across the wall.

Everything here is checked twice: a closed-form spectrum and an independent
finite-difference assembly of the hermitian matrix itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quantlab.density_weights import _sinh_remainder, sinhc
from quantlab.kahler_geom import complex_structure_batch, dphi_batch
from quantlab.lie_core import (
    LieModel,
    adjoint_action_batch,
    bracket,
    exp_alg_batch,
)
from quantlab.report import CheckReport

__all__ = [
    "InvariantPotential",
    "square_potential",
    "logeta_potential",
    "combined_potential",
    "mu_gradient",
    "theta_spectrum",
    "theta_matrix_oracle",
    "canonical_semi_negativity_certificate",
    "twist_positivity_certificate",
    "oracle_agreement_certificate",
    "wall_limit_certificate",
    "spectrum_curve_certificate",
]

# the least eigenvalue a twisted potential must clear to count as positive
_TWIST_MARGIN = 1e-6
# the (a, b) of a|Y|^2 + b log eta~ the twist, oracle and wall checks run
_TWIST = (2 * math.pi, 2.0)


@dataclass(frozen=True, eq=False)
class InvariantPotential:
    """A Weyl-invariant potential on t, given by its analytic gradient and
    Hessian.  Both act on (N, r) stacks of torus coordinates, r =
    ``model.rank``: ``grad`` returns an (N, r) array and ``hess`` an
    (N, r, r) one."""

    model: LieModel
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def square_potential(model: LieModel) -> InvariantPotential:
    """The quadratic potential |Y|^2."""
    return InvariantPotential(
        model,
        grad=lambda t: 2.0 * t,
        hess=lambda t: np.broadcast_to(
            2.0 * np.eye(t.shape[1]), (t.shape[0],) + 2 * t.shape[1:]),
    )


def logeta_potential(model: LieModel) -> InvariantPotential:
    """log eta~, the sum of log(sinh(x) / x) at x = alpha(Y), alpha > 0."""
    pos = model.positive_roots()
    outers = pos[:, :, None] * pos[:, None, :]

    # coth x - 1/x = (x cosh x - sinh x)/(x sinh x) and its derivative
    # 1/x^2 - 1/sinh(x)^2 = (sinh x - x)(sinh x + x)/(x sinh x)^2, with
    # x cosh x - sinh x = 2x sinh(x/2)^2 - (sinh x - x): no cancellation
    def grad(t):
        x = t @ pos.T
        return (x * (0.5 * sinhc(x / 2.0) ** 2 - _sinh_remainder(x))
                / sinhc(x)) @ pos

    def hess(t):
        x = t @ pos.T
        inv_sinhc = 1.0 / sinhc(x)
        second = _sinh_remainder(x) * inv_sinhc * (1.0 + inv_sinhc)
        return (second[:, :, None, None] * outers).sum(axis=1)

    return InvariantPotential(model, grad=grad, hess=hess)


def combined_potential(model: LieModel, a: float,
                       b: float) -> InvariantPotential:
    """The twisted potential a|Y|^2 + b log eta~."""
    sq = square_potential(model)
    le = logeta_potential(model)
    return InvariantPotential(
        model,
        grad=lambda t: a * sq.grad(t) + b * le.grad(t),
        hess=lambda t: a * sq.hess(t) + b * le.hess(t),
    )


# the potentials the oracle and wall checks run, by report name
_PRESETS = {
    "square": square_potential,
    "logeta": logeta_potential,
    f"combined:{_TWIST[0]!r},{_TWIST[1]:g}":
        lambda model: combined_potential(model, *_TWIST),
}


def _flat_gradient(K: InvariantPotential, ys: np.ndarray) -> np.ndarray:
    """The equivariant gradient on the algebra at each row of the (N, n)
    array ys.

    Torus models: the flat gradient in torus coordinates.  The rank-1
    non-abelian model: the radial extension grad(Y) = (K~'(r)/r) Y, whose
    limit at 0 is K~''(0) Y.
    """
    model = K.model
    if model.is_abelian:
        # an abelian algebra is its own torus: every axis is a torus axis
        return K.grad(ys)
    r = np.linalg.norm(ys, axis=1)
    small = r < 1e-9
    slope = np.empty_like(r)
    if small.any():
        slope[small] = K.hess(np.zeros((1, model.rank)))[0, 0, 0]
    big = ~small
    slope[big] = K.grad(r[big, None])[:, 0] / r[big]
    return slope[:, None] * ys


def mu_gradient(K: InvariantPotential, xs: np.ndarray,
                ys: np.ndarray) -> np.ndarray:
    """The equivariant moment-style map row by row, for (N, k, k) group
    matrices xs and (N, n) coordinates ys: Ad_x applied to the invariant
    gradient of the potential at Y; returns (N, n)."""
    flat = _flat_gradient(K, np.asarray(ys, float))
    return adjoint_action_batch(K.model, xs, flat)


def _torus_part_checked(model: LieModel, ys: np.ndarray) -> np.ndarray:
    ys = np.asarray(ys, float)
    if ys.ndim != 2 or ys.shape[1] != model.dim:
        raise ValueError(f"expected an (N, {model.dim}) stack of "
                         f"coordinates, got shape {ys.shape}")
    tidx = list(model.torus_indices)
    off = np.delete(ys, tidx, axis=1)
    if off.size and np.abs(off).max() > 1e-12:
        raise ValueError("expected points of t")
    return ys[:, tidx]


def theta_spectrum(K: InvariantPotential, ys: np.ndarray) -> np.ndarray:
    """Closed-form spectra of the hermitian curvature endomorphism at the
    torus points given by the rows of the (N, n) array ys, as an
    (N, r + R) array: the r Hessian eigenvalues in ascending order, then
    one column per row of ``model.roots``, in order.  The least
    eigenvalue of row i is ``.min(axis=1)[i]``.

    Within 1e-6 of a root hyperplane the root value switches to its limit
    form: the across-wall second derivative of the potential times
    (alpha(Y) coth(alpha(Y)) + alpha(Y)).
    """
    model = K.model
    t = _torus_part_checked(model, ys)
    heigs = np.linalg.eigvalsh(K.hess(t))
    covs = model.roots
    ay = t @ covs.T
    amu = K.grad(t) @ covs.T
    near = np.abs(ay) < 1e-6
    ratio = amu / np.where(near, 1.0, ay)
    for j, a in enumerate(covs):
        rows = near[:, j]
        if rows.any():
            # limit form on the wall
            aa = float(a @ a)
            proj = t[rows] - (ay[rows, j] / aa)[:, None] * a
            ratio[rows, j] = (K.hess(proj) @ a) @ a / aa
    # alpha coth(alpha) + alpha as -2 alpha / expm1(-2 alpha): the sum
    # cancels for alpha << 0, this form keeps every digit; 1 at alpha = 0
    zero = ay == 0.0
    safe = np.where(zero, 1.0, ay)
    factor = np.where(zero, 1.0, -2.0 * safe / np.expm1(-2.0 * safe))
    return np.concatenate([heigs, ratio * factor], axis=1)


def theta_matrix_oracle(K: InvariantPotential, ys: np.ndarray) -> np.ndarray:
    """Finite-difference assembly, at the torus points given by the rows of
    the (N, n) array ys, of the hermitian endomorphisms whose spectra
    theta_spectrum predicts; returns (N, n, n).

    Column k: the covariant derivative of the equivariant gradient along
    the horizontal direction J(e_k, 0), minus i times the bracket with the
    gradient itself.  The covariant correction subtracts the connection
    reading of the direction; derivatives are central differences with one
    Richardson extrapolation step.  The 4n shifted points of every row are
    evaluated in one stack.
    """
    model = K.model
    n = model.dim
    ys = np.asarray(ys, float)
    _torus_part_checked(model, ys)
    count = ys.shape[0]
    k = model.defining_rep_dim
    jmat = complex_structure_batch(model, ys)
    # (1 - cos ad Y)/ad Y is the upper-right block of the polar differential
    q_block = dphi_batch(model, ys)[:, :n, n:]
    mu0 = mu_gradient(
        K, np.broadcast_to(np.eye(k, dtype=complex), (count, k, k)), ys)
    # row j of h1 and h2 holds the direction J(e_j, 0) = (h1, h2)
    h1 = np.swapaxes(jmat[:, :n, :n], 1, 2)
    h2 = np.swapaxes(jmat[:, n:, :n], 1, 2)
    h = 1e-5
    steps = np.array([h, -h, h / 2, -h / 2])[:, None]
    xs = exp_alg_batch(model, (steps * h1[:, :, None, :]).reshape(-1, n))
    shifted = (ys[:, None, None, :] + steps * h2[:, :, None, :]).reshape(-1, n)
    mu = mu_gradient(K, xs, shifted).reshape(count, n, 4, n)
    d1 = (mu[:, :, 0] - mu[:, :, 1]) / (2 * h)
    d2 = (mu[:, :, 2] - mu[:, :, 3]) / h
    deriv = (4.0 * d2 - d1) / 3.0
    conn = h1 - np.swapaxes(q_block @ jmat[:, n:, :n], 1, 2)
    mu_rows = np.repeat(mu0, n, axis=0)
    covariant = deriv - bracket(model, conn.reshape(-1, n),
                                mu_rows).reshape(count, n, n)
    units = np.tile(np.eye(n), (count, 1))
    twist = bracket(model, mu_rows, units).reshape(count, n, n)
    out = np.swapaxes(covariant - 1j * twist, 1, 2)
    herm_defect = float(
        np.abs(out - np.conj(np.swapaxes(out, 1, 2))).max(initial=0.0))
    if herm_defect > 1e-8:
        raise ArithmeticError(
            f"assembled endomorphism is not hermitian: defect {herm_defect:g}"
        )
    return out


def _scan(K: InvariantPotential) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid, 201 points of [-5, 5] on t, one per row, every
    further torus axis at 0.3 times the first; and the least eigenvalue of
    theta_spectrum at each of its points."""
    model = K.model
    grid = np.linspace(-5.0, 5.0, 201).reshape(-1, 1)
    grid = np.hstack([grid] + [0.3 * grid] * (model.rank - 1))
    coords = np.zeros((len(grid), model.dim))
    coords[:, list(model.torus_indices)] = grid
    return grid, theta_spectrum(K, coords).min(axis=1)


def canonical_semi_negativity_certificate(model: LieModel) -> CheckReport:
    """Convexity of the log-density over the scan grid: the curvature of
    the top-degree holomorphic form bundle is semi-negative iff this
    spectrum is nonnegative; tori give the identically flat case."""
    grid, mins = _scan(logeta_potential(model))
    worst = int(np.argmin(mins))
    least = float(mins[worst])
    return CheckReport.from_error(
        "psh.canonical_semi_negativity",
        "log of the fiber density is convex on t (limit value 1/3 at the "
        "origin for each root), so the dual of the top-form bundle has "
        "nonnegative curvature spectrum",
        tolerance=1e-8,
        # a NaN eigenvalue propagates and fails the check; 0.0 - least,
        # not -least, so that a flat spectrum reads 0.0 rather than -0.0
        max_error=np.maximum(0.0, 0.0 - least),
        min_eigenvalue=least,
        witness_point=grid[worst].tolist(),
        grid_points=len(grid),
        margin=0.0,
    )


def twist_positivity_certificate(
    model: LieModel, a: float = _TWIST[0], b: float = _TWIST[1]
) -> CheckReport:
    """Strict positivity of the combined potential a|Y|^2 + b log(eta)
    over the scan grid: the curvature form of the twisted bundle is
    positive when this spectrum clears _TWIST_MARGIN."""
    if a <= 0:
        raise ValueError("twist coefficient a must be positive")
    grid, mins = _scan(combined_potential(model, a, b))
    worst = int(np.argmin(mins))
    least = float(mins[worst])
    return CheckReport.from_error(
        "psh.twist_positivity",
        "the quadratic prequantum potential plus b times the log-density "
        "stays strictly convex in the curvature-spectrum sense",
        tolerance=1e-15,
        # a NaN eigenvalue propagates and fails the check
        max_error=np.maximum(0.0, _TWIST_MARGIN - least),
        min_eigenvalue=least,
        witness_point=grid[worst].tolist(),
        grid_points=len(grid),
        margin=_TWIST_MARGIN,
        a=a,
        b=b,
    )


def _spectra_gaps(closed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    # row by row: the largest gap of the sorted spectra over their scale
    a = np.sort(closed, axis=1)
    b = np.sort(oracle, axis=1)
    scale = np.maximum(1e-8, np.maximum(np.abs(a).max(axis=1),
                                        np.abs(b).max(axis=1)))
    return np.abs(a - b).max(axis=1) / scale


def oracle_agreement_certificate(model: LieModel) -> CheckReport:
    """theta_spectrum against the eigenvalues of theta_matrix_oracle at 17
    points of the last algebra axis, Y in [0.15, 2.5], for each preset; the
    gap is relative to the larger spectrum."""
    coords = np.zeros((17, model.dim))
    coords[:, -1] = np.linspace(0.15, 2.5, 17)
    worst = 0.0
    for potential in _PRESETS.values():
        K = potential(model)
        closed = theta_spectrum(K, coords)
        oracle = np.linalg.eigvalsh(theta_matrix_oracle(K, coords))
        # np.maximum, so that a NaN gap propagates and fails the check
        worst = np.maximum(worst, _spectra_gaps(closed, oracle).max())
    return CheckReport.from_error(
        "psh.oracle_agreement",
        "closed-form curvature eigenvalues agree with the "
        "finite-difference hermitian-operator route at every grid "
        "point, for each potential preset",
        tolerance=1e-4,
        max_error=float(worst),
        grid_points=len(coords) * len(_PRESETS),
        presets=list(_PRESETS),
    )


def wall_limit_certificate(model: LieModel) -> CheckReport:
    """Root eigenvalues at alpha(Y) = 1e-3 against K~''(0) (alpha(Y)
    coth(alpha(Y)) + alpha(Y)), for each preset; tori have no wall and
    read 0."""
    yval = 1e-3
    worst = 0.0
    if not model.is_abelian:
        for potential in _PRESETS.values():
            K = potential(model)
            spec = theta_spectrum(K, np.array([[0.0, 0.0, yval]]))
            hess0 = float(K.hess(np.zeros((1, 1)))[0, 0, 0])
            for a, val in zip(model.roots[:, 0], spec[0, model.rank:]):
                ay = float(a) * yval
                limit = hess0 * (ay / math.tanh(ay) + ay)
                # np.maximum, so that a NaN eigenvalue fails the check
                worst = np.maximum(worst, abs(float(val) - limit))
    return CheckReport.from_error(
        "psh.wall_limit",
        "next to a reflection wall the root-direction eigenvalue "
        "matches its continuous limit formula",
        tolerance=1e-5,
        max_error=worst,
        alpha_y=yval,
    )


def spectrum_curve_certificate(model: LieModel) -> CheckReport:
    """The least curvature eigenvalue of the square and logeta potentials
    along the scan grid; the square potential's curve must stay
    nonnegative, and both curves go into the report."""
    grid, square = _scan(square_potential(model))
    curves = {"square": square.tolist(),
              "logeta": _scan(logeta_potential(model))[1].tolist()}
    return CheckReport.from_error(
        "psh.spectrum_curve",
        "the flat potential keeps a nonnegative curvature spectrum "
        "along the scanned slice of the flat directions",
        tolerance=1e-8,
        max_error=np.maximum(0.0, -square.min()),
        spectrum_grid=grid[:, 0].tolist(),
        spectrum_min=curves,
    )
