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

from quantlab import density_weights as dw
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
    "SpectrumReport",
    "make_potential",
    "mu_gradient",
    "theta_spectrum",
    "theta_matrix_oracle",
    "psh_verdict",
    "canonical_semi_negativity_certificate",
    "twist_positivity_certificate",
    "oracle_agreement_certificate",
    "wall_limit_certificate",
    "spectrum_curve_certificate",
]

_PRESETS = ("square", "logeta", "combined:6.283185307179586,2")
# the least eigenvalue a twisted potential must clear to count as positive
_TWIST_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class InvariantPotential:
    """A Weyl-invariant potential on t with its analytic derivatives."""

    name: str
    model: LieModel
    tilde: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, t: np.ndarray) -> float:
        return float(self.tilde(np.asarray(t, float)))

    def grad(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(np.asarray(t, float)), float)

    def hess(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess_fn(np.asarray(t, float)), float)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    point: np.ndarray
    hessian_eigenvalues: np.ndarray
    root_eigenvalues: list[tuple[tuple[float, ...], float]]
    min_eigenvalue: float

    def all_values(self) -> np.ndarray:
        vals = list(self.hessian_eigenvalues)
        vals += [v for (_, v) in self.root_eigenvalues]
        return np.asarray(vals)


def _coth_guarded(x: float) -> float:
    # coth(x) - 1/x with its removable singularity, plus the raw coth
    if abs(x) < 1e-4:
        return x / 3.0 - x**3 / 45.0
    return 1.0 / math.tanh(x) - 1.0 / x


def make_potential(model: LieModel, spec: str) -> InvariantPotential:
    """Built-in potentials by name: "square", "logeta", "combined:a,b"."""
    if spec == "square":
        return InvariantPotential(
            "square",
            model,
            tilde=lambda t: float(np.dot(t, t)),
            grad_fn=lambda t: 2.0 * t,
            hess_fn=lambda t: 2.0 * np.eye(t.size),
        )
    if spec == "logeta":
        def grad(t):
            out = np.zeros_like(t)
            for root in model.positive_roots():
                x = float(t @ root.covector)
                out += _coth_guarded(x) * root.covector
            return out

        def hess(t):
            r = t.size
            out = np.zeros((r, r))
            for root in model.positive_roots():
                x = float(t @ root.covector)
                if abs(x) < 1e-4:
                    second = 1.0 / 3.0 - x * x / 15.0
                else:
                    second = 1.0 / x**2 - 1.0 / math.sinh(x) ** 2
                out += second * np.outer(root.covector, root.covector)
            return out

        return InvariantPotential(
            "logeta",
            model,
            tilde=lambda t: float(dw.log_eta_tilde(model, t)),
            grad_fn=grad,
            hess_fn=hess,
        )
    if spec.startswith("combined:"):
        try:
            a_str, b_str = spec.split(":", 1)[1].split(",")
            a, b = float(a_str), float(b_str)
        except ValueError as exc:
            raise ValueError(
                f"combined potential wants 'combined:a,b', got {spec!r}"
            ) from exc
        sq = make_potential(model, "square")
        le = make_potential(model, "logeta")
        return InvariantPotential(
            spec,
            model,
            tilde=lambda t: a * sq.value(t) + b * le.value(t),
            grad_fn=lambda t: a * sq.grad(t) + b * le.grad(t),
            hess_fn=lambda t: a * sq.hess(t) + b * le.hess(t),
        )
    raise ValueError(f"unknown potential {spec!r}")


def _flat_gradient(K: InvariantPotential, y_coords: np.ndarray) -> np.ndarray:
    """The equivariant gradient on the algebra, evaluated at Y.

    Torus models: the flat gradient in torus coordinates.  The rank-1
    non-abelian model: the radial extension grad(Y) = (K~'(r)/r) Y, whose
    limit at 0 is K~''(0) Y.
    """
    model = K.model
    if model.is_abelian:
        out = np.zeros(model.dim)
        tidx = list(model.torus_indices)
        out[tidx] = K.grad(y_coords[tidx])
        return out
    r = float(np.linalg.norm(y_coords))
    if r < 1e-9:
        return float(K.hess(np.zeros(model.rank))[0, 0]) * y_coords
    slope = float(K.grad(np.array([r]))[0]) / r
    return slope * y_coords


def mu_gradient(K: InvariantPotential, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """The equivariant moment-style map at (x, Y), for a (k, k) group
    matrix x and (n,) coordinates y: Ad_x applied to the invariant gradient
    of the potential at Y."""
    flat = _flat_gradient(K, np.asarray(y, float))
    return adjoint_action_batch(K.model, np.asarray(x)[None], flat[None])[0]


def _torus_part_checked(model: LieModel, y: np.ndarray) -> np.ndarray:
    tidx = list(model.torus_indices)
    off = np.delete(y, tidx)
    if off.size and np.abs(off).max() > 1e-12:
        raise ValueError("expected a point of t")
    return y[tidx]


def theta_spectrum(K: InvariantPotential, y: np.ndarray) -> SpectrumReport:
    """Closed-form spectrum of the hermitian curvature endomorphism at a
    torus point, given by (n,) coordinates y: Hessian eigenvalues plus one
    value per root.

    Within 1e-6 of a root hyperplane the root value switches to its limit
    form: the across-wall second derivative of the potential times
    (alpha(Y) coth(alpha(Y)) + alpha(Y)).
    """
    model = K.model
    t = _torus_part_checked(model, np.asarray(y, float))
    hess = K.hess(t)
    heigs = np.linalg.eigvalsh(hess)
    grad = K.grad(t)
    root_vals: list[tuple[tuple[float, ...], float]] = []
    for root in model.roots:
        a = root.covector
        ay = float(a @ t)
        amu = float(a @ grad)
        if abs(ay) < 1e-6:
            # limit form on the wall
            proj = t - (ay / float(a @ a)) * a
            ratio = float(a @ K.hess(proj) @ a) / float(a @ a)
        else:
            ratio = amu / ay
        if abs(ay) < 1e-4:
            factor = 1.0 + ay + ay * ay / 3.0
        else:
            factor = ay / math.tanh(ay) + ay
        root_vals.append((tuple(a), ratio * factor))
    all_vals = np.concatenate([heigs, [v for _, v in root_vals]]) if (
        root_vals
    ) else heigs
    return SpectrumReport(
        point=t.copy(),
        hessian_eigenvalues=heigs,
        root_eigenvalues=root_vals,
        min_eigenvalue=float(all_vals.min()),
    )


def theta_matrix_oracle(K: InvariantPotential, y: np.ndarray) -> np.ndarray:
    """Finite-difference assembly, at the torus point with (n,) coordinates
    y, of the hermitian endomorphism whose spectrum theta_spectrum predicts.

    Column k: the covariant derivative of the equivariant gradient along
    the horizontal direction J(e_k, 0), minus i times the bracket with the
    gradient itself.  The covariant correction subtracts the connection
    reading of the direction; derivatives are central differences with one
    Richardson extrapolation step.
    """
    model = K.model
    n = model.dim
    y = np.asarray(y, float)
    _torus_part_checked(model, y)
    jmat = complex_structure_batch(model, y[None])[0]
    # (1 - cos ad Y)/ad Y is the upper-right block of the polar differential
    q_block = dphi_batch(model, y[None])[0][:n, n:]
    mu0 = mu_gradient(K, np.eye(model.defining_rep_dim, dtype=complex), y)

    def mu_along(h1: np.ndarray, h2: np.ndarray, s: float) -> np.ndarray:
        x = exp_alg_batch(model, (s * h1)[None])[0]
        return mu_gradient(K, x, y + s * h2)

    def dmu(h1: np.ndarray, h2: np.ndarray, h: float) -> np.ndarray:
        d1 = (mu_along(h1, h2, h) - mu_along(h1, h2, -h)) / (2 * h)
        d2 = (mu_along(h1, h2, h / 2) - mu_along(h1, h2, -h / 2)) / h
        return (4.0 * d2 - d1) / 3.0

    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        unit = np.zeros(2 * n)
        unit[k] = 1.0
        hvec = jmat @ unit
        h1, h2 = hvec[:n], hvec[n:]
        deriv = dmu(h1, h2, 1e-5)
        conn = h1 - q_block @ h2
        covariant = deriv - bracket(model, conn, mu0)
        out[:, k] = covariant - 1j * bracket(model, mu0, unit[:n])
    herm_defect = float(np.abs(out - out.conj().T).max())
    if herm_defect > 1e-8:
        raise ArithmeticError(
            f"assembled endomorphism is not hermitian: defect {herm_defect:g}"
        )
    return out


def psh_verdict(
    K: InvariantPotential, grid: np.ndarray, margin: float = 0.0
) -> CheckReport:
    """Spectrum scan over a grid on t: the potential is accepted when every
    eigenvalue stays above -1e-8 + margin, and otherwise the worst witness
    point is reported."""
    model = K.model
    grid = np.atleast_2d(np.asarray(grid, float))
    if grid.shape[1] != model.rank:
        grid = grid.reshape(-1, model.rank)
    worst_val = np.inf
    worst_point = None
    for t in grid:
        coords = np.zeros(model.dim)
        coords[list(model.torus_indices)] = t
        rep = theta_spectrum(K, coords)
        if rep.min_eigenvalue < worst_val:
            worst_val = rep.min_eigenvalue
            worst_point = t.copy()
    return CheckReport.from_error(
        f"psh.verdict.{K.name}",
        "an invariant potential is plurisubharmonic exactly when its flat "
        "Hessian and all root values alpha(mu)(coth(alpha)+1) are "
        "nonnegative over t",
        tolerance=1e-8,
        max_error=max(0.0, margin - worst_val),
        min_eigenvalue=float(worst_val),
        witness_point=list(worst_point) if worst_point is not None else None,
        grid_points=int(grid.shape[0]),
        margin=margin,
    )


def _scan_grid(model: LieModel) -> np.ndarray:
    """201 points of [-5, 5] on t, one per row; every further torus axis
    runs at 0.3 times the first."""
    grid = np.linspace(-5.0, 5.0, 201).reshape(-1, 1)
    return np.hstack([grid] + [0.3 * grid] * (model.rank - 1))


def canonical_semi_negativity_certificate(model: LieModel) -> CheckReport:
    """Convexity of the log-density over the scan grid: the curvature of
    the top-degree holomorphic form bundle is semi-negative iff this
    spectrum is nonnegative; tori give the identically flat case."""
    K = make_potential(model, "logeta")
    inner = psh_verdict(K, _scan_grid(model))
    return CheckReport.from_error(
        "psh.canonical_semi_negativity",
        "log of the fiber density is convex on t (limit value 1/3 at the "
        "origin for each root), so the dual of the top-form bundle has "
        "nonnegative curvature spectrum",
        tolerance=inner.tolerance,
        max_error=inner.max_error,
        **inner.metadata,
    )


def twist_positivity_certificate(
    model: LieModel, a: float, b: float
) -> CheckReport:
    """Strict positivity of the combined potential a|Y|^2 + b log(eta)
    over the scan grid: the curvature form of the twisted bundle is
    positive when this spectrum clears _TWIST_MARGIN."""
    if a <= 0:
        raise ValueError("twist coefficient a must be positive")
    K = make_potential(model, f"combined:{a},{b}")
    inner = psh_verdict(K, _scan_grid(model), margin=_TWIST_MARGIN)
    meta = dict(inner.metadata)
    meta.update({"a": a, "b": b})
    return CheckReport.from_error(
        "psh.twist_positivity",
        "the quadratic prequantum potential plus b times the log-density "
        "stays strictly convex in the curvature-spectrum sense",
        tolerance=1e-15,
        max_error=max(0.0, _TWIST_MARGIN - meta["min_eigenvalue"]),
        **meta,
    )


def _spectra_gap(closed: np.ndarray, oracle: np.ndarray) -> float:
    a = np.sort(closed)
    b = np.sort(oracle)
    scale = max(1e-8, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max() / scale)


def oracle_agreement_certificate(
    model: LieModel, tolerance: float = 1e-4
) -> CheckReport:
    """theta_spectrum against the eigenvalues of theta_matrix_oracle at 17
    points of the last algebra axis, Y in [0.15, 2.5], for each preset; the
    gap is relative to the larger spectrum."""
    ys = np.linspace(0.15, 2.5, 17)
    worst = 0.0
    points = 0
    for preset in _PRESETS:
        K = make_potential(model, preset)
        for yval in ys:
            coords = np.zeros(model.dim)
            coords[-1] = yval
            closed = theta_spectrum(K, coords).all_values()
            oracle = np.linalg.eigvalsh(theta_matrix_oracle(K, coords))
            worst = max(worst, _spectra_gap(closed, oracle))
            points += 1
    return CheckReport.from_error(
        "psh.oracle_agreement",
        "closed-form curvature eigenvalues agree with the "
        "finite-difference hermitian-operator route at every grid "
        "point, for each potential preset",
        tolerance=tolerance,
        max_error=worst,
        grid_points=points,
        presets=list(_PRESETS),
    )


def wall_limit_certificate(
    model: LieModel, tolerance: float = 1e-5
) -> CheckReport:
    """Root eigenvalues at alpha(Y) = 1e-3 against K~''(0) (alpha(Y)
    coth(alpha(Y)) + alpha(Y)), for each preset; tori have no wall and
    read 0."""
    yval = 1e-3
    worst = 0.0
    if not model.is_abelian:
        for preset in _PRESETS:
            K = make_potential(model, preset)
            rep = theta_spectrum(K, np.array([0.0, 0.0, yval]))
            hess0 = float(K.hess(np.array([0.0]))[0, 0])
            for (cov,), val in rep.root_eigenvalues:
                ay = cov * yval
                limit = hess0 * (ay / math.tanh(ay) + ay)
                worst = max(worst, abs(val - limit))
    return CheckReport.from_error(
        "psh.wall_limit",
        "next to a reflection wall the root-direction eigenvalue "
        "matches its continuous limit formula",
        tolerance=tolerance,
        max_error=worst,
        alpha_y=yval,
    )


def spectrum_curve_certificate(model: LieModel) -> CheckReport:
    """The least curvature eigenvalue of the square and logeta potentials
    along the scan grid; the square potential's curve must stay
    nonnegative, and both curves go into the report."""
    curve_pts = _scan_grid(model)
    curves = {}
    for preset in ("square", "logeta"):
        K = make_potential(model, preset)
        vals = []
        for row in curve_pts:
            coords = np.zeros(model.dim)
            coords[-model.rank :] = row
            vals.append(float(theta_spectrum(K, coords).min_eigenvalue))
        curves[preset] = vals
    return CheckReport.from_error(
        "psh.spectrum_curve",
        "the flat potential keeps a nonnegative curvature spectrum "
        "along the scanned slice of the flat directions",
        tolerance=1e-8,
        max_error=max(0.0, -min(curves["square"])),
        spectrum_grid=[float(g) for g in curve_pts[:, 0]],
        spectrum_min=curves,
    )
