"""The standard Kahler structure on G x g, presented in the left-trivialized
frame.

Conventions, fixed once and used by every routine here:

* A point is a pair (x, Y) with x in the group and Y in the algebra; the
  polar map sends it to x * exp(iY) in the complexification.
* Every matrix here acts on 2n-vectors (X1, X2) in the frame
  {(e_k, 0), (0, e_k)}: X1 holds the left-trivialized group directions,
  X2 the flat algebra directions.
* The tautological 1-form is theta(X1, X2) = <Y, X1>; its exterior
  derivative is the symplectic form
      omega((X1,X2),(Z1,Z2)) = <X2,Z1> - <X1,Z2> - <Y,[X1,Z1]>.
* The polar-map differential acts blockwise through analytic functions of
  A = ad(Y); the complex structure is its pullback of the flat structure
  (X1, X2) -> (-X2, X1), and the metric is g(v, w) = omega(Jv, w), the
  matrix J^T Omega.

Every model satisfies A^3 = -theta^2 A, theta^2 = -trace(A^2)/2
(``validate_model`` refuses any other), so i A has eigenvalues 0 and
+/- theta and every analytic function of A is a I + b A + c A^2, with
coefficients in theta that keep every digit as theta -> 0 and overflow
with sinh(theta), near theta = 710.  On a torus A = 0 and the same code
gives the flat blocks.

Every (N, 2n, 2n) stack, dphi, J and Omega, is a 2 x 2 table of such
blocks, which one writer fills.  The 10,000-sample certificates draw their
whole (N, n) coordinate stack first, in stream order, and then evaluate
J, the metric and its solve over fixed blocks of rows
(``lie_core._row_block_max``), keeping a running maximum of the error.
Each certificate allocates its (rows, 2n, 2n) buffers once, rows read
from ``lie_core._ROW_BLOCK`` when it is called, and every block writes J,
J^2, Omega and the metric into them; every row is computed on its own,
so the maxima are the whole stack's bit for bit and no (N, 2n, 2n) stack
of all N rows is held.
"""

from __future__ import annotations

import numpy as np

from quantlab import lie_core
from quantlab.density_weights import _sinh_remainder, sinhc
from quantlab.lie_core import (
    LieModel,
    _exp_matrices,
    _row_block_max,
    coords_from_matrix_batch,
    exp_alg_batch,
    matmul_batch,
)
from quantlab.report import CheckReport

__all__ = [
    "omega_batch",
    "dphi_batch",
    "complex_structure_batch",
    "j_squared_certificate",
    "omega_potential_certificate",
    "completeness_certificate",
    "polar_differential_certificate",
]

# the central-difference steps of _complex_hessian, _dphi_fd_oracle_batch
_HESSIAN_STEP, _FD_STEP = 1e-3, 1e-6


# ---------------------------------------------------------------------------
# the polar-map differential and everything built on it


def _ad_powers(model: LieModel, ys: np.ndarray):
    """A = ad(Y), A @ A and theta, (N, 1, 1), for the rows of ys.  A[m, k, j]
    = sum_i ys[m, i] c[i, j, k] is -(ys @ c)[m, k, j], c read as (n, n^2):
    validate_model refuses structure constants not totally antisymmetric."""
    ys = np.atleast_2d(np.asarray(ys, float))
    n = model.dim
    ad = -(ys @ model.structure_constants.reshape(n, n * n)).reshape(-1, n, n)
    ad2 = ad @ ad
    theta = np.sqrt(-0.5 * np.trace(ad2, axis1=1, axis2=2))
    return ad, ad2, theta[:, None, None]


def _blocks(ad, ad2, table, out=None):
    """The (N, 2n, 2n) stack whose block (i, j) is a I + b A + c A^2 for
    (a, b, c) = table[i][j] (None: no such term), formed whole and copied
    once into its quadrant of ``out`` (C-contiguous) or of a new array."""
    count, n, _ = ad.shape
    if out is None:
        out = np.empty((count, 2 * n, 2 * n))
    quads = out.reshape(count, 2, n, 2, n)
    eye = np.eye(n)
    for i, row in enumerate(table):
        for j, (a, b, c) in enumerate(row):
            terms = [k * p for k, p in ((b, ad), (c, ad2)) if k is not None]
            # a I with a = 0 is left out: it would turn -0.0 into 0.0
            if a or not terms:
                terms.append(a * eye)
            quads[:, i, :, j] = sum(terms[1:], terms[0])
    return out


def _omega(ad, out=None):
    """Omega, [[-B, -I], [I, 0]] with B[i,j] = <Y, [e_i, e_j]>, as
    [[A, -I], [I, 0]]: validate_model refuses structure constants that are
    not totally antisymmetric, so -B is A."""
    return _blocks(ad, None, (((0, 1, None), (-1, None, None)),
                              ((1, None, None), (0, None, None))), out)


def omega_batch(model: LieModel, ys: np.ndarray) -> np.ndarray:
    """Matrices of omega, batched over the rows of the (N, n) array ys."""
    return _omega(_ad_powers(model, ys)[0])


def _block_values(theta: np.ndarray):
    """(c_cos, b_onemcos, b_msin, c_sinc) with cos A = I + c_cos A^2,
    (1 - cos A)/A = b_onemcos A, -sin A = b_msin A and
    sin A / A = I + c_sinc A^2: -2 sinh(theta/2)^2/theta^2, its negative,
    -sinh(theta)/theta and -(sinh(theta) - theta)/theta^3."""
    half_sq = 0.5 * sinhc(theta / 2.0) ** 2
    return -half_sq, half_sq, -sinhc(theta), -_sinh_remainder(theta)


def _j_block_values(theta: np.ndarray):
    """(b_ul, c_ur, c_ll) with J = [[b_ul A, -I + c_ur A^2],
    [I + c_ll A^2, -b_ul A]], the blockwise inverse of dphi applied to
    J_flat dphi: J = [[tan(A/2), -2 tan(A/2)/A], [A/sin A, -tan(A/2)]].
    With h = theta/2, b_ul = tanh(h)/theta, and the cancelling
    c_ur = (tanh(h)/h - 1)/theta^2 and c_ll = (1 - theta/sinh theta)/theta^2
    are taken through (sinh x - x)/x^3."""
    half = theta / 2.0
    cosh_half = np.cosh(half)
    b_ul = 0.5 * sinhc(half) / cosh_half
    c_ur = (_sinh_remainder(half) - 0.5 * sinhc(half / 2.0) ** 2) / (
        4.0 * cosh_half)
    return b_ul, c_ur, _sinh_remainder(theta) / sinhc(theta)


def dphi_batch(model: LieModel, ys: np.ndarray) -> np.ndarray:
    """Differentials of the polar map at (anything, Y), batched over Y.

    Returns (N, 2n, 2n) real matrices with block layout
    [[cos A, (1-cos A)/A], [-sin A, sin A / A]], A = ad(Y).
    """
    ad, ad2, theta = _ad_powers(model, ys)
    c_cos, b_onemcos, b_msin, c_sinc = _block_values(theta)
    return _blocks(ad, ad2, (((1, None, c_cos), (0, b_onemcos, None)),
                             ((0, b_msin, None), (1, None, c_sinc))))


def _complex_structure(ad, ad2, theta, out=None):
    """J from ``_ad_powers``' A, A @ A and theta, into ``out`` if given."""
    b_ul, c_ur, c_ll = _j_block_values(theta)
    # -(b_ul A) is (-b_ul) A exactly
    return _blocks(ad, ad2, (((0, b_ul, None), (-1, None, c_ur)),
                             ((1, None, c_ll), (0, -b_ul, None))), out)


def complex_structure_batch(model: LieModel, ys: np.ndarray) -> np.ndarray:
    """J = (TPhi)^{-1} J_flat (TPhi), batched over Y, in closed form."""
    return _complex_structure(*_ad_powers(model, ys))


def _row_buffers(count: int, samples: int, n: int) -> list[np.ndarray]:
    """``count`` empty (rows, 2n, 2n) stacks that every row block of a
    ``samples``-row certificate writes into, rows the smaller of samples
    and ``lie_core._ROW_BLOCK``."""
    rows = min(samples, lie_core._ROW_BLOCK)
    return [np.empty((rows, 2 * n, 2 * n)) for _ in range(count)]


def j_squared_certificate(model: LieModel, rng: np.random.Generator,
                          seed: int, samples: int = 10_000) -> CheckReport:
    """J^2 = -identity for the pulled-back complex structure at Y drawn as
    1.5 times a standard normal vector, in one draw of (samples, n) from
    ``rng``, with J and J^2 formed one block of rows at a time; ``seed``
    is the seed ``rng`` was made from, recorded in the report."""
    ys = rng.standard_normal((samples, model.dim)) * 1.5
    eye = np.eye(2 * model.dim)
    j_buf, sq_buf = _row_buffers(2, samples, model.dim)

    def worst(ys):
        js = _complex_structure(*_ad_powers(model, ys), out=j_buf[:len(ys)])
        sq = np.matmul(js, js, out=sq_buf[:len(ys)])
        sq += eye
        return np.abs(sq, out=sq).max()

    return CheckReport.from_error(
        "kahler.j_squared",
        "the pulled-back complex structure squares to -identity at "
        "every base point",
        tolerance=1e-10,
        max_error=float(_row_block_max(worst, ys)),
        samples=samples,
        seed=seed,
    )


def _complex_hessian(fun, n):
    """d^2 fun / dz_k dzbar_l at z = 0 by central differences of step
    ``_HESSIAN_STEP``, combined as (f_xx + f_yy + i (f_xy - f_yx)) / 4 from
    the real 2n x 2n Hessian over (x, y): a 3-point stencil on its
    diagonal, a 4-point one elsewhere.  ``fun`` maps an (N, n) stack of
    chart points to N values: every stencil point of every entry, in
    row-major order, is evaluated in that one call."""
    h, dim = _HESSIAN_STEP, 2 * n
    points = [(a, b, step) for a in range(dim) for b in range(dim)
              for step in (((1, 0), (0, 0), (-1, 0)) if a == b
                           else ((1, 1), (1, -1), (-1, 1), (-1, -1)))]
    us = np.zeros((len(points), dim))
    for u, (a, b, (s_a, s_b)) in zip(us, points):
        u[a] += s_a * h
        u[b] += s_b * h
    # Python reads the operands left to right, which is stencil order
    f = iter(fun(us[:, :n] + 1j * us[:, n:]).tolist())
    hess = np.array([
        (next(f) - 2 * next(f) + next(f)) / (h * h) if a == b
        else (next(f) - next(f) - next(f) + next(f)) / (4 * h * h)
        for a in range(dim) for b in range(dim)])
    (xx, xy), (yx, yy) = hess.reshape(2, n, 2, n).swapaxes(1, 2)
    return 0.25 * (xx + yy + 1j * (xy - yx))


def _omega_potential_error(model: LieModel, y_coords) -> float:
    """Worst entry of omega minus -i(dd-bar of |Y|^2) at (1, Y), with the
    complex Hessian taken by finite differences in the holomorphic chart
    z -> exp(iY) exp(z) and transported through the polar differential."""
    n = model.dim
    y = np.asarray(y_coords, float)
    center = exp_alg_batch(model, np.zeros((1, n)), y[None])[0]

    def chart_values(zs):
        # |Y|^2 at g = center @ exp(z) for each row z, Y = log(g^H g) / 2i
        zmats = sum(zs[:, k, None, None] * model.generators[k]
                    for k in range(n))
        gmats = center @ _exp_matrices(model, zmats)
        w, vec = np.linalg.eigh(np.conj(np.swapaxes(gmats, 1, 2)) @ gmats)
        logs = ((vec * np.log(w)[:, None, :])
                @ np.conj(np.swapaxes(vec, 1, 2)))
        coords = coords_from_matrix_batch(model, -0.5j * logs)
        # one dot per row: a stacked einsum rounds the sum differently
        return np.array([np.dot(c, c) for c in coords])

    hess = _complex_hessian(chart_values, n)
    dphi = dphi_batch(model, y[None])[0]
    om = omega_batch(model, y)[0]
    za = dphi[:n, :] + 1j * dphi[n:, :]
    rhs = -1j * (za.T @ hess @ np.conj(za) - (za.T @ hess @ np.conj(za)).T)
    return float(np.maximum(np.abs(om - np.real(rhs)).max(),
                            np.abs(np.imag(rhs)).max()))


def omega_potential_certificate(model: LieModel) -> CheckReport:
    """omega = -i dd-bar |Y|^2 at two fixed chart points."""
    if model.is_abelian:
        pts = [0.5 * np.ones(model.dim), -0.3 * np.ones(model.dim)]
    else:
        pts = [np.array([0.1, -0.2, 0.5]), np.array([0.0, 0.0, 1.1])]
    return CheckReport.from_error(
        "kahler.omega_potential",
        "the symplectic form equals the complex Hessian of |Y|^2 "
        "transported through the polar chart",
        tolerance=1e-5,
        max_error=np.max([_omega_potential_error(model, y) for y in pts]),
        chart_points=len(pts),
    )


def completeness_certificate(
    model: LieModel, sample_count: int = 10_000, seed: int = 0
) -> CheckReport:
    """Bounded differential of f = log(1 + |Y|^2), the witness for geodesic
    completeness.

    Two routes to |df|^2_g at each sample: (i) raise the index with the
    metric Gram matrix and contract, (ii) the closed form
    4 |Y|^2 / (1 + |Y|^2)^2.  Both must agree to 1e-6 and stay below the
    global bound 4 (+1e-9 slack); the report folds any bound violation
    into max_error.  The samples are drawn as one (sample_count, n) stack
    and the metric is built and solved one block of rows at a time.
    """
    rng = np.random.default_rng(seed)
    n = model.dim
    ys = rng.standard_normal((sample_count, n)) * rng.uniform(
        0.1, 3.0, size=(sample_count, 1)
    )
    j_buf, om_buf, gram_buf = _row_buffers(3, sample_count, n)

    def worst(ys):
        # (agreement, largest via_metric, largest closed) over these rows
        norms_sq = np.sum(ys**2, axis=1)
        # df = (0, 2 Y / (1 + |Y|^2)) on the dual of the 2n-vector frame.
        cov = np.zeros((len(ys), 2 * n))
        cov[:, n:] = 2.0 * ys / (1.0 + norms_sq)[:, None]
        # the metric g(v, w) = omega(Jv, w) as J^T Omega, in the buffers
        m = len(ys)
        ad, ad2, theta = _ad_powers(model, ys)
        js = _complex_structure(ad, ad2, theta, out=j_buf[:m])
        oms = _omega(ad, out=om_buf[:m])
        grams = np.matmul(np.swapaxes(js, 1, 2), oms, out=gram_buf[:m])
        sharped = np.linalg.solve(grams, cov[:, :, None])[:, :, 0]
        via_metric = np.einsum("mi,mi->m", cov, sharped)
        closed = 4.0 * norms_sq / (1.0 + norms_sq) ** 2
        return (np.abs(via_metric - closed).max(), via_metric.max(),
                closed.max())

    agreement, via_max, closed_max = _row_block_max(worst, ys)
    agreement = float(agreement)
    sup_val = float(max(via_max, closed_max))
    bound_excess = max(0.0, sup_val - 4.0 - 1e-9)
    return CheckReport.from_error(
        "kahler.completeness",
        "the squared metric norm of d log(1 + |Y|^2) equals "
        "4|Y|^2/(1+|Y|^2)^2 and never exceeds 4, so the metric is complete",
        tolerance=1e-6,
        max_error=max(agreement, bound_excess),
        samples=sample_count,
        sup_norm_sq=sup_val,
        agreement=agreement,
        seed=seed,
    )


def _dphi_fd_oracle_batch(model: LieModel, ys: np.ndarray) -> np.ndarray:
    """Central-difference polar differentials, of step ``_FD_STEP``, at
    each row of the (N, n) array ys, as (N, 2n, 2n) matrices: column k is
    the left-trivialized velocity of s -> exp(s E1) exp(i (Y + s E2)) in
    the defining representation, with (E1, E2) the k-th vector of the
    frame {(e_k, 0), (0, e_k)}."""
    count, n = ys.shape
    k = model.defining_rep_dim
    frame = np.eye(2 * n)
    e1, e2 = frame[:, :n], frame[:, n:]
    zeros = np.zeros((count * 2 * n, n))
    base_inv = np.linalg.inv(exp_alg_batch(model, zeros[:count], ys))

    def shifted(s: float) -> np.ndarray:
        # the 2n group factors are shared by every row of ys
        xs = exp_alg_batch(model, s * e1)
        ps = exp_alg_batch(model, zeros,
                           (ys[:, None, :] + s * e2).reshape(-1, n))
        return matmul_batch(xs, ps.reshape(count, 2 * n, k, k))

    h = _FD_STEP
    m = matmul_batch(base_inv[:, None], shifted(h) - shifted(-h)) / (2 * h)
    mh = np.conj(np.swapaxes(m, -1, -2))
    cols = np.concatenate(
        [
            coords_from_matrix_batch(model, ((m - mh) / 2.0).reshape(-1, k, k)),
            coords_from_matrix_batch(model, ((m + mh) / 2j).reshape(-1, k, k)),
        ],
        axis=1,
    )
    return np.swapaxes(cols.reshape(count, 2 * n, 2 * n), 1, 2)


def polar_differential_certificate(
    model: LieModel, rng: np.random.Generator, seed: int, samples: int = 1000,
) -> CheckReport:
    """The closed-form differential of the polar map against central
    finite differences of x exp(iY) in the defining representation.

    Sample Y = (standard normal vector) * uniform(0.1, 2.0), drawn from
    ``rng`` one sample after another; ``seed`` is the seed ``rng`` was
    made from, recorded in the report.
    """
    ys = np.array([
        rng.standard_normal(model.dim) * rng.uniform(0.1, 2.0)
        for _ in range(samples)
    ]).reshape(samples, model.dim)
    err = np.abs(dphi_batch(model, ys) - _dphi_fd_oracle_batch(model, ys))
    return CheckReport.from_error(
        "kahler.polar_differential",
        "the closed-form differential of (x, Y) -> x exp(iY) matches "
        "central finite differences in the defining representation",
        tolerance=1e-6,
        max_error=float(err.max(initial=0.0)),
        samples=samples,
        seed=seed,
    )
