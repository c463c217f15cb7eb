"""Desk-scale models of compact connected Lie groups.

The package works with three built-in models, selectable by name:

* ``"u1"``  - the circle, angles mod 2*pi.
* ``"t2"``  - the 2-torus.
* ``"su2"`` - SU(2) with basis e_j = -(i/2) sigma_j in the defining
  representation and inner product <X, Y> = -2 trace(XY).  This makes
  {e_1, e_2, e_3} orthonormal, [e_1, e_2] = e_3 cyclically, picks
  t = span{e_3}, and normalizes the positive root so that alpha(y e_3) = y.

All numeric examples and tolerances in the test suite are pinned to this
normalization.  Everything downstream (densities, transforms, reduction)
consumes a LieModel and stays model-generic where it can.

Points have one representation: algebra elements are coordinate arrays,
(n,) for one element and (N, n) for a stack, and group points are
defining-representation matrices, (k, k) or (N, k, k), with n =
``model.dim`` and k = ``model.defining_rep_dim``.  ``bracket``,
``alg_to_matrix_batch``, ``coords_from_matrix_batch``, ``exp_alg_batch`` and
``adjoint_action_batch`` work on stacks only; a caller with one point passes a one-row stack and
takes row 0, so one point and a row of a stack are computed by the same
code.  Complex stacks multiply through ``matmul_batch``, entry by entry
over the whole stack: ``np.matmul`` makes one BLAS call per k x k matrix.
``adjoint_action_batch`` checks unitarity once for the whole stack
with ``is_unitary_batch``, the one predicate behind ``GroupPoint.is_unitary``
as well: max |m m* - I| <= 1e-10 over every entry of every matrix.
``GroupPoint`` wraps one such matrix only where a single group point is
the natural unit: the result of ``random_group_point`` and the argument of
``unitary_log`` and of the coherent transform's two-sided action.

Types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy 2 loads numpy.random on first use; every suite seeds a Generator,
# so load it with the package rather than inside the first suite run
import numpy.random  # noqa: F401

__all__ = [
    "LieModel",
    "GroupPoint",
    "get_model",
    "bracket",
    "adjoint_action_batch",
    "exp_alg_batch",
    "weyl_group",
    "alg_to_matrix_batch",
    "coords_from_matrix_batch",
    "is_unitary_batch",
    "matmul_batch",
    "unitary_log",
    "random_group_point",
    "random_group_coords",
    "validate_model",
]


@dataclass(frozen=True, eq=False)
class LieModel:
    """A compact group at desk scale.

    The basis {e_k} is orthonormal for the Ad-invariant inner product, so
    its Gram matrix is the identity and no field carries it.  A model is
    checked by ``validate_model`` when it is built.

    Fields
    ------
    name : str
    dim : int
        Dimension n of the Lie algebra.
    structure_constants : (n, n, n) array
        c[i, j, k] with [e_i, e_j] = sum_k c[i, j, k] e_k.
    torus_indices : tuple of int
        0-based indices of the basis vectors spanning t.
    torus_periods : tuple of float
        Period of each torus coordinate: exp(period * e_k) = identity.
    roots : (R, r) array
        The full real root set (closed under negation), one covector per
        row in the orthonormal torus basis, so alpha(Y) = roots[i] @ Y_t;
        no rows on a torus.
    defining_rep_dim : int
        Matrix size of the faithful defining representation.
    generators : tuple of arrays
        Defining-representation images of the basis {e_k}.
    """

    name: str
    dim: int
    structure_constants: np.ndarray
    torus_indices: tuple[int, ...]
    torus_periods: tuple[float, ...]
    roots: np.ndarray
    defining_rep_dim: int
    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        validate_model(self)

    @property
    def rank(self) -> int:
        return len(self.torus_indices)

    @cached_property
    def is_abelian(self) -> bool:
        # computed once per model: structure constants never change
        return not np.any(self.structure_constants)

    @cached_property
    def _generator_rows(self) -> np.ndarray:
        # (n, k*k): row i is the flattened defining-rep image of e_i
        return np.stack([g.reshape(-1) for g in self.generators])

    @cached_property
    def _coord_proj(self) -> np.ndarray:
        # (n, k*k): the least-squares inverse of the generator columns
        return np.linalg.pinv(self._generator_rows.T)

    def positive_roots(self) -> np.ndarray:
        """The (P, r) rows of ``roots`` whose first nonzero coefficient is
        positive."""
        first = np.argmax(self.roots != 0, axis=1)
        return self.roots[self.roots[np.arange(len(first)), first] > 0]


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """A group (or complexified-group) point in the defining representation.

    Unitary matrices are honest group points; merely invertible matrices
    represent points of the complexification and are accepted wherever the
    operation makes sense there.
    """

    model: LieModel
    matrix: np.ndarray

    @property
    def is_unitary(self) -> bool:
        return is_unitary_batch(self.matrix)


UNITARY_TOL = 1e-10


def is_unitary_batch(mats: np.ndarray) -> bool:
    """True when every matrix of a (..., k, k) stack is unitary:
    max |m m* - I| <= UNITARY_TOL over all entries.  An absolute bound on
    every entry, diagonal included, so a 1e-7 drift of an eigenvalue's
    modulus is rejected; NaN entries are rejected too."""
    m = np.asarray(mats)
    resid = matmul_batch(m, np.conj(np.swapaxes(m, -1, -2)))
    resid -= np.eye(m.shape[-1])
    return bool(np.abs(resid).max(initial=0.0) <= UNITARY_TOL)


def matmul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a @ b of two stacks of k x k matrices, (..., k, k)
    each, with the leading axes broadcast as ``np.matmul`` does.

    Each of the k^2 entries is formed over the whole stack at once, as
    the sum of k elementwise products added in order.  ``np.matmul`` on a
    complex stack makes one BLAS call per matrix, which costs more than
    the 2x2 product itself; real stacks are fast under ``@`` already.
    Two lone (k, k) matrices multiply in numpy scalars, which do not fuse
    the complex product's multiply-add as the vectorized loops may, so a
    matrix alone can differ in the last bit from the same matrix as a
    row of a stack; a one-row stack matches the stack."""
    a, b = np.asarray(a), np.asarray(b)
    nd = max(a.ndim, b.ndim)
    # every axis reversed, so at[l, i] is a[..., i, l] and bt[j, l] is
    # b[..., l, j]; the operand with fewer axes is padded first, so that
    # the reversed leading axes still broadcast
    at, bt = (x.reshape((1,) * (nd - x.ndim) + x.shape).T for x in (a, b))
    k = len(at)
    rows = [[at[l, i] for l in range(k)] for i in range(k)]
    cols = [[bt[j, l] for l in range(k)] for j in range(k)]
    out_t = None
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            acc = row[0] * col[0]
            for l in range(1, k):
                acc += row[l] * col[l]
            if out_t is None:
                # an entry's leading axes are reversed, as are out.T's
                out_t = np.empty(acc.shape[::-1] + (k, k), acc.dtype).T
            # stored while it is still in cache
            out_t[j, i] = acc
    return out_t.T


# rows per block of _row_block_max: 2048 su2 rows keep a block's (N, 6, 6)
# stacks near 0.6 MiB each; smaller blocks add per-block call overhead,
# which the small torus stacks feel first
_ROW_BLOCK = 2048


def _row_block_max(fn, *stacks: np.ndarray) -> np.ndarray:
    """The largest value of ``fn`` over fixed blocks of rows.

    ``fn`` takes the same rows of every (N, ...) stack and returns a value
    or a tuple of values, each a maximum over those rows; the result is
    the maximum of each over the blocks, NaN if any block reads NaN, so it
    is the maximum over all N rows as long as every row is computed on its
    own.  An empty stack is one empty block, so it reads as ``fn`` does.
    Only one block's temporaries are held at a time."""
    count = len(stacks[0])
    return np.max([fn(*(s[lo:lo + _ROW_BLOCK] for s in stacks))
                   for lo in range(0, max(count, 1), _ROW_BLOCK)], axis=0)


# ---------------------------------------------------------------------------
# built-in models


def _su2_generators() -> tuple[np.ndarray, ...]:
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return tuple(-0.5j * s for s in (s1, s2, s3))


def _build_torus(name: str, rank: int) -> LieModel:
    gens = []
    for k in range(rank):
        g = np.zeros((rank, rank), dtype=complex)
        g[k, k] = 1j
        gens.append(g)
    return LieModel(
        name=name,
        dim=rank,
        structure_constants=np.zeros((rank, rank, rank)),
        torus_indices=tuple(range(rank)),
        torus_periods=(2.0 * math.pi,) * rank,
        roots=np.zeros((0, rank)),
        defining_rep_dim=rank,
        generators=tuple(gens),
    )


def _build_su2() -> LieModel:
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    gens = _su2_generators()
    # With this basis, t = exp(tau e_3) = diag(e^{-i tau/2}, e^{i tau/2}):
    # the torus coordinate has period 4*pi, and exp(2*pi e_3) = -identity.
    return LieModel(
        name="su2",
        dim=3,
        structure_constants=c,
        torus_indices=(2,),
        torus_periods=(4.0 * math.pi,),
        roots=np.array([[1.0], [-1.0]]),
        defining_rep_dim=2,
        generators=gens,
    )


# the built-in models by name, each built on first use
_BUILDERS = {"u1": lambda: _build_torus("u1", 1),
             "t2": lambda: _build_torus("t2", 2), "su2": _build_su2}
_MODELS = {}


def get_model(name: str) -> LieModel:
    """Return a built-in model by name: "u1", "t2", or "su2"."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown model {name!r}; try {', '.join(_BUILDERS)}")
    if name not in _MODELS:
        _MODELS[name] = _BUILDERS[name]()
    return _MODELS[name]


def validate_model(model: LieModel) -> None:
    """Check the structural invariants; raise on violation.

    Antisymmetry, the Jacobi identity, ad-invariance of the inner product,
    commuting torus basis, the generator bracket table and, for
    ``kahler_geom``, ad(Y)^3 = (1/2) trace(ad(Y)^2) ad(Y) must all hold to
    1e-12.
    """
    c = model.structure_constants
    if np.abs(c + np.swapaxes(c, 0, 1)).max() > 1e-12:
        raise ValueError(f"{model.name}: structure constants not antisymmetric")
    # Jacobi: sum over cyclic permutations of [[e_i, e_j], e_k] vanishes.
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    if np.abs(jac).max() > 1e-12:
        raise ValueError(f"{model.name}: Jacobi identity fails")
    # ad-invariance of the (identity) inner product: total antisymmetry.
    if np.abs(c + np.swapaxes(c, 1, 2)).max() > 1e-12:
        raise ValueError(f"{model.name}: inner product is not ad-invariant")
    torus = list(model.torus_indices)
    if np.abs(c[np.ix_(torus, torus)]).max(initial=0.0) > 1e-12:
        raise ValueError(f"{model.name}: torus basis does not commute")
    # [g_i, g_j] against sum_k c[i, j, k] g_k, for every pair at once
    gens = np.array(model.generators)
    lhs = gens[:, None] @ gens[None] - gens[None] @ gens[:, None]
    if not np.allclose(lhs, np.einsum("ijk,kab->ijab", c, gens), atol=1e-12):
        raise ValueError(
            f"{model.name}: generators do not satisfy the bracket table")
    # ad(Y)^3 + theta^2 ad(Y) is cubic in Y: it vanishes for every Y iff
    # its coefficient tensor, symmetrized over i, j, k, does
    ad = np.swapaxes(c, 1, 2)  # ad[i] is the matrix of ad(e_i)
    cubic = (np.einsum("iab,jbc,kcd->ijkad", ad, ad, ad)
             - 0.5 * np.einsum("iab,jba,kcd->ijkcd", ad, ad, ad))
    if np.abs(sum(cubic.transpose(p + (3, 4))
                  for p in itertools.permutations(range(3)))).max() > 1e-12:
        raise ValueError(f"{model.name}: ad(Y)^3 = -theta^2 ad(Y) fails")


# ---------------------------------------------------------------------------
# operations


def bracket(model: LieModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lie brackets [x, y] row by row of two (N, n) coordinate stacks, by
    structure-constant contraction; returns (N, n)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != model.dim:
        raise ValueError(f"bracket on {model.name} takes two equal (N, "
                         f"{model.dim}) coordinate stacks")
    return np.einsum("mi,mj,ijk->mk", x, y, model.structure_constants)


def alg_to_matrix_batch(model: LieModel, coords: np.ndarray) -> np.ndarray:
    """Defining-representation images of a stack of (N, n) algebra
    coordinates, as an (N, k, k) array."""
    coords = np.asarray(coords)
    k = model.defining_rep_dim
    return (coords @ model._generator_rows).reshape(-1, k, k)


def coords_from_matrix_batch(model: LieModel, mats: np.ndarray) -> np.ndarray:
    """Coordinates of a stack of (N, k, k) defining-rep algebra matrices
    (least-squares projection), as an (N, n) array."""
    mats = np.asarray(mats)
    flat = mats.reshape(mats.shape[0], -1, 1)
    # one matrix-vector product per row, the same product for any N
    return np.real(np.matmul(model._coord_proj, flat)[:, :, 0])


def adjoint_action_batch(model: LieModel, g_mats: np.ndarray,
                         ys: np.ndarray) -> np.ndarray:
    """Ad_g Y row by row, for (N, k, k) group matrices and (N, n) algebra
    coordinates; returns (N, n).  Raises unless every g is unitary."""
    g_mats = np.asarray(g_mats)
    ys = np.asarray(ys, float)
    if not is_unitary_batch(g_mats):
        raise ValueError("adjoint_action requires unitary group points")
    if model.is_abelian:
        return ys.copy()
    m = matmul_batch(matmul_batch(g_mats, alg_to_matrix_batch(model, ys)),
                     np.conj(np.swapaxes(g_mats, -1, -2)))
    return coords_from_matrix_batch(model, m)


def _exp_matrices(model: LieModel, mats: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (N, k, k) stack of complex combinations
    sum_k z_k e_k of the generators: diagonal on tori, traceless 2x2 on
    su2."""
    if model.is_abelian:
        out = np.zeros_like(mats)
        diag = np.arange(mats.shape[-1])
        out[:, diag, diag] = np.exp(mats[:, diag, diag])
        return out
    # su2 combinations are traceless 2x2, so the closed form
    # mat^2 = -det(mat) * identity applies.  The determinant is formed in
    # separate real operations: a fused multiply-add, as vectorized complex
    # loops may use, leaves an imaginary part of about 1e-17 on the real
    # determinant of an su(2) image and breaks the exact [[a, -b*], [b, a*]]
    # form of its exponential.
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    det = np.empty(mats.shape[0], dtype=complex)
    det.real = ((a.real * d.real - a.imag * d.imag)
                - (b.real * c.real - b.imag * c.imag))
    det.imag = ((a.real * d.imag + a.imag * d.real)
                - (b.real * c.imag + b.imag * c.real))
    z = np.sqrt(-det)
    small = np.abs(z) < 1e-30
    ratio = np.sinh(z) / np.where(small, 1.0, z)
    ratio[small] = 1.0  # the removable singularity of sinh(z)/z
    out = ratio[:, None, None] * mats
    cosh = np.cosh(z)
    out[:, 0, 0] += cosh
    out[:, 1, 1] += cosh
    return out


def exp_alg_batch(model: LieModel, ys: np.ndarray,
                  complex_parts: np.ndarray | None = None) -> np.ndarray:
    """The polar-form exponential exp(Y) * exp(i * C) row by row, for
    (N, n) coordinates Y and optional (N, n) coordinates C; returns
    (N, k, k) matrices.  A zero row of C contributes the identity."""
    u = _exp_matrices(model, alg_to_matrix_batch(model, ys))
    if complex_parts is None or not np.any(complex_parts):
        return u
    return matmul_batch(
        u, _exp_matrices(model, 1j * alg_to_matrix_batch(model, complex_parts)))


def unitary_log(g: GroupPoint) -> np.ndarray:
    """Coordinates of a logarithm of a unitary group point.

    Torus models read angles off the diagonal (wrapped to (-pi, pi]).  For
    su(2) the branch is chosen traceless, so the center element -identity
    maps to a vector of norm 2*pi rather than escaping the algebra.
    """
    model = g.model
    if not g.is_unitary:
        raise ValueError("unitary_log requires a unitary group point")
    if model.is_abelian:
        ang = np.angle(np.diag(g.matrix))
        coords = np.zeros(model.dim)
        for idx, a in zip(model.torus_indices, ang):
            coords[idx] = a
        return coords
    vals, vecs = np.linalg.eig(g.matrix)
    phi = float(np.angle(vals[0]))
    if abs(vals[0] - vals[1]) < 1e-12:
        mat = np.diag([1j * phi, -1j * phi]).astype(complex)
    else:
        q, _ = np.linalg.qr(vecs)
        # QR may flip eigenvector phases; re-derive each eigenvalue.
        lam = np.diag(q.conj().T @ g.matrix @ q)
        phi = float(np.angle(lam[0]))
        mat = q @ np.diag([1j * phi, -1j * phi]) @ q.conj().T
    return coords_from_matrix_batch(model, mat[None])[0]


def weyl_group(model: LieModel) -> np.ndarray:
    """The Weyl group as a (|W|, r, r) stack of orthogonal matrices on t:
    the identity, then the reflection in the positive root when there is
    one.

    ``validate_model``'s ad(Y)^3 = -theta^2 ad(Y) admits at most one
    positive root, and one reflection generates a group of two.  A model
    with more positive roots is refused rather than closed under
    composition."""
    roots = model.positive_roots()
    if len(roots) > 1:
        raise ValueError(f"{model.name}: {len(roots)} positive roots; the "
                         "Weyl group is built for at most one")
    eye = np.eye(model.rank)
    return np.stack([eye] + [eye - 2.0 * np.outer(a, a) / float(a @ a)
                             for a in roots])


# ---------------------------------------------------------------------------
# sampling helpers shared by the test suites


def random_group_coords(model: LieModel, rng: np.random.Generator,
                        count: int) -> np.ndarray:
    """One (count, n) block of algebra coordinates whose exponentials are
    random group points: uniform angles in [0, 2 pi) on the torus axes of
    a torus (zero elsewhere), 2 * standard normal otherwise."""
    if not model.is_abelian:
        return 2.0 * rng.standard_normal((count, model.dim))
    coords = np.zeros((count, model.dim))
    coords[:, list(model.torus_indices)] = (
        2.0 * math.pi * rng.random((count, model.rank)))
    return coords


def random_group_point(model: LieModel, rng: np.random.Generator) -> GroupPoint:
    """The exponential of a one-row ``random_group_coords`` block."""
    coords = random_group_coords(model, rng, 1)
    return GroupPoint(model, exp_alg_batch(model, coords)[0])
