"""Dense complex linear algebra primitives shared by the whole package.

Everything operates on plain numpy arrays.  Rank and kernel decisions are
relative to the largest singular value (scale free), and so is the
Hermiticity test of :func:`hermitian_eig`; other residual decisions are
absolute and assume the caller normalized its inputs.  Both cutoffs live in a
single :class:`Tolerance` record that the higher-level modules thread through
unchanged, so that verdicts are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, TooManyVectors

REAL = "real"
COMPLEX = "complex"

__all__ = [
    "REAL",
    "COMPLEX",
    "Tolerance",
    "DEFAULT_TOL",
    "ZERO_POLY",
    "as_matrix",
    "numerical_rank",
    "kernel_basis",
    "smallest_singular_value",
    "hermitian_eig",
    "trim_polynomial",
    "poly_roots",
    "psd_sqrt",
    "psd_inv_sqrt",
]


@dataclass(frozen=True)
class Tolerance:
    """Shared tolerance policy.

    rank_rel
        Relative singular-value cutoff for rank and kernel decisions.
    residual_abs
        Absolute cutoff for residual tests on normalized inputs.
    root_cluster
        Matching radius when clustering or comparing polynomial roots.
    """

    rank_rel: float = 1e-10
    residual_abs: float = 1e-8
    root_cluster: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie in (0, 1)")
        if self.residual_abs <= 0.0 or self.root_cluster <= 0.0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


class _ZeroPoly:
    """Sentinel for the identically-zero polynomial (every point is a root)."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO_POLY"


ZERO_POLY = _ZeroPoly()


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _svdvals(M: np.ndarray) -> np.ndarray:
    if M.size == 0:
        return np.zeros(0)
    return np.linalg.svd(M, compute_uv=False)


def _rank(s: np.ndarray, tol: Tolerance) -> int:
    """The rank rule on descending singular values: the count above ``rank_rel`` times the largest."""
    return int(np.count_nonzero(s > tol.rank_rel * s[:1]))


def numerical_rank(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel`` times the largest one.

    The zero matrix (and the empty matrix) has rank 0.
    """
    return _rank(_svdvals(as_matrix(M)), tol)


def _polar_factor(B: np.ndarray, tol: Tolerance, real: bool = False, error=np.linalg.LinAlgError) -> np.ndarray:
    """``U W*`` of the thin SVD ``B = U S W*`` (of ``B.real`` with ``real``), as a complex array.

    Its columns are orthonormal, and at full column rank it is the polar factor
    ``B (B* B)^(-1/2)`` (Higham, SIAM J. Sci. Stat. Comput. 1986): no inverse
    square root is formed.  Raises ``error`` when the rank of ``B``, by the
    rule of :func:`numerical_rank`, is below its column count; ``error=None``
    skips that test.
    """
    u, s, wh = np.linalg.svd(B.real if real else B, full_matrices=False)
    if error is not None and (rank := _rank(s, tol)) < B.shape[1]:
        raise error(f"the rows span {rank} of {B.shape[1]} dimensions")
    return (u @ wh).astype(complex)


def kernel_basis(M, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of ``M``.

    Returns the right singular vectors whose singular value is at most
    ``rank_rel`` times the largest one (all of them for the zero matrix);
    an empty list when ``M`` has full column rank.
    """
    A = as_matrix(M)
    rows, cols = A.shape
    if cols == 0:
        return []
    if rows == 0:
        return [np.eye(cols, dtype=complex)[:, k] for k in range(cols)]
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    smax = s[0] if s.size else 0.0
    cutoff = tol.rank_rel * smax
    basis = [vh[k].conj() for k in range(cols) if k >= s.size or s[k] <= cutoff]
    return basis


# _failing_bipartition enumerates 2^(N-1) bipartitions; hard cap on N.
_MAX_BIPARTITION_VECTORS = 24
# Masks per chunk in _failing_bipartition.  A fixed chunk keeps the
# masked arrays small up to the cap and lets a family that fails in its first
# masks stop early: chunks of 1,024 masks made such frames of 9-15 vectors
# 2.5-14x slower, and frames that hold gained under 10% from them.
_BIPARTITION_CHUNK = 64
# A side's Gram matrix G has det(G) / tr(G)^n <= (sigma_n / sigma_1)^2, so past
# this bound the side spans by a margin of 1e-6 that rounding in G and det,
# of order N eps relative, cannot close; only the other sides take the SVD.
_CLEAR_SPAN = 1e-12


def _failing_bipartition(V: np.ndarray, tol: Tolerance):
    """First bipartition of the rows of ``V`` (by mask order) where neither side spans, or None.

    None means the rows have the complement property.  Mask ``m`` puts row 0
    and every row ``j >= 1`` with bit ``j - 1`` of ``m`` set on one side, the
    rest on the other; the result is the pair ``(side, comp)`` of ascending
    index lists.  A side spans when its n-th singular value exceeds
    ``rank_rel`` times its largest, the rule of :func:`numerical_rank`.  The
    masks are taken ``_BIPARTITION_CHUNK`` at a time: the Gram matrices of a
    chunk's sides and complements come from one product of the masks with
    the rows' outer products, and one stacked determinant of them clears most
    sides (see ``_CLEAR_SPAN``); the rest, as masked copies of ``V``, go
    through one stacked values-only SVD.  A side of fewer than n rows never
    spans and is left out of both, and the chunk ends at its first mask with
    two such sides.  More than ``_MAX_BIPARTITION_VECTORS`` rows raise
    :class:`TooManyVectors`.
    """
    N, n = V.shape
    if N > _MAX_BIPARTITION_VECTORS:
        raise TooManyVectors(f"{N} vectors exceed the bipartition cap {_MAX_BIPARTITION_VECTORS}")
    # Each row's term of the Gram matrix of a side, flattened, for rows scaled by
    # their largest entry: a side's Gram matrix is one product.
    W = V / np.abs(V).max()
    gram = (W.conj()[:, :, None] * W[:, None, :]).reshape(N, n * n)
    bits = np.zeros(N, dtype=np.int64)
    bits[1:] = 1 << np.arange(N - 1)
    flip = np.array([[False], [True]])
    total = 2 ** (N - 1)
    for start in range(0, total, _BIPARTITION_CHUNK):
        masks = np.arange(start, min(start + _BIPARTITION_CHUNK, total))
        side = (masks[:, None] & bits) != 0
        side[:, 0] = True
        # rows[b] holds mask b's side and complement as (2, N) selectors.
        rows = side[:, None, :] ^ flip
        wide = rows.sum(axis=2) >= n
        # A mask with two narrow sides fails: no later mask needs a decision.
        narrow = np.flatnonzero(~wide.any(axis=1))
        if narrow.size:
            rows, wide = rows[: narrow[0] + 1], wide[: narrow[0] + 1]
        spans = np.zeros(wide.shape, dtype=bool)
        if wide.any():
            sel = rows[wide]
            G = (sel @ gram).reshape(-1, n, n)
            clear = np.linalg.det(G).real > _CLEAR_SPAN * np.trace(G, axis1=1, axis2=2).real ** n
            if not clear.all():
                s = np.linalg.svd(sel[~clear][:, :, None] * V, compute_uv=False)
                clear[~clear] = s[:, n - 1] > tol.rank_rel * s[:, 0]
            spans[wide] = clear
        failing = np.flatnonzero(~spans.any(axis=1))
        if failing.size:
            side, comp = rows[failing[0]]
            return np.flatnonzero(side).tolist(), np.flatnonzero(comp).tolist()
    return None


def _equal_image_pair(V: np.ndarray, side, comp, tol: Tolerance):
    """``(u + v, u - v)`` for the first kernel vectors ``u`` of the rows ``V[side]`` and ``v`` of ``V[comp]``.

    Every row ``f`` has ``<f, u> = 0`` or ``<f, v> = 0``, so the two vectors
    have equal phaseless measurements ``|<f, u + v>| = |<f, u - v>|``.  With
    ``comp`` empty the pair is ``(u, 2u)``, which every row measures as 0.
    Complex arrays, real-valued for a real ``V``.
    """
    u = kernel_basis(V[side].conj(), tol)[0]
    if len(comp):
        v = kernel_basis(V[comp].conj(), tol)[0]
        x, y = u + v, u - v
    else:
        x, y = u, 2.0 * u
    return (x.real.astype(complex), y.real.astype(complex)) if np.isrealobj(V) else (x, y)


def smallest_singular_value(M) -> float:
    """Smallest singular value counted over the column dimension.

    A matrix with more columns than rows always has a nontrivial kernel, so
    the value is 0 in that case.
    """
    A = as_matrix(M)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return 0.0
    if rows < cols:
        return 0.0
    s = _svdvals(A)
    return float(s[-1])


def hermitian_eig(H, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending order
    and eigenvectors as the matching orthonormal columns.  Raises
    :class:`NotHermitian` when ``H`` deviates from its adjoint by more than
    ``residual_abs * ||H||_F``, a test unchanged by scaling ``H`` that the
    zero matrix passes.
    """
    A = as_matrix(H)
    if A.shape[0] != A.shape[1]:
        raise NotHermitian(f"matrix of shape {A.shape} is not square")
    dev = np.linalg.norm(A - A.conj().T)
    if dev > tol.residual_abs * np.linalg.norm(A):
        raise NotHermitian(f"Hermiticity residual {dev:.3e} beyond tolerance")
    w, v = np.linalg.eigh((A + A.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def trim_polynomial(coeffs, rel: float = 1e-12) -> np.ndarray:
    """Drop near-zero leading coefficients of an ascending coefficient array.

    Determinant expansion of near-singular pencils produces spurious tiny
    leading terms; coefficients below ``rel`` times the largest magnitude are
    stripped from the high-degree end.  Returns an empty array for the zero
    polynomial.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.size == 0:
        return c
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        return c[:0]
    keep = np.nonzero(np.abs(c) >= rel * top)[0]
    return c[: keep[-1] + 1]


def poly_roots(coeffs):
    """All complex roots (with multiplicity) of an ascending-coefficient polynomial.

    The polynomial is degree-trimmed first and solved through the balanced
    companion matrix.  Returns :data:`ZERO_POLY` when the polynomial is
    identically zero and an empty list for nonzero constants.
    """
    c = trim_polynomial(coeffs)
    if c.size == 0:
        return ZERO_POLY
    if c.size == 1:
        return []
    roots = np.polynomial.polynomial.polyroots(c)
    return [complex(r) for r in roots]


def psd_sqrt(H, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues are clipped."""
    w, v = hermitian_eig(H, tol)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_inv_sqrt(H, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse Hermitian square root of a positive definite matrix."""
    w, v = hermitian_eig(H, tol)
    if w[-1] <= tol.rank_rel * max(w[0], 0.0):
        raise np.linalg.LinAlgError("matrix is numerically singular")
    return (v / np.sqrt(w)) @ v.conj().T
