"""Dense complex linear algebra primitives shared by the whole package.

Everything operates on plain numpy arrays.  Rank and kernel decisions are
relative to the largest singular value (scale free), and so is the
Hermiticity test of :func:`hermitian_eig`; other residual decisions are
absolute and assume the caller normalized its inputs.  Both cutoffs live in a
single :class:`Tolerance` record that the higher-level modules thread through
unchanged, so that verdicts are reproducible.  The kernel stage's tests on
matrix spans live here too: the complement property of a vector family
(:func:`_failing_bipartition`), the independence of its rank-one matrices
(:func:`_rank_one_independent`, which the frame module shares), the
Macaulay rank test that a span holds no matrix of rank at most 2
(:func:`_macaulay_degree`) and the cubic whose real roots hold every real
matrix of rank at most 2 in a span of two (:func:`_cubic_candidates`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial
from typing import Optional

import numpy as np

from .errors import NotHermitian, TooManyVectors

REAL = "real"
COMPLEX = "complex"

__all__ = [
    "REAL",
    "COMPLEX",
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "numerical_rank",
    "kernel_basis",
    "hermitian_eig",
    "psd_sqrt",
]


@dataclass(frozen=True)
class Tolerance:
    """Shared tolerance policy.

    rank_rel
        Relative singular-value cutoff for rank and kernel decisions.
    residual_abs
        Absolute cutoff for residual tests on normalized inputs.

    Each must be finite and strictly positive, and ``rank_rel`` below 1.
    """

    rank_rel: float = 1e-10
    residual_abs: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie in (0, 1)")
        # NaN fails both comparisons.
        if not 0.0 < self.residual_abs < math.inf:
            raise ValueError("residual_abs must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
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


def _rank_one_independent(U: np.ndarray, tol: Tolerance) -> bool:
    """Whether the ``u_j u_j*`` of the rows ``u_j`` of ``U`` are linearly independent.

    Their Gram matrix in the Frobenius product is ``|U U*|^2`` entrywise, since
    ``<u_i u_i*, u_j u_j*> = |<u_i, u_j>|^2``, so no outer product is formed;
    its rank is counted by the rule of :func:`numerical_rank`.
    """
    return _rank(_svdvals(np.abs(U @ U.conj().T) ** 2), tol) == len(U)


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


def psd_sqrt(H, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues are clipped."""
    w, v = hermitian_eig(H, tol)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


# Entries of the largest matrix of minors the kernel stage builds, about
# 0.5 MB: a system of linearized 2x2 minors in deciders._rank_one_points,
# (k choose 2)((k choose 2) + 1)/2 minors by m(m + 1)/2 unknowns, or a
# Macaulay matrix of _macaulay_degree.  Every benchmark channel's system stays
# far below it (real-4-N7's second system is 231 x 36); the second system of
# a random real channel from R^7 to R^6 would be 22,155 x 630.  Past it,
# _macaulay_degree compresses a kernel of dimension 3 from C^9 and R^10 on,
# and of dimension 2 from C^11 and R^12 on, to a size where a matrix fits.
_MINORS_CAP = 2**16


def _rank2_codim(n: int, real: bool) -> int:
    """The codimension of the matrices of rank at most 2: ``C(n - 1, 2)`` in Sym(n), ``(n - 2)^2`` in M_n(C)."""
    return (n - 1) * (n - 2) // 2 if real else (n - 2) ** 2


def _macaulay_degrees(d: int, n: int, real: bool) -> list[int]:
    """The degrees from 3 to ``2d + 1`` whose Macaulay matrix for ``d`` matrices of size
    ``n`` has at least as many rows as columns, up to the first past ``_MINORS_CAP`` entries."""
    triples = comb(n, 3)
    minors = triples * (triples + 1) // 2 if real else triples * triples
    degrees, D = [], 3
    while D <= 2 * d + 1 and (rows := minors * comb(d + D - 4, D - 3)) * (cols := comb(d + D - 1, D)) <= _MINORS_CAP:
        if rows >= cols:
            degrees.append(D)
        D += 1
    return degrees


@lru_cache(maxsize=64)
def _monomials(d: int, D: int):
    """The degree-``D`` monomials in ``d`` variables as exponent rows, and their
    Bombieri weights ``sqrt(D! / prod_i alpha_i!)``; read-only."""
    E = np.zeros((comb(d + D - 1, D), d), dtype=np.int64)
    for row, picks in zip(E, combinations_with_replacement(range(d), D)):
        np.add.at(row, list(picks), 1)
    w = np.sqrt(factorial(D) / np.prod(np.array([factorial(i) for i in range(D + 1)], dtype=float)[E], axis=1))
    E.flags.writeable = w.flags.writeable = False
    return E, w


def _monomial_index(E: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in ``E`` of the exponent rows ``rows``, each one of them."""
    base = (int(E.sum(axis=1).max()) + 1) ** np.arange(E.shape[1])
    keys = E @ base
    order = np.argsort(keys)
    return order[np.searchsorted(keys, rows @ base, sorter=order)]


def _seeded_isometry(key: list, n: int, m: int, real: bool = False) -> np.ndarray:
    """An ``n x m`` isometry: the Q factor of ``G[0]`` (real) or ``G[0] + i G[1]``
    for ``G``, a ``(2, n, m)`` normal draw from ``default_rng(key)``."""
    G = np.random.default_rng(key).normal(size=(2, n, m))
    return np.linalg.qr(G[0] if real else G[0] + 1j * G[1])[0]


def _macaulay_degree(H: np.ndarray, tol: Tolerance) -> Optional[tuple[int, float]]:
    """``(D, sigma_min / sigma_max)`` of the first Macaulay matrix of full column
    rank, or None: then the span of ``H_1..H_d``, even over C, holds no
    nonzero matrix of rank at most 2.

    The 3x3 minors of ``H(c) = sum_k c_k H_k`` are cubic forms in ``c``, their
    coefficients from one ``einsum`` against the Levi-Civita tensor over the
    row and column triples ``I <= J``.  At degree D the rows are the minors
    times the monomials of degree ``D - 3``, and the columns the monomials of
    degree D, each monomial weighted by its Bombieri weight, so an orthogonal
    change of the basis ``H_k`` moves no singular value.  The forms have no
    common zero in projective space exactly when some D gives full column
    rank, and then every higher one does (Dreesen, Batselier, De Moor, IFAC
    2012).  Then d generic combinations of them are a regular sequence of
    cubics, whose quotient vanishes from degree ``2d + 1`` on (Macaulay's
    bound), so a deficient rank there leaves a common zero.  Degrees with
    fewer rows than columns are skipped, and the search stops past ``2d + 1``
    or at the first matrix past ``_MINORS_CAP`` entries; each degree is one
    values-only SVD under the rank rule.

    When no degree fits at size n, the test runs on ``V* H_k V`` for a seeded
    ``n x m`` isometry ``V``, m the largest size with a degree that fits and
    ``d <= _rank2_codim(m)``, where a generic span still misses the rank-2
    matrices.  ``rank(V* H(c) V) <= rank(H(c))``, so that proof covers the
    span itself; the degree and the ratio then depend on the basis.  Nothing
    is built when no size fits.
    """
    d, n = H.shape[:2]
    real = not np.iscomplexobj(H)
    if not (degrees := _macaulay_degrees(d, n, real)):
        fits = (m for m in range(n - 1, 2, -1) if d <= _rank2_codim(m, real) and _macaulay_degrees(d, m, real))
        if (m := next(fits, None)) is None:
            return None
        V = _seeded_isometry([0x4D, n, m], n, m, real)
        H, n, degrees = V.conj().T @ H @ V, m, _macaulay_degrees(d, m, real)
    triples = comb(n, 3)
    I = np.array(list(combinations(range(n), 3)))
    p, q = np.triu_indices(triples)
    # B[k, t] is H_k on the rows I_p and columns I_q of minor t.
    B = H[:, I[p][:, :, None], I[q][:, None, :]]
    eps = np.zeros((3, 3, 3))
    eps[[0, 1, 2, 1, 2, 0], [1, 2, 0, 0, 1, 2], [2, 0, 1, 2, 0, 1]] = [1, 1, 1, -1, -1, -1]
    # T[t, k, l, m] c_k c_l c_m summed is minor t of H(c).
    T = np.einsum("kax,lay,maz,xyz->aklm", B[:, :, 0], B[:, :, 1], B[:, :, 2], eps, optimize=True)
    E3 = _monomials(d, 3)[0]
    # A monomial's coefficient sums T over its ordered triples (k, l, m).
    ordered = np.eye(d, dtype=np.int64)[np.indices((d, d, d)).reshape(3, -1)].sum(axis=0)
    coef = np.zeros((len(p), len(E3)), dtype=T.dtype)
    np.add.at(coef.T, _monomial_index(E3, ordered), T.reshape(len(p), -1).T)
    # The minor of rows I_q and columns I_p has the conjugate coefficients, the
    # H_k being Hermitian: a row of its own on the complex field, the weight
    # sqrt(2) on the real one, so the rows' Gram matrix is that of all minors
    # and unitary conjugation of the H_k moves no singular value either.
    if real:
        coef[p < q] *= np.sqrt(2.0)
    else:
        coef = np.concatenate((coef, coef[p < q].conj()))
    for D in degrees:
        (Eb, wb), (Ea, wa) = _monomials(d, D - 3), _monomials(d, D)
        cols = _monomial_index(Ea, Eb[:, None] + E3)
        M = np.zeros((len(coef), len(Eb), len(Ea)), dtype=coef.dtype)
        M[:, np.arange(len(Eb))[:, None], cols] = coef[:, None] * (wb[:, None] / wa[cols])
        s = np.linalg.svd(M.reshape(-1, len(Ea)), compute_uv=False)
        if _rank(s, tol) == len(Ea):
            return D, float(s[-1] / s[0])
    return None


# The kernel cubic of :func:`_cubic_candidates`: a root ``r`` of ``p(1, t)`` is
# tested as real when ``|Im r| <= _CUBIC_LOOSE (1 + |r|)^2``, about the
# imaginary part of its angle, and ``p`` vanishes when no coefficient
# passes ``_CUBIC_ZERO``.
_CUBIC_LOOSE = 1e-3
_CUBIC_ZERO = 1e-9


@lru_cache(maxsize=16)
def _cubic_isometry(n: int) -> np.ndarray:
    """The ``n x 3`` isometry ``U`` of the kernel cubic, read-only: ``I`` at n = 3,
    else a complex one of :func:`_seeded_isometry` from the key ``[0xC3, n]``."""
    U = np.eye(3) if n == 3 else _seeded_isometry([0xC3, n], n, 3)
    U.flags.writeable = False
    return U


def _cubic_candidates(H: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``(Hc, g)``: unit matrices of the span of ``H1, H2`` (Frobenius-orthonormal
    Hermitian, the first two of the stack ``H``) that hold every real one of
    rank at most 2, stacked, and each one's third eigenvalue by modulus over
    its first; None when the cubic below vanishes.

    ``p(s, t) = det(U* (s H1 + t H2) U)`` is a real cubic form, and by
    Cauchy-Binet it vanishes wherever ``s H1 + t H2`` has rank at most 2, so
    those points sit at its real roots.  One stacked ``det`` at the nodes
    ``(1, 0), (0, 1), (1, 1), (1, -1)`` gives its coefficients.  The
    candidates are the real parts of the near-real roots of ``p(1, t)`` and of
    its derivative, which keeps a multiple root that rounding split, and
    ``H2`` for ``t = infinity``; one stacked ``eigvalsh`` gives ``g``.
    """
    n = H.shape[1]
    U = _cubic_isometry(n)
    C = H[:2] if n == 3 else U.conj().T @ H[:2] @ U
    v = np.linalg.det(np.tensordot(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)), C, 1)).real
    # p(1, t) = a + b t + c t^2 + e t^3 from its values at t = 0, infinity, 1 and -1.
    a, e = v[0], v[1]
    b, c = (v[2] - v[3]) / 2.0 - e, (v[2] + v[3]) / 2.0 - a
    if max(abs(a), abs(b), abs(c), abs(e)) <= _CUBIC_ZERO:
        return None
    r = np.concatenate((np.roots([e, c, b, a]), np.roots([3.0 * e, 2.0 * c, b]))).astype(complex)
    near = np.abs(r.imag) / (1.0 + np.abs(r)) <= _CUBIC_LOOSE * (1.0 + np.abs(r))
    theta = np.append(np.arctan(r.real[near]), np.pi / 2.0)
    Hc = (np.column_stack((np.cos(theta), np.sin(theta))) @ H[:2].reshape(2, -1)).reshape(-1, n, n)
    w = np.sort(np.abs(np.linalg.eigvalsh(Hc)), axis=1)
    return Hc, w[:, -3] / w[:, -1]
