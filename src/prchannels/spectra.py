"""Operator-tuple left invertibility, relative joint spectra, pencil singular sets.

The workhorse is :func:`pencil_singular_set`, which computes the finitely many
``lam`` at which the m x n pencil ``P + lam Q`` loses injectivity: the common
zeros of its maximal minors.  Candidate roots come from one polynomial, the
guard ``det(R (P + lam Q))`` with a random n x m ``R``.  By Cauchy-Binet the
guard combines all maximal minors with random coefficients, so it vanishes
wherever they all do, and for almost every ``R`` it is nonzero whenever one
of them is: a second polynomial, such as one nonzero minor, adds no root.
Each candidate is kept only if the smallest singular value of the pencil
there actually vanishes, which removes the spurious ones.

The matrices are tiny, so the cost is in the number of LAPACK calls, not in
their size.  Every evaluation of a pencil at several points is one stacked
call: one ``det`` over the interpolation nodes of the guard, one values-only
SVD over all candidate roots, one over the three degeneracy probes.  Stacked
and looped calls give the same bits slice by slice, so the results are those
of the point-by-point evaluation.  The guard matrix and the probe points depend
only on the seed and the pencil's shape; they are drawn once per shape and
shared read-only.

A one-column pencil (``n = 1``) is singular only where ``P + lam Q`` vanishes,
and ``||P + lam Q||`` is at least the distance from ``P`` to the line spanned
by ``Q`` for every ``lam``.  When that distance exceeds twice the verification
margin, every candidate and every probe fails the margin test, so the full
computation keeps no root and never answers all of C: the engine returns the
empty finite set at once, the same answer without a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConstraintViolated, DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    kernel_basis,
    numerical_rank,
    trim_polynomial,
)

FINITE = "finite"
ALL_OF_C = "all_of_c"

__all__ = [
    "FINITE",
    "ALL_OF_C",
    "SingularSet",
    "SpectrumPoint",
    "is_left_invertible",
    "in_relative_spectrum",
    "pencil_singular_set",
    "constrained_2x2_eigenpair",
]


@dataclass
class SingularSet:
    """Either a finite list of pencil singular points or all of the plane."""

    kind: str
    roots: list

    @property
    def is_all(self) -> bool:
        return self.kind == ALL_OF_C


@dataclass
class SpectrumPoint:
    """One point of a scalar relative joint spectrum with its kernel witness."""

    lam: np.ndarray
    witness: np.ndarray


def _stack(ops) -> np.ndarray:
    mats = [as_matrix(A) for A in ops]
    if not mats:
        raise ValueError("empty operator tuple")
    shape = mats[0].shape
    for A in mats[1:]:
        if A.shape != shape:
            raise DimensionMismatch("operator tuple has mixed shapes")
    return np.vstack(mats)


def is_left_invertible(ops, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the stacked tuple has full column rank (trivial common kernel)."""
    S = _stack(ops)
    return numerical_rank(S, tol) == S.shape[1]


def in_relative_spectrum(a_ops, b_ops, lam, tol: Tolerance = DEFAULT_TOL):
    """Membership test for the left relative joint spectrum.

    ``lam`` must have shape ``(len(b_ops), len(a_ops))``.  Returns
    ``(True, witness)`` when the residual operators ``A_j - sum_i lam[i, j] B_i``
    share a nonzero kernel vector, ``(False, None)`` otherwise.
    """
    A = [as_matrix(a) for a in a_ops]
    B = [as_matrix(b) for b in b_ops]
    L = np.asarray(lam, dtype=complex)
    if L.shape != (len(B), len(A)):
        raise DimensionMismatch(f"lambda of shape {L.shape}, expected ({len(B)}, {len(A)})")
    residuals = []
    for j, Aj in enumerate(A):
        R = Aj - sum(L[i, j] * B[i] for i in range(len(B)))
        residuals.append(R)
    kern = kernel_basis(_stack(residuals), tol)
    if not kern:
        return False, None
    return True, kern[0]


def _pencil_points(P: np.ndarray, Q: np.ndarray, lams) -> np.ndarray:
    """``P + lam Q`` for every ``lam``, stacked along a new first axis.

    Elementwise the same bits as ``P + lam * Q`` with a Python scalar ``lam``,
    except that numpy rounds a one-element array-by-array product differently,
    so a single point keeps the scalar form.
    """
    lams = np.asarray(lams, dtype=complex)
    if lams.size == 1:
        return (P + complex(lams[0]) * Q)[None]
    return P + lams[:, None, None] * Q


def _margin(Pn: np.ndarray, Qn: np.ndarray) -> float:
    """The margin ``1e-6 (||Pn|| + ||Qn||)`` of a pencil normalized to unit scale."""
    return 1e-6 * (np.linalg.norm(Pn) + np.linalg.norm(Qn))


def _singular_at(Pn: np.ndarray, Qn: np.ndarray, lams):
    """The margin test of the normalized pencil ``Pn + lam Qn`` (at least as many
    rows as columns) at every ``lam``: its smallest singular value there, from one
    stacked values-only SVD, and whether that is at most :func:`_margin`."""
    svs = np.linalg.svd(_pencil_points(Pn, Qn, lams), compute_uv=False)[:, -1]
    return svs, svs <= _margin(Pn, Qn)


def _det_poly_square(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(P + lam Q) by interpolation at roots of unity."""
    n = P.shape[0]
    k = n + 1
    nodes = np.exp(2j * np.pi * np.arange(k) / k)
    vals = np.linalg.det(_pencil_points(P, Q, nodes))
    # vals[j] = sum_t c_t * exp(+2 pi i j t / k), so the forward FFT recovers c.
    return np.fft.fft(vals) / k


def _cluster_roots(items, radius, root=lambda z: z):
    """Greedy clusters: each item joins the first cluster whose first root lies within ``radius``."""
    clusters = []
    for item in items:
        for cl in clusters:
            if abs(root(item) - root(cl[0])) <= radius:
                cl.append(item)
                break
        else:
            clusters.append([item])
    return clusters


def _loose_clusters(roots) -> dict:
    """The distinct greedy clusters of two or more ``roots`` at the radius 1e-4,
    and for four roots or more at 1e-3, 1e-2 and 1e-1 too, in that order.

    The companion eigenvalues of a k-fold root split symmetrically around it
    by about ``eps^(1/k)`` of the pencil's unit scale, 1e-5 at k = 3, 1e-4 at
    k = 4 and 1e-2 at k = 7, so from k = 4 on no root of them need pass the
    margin test; the centroid of the cluster that holds them all is accurate
    to rounding.  A centroid of distinct roots passes it only where the
    pencil is singular.
    """
    radii = (1e-4, 1e-3, 1e-2, 1e-1) if len(roots) >= 4 else (1e-4,)
    return dict.fromkeys(tuple(cl) for radius in radii for cl in _cluster_roots(roots, radius) if len(cl) > 1)


def _significant_poly(coeffs, floor: float = 1e-12):
    """Trimmed coefficients, or None when the polynomial sits at round-off level.

    Inputs are pre-normalized pencils, so a guard built from genuine minors
    has coefficients far above the absolute floor; determinants of an
    everywhere-singular pencil only produce noise near machine epsilon.
    """
    c = trim_polynomial(coeffs)
    if c.size == 0 or float(np.max(np.abs(c))) <= floor:
        return None
    return c


def _poly_roots(c: np.ndarray) -> np.ndarray:
    """The sorted roots of the ascending coefficients ``c``, whose last one is nonzero.

    The eigenvalues of the companion matrix, as ``numpy.polynomial``'s
    ``polyroots`` computes them, bit for bit, without importing that module.
    """
    if len(c) < 3:
        return -c[:1] / c[1:] if len(c) == 2 else c[:0]
    n = len(c) - 1
    mat = np.zeros((n, n), dtype=c.dtype)
    mat.reshape(-1)[n :: n + 1] = 1
    mat[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots


@lru_cache(maxsize=64)
def _seeded_draws(seed: int, n: int, m: int):
    """The guard matrix R (n x m) and three probe points, read-only.

    Drawn in the engine's original order: R's real part, its imaginary part,
    then the probes (used only when every minor sits at noise level).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EC7]))
    R = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    probes = np.array([complex(rng.normal(), rng.normal()) for _ in range(3)])
    R.flags.writeable = False
    probes.flags.writeable = False
    return R, probes


def pencil_singular_set(P, Q, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> SingularSet:
    """The set of ``lam`` at which the tall pencil ``P + lam Q`` is not injective.

    Requires matching shapes with at least as many rows as columns.  The
    candidate roots are those of the guard ``det(R (P + lam Q))``, one stacked
    ``det`` over n + 1 nodes; by Cauchy-Binet it is ``sum_S det(R[:, S])
    det((P + lam Q)[S])`` over the n-row subsets S, so it holds every common
    zero of the maximal minors, and almost surely vanishes identically only
    when they all do: then three probes tell :data:`ALL_OF_C` from merely
    tiny minors.  A multiple root, whose candidates split around it, is
    tried at the centroids of :func:`_loose_clusters`.  A root is kept when
    the smallest singular value there is at most the margin
    ``1e-6 (||Pn|| + ||Qn||)`` of the pencil normalized to unit scale.  A
    one-column pencil whose ``Pn`` lies farther than twice the margin from
    the line of ``Qn`` has no such root (``||Pn + lam Qn||`` never drops
    below that distance; the factor 2 covers rounding) and returns the empty
    finite set before any interpolation.
    """
    Pm = as_matrix(P)
    Qm = as_matrix(Q)
    if Pm.shape != Qm.shape:
        raise DimensionMismatch("pencil matrices differ in shape")
    m, n = Pm.shape
    if m < n:
        raise DimensionMismatch("pencil must have at least as many rows as columns")
    scale = max(np.linalg.norm(Pm), np.linalg.norm(Qm))
    if scale == 0.0:
        return SingularSet(ALL_OF_C, [])
    Pn = Pm / scale
    Qn = Qm / scale
    if n == 1:
        # ||Pn + lam Qn|| is at least the distance from Pn to the line of Qn,
        # so beyond twice the margin no candidate or probe below passes it.
        q = np.linalg.norm(Qn)
        u = Qn / q if q > 0.0 else Qn
        if np.linalg.norm(Pn - np.vdot(u, Pn) * u) > 2.0 * _margin(Pn, Qn):
            return SingularSet(FINITE, [])
    R, probes = _seeded_draws(abs(int(seed)), n, m)
    # Cauchy-Binet: det(R (P + lam Q)) combines every maximal minor.
    guard_coeffs = _det_poly_square(R @ Pn, R @ Qn)
    guard_poly = _significant_poly(guard_coeffs)
    if guard_poly is None:
        # Every minor sits at noise level.  Confirm the degeneracy with a few
        # random probes; a full-rank probe means the minors were genuinely
        # tiny, in which case their noisy roots are still usable candidates.
        if np.all(_singular_at(Pn, Qn, probes)[1]):
            return SingularSet(ALL_OF_C, [])
        guard_poly = trim_polynomial(guard_coeffs)
        if guard_poly.size == 0:
            return SingularSet(FINITE, [])

    # Already trimmed, so the guard solves as it stands (a constant has no roots).
    candidates = [complex(r) for r in _poly_roots(guard_poly)]
    candidates += [complex(np.mean(cl)) for cl in _loose_clusters(candidates)]

    svs, passed = _singular_at(Pn, Qn, candidates) if candidates else ((), ())
    verified = [(lam, float(sv)) for lam, sv, ok in zip(candidates, svs, passed) if ok]
    kept = []
    for cl in _cluster_roots(verified, tol.root_cluster, root=lambda pair: pair[0]):
        lam_best, _ = min(cl, key=lambda pair: pair[1])
        kept.append(lam_best)
    kept.sort(key=lambda z: (z.real, z.imag))
    return SingularSet(FINITE, kept)


def constrained_2x2_eigenpair(A, tol: Tolerance = DEFAULT_TOL):
    """Both eigenvalues of a 2x2 matrix obeying the unit-circle constraint system.

    The entries must satisfy ``1 + |a11|^2 - |a21|^2 = 0``,
    ``1 + |a22|^2 - |a12|^2 = 0`` and ``a11 conj(a12) = a21 conj(a22)``, each
    within ``residual_abs``.  The two eigenvalues are then distinct and their
    product ``lam1 * conj(lam2)`` equals -1.
    """
    M = as_matrix(A)
    if M.shape != (2, 2):
        raise DimensionMismatch("expected a 2x2 matrix")
    a1, b1 = M[0, 0], M[0, 1]
    a2, b2 = M[1, 0], M[1, 1]
    c1 = 1.0 + abs(a1) ** 2 - abs(a2) ** 2
    c2 = 1.0 + abs(b2) ** 2 - abs(b1) ** 2
    c3 = a1 * np.conj(b1) - a2 * np.conj(b2)
    worst = max(abs(c1), abs(c2), abs(c3))
    if worst > tol.residual_abs:
        raise ConstraintViolated(f"constraint residual {worst:.3e} beyond tolerance")
    lams = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag), reverse=True)
    return complex(lams[0]), complex(lams[1])
