"""Operator-tuple left invertibility, relative joint spectra, pencil singular sets.

The workhorse is :func:`pencil_singular_set`, which computes the finitely many
``lam`` at which the m x n pencil ``P + lam Q`` loses injectivity: the common
zeros of its maximal minors.  Candidate roots are the generalized eigenvalues
of the compressed square pencil ``R (P + lam Q)`` with a random n x m ``R``.
By Cauchy-Binet its determinant combines all maximal minors with random
coefficients, so it vanishes wherever they all do, and for almost every
``R`` it is nonzero whenever one of them is.  The eigenvalues come from one
``solve`` and one ``eigvals`` at a seeded shift (Moler and Stewart, SIAM J.
Numer. Anal. 1973, solve the same problem by QZ), with no polynomial in
between, so a semisimple multiple root stays a multiple eigenvalue to
rounding.  Each candidate is kept only if the smallest singular value of the
pencil there actually vanishes, which removes the spurious ones.

The matrices are tiny, so the cost is in the number of LAPACK calls, not in
their size.  Every evaluation of a pencil at several points is one stacked
call: one values-only SVD over the shift, all candidate roots and the
centroids of close ones, one over the three degeneracy probes.  Stacked
and looped calls give the same bits slice by slice, so the results are those
of the point-by-point evaluation.  The compression, the probe points and the
shift depend only on the seed and the pencil's shape; they are drawn once per
shape and shared read-only.

A one-column pencil (``n = 1``) is singular only where ``P + lam Q`` vanishes,
and ``||P + lam Q||`` is at least the distance from ``P`` to the line spanned
by ``Q`` for every ``lam``.  When that distance exceeds twice the verification
margin, every candidate and every probe fails the margin test, so the full
computation keeps no root and never answers all of C: the engine returns the
empty finite set at once, the same answer without an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConstraintViolated, DimensionMismatch
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, kernel_basis, numerical_rank

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


def _loose_centroids(roots: np.ndarray) -> list:
    """The centroids of the distinct greedy clusters of two or more candidate
    ``roots`` at the radius 1e-4, and for four roots or more at 1e-3, 1e-2
    and 1e-1 too, in that order.

    The eigenvalues of a defective k-fold root split symmetrically around it
    by about ``eps^(1/k)`` of the pencil's unit scale, 1e-5 at k = 3, 1e-4 at
    k = 4 and 1e-2 at k = 7; the centroid of the cluster that holds them all
    is accurate to rounding.  A centroid of distinct roots passes the margin
    test only where the pencil is singular.  Most candidate sets have no two
    roots within the largest radius, and one vectorized test then skips the
    greedy passes.
    """
    radii = (1e-4, 1e-3, 1e-2, 1e-1) if len(roots) >= 4 else (1e-4,)
    if np.count_nonzero(np.abs(roots[:, None] - roots) <= radii[-1]) == len(roots):
        return []
    lams = roots.tolist()
    clusters = dict.fromkeys(tuple(cl) for radius in radii for cl in _cluster_roots(lams, radius) if len(cl) > 1)
    return [complex(np.mean(cl)) for cl in clusters]


def _shifted_roots(A: np.ndarray, B: np.ndarray, shift: complex, infinity_is_root) -> np.ndarray:
    """The finite roots of the square pencil ``A + lam B``, seen from ``shift``.

    ``A + lam B = (A + shift B)(I + (lam - shift) X)`` with ``X = (A + shift
    B)^-1 B``, so the roots are ``shift - 1/nu`` for the eigenvalues nu of X,
    from one ``solve`` and one ``eigvals``, and nu = 0 is a root at infinity.
    Eigenvalues within 1e-12 ``||X||_F`` of 0 go, as the determinant
    engine's 1e-12 trim did.  A defective one of order k splits around 0 by
    about ``eps^(1/k)``, so the longest run of smallest eigenvalues that is a
    k-fold zero to rounding (:func:`_is_zero_block`) goes too, when
    ``infinity_is_root()``.  Finite roots placed symmetrically around the
    shift give nu that sum to zero too, but their product is not at rounding
    level, and without a root at infinity the pencil there fails the margin
    test.  Empty when ``A + shift B`` is exactly singular.
    """
    try:
        X = np.linalg.solve(A + shift * B, B)
        nu = np.linalg.eigvals(X)
    except np.linalg.LinAlgError:
        return np.empty(0, dtype=complex)
    nu = nu[np.argsort(np.abs(nu), kind="stable")]
    rounding = 1e-12 * np.linalg.norm(X)
    drop = np.count_nonzero(np.abs(nu) <= rounding)
    # Past the eigenvalues at rounding level, a longer run needs a sum at
    # rounding level, which almost never holds for finite roots.
    cuts = np.flatnonzero(np.abs(np.cumsum(nu)) <= rounding) + 1
    if cuts.size and cuts[-1] > drop and infinity_is_root():
        scale = np.linalg.norm(X, 2)
        drop = max(drop, next((k for k in cuts[::-1] if _is_zero_block(nu[:k] / scale)), 0))
    return shift - 1.0 / nu[drop:]


def _is_zero_block(w: np.ndarray) -> bool:
    """Whether the characteristic polynomial of ``w`` (eigenvalues scaled by
    ``||X||_2``) is ``z^k`` within 1e-12 in every coefficient: the split of a
    k-fold zero by rounding, whose power sums all vanish, and not a set that
    only sums to zero."""
    return bool(np.all(np.abs(np.poly(w)[1:]) <= 1e-12))


@lru_cache(maxsize=64)
def _seeded_draws(seed: int, n: int, m: int):
    """The compression R (n x m), three probe points and the shift, read-only.

    Drawn in this order: R's real part, its imaginary part, the probes, then
    the shift.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EC7]))
    R = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    probes = np.array([complex(rng.normal(), rng.normal()) for _ in range(3)])
    shift = complex(rng.normal(), rng.normal())
    R.flags.writeable = False
    probes.flags.writeable = False
    return R, probes, shift


def pencil_singular_set(P, Q, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> SingularSet:
    """The set of ``lam`` at which the tall pencil ``P + lam Q`` is not injective.

    Requires matching shapes with at least as many rows as columns.  The
    candidate roots are the generalized eigenvalues of the compressed square
    pencil ``R (P + lam Q)``, by :func:`_shifted_roots` at a seeded shift.
    The compression holds every point where ``P + lam Q`` is singular, and
    for almost every ``R`` no other.  A root is kept when the smallest
    singular value there is at most the margin ``1e-6 (||Pn|| + ||Qn||)`` of
    the pencil normalized to unit scale.  The shift takes the same test, in
    the same stacked SVD: where it passes, three probes tell
    :data:`ALL_OF_C` from a shift that merely hit a root, and the probe
    farthest from singular is then the shift.  The eigenvalues of a
    defective multiple root split around it, so the centroids of close
    candidates (:func:`_loose_centroids`) are tested with them.
    A one-column pencil whose ``Pn`` lies farther than twice the margin from
    the line of ``Qn`` has no such root (``||Pn + lam Qn||`` never drops
    below that distance; the factor 2 covers rounding) and returns the empty
    finite set before any eigenvalue.
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
    R, probes, shift = _seeded_draws(abs(int(seed)), n, m)
    A, B = R @ Pn, R @ Qn

    def infinity_is_root():
        """The margin test at lam = infinity: that of the reversed pencil Qn + mu Pn at mu = 0."""
        return bool(_singular_at(Qn, Pn, [0.0])[1][0])

    def points(shift):
        """The shift, the candidate roots seen from it and their loose centroids."""
        lams = _shifted_roots(A, B, shift, infinity_is_root)
        return np.concatenate(([shift], lams, _loose_centroids(lams)))

    pts = points(shift)
    svs, passed = _singular_at(Pn, Qn, pts)
    if passed[0]:
        probe_svs, at_probes = _singular_at(Pn, Qn, probes)
        if np.all(at_probes):
            return SingularSet(ALL_OF_C, [])
        pts = points(complex(probes[np.argmax(probe_svs)]))
        svs, passed = _singular_at(Pn, Qn, pts)
    verified = zip(pts[1:][passed[1:]].tolist(), svs[1:][passed[1:]].tolist())
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
