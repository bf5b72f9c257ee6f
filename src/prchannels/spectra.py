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
by ``Q`` for every ``lam``.  One rule, :func:`_far_columns`, measures it for a
stack of such pencils, each divided by its own scale.  Beyond twice the
verification margin every candidate and every probe fails the margin test, so
the full computation keeps no root and never answers all of C: the empty
finite set comes at once, without an eigenvalue.  The engine applies the rule
to its own one-column pencils, and the relative joint spectrum to the
one-column children of each refinement node.

The scalar relative joint spectrum of a square family, which the paper's
necessary condition reads, is refined here one coordinate pencil at a time
(:func:`_relative_spectrum`); ``deciders.scalar_relative_spectrum`` reads the
operators' ranks and calls it.
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


def _margin(p, q):
    """The margin ``1e-6 (||Pn|| + ||Qn||)`` of a pencil normalized to unit scale, from the norms ``p`` and ``q``."""
    return 1e-6 * (p + q)


def _far_columns(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Whether each one-column pencil ``P[:, k] + lam Q[:, k]`` stays injective
    for every ``lam`` by a clear margin, in one stacked test.  Each pair is
    divided by its own scale, its largest entry modulus, so no product below
    underflows or overflows.  The distance ``||p - (<q, p> / ||q||^2) q||``
    from ``p`` to the line of ``q`` bounds ``||p + lam q||`` below; past twice
    :func:`_margin` (the factor 2 covers rounding) no point passes the
    engine's margin test.  A zero pair is never far.
    """
    X = np.concatenate((P, Q))
    scale = np.maximum.reduce(np.abs(X), axis=0)
    X = X / np.where(scale > 0.0, scale, 1.0)
    Pn, Qn = X[: len(P)], X[len(P) :]
    pp, qq = np.add.reduceat((X.conj() * X).real, [0, len(P)], axis=0)
    R = Pn - np.add.reduce(Qn.conj() * Pn, axis=0) / np.where(qq > 0.0, qq, 1.0) * Qn
    return np.add.reduce((R.conj() * R).real, axis=0) > (2.0 * _margin(np.sqrt(pp), np.sqrt(qq))) ** 2


def _singular_at(Pn: np.ndarray, Qn: np.ndarray, lams):
    """The margin test of the normalized pencil ``Pn + lam Qn`` (at least as many
    rows as columns) at every ``lam``: its smallest singular value there, from one
    stacked values-only SVD, and whether that is at most :func:`_margin`."""
    svs = np.linalg.svd(_pencil_points(Pn, Qn, lams), compute_uv=False)[:, -1]
    return svs, svs <= _margin(np.linalg.norm(Pn), np.linalg.norm(Qn))


# The radius within which two pencil roots, or two spectrum points, are one.
_ROOT_CLUSTER = 1e-7


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
    A one-column pencil that :func:`_far_columns` finds far from singular
    returns the empty finite set before any eigenvalue.
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
    if n == 1 and _far_columns(Pm, Qm)[0]:
        return SingularSet(FINITE, [])
    Pn = Pm / scale
    Qn = Qm / scale
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
    for cl in _cluster_roots(verified, _ROOT_CLUSTER, root=lambda pair: pair[0]):
        lam_best, _ = min(cl, key=lambda pair: pair[1])
        kept.append(lam_best)
    kept.sort(key=lambda z: (z.real, z.imag))
    return SingularSet(FINITE, kept)


class _Continuum(Exception):
    """Every remaining coordinate pencil of a refinement node is singular on all of C."""


def _refine_spectrum(Aj, rank_j, coords_done, remaining, V, tol):
    """Depth-first refinement of the joint kernel across coordinate pencils.

    ``remaining`` holds ``(i, Ai, rank of Ai)``.  Coordinates whose restricted
    pencil has a finite singular set are consumed first; if at some node every
    remaining coordinate degenerates to the whole plane, the spectrum contains
    a continuum.  With ``k`` columns in ``V``, a coordinate with
    ``min(r_i, k) + min(r_j, k) < k`` is the whole plane without a pencil
    computation: ``rank((Ai - lam Aj) V) <= rank(Ai V) + rank(Aj V) < k`` for
    every ``lam``.  The one-column children whose next pencil, the first
    left past that skip, :func:`_far_columns` clears in one stacked test per
    node would get the empty set from the engine, and are not visited.
    """
    k = V.shape[1]
    if k == 0:
        return
    if not remaining:
        yield coords_done, V
        return
    for pos, (idx, Ai, rank_i) in enumerate(remaining):
        if min(rank_i, k) + min(rank_j, k) < k:
            continue
        ss = pencil_singular_set(Ai @ V, -(Aj @ V), tol)
        if ss.is_all:
            continue
        rest = remaining[:pos] + remaining[pos + 1 :]
        kernels = list(_root_kernels(Ai, Aj, V, ss.roots, tol))
        ones = [c for c, W in enumerate(kernels) if W.shape[1] == 1]
        nxt = next((Ak for _, Ak, rank_k in rest if rank_k or rank_j), None)
        if ones and nxt is not None:
            C = V @ np.concatenate([kernels[c] for c in ones], axis=1)
            for c, far in zip(ones, _far_columns(nxt @ C, Aj @ C).tolist()):
                if far:
                    kernels[c] = None
        for root, W in zip(ss.roots, kernels):
            if W is not None:
                yield from _refine_spectrum(Aj, rank_j, {**coords_done, idx: root}, rest, V @ W, tol)
        return
    # Every remaining coordinate pencil is singular on all of the plane.
    raise _Continuum


def _root_kernels(Ai, Aj, V, roots, tol):
    """For each root, the kernel of ``(Ai - root Aj) V`` as orthonormal columns.

    One stacked SVD; per root the same columns as :func:`kernel_basis`, or the
    smallest right singular vector when that kernel is numerically trivial.
    """
    if not roots:
        return
    _, s, vh = np.linalg.svd(_pencil_points(Ai, -Aj, roots) @ V)
    for sk, vhk in zip(s, vh):
        kern = vhk[sk <= tol.rank_rel * sk[0]]
        yield np.ascontiguousarray((kern if kern.size else vhk[-1:]).conj().T)


def _relative_spectrum(ops, j, ranks, tol: Tolerance):
    """The scalar relative joint spectrum of two or more square ``ops`` relative
    to ``ops[j]``, given every operator's rank: a sorted list of
    :class:`SpectrumPoint`, or None when it is a continuum.

    One witness candidate per point comes from one stacked SVD: the smallest
    right singular vector of the stacked residual operators, and else the
    point's first joint-kernel column; a point whose candidates both fail the
    residual test is dropped, and points within ``_ROOT_CLUSTER`` merge.
    """
    Aj = ops[j]
    others = [(i, Ai) for i, Ai in enumerate(ops) if i != j]
    remaining = [(i, Ai, ranks[i]) for i, Ai in others]
    try:
        found = list(_refine_spectrum(Aj, ranks[j], {}, remaining, np.eye(Aj.shape[1], dtype=complex), tol))
    except _Continuum:
        return None
    if not found:
        return []
    stacks = np.array([np.vstack([Ai - coords[i] * Aj for i, Ai in others]) for coords, _ in found])
    _, _, vh = np.linalg.svd(stacks)
    scale = max(1.0, max(np.linalg.norm(Ai) for _, Ai in others))
    points = []
    for (coords, V), stack, vhp in zip(found, stacks, vh):
        lam = np.array([coords[i] for i, _ in others], dtype=complex)
        witness = vhp[-1].conj()
        if np.linalg.norm(stack @ witness) > tol.residual_abs * scale:
            witness = V[:, 0] / np.linalg.norm(V[:, 0])
            if np.linalg.norm(stack @ witness) > tol.residual_abs * scale:
                continue
        points.append(SpectrumPoint(lam=lam, witness=witness))
    deduped: list[SpectrumPoint] = []
    for p in points:
        if not any(np.all(np.abs(p.lam - q.lam) <= _ROOT_CLUSTER) for q in deduped):
            deduped.append(p)
    deduped.sort(key=lambda p: tuple((z.real, z.imag) for z in p.lam))
    return deduped


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
