"""Phase-retrievability verdicts for quantum channels.

:func:`decide` runs one ordered stage table, and the first stage that settles
the channel gives the verdict:

1. Choi rank 0 or 1: conjugation by one operator, PR exactly when it is
   injective.
2. Necessary screen: two points ``lam, mu`` of a scalar relative joint
   spectrum with ``1 + <lam, mu> = 0`` certify NOT_PR.  The spectrum is
   refined one coordinate pencil at a time.  A pencil whose two operators
   have ranks summing below the dimension of the current joint kernel is
   singular on all of C by rank subadditivity, and is passed over without a
   pencil computation; pinchings and rank-one frame channels leave the
   screen that way.  Past the first coordinate of a generic family the
   joint kernel is one column, and the pencil engine settles such a pencil
   without determinants when its first vector lies beyond twice its margin
   from the line of the second, since then no point makes it vanish.
3. Exact Choi rank 2: the channel fails precisely when some ``lam`` makes
   both ``A1 + lam A2`` and ``-conj(lam) A1 + A2`` non-injective, so the
   singular set of the first pencil is computed once and its roots are tested
   on the second, the reflected pencil.
4. Hermitian kernel, on both fields, last: the channel fails precisely when
   some nonzero ``H = xx* - yy*`` lies in its kernel on Herm(n) (Sym(n) on
   the real field; Bandeira, Cahill, Mixon, Nelson, "Saving phase", ACHA
   2014).  A trivial kernel proves PR; a witness from the kernel's first
   spanning matrix, or from restart 0 of the bilinear search, gives NOT_PR;
   up to dimension 3 a branch and bound over the kernel's unit sphere may
   prove PR; on the real field, the rank-one points ``b_j b_j^T`` of the
   kernel's complement, found by linear algebra alone, decide exactly by the
   complement property of ``{b_j}`` when they span it; last, a Gauss-Newton
   search on the kernel's sphere gives NOT_PR or LIKELY_PR.  When the Kraus
   operators' ranks alone bound the kernel dimension below by 2, restart 0
   runs before the kernel is computed.

A witness gives NOT_PR only when it re-verifies relative to
``sum_i ||A_i||_F^2``.  ``check --method`` runs named sub-lists of the table
(:data:`METHODS`), and every stage reads one per-call record holding the Kraus
family stacked once, which every channel image of the call reads, one
values-only SVD of that stack, which gives the Kraus operators' ranks under
both rank rules, the Choi rank, the Choi trace, ``K = sum_i A_i (x) conj(A_i)``,
its restriction to Herm(n) and the kernel, each built at most once.

Every NOT_PR verdict carries a certificate that re-verifies using channel
application alone, and is converted where possible into an explicit pair of
pure states with identical images; both residuals come from one channel
image, ``Phi(x y^*)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import Optional

import numpy as np

from .bilinear import OracleConfig, minimize_simple_pair, minimize_symmetric_pair
from .channels import QuantumChannel, _choi_rank, _image
from .errors import DimensionMismatch, NotFinite, NotSquare, TooManyVectors, WrongField, WrongRank
from .linalg import COMPLEX, DEFAULT_TOL, REAL, Tolerance, _rank
from .linalg import _equal_image_pair, _failing_bipartition
from .spectra import SpectrumPoint, _pencil_points, _singular_at, pencil_singular_set

PR = "PR"
NOT_PR = "NOT_PR"
LIKELY_PR = "LIKELY_PR"

RANK1 = "RANK1"
RANK2_EXACT = "RANK2_EXACT"
NECESSARY_VIOLATION = "NECESSARY_VIOLATION"
ORACLE_WITNESS = "ORACLE_WITNESS"
ORACLE_NO_WITNESS = "ORACLE_NO_WITNESS"
NECESSARY_PASS = "NECESSARY_PASS"
HERMITIAN_KERNEL = "HERMITIAN_KERNEL"
COMPLEMENT_PROPERTY = "COMPLEMENT_PROPERTY"

SIMPLE = "simple"
SYMMETRIC = "symmetric"


class _NotFiniteSentinel:
    __slots__ = ()

    def __repr__(self):
        return "NOT_FINITE"


NOT_FINITE = _NotFiniteSentinel()

__all__ = [
    "PR",
    "NOT_PR",
    "LIKELY_PR",
    "RANK1",
    "RANK2_EXACT",
    "NECESSARY_VIOLATION",
    "ORACLE_WITNESS",
    "ORACLE_NO_WITNESS",
    "NECESSARY_PASS",
    "HERMITIAN_KERNEL",
    "COMPLEMENT_PROPERTY",
    "SIMPLE",
    "SYMMETRIC",
    "NOT_FINITE",
    "PencilClash",
    "InnerProductViolation",
    "TensorWitness",
    "StateWitness",
    "EmptyCertificate",
    "NoWitness",
    "PRVerdict",
    "METHODS",
    "decide",
    "decide_method",
    "decide_rank1",
    "decide_rank2",
    "scalar_relative_spectrum",
    "necessary_inner_product_check",
    "simple_tensor_oracle",
    "symmetric_tensor_oracle",
    "is_skew_commutative",
    "verify_certificate",
]


@dataclass
class PencilClash:
    """lam with kernel vectors of both pencils, certifying rank-2 failure."""

    lam: complex
    x: np.ndarray
    y: np.ndarray


@dataclass
class InnerProductViolation:
    """Spectrum points lam, mu (relative to operator j) with 1 + <lam, mu> = 0."""

    j: int
    lam: np.ndarray
    mu: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass
class TensorWitness:
    """Unit pair whose simple tensor or symmetric product the channel annihilates."""

    x: np.ndarray
    y: np.ndarray
    kind: str


@dataclass
class StateWitness:
    """Distinct pure states with identical channel images."""

    x: np.ndarray
    y: np.ndarray


@dataclass
class EmptyCertificate:
    """Placeholder certificate for PR / LIKELY_PR verdicts; records the floor."""

    floor: Optional[float] = None


@dataclass
class NoWitness:
    """Oracle outcome when no annihilated tensor was found.

    ``floor`` is the smallest residual norm observed.
    """

    floor: float


@dataclass
class PRVerdict:
    status: str
    method: str
    certificate: object
    state_witness: Optional[StateWitness] = None
    floor: Optional[float] = None
    residuals: Optional[dict] = None


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.outer(x, y.conj())


def _tensor_image(rec: _ChannelRecord, x: np.ndarray, y: np.ndarray, kind: str = SIMPLE):
    """``(residual, P)`` from one image ``P = Phi(x y^*)``: the residual is ``||P||``,
    or ``||P + P^*|| = ||Phi(x y^* + y x^*)||`` for the symmetric kind, since Phi
    preserves adjoints."""
    P = _image(rec.A, _outer(x, y))
    return float(np.linalg.norm(P if kind == SIMPLE else P + P.conj().T)), P


def _to_state_witness(rec: _ChannelRecord, x: np.ndarray, y: np.ndarray, P: np.ndarray):
    """Turn an annihilated (symmetric) tensor pair into equal-image pure states.

    The sum and difference of the pair bracket the same channel image; a
    common rescale keeps the equality.  Returns None when the resulting
    states are numerically indistinct or their images differ.  Image
    residuals are read relative to ``sum_i ||A_i||_F^2`` times
    ``||u||^2 + ||v||^2``, so the answer does not change with the channel's
    scale.  The image of ``uu* - vv*`` is read from ``P = Phi(x y^*)``: it is
    ``2 (P + P^*) / big^2``.
    """
    u = x + y
    v = x - y
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    big = max(nu, nv)
    if big == 0.0:
        return None
    # scale is sum_i ||A_i||_F^2 times ||u||^2 + ||v||^2 of the returned pair.
    if min(nu, nv) < 1e-9 * big:
        # Degenerate pair: x and y are (anti)parallel, so the channel kills
        # the ray of x itself and any two scalings of it collide.
        base = x if np.linalg.norm(x) > np.linalg.norm(y) else y
        base = base / np.linalg.norm(base)
        u, v = base, 2.0 * base
        scale = rec.choi_trace * 5.0
        image = _image(rec.A, _outer(base, base))
        if np.linalg.norm(image) > rec.tol.residual_abs * scale:
            return None
        image = -3.0 * image
    else:
        u, v = u / big, v / big
        scale = rec.choi_trace * (nu**2 + nv**2) / big**2
        image = 2.0 * (P + P.conj().T) / big**2
    ru = _outer(u, u)
    rv = _outer(v, v)
    if np.linalg.norm(ru - rv) < 0.05:
        return None
    if np.linalg.norm(image) > 1e-7 * scale:
        return None
    return StateWitness(u, v)


def _not_pr(rec: _ChannelRecord, method: str, cert, kind: str = SIMPLE, **residuals) -> PRVerdict:
    """NOT_PR with the pair ``cert.x, cert.y``: its tensor residual and state pair come from one image."""
    res, P = _tensor_image(rec, cert.x, cert.y, kind)
    sw = _to_state_witness(rec, cert.x, cert.y, P)
    return PRVerdict(NOT_PR, method, cert, state_witness=sw, residuals={**residuals, "tensor": res})


class _ChannelRecord:
    """What every stage of one call reads, each part built at most once, on first
    use: the Kraus family stacked ``(r, m, n)`` as ``A``, read by every channel
    image, its Choi rank and trace ``sum_i ||A_i||_F^2``, the operators'
    singular values, which the screen's and the kernel stage's ranks count, and
    ``K`` (real on the real field), its restriction ``M`` to Herm(n) and the
    kernel of ``M``.  No stage builds the Choi matrix itself.  Nothing outlives
    the call: the channel holds no cache."""

    def __init__(self, ch: QuantumChannel, tol: Tolerance):
        self.ch = ch
        self.tol = tol
        self.A = np.stack(ch.kraus)

    @cached_property
    def rank(self) -> int:
        return _choi_rank(self.A, self.tol)

    @cached_property
    def choi_trace(self) -> float:
        """``sum_i ||A_i||_F^2``, the trace of the Choi matrix: the channel's scale."""
        return float(sum(np.vdot(a, a).real for a in self.A))

    @cached_property
    def kraus_values(self) -> np.ndarray:
        """Every listed operator's singular values: one stacked values-only SVD, real on the real field."""
        return np.linalg.svd(self.A.real if self.ch.field == REAL else self.A, compute_uv=False)

    @cached_property
    def kraus_ranks(self) -> np.ndarray:
        """The listed operators' ranks from :attr:`kraus_values`, counting the
        singular values above ``tau = rank_rel s^2 / (4 t)``: ``s`` the largest of the
        family, ``t`` the sum of each operator's largest ``s_i``; 0 for a zero operator.
        Cutting the rest, ``||E_i|| <= min(tau, s_i)``, moves ``M`` by at most
        ``sum_i (2 s_i + ||E_i||) ||E_i|| <= 0.75 rank_rel s^2``, below its cut
        ``rank_rel sigma_max(M) >= rank_rel s^2``, so :attr:`kernel_floor` is a floor.
        ``numerical_rank``'s cut ``rank_rel s_i`` is not: a singular value at it can
        leave ``M``'s rank above the count."""
        s = self.kraus_values
        top = s[:, 0]
        tau = self.tol.rank_rel * top.max() ** 2 / (4.0 * top.sum()) if top.any() else 0.0
        return np.count_nonzero(s > tau, axis=1)

    @property
    def kernel_floor(self) -> int:
        """``dim Herm(n) - sum_i k_i^2`` (``dim Sym(n) - sum_i k_i (k_i + 1) / 2`` on the
        real field), at most :attr:`kernel_dim`: ``X -> A X A*`` maps Herm(n) into
        Herm of ``A``'s range, of dimension ``rank(A)^2``, and Sym(n) into
        Sym of it."""
        n, k = self.ch.dim_in, self.kraus_ranks
        return (n * n + n - int(k @ k + k.sum())) // 2 if self.ch.field == REAL else n * n - int(k @ k)

    @cached_property
    def K(self) -> np.ndarray:
        return _natural_representation(self.A, self.ch.field)

    @cached_property
    def M(self) -> np.ndarray:
        """``K`` on the basis :func:`_hermitian_basis` of Herm(n), as a real matrix.

        On the complex field the real and imaginary rows are stacked, which
        keeps the norms of the complex images.
        """
        M = self.K @ _hermitian_basis(self.ch.dim_in, self.ch.field)
        return np.concatenate((M.real, M.imag)) if self.ch.field == COMPLEX else M

    @cached_property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.M, compute_uv=False)

    @cached_property
    def herm_rank(self) -> int:
        """The numerical rank of ``M``."""
        return _rank(self.singular_values, self.tol)

    @property
    def kernel_dim(self) -> int:
        return self.M.shape[1] - self.herm_rank

    @cached_property
    def _herm_vectors(self) -> np.ndarray:
        """Every right singular vector of one SVD of ``M`` as a matrix of Herm(n), stacked ``(cols, n, n)``.

        They are Frobenius-orthonormal, and real on the real field.  The SVD
        is thin when ``M`` has at least as many rows as columns: ``U`` is never
        read.
        """
        n, (rows, cols) = self.ch.dim_in, self.M.shape
        vh = np.linalg.svd(self.M, full_matrices=rows < cols)[2]
        return (vh @ _hermitian_basis(n, self.ch.field).T).reshape(cols, n, n)

    @property
    def kernel_basis(self) -> np.ndarray:
        """The kernel's unit spanning matrices ``H_1..H_d``: the last ``d`` of :attr:`_herm_vectors`."""
        return self._herm_vectors[self.herm_rank :]

    @property
    def complement_basis(self) -> np.ndarray:
        """The kernel's orthogonal complement in Herm(n): the first ``herm_rank`` of :attr:`_herm_vectors`."""
        return self._herm_vectors[: self.herm_rank]


def _low_rank_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """Choi rank 0 or 1: conjugation by one operator A, PR exactly when A is injective.

    Every listed operator is a multiple of A (of A = 0 at rank 0), so the
    stacked family has the kernel of A.
    """
    if rec.rank > 1:
        return None
    ch = rec.ch
    stack = (rec.A.real if ch.field == REAL else rec.A).reshape(-1, ch.dim_in)
    _, s, vh = np.linalg.svd(stack)
    # C^1 has a single pure state, so even the zero map collides none.
    if ch.dim_in == 1 or _rank(s, rec.tol) == ch.dim_in:
        return PRVerdict(PR, RANK1, EmptyCertificate(), residuals={})
    # A z = 0 for the last right singular vector z, so A (u + z) = A (u - z)
    # for the first one, u, a unit vector orthogonal to z.
    u, z = vh[0].conj().astype(complex), vh[-1].conj().astype(complex)
    sw = StateWitness((u + z) / np.sqrt(2.0), (u - z) / np.sqrt(2.0))
    state = float(np.linalg.norm(_image(rec.A, _outer(sw.x, sw.x) - _outer(sw.y, sw.y))))
    return PRVerdict(NOT_PR, RANK1, sw, state_witness=sw, residuals={"state": state})


def decide_rank1(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Choi rank 1: PR when the single Kraus operator is injective, else NOT_PR with a state pair."""
    rec = _ChannelRecord(ch, tol)
    if rec.rank != 1:
        raise WrongRank("channel does not have Choi rank 1")
    return _low_rank_stage(rec)


def _smallest_right_vector(M: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(M)
    return vh[-1].conj()


def decide_rank2(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Exact decision for Choi rank 2 from one pencil singular set.

    With spanning pair (A1, A2), the singular set S collects lam where
    ``A1 + lam A2`` loses injectivity.  The channel fails exactly when the
    reflected pencil ``-conj(lam) A1 + A2`` does too at some lam in S: its
    roots are tested there under the margin test of :func:`pencil_singular_set`.
    """
    rec = _ChannelRecord(ch, tol)
    if rec.rank != 2:
        raise WrongRank("channel does not have Choi rank 2")
    return _rank2_stage(rec)


def _rank2_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """Exact Choi rank 2 (see :func:`decide_rank2`); None at any other rank."""
    if rec.rank != 2:
        return None
    ch, tol, A = rec.ch, rec.tol, rec.A
    if len(A) != 2:
        # Two operators with the family's Kraus span: the family mixed by the
        # two leading left singular vectors of its stack.
        F = A.reshape(len(A), -1)
        U = np.linalg.svd(F.real if ch.field == REAL else F, full_matrices=False)[0]
        A = (U[:, :2].conj().T @ F).reshape(2, ch.dim_out, ch.dim_in)
    A1, A2 = A
    # lam = 0 clashes when every pencil has a kernel (dim_out < dim_in), and when the
    # first one's set is all of C: A2 + mu A1 = mu (A1 + A2 / mu) is singular there too.
    clash = 0.0
    if ch.dim_out >= ch.dim_in and not (s := pencil_singular_set(A1, A2, tol)).is_all:
        # -conj(lam) A1 + A2 is A2 + mu A1 at mu = -conj(lam), normalized at the same scale.
        scale = max(np.linalg.norm(A1), np.linalg.norm(A2))
        passed = _singular_at(A2 / scale, A1 / scale, -np.conj(s.roots))[1] if s.roots else ()
        clash = next((lam for lam, ok in zip(s.roots, passed) if ok), None)
    if clash is None:
        return PRVerdict(PR, RANK2_EXACT, EmptyCertificate(), residuals={})

    x = _smallest_right_vector(A1 + clash * A2)
    y = _smallest_right_vector(-np.conj(clash) * A1 + A2)
    return _not_pr(rec, RANK2_EXACT, PencilClash(complex(clash), x, y))


class _Continuum(Exception):
    pass


def _refine_spectrum(Aj, rank_j, coords_done, remaining, V, tol):
    """Depth-first refinement of the joint kernel across coordinate pencils.

    ``remaining`` holds ``(i, Ai, rank of Ai)``.  Coordinates whose restricted
    pencil has a finite singular set are consumed first; if at some node every
    remaining coordinate degenerates to the whole plane, the spectrum contains
    a continuum.  With ``k`` columns in ``V``, a coordinate with
    ``min(r_i, k) + min(r_j, k) < k`` is the whole plane without a pencil
    computation: ``rank((Ai - lam Aj) V) <= rank(Ai V) + rank(Aj V) < k`` for
    every ``lam``.
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
        for root, W in zip(ss.roots, _root_kernels(Ai, Aj, V, ss.roots, tol)):
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


def scalar_relative_spectrum(ch: QuantumChannel, j: int, tol: Tolerance = DEFAULT_TOL, *, _rec=None):
    """All lam vectors with a nonzero x satisfying ``A_i x = lam_i A_j x`` for i != j.

    Requires square Kraus operators.  Returns a sorted list of
    :class:`SpectrumPoint` or :data:`NOT_FINITE` when the set is a continuum.
    The ranks come from ``_rec``, the calling screen's record, or a new one.
    """
    if ch.dim_in != ch.dim_out:
        raise NotSquare("scalar relative spectra need square Kraus operators")
    ops = ch.kraus
    if not 0 <= j < len(ops):
        raise IndexError(f"operator index {j} out of range")
    Aj = ops[j]
    others = [(i, ops[i]) for i in range(len(ops)) if i != j]
    n = ch.dim_in
    if not others:
        return []
    # The numerical rank of every operator, by numerical_rank's rule, from the
    # record's stacked singular values: a zero matrix has all of them 0, rank 0.
    s = (_rec or _ChannelRecord(ch, tol)).kraus_values
    ranks = np.count_nonzero(s > tol.rank_rel * s[:, :1], axis=1).tolist()
    remaining = [(i, Ai, ranks[i]) for i, Ai in others]
    try:
        found = list(_refine_spectrum(Aj, ranks[j], {}, remaining, np.eye(n, dtype=complex), tol))
    except _Continuum:
        return NOT_FINITE

    if not found:
        return []
    # One witness candidate per point from one stacked SVD: the smallest right
    # singular vector of the stacked residual operators.
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
        if not any(np.all(np.abs(p.lam - q.lam) <= tol.root_cluster) for q in deduped):
            deduped.append(p)
    deduped.sort(key=lambda p: tuple((z.real, z.imag) for z in p.lam))
    return deduped


def necessary_inner_product_check(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL, *, _rec=None):
    """Necessary condition: no pair lam, mu in any scalar spectrum may satisfy
    ``1 + <lam, mu> = 0``.

    Returns a NOT_PR verdict on the first violation, with an equal-image
    pure-state pair where one can be derived, and None when the check passes.
    Raises :class:`NotFinite` when some spectrum is a continuum.  Spectra and
    images read ``_rec``, the calling :func:`decide`'s record, or a new one.
    """
    if ch.dim_in != ch.dim_out:
        raise NotSquare("the inner-product check needs square Kraus operators")
    rec = _rec or _ChannelRecord(ch, tol)
    for j in range(len(ch.kraus)):
        points = scalar_relative_spectrum(ch, j, tol, _rec=rec)
        if points is NOT_FINITE:
            raise NotFinite(f"relative spectrum of operator {j} is a continuum")
        for p, q in product(points, points):
            ip, violated = _inner_product_test(p.lam, q.lam, tol)
            if violated:
                cert = InnerProductViolation(j, p.lam, q.lam, p.witness, q.witness)
                return _not_pr(rec, NECESSARY_VIOLATION, cert, inner_product=abs(ip))
    return None


def _inner_product_test(lam: np.ndarray, mu: np.ndarray, tol: Tolerance):
    """``1 + <lam, mu>`` and whether it vanishes within ``residual_abs``: a violation of the screen."""
    ip = 1.0 + complex(np.sum(lam * np.conj(mu)))
    return ip, abs(ip) <= tol.residual_abs


def _natural_representation(A: np.ndarray, field: str) -> np.ndarray:
    """``sum_i A_i (x) conj(A_i)`` of the stacked ``(r, m, n)`` family: row ``(a, b)``,
    column ``(c, d)`` holds ``sum_i A_i[a, c] conj(A_i[b, d])``.

    One product of the flattened operators gives the entries indexed
    ``((a, c), (b, d))``; a transpose realigns them.  Real on the real field.
    """
    if field == REAL:
        A = A.real
    r, m, n = A.shape
    F = A.reshape(r, m * n)
    return (F.T @ F.conj()).reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def _witness_or_floor(rec: _ChannelRecord, val: float, x: np.ndarray, y: np.ndarray, kind: str):
    """A witness when the residual ``sqrt(val)`` of the search minimum passes :func:`_accepted`, else its floor."""
    res = float(np.sqrt(max(val, 0.0)))
    if _accepted(rec, res):
        return TensorWitness(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex), kind)
    return NoWitness(floor=res)


def simple_tensor_oracle(ch: QuantumChannel, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL):
    """Search for unit x, y with the simple tensor ``x (x) y`` annihilated.

    Multistart alternating minimization; a witness is returned when the
    residual of the minimum passes :func:`decide`'s test, at most
    ``residual_abs * sum_i ||A_i||_F^2``.  The exact kernel paths are a stage
    of :func:`decide`, ahead of this search.
    """
    rec = _ChannelRecord(ch, tol)
    return _witness_or_floor(rec, *minimize_simple_pair(rec.K, ch.dim_in, ch.field, cfg or OracleConfig()), SIMPLE)


def symmetric_tensor_oracle(ch: QuantumChannel, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL):
    """Search for x, y with the symmetric product ``x (x) y + y (x) x`` annihilated.

    Only defined for complex channels.  The search always returns a pair,
    normalized so its symmetric product has unit Frobenius norm: a witness when
    the residual of the minimum passes :func:`decide`'s test, and the observed
    floor otherwise.
    """
    if ch.field != COMPLEX:
        raise WrongField("the symmetric-product oracle is a complex-field test")
    rec = _ChannelRecord(ch, tol)
    return _witness_or_floor(rec, *minimize_symmetric_pair(rec.K, ch.dim_in, cfg or OracleConfig()), SYMMETRIC)


def is_skew_commutative(u_list, v_list, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``sum_j (u_j (x) v_j + v_j (x) u_j)`` vanishes."""
    us = [np.asarray(u, dtype=complex) for u in u_list]
    vs = [np.asarray(v, dtype=complex) for v in v_list]
    if len(us) != len(vs):
        raise DimensionMismatch("tuples differ in length")
    if any(u.shape != v.shape for u, v in zip(us, vs)):
        raise DimensionMismatch("tuples differ in vector dimension")
    total = sum(_outer(u, v) + _outer(v, u) for u, v in zip(us, vs))
    scale = 1.0 + sum(np.linalg.norm(u) * np.linalg.norm(v) for u, v in zip(us, vs))
    return float(np.linalg.norm(total)) <= tol.residual_abs * scale


def _screen_verdict(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    return necessary_inner_product_check(rec.ch, rec.tol, _rec=rec)


def _screen_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    # In the pipeline the screen runs on square families of three or more
    # listed operators, whatever the Choi rank; a continuum spectrum leaves
    # the channel to the stages after it.
    ch = rec.ch
    if len(ch.kraus) < 3 or ch.dim_in != ch.dim_out:
        return None
    try:
        return _screen_verdict(rec)
    except NotFinite:
        return None


@lru_cache(maxsize=16)
def _hermitian_basis(n: int, field: str) -> np.ndarray:
    """Frobenius-orthonormal basis of Herm(n) (Sym(n) on the real field) as columns ``vec(B)``, read-only.

    The diagonal units, ``(E_ab + E_ba)/sqrt(2)`` and, on the complex field,
    ``i (E_ba - E_ab)/sqrt(2)`` for ``a < b``.  Built once per shape: ``K``
    times it combines ``K``'s columns into the restriction to Herm(n).
    """
    eye = np.eye(n * n)
    a, b = np.triu_indices(n, 1)
    ab, ba = a * n + b, b * n + a
    cols = [eye[:, :: n + 1], (eye[:, ab] + eye[:, ba]) / np.sqrt(2.0)]
    if field == COMPLEX:
        cols.append(1j * (eye[:, ba] - eye[:, ab]) / np.sqrt(2.0))
    T = np.hstack(cols)
    T.flags.writeable = False
    return T


# The sphere search runs at kernel dimensions 1 to 3 only: at 4 its proofs
# needed 7.3k-15.2k cells and 25-54 ms, against 4-8 ms for the witness
# search's 64 starts.
_SPHERE_MAX_DIM = 3
# Cells the sphere search may evaluate before it hands the channel back.  On
# the benchmark's d = 3 channels most proofs need at most 1.8k cells, and the
# rest 4.4k-72k.
_SPHERE_CELLS = 4096


def _kernel_stage(rec: _ChannelRecord, cfg: OracleConfig) -> PRVerdict:
    """Kernel of the channel on Herm(n) (complex field) or Sym(n) (real field), the last stage.

    The channel fails precisely when a nonzero ``H = xx* - yy*`` lies in this
    kernel, of dimension d; ``sigma_r`` is the smallest singular value kept.
    d = 0 proves PR with floor ``sigma_min``, and so does n = 1 (one pure
    state).  Otherwise, in order, each witness under :func:`_accepted`:

    * At d = 1 or n = 2, the pair of :func:`_signature_verdict` on the first
      basis matrix ``H1``; at n = 2 it decides every d, since
      ``Phi(H) >= l_min(H) sum_i A_i A_i*`` leaves no kernel element definite.
      At d >= 2 (n >= 3), restart 0 of the bilinear search on ``rec.K``; when
      ``rec.kernel_floor`` already shows d >= 2, before ``M`` is built.
    * At n >= 3 and d <= ``_SPHERE_MAX_DIM``, a ``gamma`` from
      :func:`_sphere_gamma` proves PR with floor ``sigma_r gamma / sqrt(2)``.
      A unit H of bad signature has ``l2 <= 0 <= l_{n-1}``; write
      ``H = H(c) + Hp`` with ``Hp`` orthogonal to the kernel.  By Weyl,
      ``|c| gamma <= g(H(c)) <= ||Hp||_F``, and ``|c|^2 + ||Hp||_F^2 = 1``,
      so ``||Phi(H)|| = ||Phi(Hp)|| >= sigma_r gamma / sqrt(1 + gamma^2)``.
    * On the real field, at d > ``_SPHERE_MAX_DIM`` or when the sphere search
      gives up, :func:`_rank_one_verdict`: PR (floor None) or NOT_PR by the
      complement property of the rank-one points of the kernel's complement.
      It declines when those points are not found or do not span it (a
      kernel of dimension below n - 1 leaves infinitely many), past the
      bipartition cap, and when its NOT_PR pair fails :func:`_accepted`.
    * Last, the pair of :func:`_kernel_search`'s best ``H(c)``: NOT_PR, or
      LIKELY_PR with its relative residual as the floor.
    """
    tol, n = rec.tol, rec.ch.dim_in
    # The floor goes first, so M stays unbuilt whenever it already shows d >= 2.
    if n > 2 and (rec.kernel_floor >= 2 or rec.kernel_dim >= 2) and (verdict := _restart_zero(rec, cfg)):
        return verdict
    d = rec.kernel_dim
    if d == 0 or n == 1:
        floor = float(rec.singular_values[-1]) if d == 0 else None
        return PRVerdict(PR, HERMITIAN_KERNEL, EmptyCertificate(floor=floor), floor=floor, residuals={})
    if (d == 1 or n == 2) and (verdict := _signature_verdict(rec, rec.kernel_basis[0], HERMITIAN_KERNEL)[0]):
        return verdict
    H = rec.kernel_basis
    if n > 2 and d <= _SPHERE_MAX_DIM and (gamma := _sphere_gamma(H, tol.residual_abs)) is not None:
        floor = float(rec.singular_values[rec.herm_rank - 1] * gamma / np.sqrt(2.0))
        return PRVerdict(PR, HERMITIAN_KERNEL, EmptyCertificate(floor=floor), floor=floor, residuals={})
    if verdict := _rank_one_verdict(rec):
        return verdict
    verdict, floor = _signature_verdict(rec, np.tensordot(_kernel_search(H, cfg), H, 1), ORACLE_WITNESS)
    return verdict or PRVerdict(LIKELY_PR, ORACLE_NO_WITNESS, EmptyCertificate(floor=floor), floor=floor, residuals={})


def _accepted(rec: _ChannelRecord, res: float) -> bool:
    """The witness test of :func:`decide`: tensor residual at most ``residual_abs * sum_i ||A_i||_F^2``."""
    return res <= rec.tol.residual_abs * rec.choi_trace


def _signature_verdict(rec: _ChannelRecord, H: np.ndarray, method: str):
    """``(NOT_PR or None, floor)`` of ``x = sqrt(|l1|) p``, ``y = sqrt(|ln|) q`` from H's extreme eigenpairs.

    ``xx* - yy*``, H without its middle eigenvalues, is the symmetric product
    of the certificate ``((x + y)/sqrt2, (x - y)/sqrt2)``; the floor is
    ``||Phi(xx* - yy*)|| / ||xx* - yy*||_F``.
    """
    w, v = np.linalg.eigh(H)
    x, y = np.sqrt(abs(w[-1])) * v[:, -1].astype(complex), np.sqrt(abs(w[0])) * v[:, 0].astype(complex)
    verdict = _not_pr(rec, method, TensorWitness((x + y) / np.sqrt(2.0), (x - y) / np.sqrt(2.0), SYMMETRIC), SYMMETRIC)
    res = verdict.residuals["tensor"]
    if not _accepted(rec, res):
        return None, res / float(np.hypot(w[-1], w[0]))
    return verdict, 0.0


# Entries of the largest system of linearized minors _rank_one_points builds:
# (k choose 2)((k choose 2) + 1)/2 minors by m(m + 1)/2 unknowns, about
# 0.5 MB.  Every benchmark channel stays far below it (real-4-N7's second
# system is 231 x 36); the second system of a random real channel from R^7
# to R^6 would be 22,155 x 630.
_MINORS_CAP = 2**16


def _rank_one_points(S: np.ndarray, tol: Tolerance, again: bool = True) -> Optional[np.ndarray]:
    """Rows ``b_j`` whose ``b_j b_j^T`` lie in and span the span of the
    Frobenius-orthonormal symmetric ``S_1..S_m``, stacked ``(m, k, k)``; or None.

    ``S(c) = sum_i c_i S_i`` has rank at most one exactly when its 2x2 minors
    vanish.  Each minor is a linear form in ``c c^T``, read in the coordinates
    of :func:`_hermitian_basis`; the null space of these forms, by one SVD
    (full when it has fewer rows than columns), holds ``c_j c_j^T`` for every
    rank-one ``S(c_j)``.  When it has dimension ``m`` it is spanned by
    ``Z_t = C D_t C^T``, the ``c_j`` the columns of ``C``, so the eigenvectors
    of ``P Q^-1`` for two fixed generic combinations ``P, Q`` of the ``Z_t``
    are the ``c_j`` (Jennrich's algorithm; De Lathauwer, SIMAX 2006).  When
    it is larger, up to ``2m``, the ``c_j c_j^T`` are the rank-one points of
    the null space: the same function, once more, finds them.  ``b_j`` is the
    scaled top eigenvector of ``S(c_j)``.  None past ``_MINORS_CAP``, or when
    an eigenvalue is complex, a ``S(c_j)`` has a second eigenvalue past the
    rank rule's cut or the ``c_j`` span fewer than ``m`` dimensions by it.
    """
    m, k = S.shape[:2]
    p, q = np.triu_indices(k, 1)
    a, b = np.triu_indices(len(p))
    if len(a) * m * (m + 1) // 2 > _MINORS_CAP:
        return None
    T = _hermitian_basis(m, REAL)
    # G[i, j, t] c_i c_j summed is minor t of S(c): rows (p_a, q_a), columns (p_b, q_b).
    G = S[:, p[a], p[b]][:, None] * S[:, q[a], q[b]] - S[:, p[a], q[b]][:, None] * S[:, q[a], p[b]]
    L = G.reshape(m * m, -1).T @ T
    _, s, vh = np.linalg.svd(L, full_matrices=L.shape[0] < L.shape[1])
    Z = (vh[_rank(s, tol) :] @ T.T).reshape(-1, m, m)
    if not m <= len(Z) <= (2 * m if again else m):
        return None
    if len(Z) > m:
        C = _rank_one_points(Z, tol, False)
    else:
        P, Q = np.random.default_rng([0x4A, m]).normal(size=(2, m)) @ Z.reshape(m, -1)
        try:
            w, v = np.linalg.eig(np.linalg.solve(Q.reshape(m, m), P.reshape(m, m)).T)
        except np.linalg.LinAlgError:
            return None
        C = None if np.iscomplexobj(w) else v.T
    if C is None:
        return None
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    w, v = np.linalg.eigh(np.tensordot(C, S, 1))
    second, top = np.sort(abs(w), axis=1)[:, -2:].T
    if np.any(second > tol.rank_rel * top) or _rank(np.linalg.svd(C, compute_uv=False), tol) < m:
        return None
    return np.sqrt(top)[:, None] * v[np.arange(len(v)), :, np.argmax(abs(w), axis=1)]


def _rank_one_verdict(rec: _ChannelRecord) -> Optional[PRVerdict]:
    """The real-field step of :func:`_kernel_stage`: the complement property of the
    rank-one points of the kernel's complement, or None.

    When ``b_j b_j^T`` span the complement (see :func:`_rank_one_points`), the
    kernel is exactly ``{X : b_j^T X b_j = 0 for all j}``, so ``xx^T - yy^T``
    lies in it exactly when ``(b_j^T (x + y)) (b_j^T (x - y)) = 0`` for every
    j: the channel is PR exactly when ``{b_j}`` has the complement property
    (Balan, Casazza, Edidin, ACHA 2006).  That PR has no floor: the test
    bounds no ``||Phi(H)||``.  A failing bipartition gives ``u`` orthogonal to
    one side and ``v`` to the other, and NOT_PR with the symmetric product of
    ``(u, v)`` when it passes :func:`_accepted`.  The step reads the kernel
    alone, so scaling, orthogonal conjugation, Kraus mixing and splitting
    leave it unchanged.  None on the complex field, past the bipartition cap
    and when the points are not found.
    """
    if rec.ch.field != REAL or not rec.herm_rank or (B := _rank_one_points(rec.complement_basis, rec.tol)) is None:
        return None
    try:
        failing = _failing_bipartition(B, rec.tol)
    except TooManyVectors:
        return None
    if failing is None:
        return PRVerdict(PR, COMPLEMENT_PROPERTY, EmptyCertificate(), residuals={})
    x, y = _equal_image_pair(B, *failing, rec.tol)
    verdict = _not_pr(rec, COMPLEMENT_PROPERTY, TensorWitness((x + y) / 2.0, (x - y) / 2.0, SYMMETRIC), SYMMETRIC)
    return verdict if _accepted(rec, verdict.residuals["tensor"]) else None


# Restart 0 stops on an absolute objective, so on a small-scale channel it
# would run all of ``max_iters`` before the kernel search takes over.
_RESTART_ZERO_ITERS = 40


def _restart_zero(rec: _ChannelRecord, cfg: OracleConfig) -> Optional[PRVerdict]:
    """Restart 0 of the bilinear search on ``rec.K``, at most ``_RESTART_ZERO_ITERS``
    iterations: NOT_PR when its witness passes :func:`_accepted`."""
    ch, one = rec.ch, replace(cfg, restarts=1, max_iters=min(cfg.max_iters, _RESTART_ZERO_ITERS))
    if ch.field == REAL:
        pair, kind = minimize_simple_pair(rec.K, ch.dim_in, REAL, one)[1:], SIMPLE
    else:
        pair, kind = minimize_symmetric_pair(rec.K, ch.dim_in, one)[1:], SYMMETRIC
    x, y = (np.asarray(v, dtype=complex) for v in pair)
    verdict = _not_pr(rec, ORACLE_WITNESS, TensorWitness(x, y, kind), kind)
    return verdict if _accepted(rec, verdict.residuals["tensor"]) else None


def _sphere_gamma(H: np.ndarray, margin: float) -> Optional[float]:
    """A proved ``gamma > margin`` with ``g(c) >= gamma`` on the unit sphere, or None.

    ``H`` stacks Frobenius-orthonormal Hermitian ``H_1..H_d``, and
    ``g(c) = max(l2, -l_{n-1})`` for the eigenvalues ``l1 >= ... >= ln`` of
    ``H(c) = sum_k c_k H_k``.  ``g`` is 1-Lipschitz in ``c``, by Weyl's
    inequality and ``||.||_2 <= ||.||_F``, and even, so the d positive faces
    ``z_k = 1`` of the cube ``[-1, 1]^d``, projected radially, cover the sphere.
    Branch and bound over square cells of those faces: a cell of half-side
    ``h`` around ``z`` lies within ``delta = h sqrt(d - 1)`` of ``z``, and
    every one of its points has norm at least ``rho = max(1, ||z|| - delta)``.
    Projection onto the ball of radius ``rho`` is nonexpansive, so the cell's
    points project within ``delta / rho`` of ``z / ||z||``.  A cell is cleared
    when ``g(z / ||z||) - delta / rho > margin``, and every other cell splits
    into ``2^(d-1)`` of half the side.  Each level is one stacked ``eigvalsh``.
    ``gamma`` is the least ``g - delta / rho`` over the cleared cells.

    None when the cells evaluated would pass ``_SPHERE_CELLS``, or at once
    when some centre has ``g <= margin``: the cells around that point can
    never clear.
    """
    d, n = H.shape[:2]
    basis = H.reshape(d, n * n)
    signs = np.array(list(product((-1.0, 1.0), repeat=d - 1)))
    # steps[k]: the child centre offsets, in half-sides, of a cell on face k.
    steps = np.array([np.insert(signs, k, 0.0, axis=1) for k in range(d)])
    z, face = np.eye(d), np.arange(d)
    h, gamma, cells = 1.0, np.inf, 0
    while len(z):
        cells += len(z)
        if cells > _SPHERE_CELLS:
            return None
        norm = np.linalg.norm(z, axis=1)
        w = np.linalg.eigvalsh(((z / norm[:, None]) @ basis).reshape(-1, n, n))
        g = np.maximum(w[:, -2], -w[:, 1])
        if np.any(g <= margin):
            return None
        delta = h * np.sqrt(d - 1)
        bound = g - delta / np.maximum(1.0, norm - delta)
        cleared = bound > margin
        if cleared.any():
            gamma = min(gamma, float(bound[cleared].min()))
        z, face, h = z[~cleared], face[~cleared], h / 2
        z = (z[:, None, :] + h * steps[face]).reshape(-1, d)
        face = np.repeat(face, len(signs))
    return gamma


# Witness search: steps per start, the F of an exact zero, the steps without
# halving F after which a start is dropped, the most starts in one stacked
# batch, which keeps its arrays small however many starts are asked for, and
# the damping of the step's normal equations.  The damping can be absolute:
# ``||H(c)||_F = 1`` and ``V`` is unitary, so ``J`` and ``r`` are O(1).
_SEARCH_STEPS = 40
_SEARCH_ZERO = 1e-28
_SEARCH_STALL = 3
_SEARCH_BATCH = 64
_SEARCH_DAMP = 1e-14


def _tangent_step(J: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Gauss-Newton steps ``delta``, orthogonal to ``c``, of stacked Jacobians ``J`` at unit rows ``c``.

    ``J`` sends ``c`` to the residual ``r = J c``, so ``A = J - r c^T`` is
    ``J`` on the tangent space (``A c = 0``).  ``delta`` solves the damped
    normal equations ``(A^T A + c c^T + mu I) delta = A^T r`` with
    ``mu = _SEARCH_DAMP``, one stacked ``solve`` and no SVD.  Since
    ``A^T r`` is orthogonal to ``c``, the ``c c^T`` term changes nothing but
    the rounding: it keeps the part of ``A^T r`` along ``c`` from being
    divided by ``mu``.  Where ``A``'s singular values lie far above
    ``sqrt(mu)`` the step is the min-norm least-squares one; far below, the
    damping drops them as a pseudo-inverse's cut would.
    """
    r = J @ c[:, :, None]
    A = J - r * c[:, None, :]
    N = A.mT @ A + c[:, :, None] * c[:, None, :] + _SEARCH_DAMP * np.eye(c.shape[1])
    return np.linalg.solve(N, A.mT @ r)[:, :, 0]


def _kernel_search(H: np.ndarray, cfg: OracleConfig) -> np.ndarray:
    """The unit ``c`` of least ``F(c)`` that Gauss-Newton runs from ``cfg.restarts`` starts reach.

    ``H`` stacks Frobenius-orthonormal Hermitian ``H_1..H_d``, so
    ``H(c) = sum_k c_k H_k`` has unit norm, and ``F(c)``, the sum of its
    squared middle eigenvalues, vanishes exactly where ``H(c) = xx* - yy*``.
    The starts are unit rows from ``default_rng([seed, 0x53, d])``: the first
    runs alone, then the rest in batches of up to ``_SEARCH_BATCH``, until a
    start reaches a zero.  Each step is one stacked ``eigh``.  For the middle
    eigenvectors ``V`` the residual is ``V* H(c) V`` and the Jacobian ``J``
    has columns ``V* H_k V``, in real upper-triangle coordinates with
    Frobenius norms: every ``H_k V`` of every start comes from one GEMM, and
    ``V*`` times them from one stacked product.  The step is
    :func:`_tangent_step`'s, and ``c`` is renormalized.
    """
    (d, n), total = H.shape[:2], cfg.restarts
    k = n - 2
    a, b = np.triu_indices(k)
    weight = np.where(a == b, 1.0, np.sqrt(2.0))[:, None]
    best_c = np.random.default_rng([abs(int(cfg.seed)), 0x53, d]).normal(size=(total, d))
    best_c /= np.linalg.norm(best_c, axis=1, keepdims=True)
    best_f, halved, stall = np.full(total, np.inf), np.full(total, np.inf), np.zeros(total, dtype=int)
    bounds = [0, *range(1, total, _SEARCH_BATCH), total]
    for lo, hi in zip(bounds, bounds[1:]):
        if best_f.min() < _SEARCH_ZERO:
            break
        live, c = np.arange(lo, hi), best_c[lo:hi]
        for _ in range(_SEARCH_STEPS):
            w, v = np.linalg.eigh((c @ H.reshape(d, n * n)).reshape(-1, n, n))
            f = np.sum(w[:, 1:-1] ** 2, axis=1)
            better = f < best_f[live]
            best_f[live[better]], best_c[live[better]] = f[better], c[better]
            if f.min() < _SEARCH_ZERO:
                break
            fresh = f < 0.5 * halved[live]
            halved[live[fresh]] = f[fresh]
            stall[live] = np.where(fresh, 0, stall[live] + 1)
            keep = stall[live] < _SEARCH_STALL
            if not keep.any():
                break
            live, c, mid = live[keep], c[keep], v[keep, :, 1:-1]
            # HV[s, :, (j, l)] = (H_j V_s)[:, l], then J[s, (a, b), j] = (V_s* H_j V_s)[a, b].
            HV = (H.reshape(d * n, n) @ mid.transpose(1, 0, 2).reshape(n, -1)).reshape(d, n, -1, k)
            HV = HV.transpose(2, 1, 0, 3).reshape(-1, n, d * k)
            J = (mid.conj().mT @ HV).reshape(-1, k, d, k)[:, a, :, b].transpose(1, 0, 2) * weight
            if np.iscomplexobj(J):
                J = np.concatenate((J.real, J.imag[:, a < b]), axis=1)
            c = c - _tangent_step(J, c)
            c /= np.linalg.norm(c, axis=1, keepdims=True)
    return best_c[np.argmin(best_f)]


# The stage table: ``decide`` runs "full", ``check --method`` any entry.  A
# stage returns a verdict, or None to pass the channel on.
METHODS = {
    "full": (_low_rank_stage, _screen_stage, _rank2_stage, _kernel_stage),
    "exact": (_low_rank_stage, _rank2_stage),
    # Alone, the screen runs on any square family and its errors propagate.
    "necessary": (_screen_verdict,),
    "oracle": (_kernel_stage,),
}


def decide(ch: QuantumChannel, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Full phase-retrievability dispatcher: every stage of ``METHODS["full"]`` in order.

    NOT_PR verdicts carry re-verifiable certificates and an equal-image
    pure-state pair whenever one can be derived.
    """
    return decide_method(ch, "full", cfg, tol)


def decide_method(
    ch: QuantumChannel, method: str, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL
) -> PRVerdict:
    """Verdict of the first stage of ``METHODS[method]`` that settles ``ch`` (``check --method``).

    ``exact`` raises :class:`WrongRank` when the Choi-rank stages do not
    settle the channel; ``necessary`` reports a pass of the screen as
    LIKELY_PR with method NECESSARY_PASS.
    """
    rec, cfg = _ChannelRecord(ch, tol), cfg or OracleConfig()
    verdict = next((v for stage in METHODS[method] if (v := stage(rec, cfg)) is not None), None)
    if verdict is None and method == "exact":
        raise WrongRank(f"the exact stages need Choi rank <= 2, channel has rank {rec.rank}")
    return verdict or PRVerdict(LIKELY_PR, NECESSARY_PASS, EmptyCertificate(), residuals={})


def verify_certificate(ch: QuantumChannel, verdict: PRVerdict, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Recompute certificate residuals using channel application only.

    Returns a dict of named residuals; callers assert their own thresholds.
    """
    residuals: dict[str, float] = {}
    cert, rec = verdict.certificate, _ChannelRecord(ch, tol)
    if isinstance(cert, InnerProductViolation):
        residuals["inner_product"] = float(abs(1.0 + np.sum(cert.lam * np.conj(cert.mu))))
    if isinstance(cert, (PencilClash, InnerProductViolation, TensorWitness)):
        residuals["tensor"] = _tensor_image(rec, cert.x, cert.y, getattr(cert, "kind", SIMPLE))[0]
    # A RANK1 NOT_PR carries its state pair as both certificate and witness.
    sw = verdict.state_witness or (cert if isinstance(cert, StateWitness) else None)
    if sw is not None:
        diff = _outer(sw.x, sw.x) - _outer(sw.y, sw.y)
        residuals["state"] = float(np.linalg.norm(_image(rec.A, diff)))
        residuals["separation"] = float(np.linalg.norm(diff))
    return residuals
