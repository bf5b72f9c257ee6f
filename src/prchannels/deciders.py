"""Phase-retrievability verdicts for quantum channels.

:func:`decide` runs one ordered stage table, and the first stage that settles
the channel gives the verdict:

1. Choi rank 0 or 1: conjugation by one operator, PR exactly when it is
   injective.
2. Exact Choi rank 2: the channel fails precisely when some ``lam`` makes
   both ``A1 + lam A2`` and ``-conj(lam) A1 + A2`` non-injective, so the
   singular set of the first pencil is computed once and its roots are tested
   on the second, the reflected pencil.  On the real field the pair comes
   from the real pencils at the clash root's real part when it re-verifies;
   when it does not, the clash root is not real and the channel passes on.
3. Rank split: when the Kraus operators' ranks split into two groups that
   each sum to at most ``n - 1``, each group has a common kernel vector, and
   the pair of them is annihilated: NOT_PR by the complement property of the
   operators as an operator-valued frame.  Pinchings of three or more
   blocks and the channels of frames of at most ``2n - 2`` vectors end here.
4. Necessary screen, after every exact stage: two points ``lam, mu`` of a
   scalar relative joint spectrum with ``1 + <lam, mu> = 0`` certify NOT_PR,
   on the real field only when the witnesses are real up to a phase.  The
   spectrum, with the one one-column rule it shares with the pencil engine,
   lives in :mod:`spectra`; the channels of frames of more than ``2n - 2``
   vectors leave it by rank subadditivity, without a pencil computation.
5. Hermitian kernel, on both fields, last: the channel fails precisely when
   some nonzero ``H = xx* - yy*`` lies in its kernel on Herm(n) (Sym(n) on
   the real field; Bandeira, Cahill, Mixon, Nelson, "Saving phase", ACHA
   2014).  Its steps, in the order of ``_KERNEL_STEPS``: a trivial kernel
   proves PR.  At dimension 1 and on C^2 and R^2 a witness from the kernel's
   first spanning matrix gives NOT_PR, and at dimension 1 one eigenvalue test
   of that matrix may prove PR.  On the real field, the rank-one points
   ``b_j b_j^T`` of the kernel's complement decide by the complement property
   of ``{b_j}`` when they span it, read off the operators ``A_j = u_j b_j^T``
   when every one has rank at most one and the ``u_j u_j^T`` are independent,
   and otherwise found by linear algebra alone from the complement.  At
   dimensions 2 up to the codimension of the matrices of rank at most 2, a
   Macaulay matrix of full column rank shows that the kernel's span holds no
   matrix of rank at most 2, which proves PR; past its size cap the matrix is
   built for a seeded compression of the span, which can only lower ranks.
   On C^3 and R^3 at dimension 2 or more and at dimension 2 on every larger
   space, the real roots of one cubic, ``det`` of the first two spanning
   matrices' pencil compressed to 3x3, hold every matrix of rank at most 2 in
   their span: on C^3 and R^3 one always exists (the cubic is odd) and gives
   NOT_PR, and at dimension 2, where the span is the kernel, none proves PR.
   Last, one Gauss-Newton search on the kernel's sphere gives NOT_PR or
   LIKELY_PR.

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
image, ``Phi(x y^*) = sum_i (A_i x) (A_i y)^*``, read off the Kraus images
``A_i x`` and ``A_i y``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from math import comb
from typing import Optional

import numpy as np

from .bilinear import OracleConfig, minimize_simple_pair, minimize_symmetric_pair
from .channels import QuantumChannel, _choi_rank
from .errors import DimensionMismatch, NotFinite, NotSquare, TooManyVectors, WrongField, WrongRank
from .linalg import _MINORS_CAP, COMPLEX, DEFAULT_TOL, REAL, Tolerance, _rank, _rank2_codim
from .linalg import _cubic_candidates, _equal_image_pair, _failing_bipartition, _macaulay_degree
from .linalg import _rank_one_independent
from .spectra import _relative_spectrum, _singular_at, pencil_singular_set

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
MACAULAY = "MACAULAY"

SIMPLE = "simple"
SYMMETRIC = "symmetric"

# The search budget of a call without one; frozen, so every call shares it.
_DEFAULT_CFG = OracleConfig()


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
    "MACAULAY",
    "SIMPLE",
    "SYMMETRIC",
    "NOT_FINITE",
    "PencilClash",
    "InnerProductViolation",
    "TensorWitness",
    "StateWitness",
    "EmptyCertificate",
    "MacaulayCertificate",
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
class MacaulayCertificate:
    """PR proof: the Macaulay matrix of degree ``degree`` of the kernel's 3x3
    minors has full column rank, with ``ratio`` its ``sigma_min / sigma_max``."""

    degree: int
    ratio: float


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
    """``(residual, P)`` from one image ``P = Phi(x y^*) = sum_i (A_i x) (A_i y)^*``,
    read off the Kraus images as ``(A x)^T conj(A y)`` for the ``(r, m)`` stack
    ``A x`` of the ``A_i x``: the residual is ``||P||``, or
    ``||P + P^*|| = ||Phi(x y^* + y x^*)||`` for the symmetric kind, since Phi
    preserves adjoints."""
    P = (rec.A @ x).T @ (rec.A @ y).conj()
    return float(np.linalg.norm(P if kind == SIMPLE else P + P.conj().T)), P


def _state_image(rec: _ChannelRecord, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``Phi(xx^* - yy^*)`` from the Kraus images: ``(A x)^T conj(A x) - (A y)^T conj(A y)``."""
    Ax, Ay = rec.A @ x, rec.A @ y
    return Ax.T @ Ax.conj() - Ay.T @ Ay.conj()


def _separation_sq(u: np.ndarray, v: np.ndarray) -> float:
    """``||uu* - vv*||_F^2`` from scalars: ``|u|^4 + |v|^4 - 2 |<u, v>|^2``."""
    uu, vv = np.vdot(u, u).real, np.vdot(v, v).real
    return float(uu * uu + vv * vv - 2.0 * abs(np.vdot(u, v)) ** 2)


def _to_state_witness(rec: _ChannelRecord, x: np.ndarray, y: np.ndarray, P: np.ndarray):
    """Turn an annihilated (symmetric) tensor pair into equal-image pure states.

    The sum and difference of the pair bracket the same channel image; a
    common rescale keeps the equality.  Returns None when the resulting
    states are numerically indistinct or their images differ.  Image
    residuals are read relative to ``sum_i ||A_i||_F^2`` times
    ``||u||^2 + ||v||^2``, so the answer does not change with the channel's
    scale.  The image of ``uu* - vv*`` is read from ``P = Phi(x y^*)``: it is
    ``2 (P + P^*) / big^2``.  The states' separation ``||uu* - vv*||_F`` is read
    from scalars, by :func:`_separation_sq`.
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
        # The image is -3 Phi(base base^*), so the ray test reads three times its bound.
        image = _state_image(rec, u, v)
        if np.linalg.norm(image) > 3.0 * rec.tol.residual_abs * scale:
            return None
    else:
        u, v = u / big, v / big
        scale = rec.choi_trace * (nu**2 + nv**2) / big**2
        image = 2.0 * (P + P.conj().T) / big**2
    if _separation_sq(u, v) < 0.05**2:
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
        return float(np.vdot(self.A, self.A).real)

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
        ``rank_rel sigma_max(M) >= rank_rel s^2``, so the numerical rank of ``M``
        is at most ``sum_i k_i^2`` (``sum_i k_i (k_i + 1) / 2`` on the real field):
        ``X -> A X A*`` maps Herm(n) into Herm of ``A``'s range, of dimension
        ``rank(A)^2``, and Sym(n) into Sym of it.  ``numerical_rank``'s cut
        ``rank_rel s_i`` gives no such bound: a singular value at it can leave
        ``M``'s rank above the count."""
        s = self.kraus_values
        top = s[:, 0]
        tau = self.tol.rank_rel * top.max() ** 2 / (4.0 * top.sum()) if top.any() else 0.0
        return np.count_nonzero(s > tau, axis=1)

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
    state = float(np.linalg.norm(_state_image(rec, sw.x, sw.y)))
    return PRVerdict(NOT_PR, RANK1, sw, state_witness=sw, residuals={"state": state})


def decide_rank1(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Choi rank 1: PR when the single Kraus operator is injective, else NOT_PR with a state pair."""
    rec = _ChannelRecord(ch, tol)
    if rec.rank != 1:
        raise WrongRank("channel does not have Choi rank 1")
    return _low_rank_stage(rec)


def _smallest_right_vector(M: np.ndarray) -> np.ndarray:
    """The right singular vector of ``M``'s smallest singular value, complex, real-valued for a real ``M``."""
    _, _, vh = np.linalg.svd(M)
    return vh[-1].conj().astype(complex)


def decide_rank2(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Exact decision for Choi rank 2 from one pencil singular set.

    With spanning pair (A1, A2), the singular set S collects lam where
    ``A1 + lam A2`` loses injectivity.  The channel fails exactly when the
    reflected pencil ``-conj(lam) A1 + A2`` does too at some lam in S: its
    roots are tested there under the margin test of :func:`pencil_singular_set`.
    Raises :class:`WrongRank` at any other rank, and for a real channel whose
    pencils clash only at a non-real root with no real pair that re-verifies.
    """
    rec = _ChannelRecord(ch, tol)
    if rec.rank != 2:
        raise WrongRank("channel does not have Choi rank 2")
    if (verdict := _rank2_stage(rec)) is None:
        raise WrongRank("the exact rank-2 stage did not settle the real channel: its clash root is not real")
    return verdict


def _rank2_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """Exact Choi rank 2 (see :func:`decide_rank2`); None at any other rank, and on
    the real field when the clash root is not real and its real pair fails :func:`_accepted`."""
    if rec.rank != 2:
        return None
    ch, tol, A = rec.ch, rec.tol, rec.A
    if len(A) != 2:
        # Two operators with the family's Kraus span: the family mixed by the
        # two leading left singular vectors of its stack.
        F = A.reshape(len(A), -1)
        U = np.linalg.svd(F.real if ch.field == REAL else F, full_matrices=False)[0]
        A = (U[:, :2].conj().T @ F).reshape(2, ch.dim_out, ch.dim_in)
    A1, A2 = A.real if ch.field == REAL else A
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
    # On the real field the pencils at the root's real part are real, and so are
    # their kernel vectors: that pair serves when the root is real or the pair
    # re-verifies.  A complex pair proves nothing about real states, so otherwise
    # the channel passes on.
    if ch.field == REAL:
        verdict = _not_pr(rec, RANK2_EXACT, PencilClash(complex(clash), *_pencil_pair(A1, A2, float(np.real(clash)))))
        return verdict if np.imag(clash) == 0.0 or _accepted(rec, verdict.residuals["tensor"]) else None
    return _not_pr(rec, RANK2_EXACT, PencilClash(complex(clash), *_pencil_pair(A1, A2, clash)))


def _pencil_pair(A1: np.ndarray, A2: np.ndarray, lam) -> tuple:
    """Kernel vectors of ``A1 + lam A2`` and of the reflected pencil ``-conj(lam) A1 + A2``."""
    return _smallest_right_vector(A1 + lam * A2), _smallest_right_vector(-np.conj(lam) * A1 + A2)


def _rank_split_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """NOT_PR when the Kraus operators' ranks split into two groups that each sum to at most ``n - 1``.

    The operators of each group then share a kernel vector, ``x`` those of the
    group ``S`` and ``y`` the rest, so every term of ``Phi(x y^*) = sum_i
    (A_i x) (A_i y)^*`` vanishes: the operators fail the complement property
    of an operator-valued frame (Balan, Casazza, Edidin, ACHA 2006), as
    ``2n - 2`` vectors always do.  A subset sum over ``rec.kraus_ranks`` finds
    the split most even in rank, with ``sum k - (n - 1) <= sum_S k <= n - 1``;
    ``x`` and ``y`` are the smallest right singular vectors of the two stacks
    (real on the real field); when one group is empty the other's vector,
    which then kills every operator, serves as both.  None when the ranks
    sum past ``2n - 2``, when no split exists and when the pair fails
    :func:`_accepted`.
    """
    n, ranks = rec.ch.dim_in, rec.kraus_ranks.tolist()
    total = sum(ranks)
    if total > 2 * n - 2:
        return None
    # One group of operators for each rank sum a group reaches.
    groups = {0: ()}
    for i, k in enumerate(ranks):
        for s, group in list(groups.items()):
            groups.setdefault(s + k, group + (i,))
    fits = [s for s in groups if total - (n - 1) <= s <= n - 1]
    if not fits:
        return None
    # The most even split keeps the larger group's rank sum furthest below n.
    side = np.zeros(len(ranks), dtype=bool)
    side[list(groups[min(fits, key=lambda s: abs(2 * s - total))])] = True
    A = rec.A.real if rec.ch.field == REAL else rec.A
    pair = [_smallest_right_vector(A[g].reshape(-1, n)) for g in (side, ~side) if g.any()]
    verdict = _not_pr(rec, COMPLEMENT_PROPERTY, TensorWitness(pair[0], pair[-1], SIMPLE))
    return verdict if _accepted(rec, verdict.residuals["tensor"]) else None


def scalar_relative_spectrum(ch: QuantumChannel, j: int, tol: Tolerance = DEFAULT_TOL, *, _rec=None):
    """All lam vectors with a nonzero x satisfying ``A_i x = lam_i A_j x`` for i != j.

    Requires square Kraus operators.  Returns a sorted list of
    :class:`SpectrumPoint` or :data:`NOT_FINITE` when the set is a continuum;
    ``spectra._relative_spectrum`` computes it.  The ranks come from ``_rec``,
    the calling screen's record, or a new one.
    """
    if ch.dim_in != ch.dim_out:
        raise NotSquare("scalar relative spectra need square Kraus operators")
    if not 0 <= j < len(ch.kraus):
        raise IndexError(f"operator index {j} out of range")
    if len(ch.kraus) == 1:
        return []
    # The numerical rank of every operator, by numerical_rank's rule, from the
    # record's stacked singular values: a zero matrix has all of them 0, rank 0.
    s = (_rec or _ChannelRecord(ch, tol)).kraus_values
    ranks = np.count_nonzero(s > tol.rank_rel * s[:, :1], axis=1).tolist()
    points = _relative_spectrum(ch.kraus, j, ranks, tol)
    return NOT_FINITE if points is None else points


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
    return _witness_or_floor(rec, *minimize_simple_pair(rec.K, ch.dim_in, ch.field, cfg or _DEFAULT_CFG), SIMPLE)


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
    return _witness_or_floor(rec, *minimize_symmetric_pair(rec.K, ch.dim_in, cfg or _DEFAULT_CFG), SYMMETRIC)


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
    """The screen's verdict.  On the real field a violation counts only when its
    witnesses are real up to a global phase: the real parts of the pair, each
    turned by its phase, must pass :func:`_accepted`, and they replace it."""
    verdict = necessary_inner_product_check(rec.ch, rec.tol, _rec=rec)
    if verdict is None or rec.ch.field != REAL:
        return verdict
    cert = verdict.certificate
    real = replace(cert, x=_real_at_phase(cert.x), y=_real_at_phase(cert.y))
    verdict = _not_pr(rec, NECESSARY_VIOLATION, real, inner_product=verdict.residuals["inner_product"])
    return verdict if _accepted(rec, verdict.residuals["tensor"]) else None


def _real_at_phase(v: np.ndarray) -> np.ndarray:
    """The real part of ``v`` turned by the phase that brings it nearest a real
    vector, ``exp(-i arg(v^T v) / 2)``, as a complex array; when ``v`` is real
    up to a global phase, that real vector, up to sign."""
    return (v * np.exp(-0.5j * np.angle(v @ v))).real.astype(complex)


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


def _trivial_kernel_step(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """PR when the kernel is trivial, with floor ``sigma_min``, and on C^1 (one pure state); else None."""
    if (d := rec.kernel_dim) and rec.ch.dim_in > 1:
        return None
    floor = float(rec.singular_values[-1]) if d == 0 else None
    return PRVerdict(PR, HERMITIAN_KERNEL, EmptyCertificate(floor=floor), floor=floor, residuals={})


def _dimension_one_step(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """At d = 1 and on C^2 and R^2: NOT_PR by the pair of :func:`_signature_verdict`
    on the kernel's first spanning matrix ``H1``, or at d = 1 PR by its eigenvalues; else None.

    On C^2 and R^2 the pair decides every d, since
    ``Phi(H) >= l_min(H) sum_i A_i A_i*`` leaves no kernel element definite.
    At d = 1 and n >= 3, ``gamma = g(H1) = max(l2, -l_{n-1})``, for the
    eigenvalues ``l1 >= ... >= ln`` of ``H1``, past ``residual_abs`` proves PR
    with floor ``sigma_r gamma / sqrt(2)``, ``sigma_r`` the smallest singular
    value kept.  A unit H of bad signature has ``l2 <= 0 <= l_{n-1}``; write
    ``H = c H1 + Hp`` with ``Hp`` orthogonal to the kernel.  By Weyl,
    ``|c| gamma <= ||Hp||_F``, and ``c^2 + ||Hp||_F^2 = 1``, so
    ``||Phi(H)|| = ||Phi(Hp)|| >= sigma_r gamma / sqrt(1 + gamma^2)``.
    """
    n = rec.ch.dim_in
    if rec.kernel_dim != 1 and n != 2:
        return None
    H1 = rec.kernel_basis[0]
    if (verdict := _signature_verdict(rec, H1, HERMITIAN_KERNEL)[0]) or n == 2:
        return verdict
    w = np.linalg.eigvalsh(H1)
    if (gamma := max(w[-2], -w[1])) <= rec.tol.residual_abs:
        return None
    floor = float(rec.singular_values[rec.herm_rank - 1] * gamma / np.sqrt(2.0))
    return PRVerdict(PR, HERMITIAN_KERNEL, EmptyCertificate(floor=floor), floor=floor, residuals={})


def _accepted(rec: _ChannelRecord, res: float) -> bool:
    """The witness test of :func:`decide`: tensor residual at most ``residual_abs * sum_i ||A_i||_F^2``."""
    return res <= rec.tol.residual_abs * rec.choi_trace


def _signature_verdict(rec: _ChannelRecord, H: np.ndarray, method: str):
    """``(NOT_PR or None, floor)`` of ``x = sqrt(|l1|) p``, ``y = sqrt(|ln|) q`` from H's extreme eigenpairs.

    ``xx* - yy*``, H without its middle eigenvalues, is the symmetric product
    of the certificate ``((x + y)/sqrt2, (x - y)/sqrt2)``; the floor is
    ``||Phi(xx* - yy*)|| / ||xx* - yy*||_F``.  An extreme eigenvalue under the
    rank rule's cut of the other counts as zero, so a semidefinite H gives
    the pair of a ray, which :func:`_to_state_witness` turns into two scalings.
    """
    w, v = np.linalg.eigh(H)
    top, bottom = abs(w[-1]), abs(w[0])
    cut = rec.tol.rank_rel * max(top, bottom)
    x = np.sqrt(top if top > cut else 0.0) * v[:, -1].astype(complex)
    y = np.sqrt(bottom if bottom > cut else 0.0) * v[:, 0].astype(complex)
    verdict = _not_pr(rec, method, TensorWitness((x + y) / np.sqrt(2.0), (x - y) / np.sqrt(2.0), SYMMETRIC), SYMMETRIC)
    res = verdict.residuals["tensor"]
    if not _accepted(rec, res):
        return None, res / float(np.hypot(w[-1], w[0]))
    return verdict, 0.0


def _minors_entries(m: int, k: int) -> int:
    """Entries of the linearized 2x2 minors of ``m`` symmetric ``k x k`` matrices."""
    pairs = k * (k - 1) // 2
    return pairs * (pairs + 1) // 2 * (m * (m + 1) // 2)


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

    The minors span at most the quadrics on Sym(k) that vanish on its
    rank-one matrices, ``K (K + 1) / 2 - C(k + 3, 4)`` of them with
    ``K = k (k + 1) / 2``, so the null space has at least ``m (m + 1) / 2``
    less that many dimensions.  That floor past ``2m``, or past ``m`` with a
    second system over the cap, declines before any SVD.
    """
    m, k = S.shape[:2]
    K = k * (k + 1) // 2
    floor = m * (m + 1) // 2 - (K * (K + 1) // 2 - comb(k + 3, 4))
    if (
        _minors_entries(m, k) > _MINORS_CAP
        or floor > (2 * m if again else m)
        or (floor > m and _minors_entries(floor, m) > _MINORS_CAP)
    ):
        return None
    p, q = np.triu_indices(k, 1)
    a, b = np.triu_indices(len(p))
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


def _rank_one_verdict(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """The real-field rank-one kernel step: the complement property of the
    rank-one points of the kernel's complement, or None.

    When ``b_j b_j^T`` span the complement, the kernel is exactly
    ``{X : b_j^T X b_j = 0 for all j}``, so ``xx^T - yy^T`` lies in it exactly
    when ``(b_j^T (x + y)) (b_j^T (x - y)) = 0`` for every j: the channel is PR
    exactly when ``{b_j}`` has the complement property (Balan, Casazza,
    Edidin, ACHA 2006).  That PR has no floor: the test bounds no
    ``||Phi(H)||``.  A failing bipartition gives ``u`` orthogonal to one side
    and ``v`` to the other, and NOT_PR with the symmetric product of
    ``(u, v)`` when it passes :func:`_accepted`.

    When every listed operator has ``rec.kraus_ranks`` at most 1, the points
    are read off the operators: the nonzero ``A_j = u_j q_j^T`` map ``H`` to
    ``sum_j (q_j^T H q_j) u_j u_j^T``, so ``{q_j}`` with a failing bipartition
    gives NOT_PR whatever the ``u_j``, and its complement property gives PR
    when the ``u_j u_j^T`` are independent, since then the kernel is
    ``{H : q_j^T H q_j = 0}``.  ``q_j`` is ``A_j``'s row of largest norm and
    ``u_j = A_j q_j / |q_j|^2``.  Where that settles nothing (dependent
    ``u_j u_j^T``, a pair that fails :func:`_accepted`, the bipartition cap)
    and for every other family, :func:`_rank_one_points` recovers the points
    from the kernel's complement; that reads the kernel alone, so scaling,
    orthogonal conjugation, Kraus mixing and splitting leave it unchanged.
    None on the complex field, past the bipartition cap and when the points
    are not found.
    """
    if rec.ch.field != REAL or not rec.herm_rank:
        return None
    ranks = rec.kraus_ranks
    if ranks.max() <= 1 and ranks.any():
        A = rec.A.real[ranks > 0]
        Q = A[np.arange(len(A)), np.linalg.norm(A, axis=2).argmax(axis=1)]
        U = (A @ Q[:, :, None])[:, :, 0] / np.sum(Q * Q, axis=1)[:, None]
        if verdict := _complement_verdict(rec, Q, U):
            return verdict
    B = _rank_one_points(rec.complement_basis, rec.tol)
    return None if B is None else _complement_verdict(rec, B)


def _complement_verdict(rec: _ChannelRecord, B: np.ndarray, U: Optional[np.ndarray] = None) -> Optional[PRVerdict]:
    """:func:`_rank_one_verdict`'s verdict from the complement property of the rows
    of ``B``; with ``U`` given, PR also needs the ``u_j u_j^T`` of its rows independent."""
    try:
        failing = _failing_bipartition(B, rec.tol)
    except TooManyVectors:
        return None
    if failing is None:
        if U is None or _rank_one_independent(U, rec.tol):
            return PRVerdict(PR, COMPLEMENT_PROPERTY, EmptyCertificate(), residuals={})
        return None
    x, y = _equal_image_pair(B, *failing, rec.tol)
    verdict = _not_pr(rec, COMPLEMENT_PROPERTY, TensorWitness((x + y) / 2.0, (x - y) / 2.0, SYMMETRIC), SYMMETRIC)
    return verdict if _accepted(rec, verdict.residuals["tensor"]) else None


def _macaulay_verdict(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """PR by :func:`_macaulay_degree` on the kernel, floor None, or None.

    It runs at ``2 <= d <= codim``, the codimension of the matrices of rank
    at most 2 (``(n - 2)^2`` in M_n(C), ``C(n - 1, 2)`` in the real symmetric
    ones), which a generic kernel of that dimension misses.  A real ``c`` with
    ``H(c) = xx* - yy*`` would give a matrix of rank at most 2 in the kernel's
    span, so full column rank proves the channel PR.  The test reads the
    kernel alone, and unitary conjugation moves the minors by a unitary map,
    so the symmetries of phase retrieval keep the verdict.
    """
    if not 2 <= rec.kernel_dim <= _rank2_codim(rec.ch.dim_in, rec.ch.field == REAL):
        return None
    found = _macaulay_degree(rec.kernel_basis, rec.tol)
    return None if found is None else PRVerdict(PR, MACAULAY, MacaulayCertificate(*found), residuals={})


# A candidate of :func:`_cubic_verdict` keeps its third eigenvalue clear of
# rank 2 past this many times the rank rule's cut.
_CUBIC_MARGIN = 1e4


def _cubic_verdict(rec: _ChannelRecord, H: np.ndarray) -> Optional[PRVerdict]:
    """The rank-at-most-2 points of the span of ``H1, H2`` from one cubic
    (``linalg._cubic_candidates``): NOT_PR, PR at d = 2, or None.

    When the least ``g`` is not clear of the rank rule, :func:`_signature_verdict`
    on that candidate gives NOT_PR under :func:`_accepted`; a semidefinite
    candidate puts the ray of its top eigenvector in the kernel.  When every
    ``g`` is clear, the span holds no matrix of rank at most 2, which at
    d = 2 is the kernel and proves PR (floor None); at n = 3 an odd cubic
    always has a real root, so that outcome is rounding, and declines.  When
    the cubic vanishes at n = 3, ``det H1 = 0``, so ``H1`` itself has rank at
    most 2 and its pair decides; past n = 3 a vanishing compressed cubic
    proves nothing, and the step declines.  None too when the pair fails
    the test.
    """
    if (found := _cubic_candidates(H)) is None:
        return _signature_verdict(rec, H[0], HERMITIAN_KERNEL)[0] if H.shape[1] == 3 else None
    Hc, g = found
    best = int(np.argmin(g))
    if g[best] <= _CUBIC_MARGIN * rec.tol.rank_rel:
        return _signature_verdict(rec, Hc[best], HERMITIAN_KERNEL)[0]
    return PRVerdict(PR, HERMITIAN_KERNEL, EmptyCertificate(), residuals={}) if len(H) == 2 and H.shape[1] > 3 else None


def _cubic_step(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """:func:`_cubic_verdict` on the kernel on C^3 and R^3 at d >= 2, and at d = 2 on every larger space; else None."""
    n, d = rec.ch.dim_in, rec.kernel_dim
    return _cubic_verdict(rec, rec.kernel_basis) if n > 2 and d > 1 and (n == 3 or d == 2) else None


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


def _search_step(rec: _ChannelRecord, cfg: OracleConfig) -> PRVerdict:
    """The pair of :func:`_kernel_search`'s best ``H(c)``: NOT_PR, or LIKELY_PR with its relative residual as floor."""
    H = rec.kernel_basis
    verdict, floor = _signature_verdict(rec, np.tensordot(_kernel_search(H, cfg), H, 1), ORACLE_WITNESS)
    return verdict or PRVerdict(LIKELY_PR, ORACLE_NO_WITNESS, EmptyCertificate(floor=floor), floor=floor, residuals={})


# The kernel steps, in order: each one that declines leaves the channel to the
# next, and the search, last, settles every channel.
_KERNEL_STEPS = (
    _trivial_kernel_step, _dimension_one_step, _rank_one_verdict, _macaulay_verdict, _cubic_step, _search_step
)

# The stage table: ``decide`` runs "full", ``check --method`` any entry.  A
# stage returns a verdict, or None to pass the channel on.  In "full" every
# exact stage runs ahead of the screen, which is only a necessary condition;
# the kernel steps, last, settle whatever is left, and "oracle" runs them alone.
METHODS = {
    "full": (_low_rank_stage, _rank2_stage, _rank_split_stage, _screen_stage, *_KERNEL_STEPS),
    "exact": (_low_rank_stage, _rank2_stage),
    # Alone, the screen runs on any square family and its errors propagate.
    "necessary": (_screen_verdict,),
    "oracle": _KERNEL_STEPS,
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

    ``full`` and ``oracle`` end with the kernel steps, whose search settles
    every channel; ``exact`` raises :class:`WrongRank` when its stages do not
    settle the channel; ``necessary`` reports a pass of the screen as
    LIKELY_PR with method NECESSARY_PASS.  An unknown ``method`` raises
    ``ValueError``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}: expected one of {', '.join(METHODS)}")
    rec, cfg = _ChannelRecord(ch, tol), cfg or _DEFAULT_CFG
    verdict = next((v for stage in METHODS[method] if (v := stage(rec, cfg)) is not None), None)
    if verdict is None and method == "exact":
        raise WrongRank(f"the exact stages did not settle the channel (Choi rank {rec.rank})")
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
        residuals["state"] = float(np.linalg.norm(_state_image(rec, sw.x, sw.y)))
        residuals["separation"] = float(np.linalg.norm(_outer(sw.x, sw.x) - _outer(sw.y, sw.y)))
    return residuals
