"""Phase-retrievability verdicts for quantum channels.

:func:`decide` runs one ordered stage table, and the first stage that settles
the channel gives the verdict:

1. Choi rank 0 or 1: conjugation by one operator, PR exactly when it is
   injective.
2. Necessary screen: two points ``lam, mu`` of a scalar relative joint
   spectrum with ``1 + <lam, mu> = 0`` certify NOT_PR.
3. Exact Choi rank 2: the channel fails precisely when some ``lam`` makes
   both ``A1 + lam A2`` and ``-conj(lam) A1 + A2`` non-injective, so the two
   pencil singular sets are computed and intersected after reflecting the
   second one.
4. Hermitian kernel, on both fields: a trivial kernel of the natural
   representation ``K = sum_i A_i (x) conj(A_i)`` proves PR, since no
   nonzero ``xx* - yy*`` is annihilated (Bandeira, Cahill, Mixon, Nelson,
   "Saving phase", ACHA 2014).
5. One-sided oracle: a minimizer searches for an annihilated simple tensor
   (real field) or symmetric product (complex field).  A found witness
   certifies NOT_PR; absence of a witness is only LIKELY_PR.

``check --method`` runs named sub-lists of the table (:data:`METHODS`), and
every stage reads one per-call record holding the Choi matrix and its rank.

Every NOT_PR verdict carries a certificate that re-verifies using channel
application alone, and is converted where possible into an explicit pair of
pure states with identical images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bilinear import OracleConfig, minimize_simple_pair, minimize_symmetric_pair
from .channels import QuantumChannel, apply, choi_matrix, minimal_kraus_from_choi
from .errors import DimensionMismatch, NotFinite, NotSquare, WrongField, WrongRank
from .linalg import COMPLEX, DEFAULT_TOL, REAL, Tolerance, numerical_rank
from .spectra import SpectrumPoint, _pencil_points, pencil_singular_set

PR = "PR"
NOT_PR = "NOT_PR"
LIKELY_PR = "LIKELY_PR"

RANK1 = "RANK1"
RANK2_EXACT = "RANK2_EXACT"
NECESSARY_VIOLATION = "NECESSARY_VIOLATION"
ORACLE_WITNESS = "ORACLE_WITNESS"
ORACLE_NO_WITNESS = "ORACLE_NO_WITNESS"
NECESSARY_PASS = "NECESSARY_PASS"

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
    "oracle_verdict",
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


def _symmetric_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _outer(x, y) + _outer(y, x)


def _to_state_witness(ch: QuantumChannel, x: np.ndarray, y: np.ndarray, tol: Tolerance):
    """Turn an annihilated (symmetric) tensor pair into equal-image pure states.

    The sum and difference of the pair bracket the same channel image; a
    common rescale keeps the equality.  Returns None when the resulting
    states are numerically indistinct.
    """
    u = x + y
    v = x - y
    big = max(np.linalg.norm(u), np.linalg.norm(v))
    if big == 0.0:
        return None
    if min(np.linalg.norm(u), np.linalg.norm(v)) < 1e-9 * big:
        # Degenerate pair: x and y are (anti)parallel, so the channel kills
        # the ray of x itself and any two scalings of it collide.
        base = x if np.linalg.norm(x) > np.linalg.norm(y) else y
        base = base / np.linalg.norm(base)
        if np.linalg.norm(apply(ch, _outer(base, base))) > tol.residual_abs:
            return None
        u, v = base, 2.0 * base
    else:
        u, v = u / big, v / big
    ru = _outer(u, u)
    rv = _outer(v, v)
    if np.linalg.norm(ru - rv) < 0.05:
        return None
    if np.linalg.norm(apply(ch, ru) - apply(ch, rv)) > 1e-7:
        return None
    return StateWitness(u, v)


class _ChannelRecord:
    """What every stage of one call reads: the channel, its Choi matrix and Choi rank."""

    def __init__(self, ch: QuantumChannel, tol: Tolerance):
        self.ch = ch
        self.tol = tol
        self.choi = choi_matrix(ch)
        self.rank = numerical_rank(self.choi, tol)


def _low_rank_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """Choi rank 0 or 1: conjugation by one operator A, PR exactly when A is injective.

    Every listed operator is a multiple of A (of A = 0 at rank 0), so the
    stacked family has the kernel of A.
    """
    if rec.rank > 1:
        return None
    ch = rec.ch
    stack = np.vstack(ch.kraus).real if ch.field == REAL else np.vstack(ch.kraus)
    # C^1 has a single pure state, so even the zero map collides none.
    if ch.dim_in == 1 or numerical_rank(stack, rec.tol) == ch.dim_in:
        return PRVerdict(PR, RANK1, EmptyCertificate(), residuals={})
    # A z = 0 for the last right singular vector z, so A (u + z) = A (u - z)
    # for the first one, u, a unit vector orthogonal to z.
    _, _, vh = np.linalg.svd(stack)
    u, z = vh[0].conj().astype(complex), vh[-1].conj().astype(complex)
    sw = StateWitness((u + z) / np.sqrt(2.0), (u - z) / np.sqrt(2.0))
    state = float(np.linalg.norm(apply(ch, _outer(sw.x, sw.x)) - apply(ch, _outer(sw.y, sw.y))))
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
    """Exact decision for Choi rank 2 via intersecting pencil singular sets.

    With spanning pair (A1, A2), the first singular set S1 collects lam where
    ``A1 + lam A2`` loses injectivity; the second pencil is parametrized
    holomorphically as ``A2 + mu A1`` and reflected through ``lam = -conj(mu)``.
    The channel is PR exactly when the reflected set misses S1.
    """
    rec = _ChannelRecord(ch, tol)
    if rec.rank != 2:
        raise WrongRank("channel does not have Choi rank 2")
    return _rank2_stage(rec)


def _rank2_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """Exact Choi rank 2 (see :func:`decide_rank2`); None at any other rank."""
    if rec.rank != 2:
        return None
    ch, tol = rec.ch, rec.tol
    pair = ch.kraus
    if len(pair) != 2:
        pair = minimal_kraus_from_choi(rec.choi, ch.dim_in, ch.dim_out, tol, field=ch.field).kraus
        if len(pair) != 2:
            raise WrongRank("Choi-rank-2 reduction did not yield two operators")
    A1, A2 = pair

    if ch.dim_out < ch.dim_in:
        # Every pencil has a kernel; lam = 0 already clashes.
        x = _smallest_right_vector(A1)
        y = _smallest_right_vector(A2)
        return _rank2_not_pr(ch, 0.0, x, y, tol)

    s1 = pencil_singular_set(A1, A2, tol)
    t = pencil_singular_set(A2, A1, tol)

    reflected = [-np.conj(mu) for mu in t.roots]
    if s1.is_all and t.is_all:
        clash = 0.0
    elif s1.is_all:
        clash = reflected[0] if reflected else None
    elif t.is_all:
        clash = s1.roots[0] if s1.roots else None
    else:
        clash = next(
            (lam for lam in s1.roots if any(abs(lam - lam2) <= tol.root_cluster for lam2 in reflected)), None
        )
    if clash is None:
        return PRVerdict(PR, RANK2_EXACT, EmptyCertificate(), residuals={})

    x = _smallest_right_vector(A1 + clash * A2)
    y = _smallest_right_vector(-np.conj(clash) * A1 + A2)
    return _rank2_not_pr(ch, clash, x, y, tol)


def _rank2_not_pr(ch, clash, x, y, tol) -> PRVerdict:
    tensor_res = float(np.linalg.norm(apply(ch, _outer(x, y))))
    verdict = PRVerdict(
        NOT_PR,
        RANK2_EXACT,
        PencilClash(complex(clash), x, y),
        state_witness=_to_state_witness(ch, x, y, tol),
        residuals={"tensor": tensor_res},
    )
    return verdict


class _Continuum(Exception):
    pass


def _refine_spectrum(Aj, coords_done, remaining, V, tol, j):
    """Depth-first refinement of the joint kernel across coordinate pencils.

    Coordinates whose restricted pencil has a finite singular set are consumed
    first; if at some node every remaining coordinate degenerates to the whole
    plane, the spectrum contains a continuum.
    """
    if V.shape[1] == 0:
        return
    if not remaining:
        yield coords_done, V
        return
    for pos, (idx, Ai) in enumerate(remaining):
        ss = pencil_singular_set(Ai @ V, -(Aj @ V), tol)
        if ss.is_all:
            continue
        rest = remaining[:pos] + remaining[pos + 1 :]
        for root, W in zip(ss.roots, _root_kernels(Ai, Aj, V, ss.roots, tol)):
            yield from _refine_spectrum(Aj, {**coords_done, idx: root}, rest, V @ W, tol, j)
        return
    # Every remaining coordinate pencil is singular on all of the plane.
    # Probe a few random points of the first one: a persistent joint kernel
    # certifies a continuum of spectrum points.
    idx, Ai = remaining[0]
    rng = np.random.default_rng(np.random.SeedSequence([0x9B, j]))
    lams = [complex(rng.normal(), rng.normal()) for _ in range(3)]
    s = np.linalg.svd(_pencil_points(Ai, -Aj, lams) @ V, compute_uv=False)
    hits = sum(int(np.count_nonzero(sk > tol.rank_rel * sk[0])) < V.shape[1] for sk in s)
    raise _Continuum(f"coordinate {idx} stays singular at {hits}/3 random probes")


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


def scalar_relative_spectrum(ch: QuantumChannel, j: int, tol: Tolerance = DEFAULT_TOL):
    """All lam vectors with a nonzero x satisfying ``A_i x = lam_i A_j x`` for i != j.

    Requires square Kraus operators.  Returns a sorted list of
    :class:`SpectrumPoint` or :data:`NOT_FINITE` when the set is a continuum.
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
    try:
        found = list(_refine_spectrum(Aj, {}, others, np.eye(n, dtype=complex), tol, j))
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


def necessary_inner_product_check(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL):
    """Necessary condition: no pair lam, mu in any scalar spectrum may satisfy
    ``1 + <lam, mu> = 0``.

    Returns a NOT_PR verdict on the first violation, with an equal-image
    pure-state pair where one can be derived, and None when the check passes.
    Raises :class:`NotFinite` when some spectrum is a continuum.
    """
    if ch.dim_in != ch.dim_out:
        raise NotSquare("the inner-product check needs square Kraus operators")
    for j in range(len(ch.kraus)):
        points = scalar_relative_spectrum(ch, j, tol)
        if points is NOT_FINITE:
            raise NotFinite(f"relative spectrum of operator {j} is a continuum")
        for p in points:
            for q in points:
                ip = 1.0 + complex(np.sum(p.lam * np.conj(q.lam)))
                if abs(ip) <= tol.residual_abs:
                    tensor_res = float(np.linalg.norm(apply(ch, _outer(p.witness, q.witness))))
                    return PRVerdict(
                        NOT_PR,
                        NECESSARY_VIOLATION,
                        InnerProductViolation(j, p.lam, q.lam, p.witness, q.witness),
                        state_witness=_to_state_witness(ch, p.witness, q.witness, tol),
                        residuals={"inner_product": abs(ip), "tensor": tensor_res},
                    )
    return None


def _natural_representation(kraus) -> np.ndarray:
    """``sum_i A_i (x) conj(A_i)``: row ``(a, b)``, column ``(c, d)`` holds ``sum_i A_i[a, c] conj(A_i[b, d])``."""
    A = np.stack(kraus)
    _, m, n = A.shape
    return np.einsum("iac,ibd->abcd", A, A.conj()).reshape(m * m, n * n)


def simple_tensor_oracle(ch: QuantumChannel, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL):
    """Search for unit x, y with the simple tensor ``x (x) y`` annihilated.

    Multistart alternating minimization; a witness is returned when the
    minimum drops below ``residual_abs`` squared.  The exact kernel paths are
    a stage of :func:`decide`, ahead of this search.
    """
    cfg = cfg or OracleConfig()
    val, x, y = minimize_simple_pair(ch.kraus, ch.field, cfg, ch.dim_in)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if val < tol.residual_abs**2:
        return TensorWitness(x, y, SIMPLE)
    return NoWitness(floor=float(np.sqrt(max(val, 0.0))))


def _channel_pair_maps(K: np.ndarray, n: int):
    """Pair maps of the symmetric product through the natural representation ``K``.

    ``K`` acts on ``vec(s t^T) = s (x) t``.  The left map fixes ``s = u`` and
    leaves ``t = conj(v)``; the right map fixes ``t = conj(u)`` and leaves
    ``s = v``.  Each is one matrix-vector product with ``K`` viewed as a
    ``(rows, n, n)`` array.
    """
    rows = K.shape[0]
    left_slot = K.reshape(rows, n, n).transpose(0, 2, 1).reshape(rows * n, n)
    right_slot = K.reshape(rows * n, n)

    def pair_maps(u):
        left = (left_slot @ u).reshape(rows, n)  # acts on conj(v)
        right = (right_slot @ u.conj()).reshape(rows, n)  # acts on v
        return left, right

    return pair_maps


def symmetric_tensor_oracle(ch: QuantumChannel, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL):
    """Search for x, y with the symmetric product ``x (x) y + y (x) x`` annihilated.

    Only defined for complex channels; the witness pair is normalized so the
    symmetric product has unit Frobenius norm.
    """
    if ch.field != COMPLEX:
        raise WrongField("the symmetric-product oracle is a complex-field test")
    cfg = cfg or OracleConfig()
    n = ch.dim_in
    result = minimize_symmetric_pair(_channel_pair_maps(_natural_representation(ch.kraus), n), n, cfg)
    if result is None:
        return NoWitness(floor=float("inf"))
    val, x, y = result
    if val < tol.residual_abs**2:
        return TensorWitness(x, y, SYMMETRIC)
    return NoWitness(floor=float(np.sqrt(max(val, 0.0))))


def is_skew_commutative(u_list, v_list, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``sum_j (u_j (x) v_j + v_j (x) u_j)`` vanishes."""
    us = [np.asarray(u, dtype=complex) for u in u_list]
    vs = [np.asarray(v, dtype=complex) for v in v_list]
    if len(us) != len(vs):
        raise DimensionMismatch("tuples differ in length")
    if any(u.shape != v.shape for u, v in zip(us, vs)):
        raise DimensionMismatch("tuples differ in vector dimension")
    total = sum(_symmetric_product(u, v) for u, v in zip(us, vs))
    scale = 1.0 + sum(np.linalg.norm(u) * np.linalg.norm(v) for u, v in zip(us, vs))
    return float(np.linalg.norm(total)) <= tol.residual_abs * scale


def oracle_verdict(ch: QuantumChannel, outcome, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Verdict of a tensor-oracle outcome on ``ch``.

    A :class:`TensorWitness` gives NOT_PR with its re-verified tensor
    residual and, where derivable, an equal-image pure-state pair.  A
    :class:`NoWitness` gives LIKELY_PR carrying the observed floor.
    """
    if isinstance(outcome, TensorWitness):
        if outcome.kind == SIMPLE:
            product = _outer(outcome.x, outcome.y)
        else:
            product = _symmetric_product(outcome.x, outcome.y)
        return PRVerdict(
            NOT_PR,
            ORACLE_WITNESS,
            outcome,
            state_witness=_to_state_witness(ch, outcome.x, outcome.y, tol),
            residuals={"tensor": float(np.linalg.norm(apply(ch, product)))},
        )
    return PRVerdict(
        LIKELY_PR, ORACLE_NO_WITNESS, EmptyCertificate(floor=outcome.floor), floor=outcome.floor, residuals={}
    )


def _screen_verdict(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    return necessary_inner_product_check(rec.ch, rec.tol)


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


def _kernel_stage(rec: _ChannelRecord, cfg=None) -> Optional[PRVerdict]:
    """Hermitian kernel of ``K = sum_i A_i (x) conj(A_i)``, on both fields.

    Nullity ``n^2 - rank(K)`` 0 proves PR with floor ``sigma_min(K)``; nullity 1
    spanned by a rank-one ``x y*`` gives NOT_PR with the simple tensor ``(x, y)``.
    """
    ch, tol, n, m = rec.ch, rec.tol, rec.ch.dim_in, rec.ch.dim_out
    # K realigns the Choi matrix: C[(c, a), (d, b)] = K[(a, b), (c, d)].
    K = rec.choi.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)
    if ch.field == REAL:
        K = K.real
    s = np.linalg.svd(K, compute_uv=False)
    nullity = n * n - (int(np.count_nonzero(s > tol.rank_rel * s[0])) if s[0] > 0 else 0)
    if nullity == 0:
        floor = float(s[-1])
        return PRVerdict(PR, ORACLE_NO_WITNESS, EmptyCertificate(floor=floor), floor=floor, residuals={})
    if nullity == 1:
        # Singular vectors of a real K are real: the witness is on the field.
        _, _, vh = np.linalg.svd(K)
        zu, zs, zvh = np.linalg.svd(vh[-1].conj().reshape(n, n))
        if zs.size > 1 and zs[1] <= 1e-8 * zs[0]:
            x, y = zu[:, 0].astype(complex), zvh[0].conj().astype(complex)
            if np.linalg.norm(apply(ch, _outer(x, y))) <= tol.residual_abs:
                return oracle_verdict(ch, TensorWitness(x, y, SIMPLE), tol)
    return None


def _oracle_stage(rec: _ChannelRecord, cfg: OracleConfig) -> PRVerdict:
    oracle = simple_tensor_oracle if rec.ch.field == REAL else symmetric_tensor_oracle
    return oracle_verdict(rec.ch, oracle(rec.ch, cfg, rec.tol), rec.tol)


# The stage table: ``decide`` runs "full", ``check --method`` any entry.  A
# stage returns a verdict, or None to pass the channel on.
METHODS = {
    "full": (_low_rank_stage, _screen_stage, _rank2_stage, _kernel_stage, _oracle_stage),
    "exact": (_low_rank_stage, _rank2_stage),
    # Alone, the screen runs on any square family and its errors propagate.
    "necessary": (_screen_verdict,),
    "oracle": (_kernel_stage, _oracle_stage),
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
    cert = verdict.certificate
    if isinstance(cert, PencilClash):
        residuals["tensor"] = float(np.linalg.norm(apply(ch, _outer(cert.x, cert.y))))
    elif isinstance(cert, InnerProductViolation):
        residuals["inner_product"] = float(abs(1.0 + np.sum(cert.lam * np.conj(cert.mu))))
        residuals["tensor"] = float(np.linalg.norm(apply(ch, _outer(cert.x, cert.y))))
    elif isinstance(cert, TensorWitness):
        if cert.kind == SIMPLE:
            residuals["tensor"] = float(np.linalg.norm(apply(ch, _outer(cert.x, cert.y))))
        else:
            residuals["tensor"] = float(
                np.linalg.norm(apply(ch, _symmetric_product(cert.x, cert.y)))
            )
    elif isinstance(cert, StateWitness):
        residuals["state"] = float(
            np.linalg.norm(apply(ch, _outer(cert.x, cert.x)) - apply(ch, _outer(cert.y, cert.y)))
        )
        residuals["separation"] = float(
            np.linalg.norm(_outer(cert.x, cert.x) - _outer(cert.y, cert.y))
        )
    if verdict.state_witness is not None:
        sw = verdict.state_witness
        residuals["state"] = float(
            np.linalg.norm(apply(ch, _outer(sw.x, sw.x)) - apply(ch, _outer(sw.y, sw.y)))
        )
        residuals["separation"] = float(
            np.linalg.norm(_outer(sw.x, sw.x) - _outer(sw.y, sw.y))
        )
    return residuals
