"""Phase-retrievability verdicts for quantum channels.

The decision logic is stratified by Choi rank.  Rank one is always
retrievable.  Rank two is decided exactly: the channel fails precisely when
some ``lam`` makes both ``A1 + lam A2`` and ``-conj(lam) A1 + A2``
non-injective, so the two pencil singular sets are computed and intersected
after reflecting the second one.  Higher ranks get a necessary-condition
screen built on scalar relative joint spectra, then a one-sided numeric
oracle: a minimizer that searches for an annihilated simple tensor (real
field) or an annihilated symmetric product (complex field).  A found witness
certifies NOT_PR; absence of a witness is only "likely" retrievable, except
when the vectorized channel map has a trivial kernel, which proves outright
injectivity.

Every NOT_PR verdict carries a certificate that re-verifies using channel
application alone, and is converted where possible into an explicit pair of
pure states with identical images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bilinear import OracleConfig, minimize_simple_pair, minimize_symmetric_pair
from .channels import QuantumChannel, apply, choi_matrix, choi_rank, minimal_kraus_from_choi
from .errors import DimensionMismatch, NotFinite, NotSquare, WrongField, WrongRank
from .linalg import COMPLEX, DEFAULT_TOL, REAL, Tolerance, kernel_basis, numerical_rank
from .spectra import SpectrumPoint, pencil_singular_set

PR = "PR"
NOT_PR = "NOT_PR"
LIKELY_PR = "LIKELY_PR"

RANK1 = "RANK1"
RANK2_EXACT = "RANK2_EXACT"
NECESSARY_VIOLATION = "NECESSARY_VIOLATION"
ORACLE_WITNESS = "ORACLE_WITNESS"
ORACLE_NO_WITNESS = "ORACLE_NO_WITNESS"

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
    "decide",
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

    ``floor`` is the smallest residual norm observed; ``exact`` marks the
    trivial-kernel fast path, where the absence of a witness is a theorem.
    """

    floor: float
    exact: bool = False


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


def decide_rank1(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Choi rank 1 means conjugation by a single isometry-like operator: always PR."""
    if choi_rank(ch, tol) != 1:
        raise WrongRank("channel does not have Choi rank 1")
    return PRVerdict(PR, RANK1, EmptyCertificate(), residuals={})


def _rank2_pair(ch: QuantumChannel, tol: Tolerance):
    if len(ch.kraus) == 2:
        return ch.kraus[0], ch.kraus[1]
    reduced = minimal_kraus_from_choi(choi_matrix(ch), ch.dim_in, ch.dim_out, tol, field=ch.field)
    if len(reduced.kraus) != 2:
        raise WrongRank("Choi-rank-2 reduction did not yield two operators")
    return reduced.kraus[0], reduced.kraus[1]


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
    if choi_rank(ch, tol) != 2:
        raise WrongRank("channel does not have Choi rank 2")
    A1, A2 = _rank2_pair(ch, tol)

    if ch.dim_out < ch.dim_in:
        # Every pencil has a kernel; lam = 0 already clashes.
        x = _smallest_right_vector(A1)
        y = _smallest_right_vector(A2)
        return _rank2_not_pr(ch, 0.0, x, y, tol)

    s1 = pencil_singular_set(A1, A2, tol)
    t = pencil_singular_set(A2, A1, tol)

    if s1.is_all and t.is_all:
        clash = 0.0
    elif s1.is_all:
        if not t.roots:
            return PRVerdict(PR, RANK2_EXACT, EmptyCertificate(), residuals={})
        clash = -np.conj(t.roots[0])
    elif t.is_all:
        if not s1.roots:
            return PRVerdict(PR, RANK2_EXACT, EmptyCertificate(), residuals={})
        clash = s1.roots[0]
    else:
        reflected = [-np.conj(mu) for mu in t.roots]
        clash = None
        for lam in s1.roots:
            for lam2 in reflected:
                if abs(lam - lam2) <= tol.root_cluster:
                    clash = lam
                    break
            if clash is not None:
                break
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


def _refine_spectrum(Aj, coords_done, remaining, V, tol, probe_rng):
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
        for root in ss.roots:
            R = (Ai - root * Aj) @ V
            kern = kernel_basis(R, tol)
            if not kern:
                kern = [_smallest_right_vector(R)]
            W = np.column_stack(kern)
            yield from _refine_spectrum(
                Aj, {**coords_done, idx: root}, rest, V @ W, tol, probe_rng
            )
        return
    # Every remaining coordinate pencil is singular on all of the plane.
    # Probe a few random points of the first one: a persistent joint kernel
    # certifies a continuum of spectrum points.
    idx, Ai = remaining[0]
    hits = 0
    for _ in range(3):
        lam = complex(probe_rng.normal(), probe_rng.normal())
        R = (Ai - lam * Aj) @ V
        if numerical_rank(R, tol) < V.shape[1]:
            hits += 1
    raise _Continuum(f"coordinate {idx} stays singular at {hits}/3 random probes")


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
    probe_rng = np.random.default_rng(np.random.SeedSequence([0x9B, j]))
    points = []
    try:
        for coords, V in _refine_spectrum(Aj, {}, others, np.eye(n, dtype=complex), tol, probe_rng):
            lam = np.array([coords[i] for i, _ in others], dtype=complex)
            stack = np.vstack([Ai - coords[i] * Aj for i, Ai in others])
            witness = _smallest_right_vector(stack)
            scale = max(1.0, max(np.linalg.norm(Ai) for _, Ai in others))
            if np.linalg.norm(stack @ witness) > tol.residual_abs * scale:
                witness = V[:, 0] / np.linalg.norm(V[:, 0])
                if np.linalg.norm(stack @ witness) > tol.residual_abs * scale:
                    continue
            points.append(SpectrumPoint(lam=lam, witness=witness))
    except _Continuum:
        return NOT_FINITE

    deduped: list[SpectrumPoint] = []
    for p in points:
        if not any(np.all(np.abs(p.lam - q.lam) <= tol.root_cluster) for q in deduped):
            deduped.append(p)
    deduped.sort(key=lambda p: tuple((z.real, z.imag) for z in p.lam))
    return deduped


def necessary_inner_product_check(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL):
    """Necessary condition: no pair lam, mu in any scalar spectrum may satisfy
    ``1 + <lam, mu> = 0``.

    Returns a NOT_PR verdict on the first violation, None when the check
    passes.  Raises :class:`NotFinite` when some spectrum is a continuum.
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

    Fast paths: a trivial kernel of the vectorized channel map settles the
    question exactly, and a one-dimensional kernel spanned by a rank-one
    matrix yields an exact witness.  Otherwise multistart alternating
    minimization runs; a witness is returned when the minimum drops below
    ``residual_abs`` squared.
    """
    cfg = cfg or OracleConfig()
    n = ch.dim_in
    K = _natural_representation(ch.kraus)
    if ch.field == REAL:
        K = K.real
    s = np.linalg.svd(K, compute_uv=False)
    smax = s[0] if s.size else 0.0
    nullity = int(np.count_nonzero(s <= tol.rank_rel * smax)) if smax > 0 else K.shape[1]
    if nullity == 0:
        return NoWitness(floor=float(s[-1]), exact=True)
    if nullity == 1:
        _, _, vh = np.linalg.svd(K)
        z = vh[-1].conj()
        Z = z.reshape(n, n)
        zu, zs, zvh = np.linalg.svd(Z)
        if zs.size > 1 and zs[1] <= 1e-8 * zs[0]:
            x = zu[:, 0]
            y = zvh[0].conj()
            if ch.field == REAL:
                x, y = x.real.astype(complex), y.real.astype(complex)
            x = x / np.linalg.norm(x)
            y = y / np.linalg.norm(y)
            if np.linalg.norm(apply(ch, _outer(x, y))) <= tol.residual_abs:
                return TensorWitness(x, y, SIMPLE)
    val, x, y = minimize_simple_pair(ch.kraus, ch.field, cfg, n)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if val < tol.residual_abs**2:
        return TensorWitness(x, y, SIMPLE)
    return NoWitness(floor=float(np.sqrt(max(val, 0.0))), exact=False)


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
        return NoWitness(floor=float("inf"), exact=False)
    val, x, y = result
    if val < tol.residual_abs**2:
        return TensorWitness(x, y, SYMMETRIC)
    return NoWitness(floor=float(np.sqrt(max(val, 0.0))), exact=False)


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
    :class:`NoWitness` gives PR when it is exact (trivial kernel) and
    LIKELY_PR otherwise, carrying the observed floor.
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
    status = PR if outcome.exact else LIKELY_PR
    return PRVerdict(
        status, ORACLE_NO_WITNESS, EmptyCertificate(floor=outcome.floor), floor=outcome.floor, residuals={}
    )


def decide(ch: QuantumChannel, cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL) -> PRVerdict:
    """Full phase-retrievability dispatcher.

    Rank 1 and 2 are decided exactly.  Rank 3 and above run the necessary
    inner-product screen when the operators are square, then the field's
    tensor oracle.  NOT_PR verdicts carry re-verifiable certificates and an
    equal-image pure-state pair whenever one can be derived.
    """
    cfg = cfg or OracleConfig()
    r = choi_rank(ch, tol)
    if r == 0:
        if ch.dim_in == 1:
            # C^1 has a single pure state, so no map can collide two of them;
            # the verdict is as exact as the rank-one stage's.
            return PRVerdict(PR, RANK1, EmptyCertificate(), residuals={})
        # The zero map collides every pair of states.
        e1 = np.zeros(ch.dim_in, dtype=complex)
        e1[0] = 1.0
        e2 = np.zeros(ch.dim_in, dtype=complex)
        e2[min(1, ch.dim_in - 1)] = 1.0
        return PRVerdict(
            NOT_PR,
            ORACLE_WITNESS,
            StateWitness(e1, e2),
            state_witness=StateWitness(e1, e2),
            residuals={"state": 0.0},
        )
    if r == 1:
        return decide_rank1(ch, tol)

    # The inner-product screen applies to any square family of three or more
    # listed operators, whatever the Choi rank; a violation is a sound NOT_PR
    # certificate and can never contradict the exact rank-2 decision below.
    if len(ch.kraus) >= 3 and ch.dim_in == ch.dim_out:
        try:
            violation = necessary_inner_product_check(ch, tol)
        except (NotFinite, NotSquare):
            violation = None
        if violation is not None:
            violation.state_witness = _to_state_witness(
                ch, violation.certificate.x, violation.certificate.y, tol
            )
            return violation

    if r == 2:
        return decide_rank2(ch, tol)

    oracle = simple_tensor_oracle if ch.field == REAL else symmetric_tensor_oracle
    return oracle_verdict(ch, oracle(ch, cfg, tol), tol)


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
