"""Synthesis of phase-retrievable (and deliberately non-retrievable) channels.

Each recipe returns a :class:`ConstructionResult` bundling the channel, a
POVM of rank-one observables completed to a resolution of the identity, the
claimed status and, for negative constructions, an explicit equal-image
witness pair.  Recipes that are not trace preserving as sampled are fixed up
by right multiplication with the inverse square root of the normalization
operator, which is an invertible change of coordinates and therefore neutral
for phase retrievability; the normalized family is the polar factor of the
stacked operators, from one SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bilinear import OracleConfig
from .channels import QuantumChannel, choi_rank
from .deciders import NOT_PR, PR, StateWitness
from .errors import (
    BadPartition,
    DependentOuterProducts,
    NotAFrame,
    NotIndependent,
    NotPhaseRetrievableFrame,
    SpanConditionFailed,
    UnknownFixture,
)
from .frames import (
    NO,
    Frame,
    complement_property,
    is_phase_retrievable_frame,
    minimal_pr_length,
    rank_one_independent,
)
from .linalg import COMPLEX, DEFAULT_TOL, REAL, Tolerance, _polar_factor, numerical_rank, psd_sqrt

__all__ = [
    "POVM",
    "ConstructionResult",
    "projector_channel_from_frame",
    "rank2_injective_plus_rankone",
    "rankr_positive_construction",
    "channel_from_observables",
    "orthogonal_projection_channel",
    "fixture",
    "FIXTURE_NAMES",
]


@dataclass
class POVM:
    """Positive operators summing to the identity; mostly rank one here."""

    dim: int
    elements: list
    rank_one_count: int

    def __post_init__(self):
        self.elements = [np.asarray(E, dtype=complex) for E in self.elements]


@dataclass
class ConstructionResult:
    channel: QuantumChannel
    observables: POVM
    claimed_status: str
    witness: Optional[StateWitness] = None


def _outer(x, y=None):
    y = x if y is None else y
    return np.outer(x, np.conj(y))


def _scale_and_complete(vectors, dim: int, tol: Tolerance) -> POVM:
    """Rescale rank-one observables so they fit under the identity, then top up.

    The common factor is the reciprocal of the largest eigenvalue of the sum,
    which keeps the completion element positive semidefinite.
    """
    raw = [_outer(np.asarray(f, dtype=complex)) for f in vectors]
    total = sum(raw)
    lam_max = float(np.linalg.eigvalsh(total)[-1])
    if lam_max <= 0:
        raise ValueError("observable vectors are all zero")
    c2 = 1.0 / lam_max
    elements = [c2 * F for F in raw]
    completion = np.eye(dim) - c2 * total
    if np.linalg.norm(completion) > tol.residual_abs:
        elements.append(completion)
    return POVM(dim=dim, elements=elements, rank_one_count=len(raw))


def _tp_normalize(kraus, field: str, tol: Tolerance, error=np.linalg.LinAlgError):
    """Every operator right-multiplied by the inverse square root of ``sum(A* A)``.

    That is the polar factor of the stacked family, reshaped back to operators
    (real on the real field).  Raises ``error`` when the sum is numerically
    singular (see :func:`_polar_factor`).
    """
    Q = _polar_factor(np.vstack(kraus), tol, field == REAL, error)
    return list(Q.reshape(len(kraus), *kraus[0].shape))


def projector_channel_from_frame(f: Frame, tol: Tolerance = DEFAULT_TOL) -> QuantumChannel:
    """Channel whose Kraus family is the frame's rank-one projections, made trace preserving.

    The projections ``f_i f_i*`` are right-normalized by ``(sum_j P_j* P_j)^(-1/2)``.
    Since ``f_i f_i* = (f_i / ||f_i||) (||f_i|| f_i*)``, that is
    ``K_i = (f_i / ||f_i||) q_i*`` for the rows ``q_i*`` of the polar factor ``Q``
    of the N x n matrix with rows ``||f_i|| f_i*`` (see :func:`_polar_factor`):
    ``sum_i K_i* K_i = Q* Q = I``, and every operator is rank one with range
    ``f_i`` however ill-conditioned the frame.  The resulting channel is
    injective on pure states exactly when the frame does phase retrieval, but
    it is never injective on all matrices once the projections span less than
    the full matrix space.  Raises :class:`NotAFrame` exactly when the vectors
    fail the spanning rule of :func:`is_phase_retrievable_frame`; ``Q`` gets no
    rank test of its own, since its singular-value ratio can be near the square
    of the frame's, past the rank cut while the frame spans.
    """
    V = f.vectors
    if numerical_rank(V, tol) < f.dim:
        raise NotAFrame("vectors do not span the space")
    norms = np.linalg.norm(V, axis=1)[:, None]
    Q = _polar_factor(norms * V.conj(), tol, f.field == REAL, error=None)
    units = V / np.where(norms > 0.0, norms, 1.0)
    kraus = list(units[:, :, None] * Q[:, None, :])
    return QuantumChannel(dim_in=f.dim, dim_out=f.dim, kraus=kraus, field=f.field)


def _pulled_back_observables(base_vectors, anchor: np.ndarray, target_len: int, rng, tol: Tolerance) -> POVM:
    """Rank-one observables pulled back through an invertible real ``anchor``.

    Real Gaussian vectors are appended to ``base_vectors`` until the real
    frame of ``target_len`` vectors is phase retrievable; its vectors, mapped
    through the inverse of ``anchor``, are rescaled and completed.  Genericity
    makes a random extension succeed almost surely; the retry bound turns a
    pathological run into a loud failure instead of a loop.
    """
    n = len(anchor)
    base = [np.asarray(v, dtype=complex) for v in base_vectors]
    for _ in range(50):
        extra = [np.asarray(rng.normal(size=n), dtype=complex) for _ in range(target_len - len(base))]
        frame = Frame(dim=n, vectors=np.array(base + extra), field=REAL)
        if complement_property(frame, tol):
            inverse = np.linalg.inv(anchor)
            return _scale_and_complete([inverse @ w.real for w in frame.vectors], n, tol)
    raise NotPhaseRetrievableFrame(
        f"could not extend {len(base)} vectors to a phase-retrievable frame of length {target_len}"
    )


def rank2_injective_plus_rankone(n: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Two-operator channel: an injective positive part plus a small rank-one part.

    Built trace preserving by construction.  The observables are the minimal
    number of rank-one elements: the pullback direction of the rank-one part,
    extended to a phase-retrievable frame and mapped through the inverse of
    the injective part.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0xC1]))
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    scale = 0.5 / (np.linalg.norm(u) * np.linalg.norm(v))
    A2 = scale * np.outer(v, u)  # maps x to <x, u> v, rank one, spectral norm 1/2
    A1 = psd_sqrt(np.eye(n) - A2.T @ A2, tol).real
    ch = QuantumChannel(dim_in=n, dim_out=n, kraus=[A1.astype(complex), A2.astype(complex)], field=REAL)
    povm = _pulled_back_observables([u], A1, minimal_pr_length(n, REAL)[0], rng, tol)
    return ConstructionResult(channel=ch, observables=povm, claimed_status=PR)


def _sample_rankr_parts(n: int, r: int, rng, tol: Tolerance):
    """Positive invertible anchor plus r-1 positive rank-one parts.

    Returns (anchor, u_vectors, f_vectors) with independent outer products;
    raises :class:`DependentOuterProducts` after repeated failures.
    """
    for _ in range(10):
        G = rng.normal(size=(n, n))
        anchor = G @ G.T + 0.5 * np.eye(n)
        fs = [rng.normal(size=n) for _ in range(r - 1)]
        us = [anchor @ fvec for fvec in fs]
        if rank_one_independent(Frame(dim=n, vectors=np.array(us), field=REAL), tol):
            return anchor, us, fs
    raise DependentOuterProducts(f"no independent rank-one family of size {r - 1} found")


def rankr_positive_construction(n: int, r: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Channel with positive Kraus parts: one invertible, the rest rank one.

    The mixing matrix ``I + [|<u_i, f_j>|^2]`` is the identity plus a Gramian,
    hence invertible, which is what makes the separation argument work.  The
    sampled family is normalized into a trace-preserving channel, and the
    observables are the pullbacks of the rank-one directions extended to a
    phase-retrievable frame.
    """
    if not 2 <= r <= n * n:
        raise ValueError(f"rank must lie in [2, {n * n}]")
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0xC2]))
    anchor, us, fs = _sample_rankr_parts(n, r, rng, tol)

    M = np.eye(r - 1) + np.array(
        [[abs(np.vdot(ui, fj)) ** 2 for fj in fs] for ui in us]
    )
    if float(np.linalg.eigvalsh(M)[0]) < 1.0 - 1e-10:
        raise DependentOuterProducts("mixing matrix lost its identity floor")

    kraus = _tp_normalize([_outer(u).real for u in us] + [anchor], REAL, tol)
    ch = QuantumChannel(dim_in=n, dim_out=n, kraus=kraus, field=REAL)
    povm = _pulled_back_observables(us, anchor, max(minimal_pr_length(n, REAL)[0], r - 1), rng, tol)
    return ConstructionResult(channel=ch, observables=povm, claimed_status=PR)


def _identity_in_proper_span(vectors, n: int, tol: Tolerance) -> bool:
    """Whether the identity lies in the span of some proper subset of projections.

    Checking every maximal proper subset suffices because spans only grow.
    The projections are independent, so one stacked QR of the N bases that
    each leave one projection out gives every distance ``||t - Q Q* t||``.
    """
    V = np.asarray(vectors, dtype=complex)
    N = len(V)
    raw = (V[:, :, None] * V.conj()[:, None, :]).reshape(N, n * n)
    j = np.arange(N - 1)
    keep = j + (j >= np.arange(N)[:, None])  # row `skip` lists every index but skip
    Q = np.linalg.qr(raw[keep].mT)[0]
    target = np.eye(n, dtype=complex).reshape(-1, 1)
    residual = target - Q @ (Q.conj().mT @ target)
    return bool(np.any(np.linalg.norm(residual, axis=(1, 2)) <= tol.residual_abs * np.sqrt(n)))


def _haar_unitary(n: int, field: str, rng) -> np.ndarray:
    G = rng.normal(size=(n, n))
    if field == COMPLEX:
        G = G + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    phase = d / np.abs(d)
    return Q * phase


def channel_from_observables(f: Frame, r: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Channel of prescribed Choi rank pulled back through given rank-one observables.

    The frame must be phase retrievable with independent projections, and the
    identity must avoid the span of every proper subset of them; these are
    exactly the conditions that keep the rank claim and the separation
    argument intact.  Rank 1 is plain unitary conjugation.
    """
    V = f.vectors
    N, n = V.shape
    if not 1 <= r <= N:
        raise ValueError(f"rank must lie in [1, {N}]")
    if not rank_one_independent(f, tol):
        raise NotIndependent("observable projections are linearly dependent")
    report = is_phase_retrievable_frame(f, OracleConfig(restarts=32), tol)
    if report.phase_retrievable == NO:
        raise NotPhaseRetrievableFrame("the observable frame does not do phase retrieval")
    if _identity_in_proper_span(V, n, tol):
        raise SpanConditionFailed("identity lies in the span of a proper observable subset")

    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0xC3]))
    if seed == 0:
        U = np.eye(n, dtype=complex)
    else:
        U = _haar_unitary(n, f.field, rng)

    if r == 1:
        kraus = [U]
    else:
        gs = [U.conj().T @ V[j] for j in range(r - 1)]
        raw = [np.outer(V[j], gs[j].conj()) for j in range(r - 1)] + [U]
        kraus = _tp_normalize(raw, f.field, tol)
    ch = QuantumChannel(dim_in=n, dim_out=n, kraus=kraus, field=f.field)
    got = choi_rank(ch, tol)
    if got != r:
        raise RuntimeError(f"construction reached Choi rank {got}, wanted {r}")
    povm = _scale_and_complete(list(V), n, tol)
    return ConstructionResult(channel=ch, observables=povm, claimed_status=PR)


def orthogonal_projection_channel(dims, tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Pinching onto coordinate blocks: never phase retrievable for two or more blocks.

    The witness takes one unit vector from each of the first two blocks; the
    sum and the difference of those two vectors give pure states whose images
    agree exactly, because the pinching deletes every cross-block term.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise BadPartition("need at least two blocks")
    if any(d < 1 for d in dims):
        raise BadPartition("block sizes must be positive")
    n = sum(dims)
    projections = []
    offset = 0
    for d in dims:
        P = np.zeros((n, n))
        P[offset : offset + d, offset : offset + d] = np.eye(d)
        projections.append(P.astype(complex))
        offset += d
    ch = QuantumChannel(dim_in=n, dim_out=n, kraus=projections, field=COMPLEX)

    g1 = np.zeros(n, dtype=complex)
    g1[0] = 1.0
    g2 = np.zeros(n, dtype=complex)
    g2[dims[0]] = 1.0
    x = (g1 + g2) / np.sqrt(2.0)
    y = (g1 - g2) / np.sqrt(2.0)
    witness = StateWitness(x, y)
    povm = POVM(dim=n, elements=projections, rank_one_count=sum(1 for d in dims if d == 1))
    return ConstructionResult(channel=ch, observables=povm, claimed_status=NOT_PR, witness=witness)


FIXTURE_NAMES = ("example_2_11", "dephasing", "example_2_6", "identity")


def fixture(name: str, n: int = 2) -> QuantumChannel:
    """Named reference channels used throughout the test and CLI surfaces.

    ``example_2_11``: three real 2x2 operators (identity, swap, and a
    difference projector, suitably weighted) whose relative spectrum violates
    the inner-product condition; it is completely positive but not trace
    preserving as printed, and is shipped verbatim.
    ``dephasing``: deletes off-diagonal entries of a qubit state.
    ``example_2_6``: normalized projector channel of the complex frame
    {e1, e2, e1+e2}; kills no simple tensor yet fails on a symmetric product.
    ``identity``: conjugation by the identity on dimension ``n``.
    """
    if name == "identity":
        return QuantumChannel(dim_in=n, dim_out=n, kraus=[np.eye(n, dtype=complex)], field=COMPLEX)
    if name == "dephasing":
        eye = np.eye(2, dtype=complex)
        zed = np.diag([1.0, -1.0]).astype(complex)
        return QuantumChannel(
            dim_in=2, dim_out=2, kraus=[eye / np.sqrt(2.0), zed / np.sqrt(2.0)], field=COMPLEX
        )
    if name == "example_2_11":
        a1 = np.eye(2) / np.sqrt(3.0)
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(3.0)
        a3 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / np.sqrt(6.0)
        return QuantumChannel(
            dim_in=2,
            dim_out=2,
            kraus=[a1.astype(complex), a2.astype(complex), a3.astype(complex)],
            field=COMPLEX,
        )
    if name == "example_2_6":
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
        frame = Frame(dim=2, vectors=vectors, field=COMPLEX)
        return projector_channel_from_frame(frame)
    raise UnknownFixture(f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}")
