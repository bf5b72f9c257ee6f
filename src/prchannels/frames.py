"""Vector frames: bounds, Parseval normalization, complement property, retrievability.

Phase retrievability of a real frame is decided exactly through the
complement property: every split of the vectors into two sets leaves a set
that spans.  The 2^(N-1) splits are tested 64 at a time, up to N = 24
vectors, by ``linalg._failing_bipartition``, which :func:`decide` shares for
real channels: a stacked determinant of the sides' Gram matrices clears most
sides, and one stacked values-only SVD decides the rest.  A failing split
gives the equal-measurement pair ``u + v, u - v`` of ``linalg._equal_image_pair``.
A complex frame is decided by :func:`decide` on its measurement channel
``X -> sum_j (f_j* X f_j) e_j e_j*``, which separates pure states exactly
when the frame does.  A frame of at most ``2n - 2`` vectors is decided NO
exactly: its measurement operators ``e_j f_j*`` have rank one, so they split
into two groups of at most ``n - 1``, each with a common kernel vector, and
:func:`decide`'s rank split reads the colliding pair off the two groups.
Longer frames are decided exactly whenever the
channel's Hermitian kernel has dimension at most one (for instance ``n^2 - 1``
or more generic vectors), in C^2 at every kernel dimension, and for generic
frames whose kernel the Macaulay step proves (12 or more vectors in C^4, 18
or more in C^5, and ``n^2 - 3`` or more from C^4 on, past the step's size
cap on a compression of the kernel).  In C^3 a kernel of dimension 2 or
more always holds a colliding pair, which :func:`decide` reads off the real
roots of one cubic, and the same cubic decides a kernel of dimension 2
(``n^2 - 2`` independent vectors) unless it comes within its margin of a
colliding pair.  Beyond that the test is one sided: a search on the unit
sphere of the kernel certifies a failure by an explicit pair of vectors
with identical phaseless measurements, while success is only reported as
"likely".
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

# minimize_symmetric_pair is not called here; perfbench's tracer checks this binding.
from .bilinear import OracleConfig, minimize_symmetric_pair  # noqa: F401
from .channels import QuantumChannel
from .deciders import NOT_PR, PR, decide
from .errors import NotAFrame, TooManyVectors
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Tolerance,
    _equal_image_pair,
    _failing_bipartition,
    _polar_factor,
    _rank_one_independent,
    numerical_rank,
)

YES = "YES"
NO = "NO"
LIKELY_YES = "LIKELY_YES"

EXACT = "exact"
UPPER_BOUND = "upper_bound"

__all__ = [
    "YES",
    "NO",
    "LIKELY_YES",
    "EXACT",
    "UPPER_BOUND",
    "Frame",
    "FrameReport",
    "frame_operator",
    "frame_bounds",
    "parseval_normalize",
    "complement_property",
    "is_phase_retrievable_frame",
    "random_generic_frame",
    "minimal_pr_length",
    "rank_one_independent",
]


@dataclass
class Frame:
    """An ordered list of vectors in a fixed-dimension space.

    ``vectors`` is stored as an (N, dim) complex array, one vector per row.
    """

    dim: int
    vectors: np.ndarray = dc_field(default_factory=lambda: np.zeros((0, 0)))
    field: str = COMPLEX

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("frame dimension must be positive")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {self.field!r}")
        V = np.asarray(self.vectors, dtype=complex)
        if V.ndim != 2 or V.shape[1] != self.dim or V.shape[0] == 0:
            raise ValueError(f"expected a nonempty (N, {self.dim}) vector array")
        if not np.isfinite(V).all():
            raise ValueError("frame vectors must be finite")
        if not np.any(np.abs(V) > 0):
            raise ValueError("at least one frame vector must be nonzero")
        if self.field == REAL and np.any(V.imag != 0.0):
            raise ValueError("real frame carries nonzero imaginary parts")
        self.vectors = V

    def __len__(self):
        return self.vectors.shape[0]


@dataclass
class FrameReport:
    is_frame: bool
    lower_bound: float
    upper_bound: float
    is_parseval: bool
    complement_property: bool | None  # None means unknown (not computed)
    phase_retrievable: str
    witness: tuple | None = None


def frame_operator(f: Frame) -> np.ndarray:
    """The positive operator summing the rank-one projections of all vectors."""
    V = f.vectors
    return V.T @ V.conj()


def _bounds(S: np.ndarray):
    w = np.linalg.eigvalsh(S)
    return float(max(w[0], 0.0)), float(w[-1])


def frame_bounds(f: Frame):
    """Optimal frame bounds: extreme eigenvalues of the frame operator."""
    return _bounds(frame_operator(f))


def parseval_normalize(f: Frame, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """The frame reshaped by the inverse square root of its frame operator.

    For the vector array ``V = U S W*`` (thin SVD, real on the real field) the
    result is the polar factor ``U W*``, whose frame operator is the identity;
    invertible reshaping preserves phase retrievability.  Raises
    :class:`NotAFrame` exactly when the vectors fail the spanning rule of
    :func:`is_phase_retrievable_frame`, ``numerical_rank(V) < dim``.
    """
    V = _polar_factor(f.vectors, tol, f.field == REAL, NotAFrame)
    return Frame(dim=f.dim, vectors=V, field=f.field)


def complement_property(f: Frame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether every bipartition of the frame has a side spanning the space.

    The 2^(N-1) bipartitions are tested 64 at a time, by one stacked
    determinant each and one stacked SVD for the sides it leaves undecided
    (see :func:`linalg._failing_bipartition`); more than 24 vectors raise
    :class:`TooManyVectors`.
    """
    return _failing_bipartition(_rows(f), tol) is None


def _rows(f: Frame) -> np.ndarray:
    """The vectors as rows, a real array on the real field."""
    return f.vectors.real if f.field == REAL else f.vectors


def _measurement_channel(f: Frame) -> QuantumChannel:
    """The channel ``X -> sum_j (f_j* X f_j) e_j e_j*`` of the unit-normalized nonzero vectors.

    Its Kraus operators are ``e_j f_j*``.  Rescaling a vector rescales one
    measurement, so the channel separates pure states exactly when the frame
    does.
    """
    V = f.vectors[np.any(f.vectors != 0, axis=1)]
    kraus = [np.outer(e, v.conj()) / np.linalg.norm(v) for e, v in zip(np.eye(len(V)), V)]
    return QuantumChannel(f.dim, len(V), kraus, f.field)


def is_phase_retrievable_frame(
    f: Frame, oracle_cfg: OracleConfig | None = None, tol: Tolerance = DEFAULT_TOL
) -> FrameReport:
    """Full frame report with a phase-retrievability verdict.

    Real frames are decided exactly, by the complement property.  Complex
    frames take the verdict of :func:`decide` on their measurement channel:
    PR gives YES, NOT_PR gives NO with its state pair as witness, and
    LIKELY_PR gives LIKELY_YES.  Their reports leave ``complement_property``
    None; :func:`complement_property` computes it on demand.
    """
    V = f.vectors
    n = f.dim
    S = frame_operator(f)
    lo, hi = _bounds(S)
    # The rank rule of the complement property: a non-frame has a kernel vector.
    is_frame = numerical_rank(V, tol) == n
    is_parseval = bool(np.linalg.norm(S - np.eye(n)) <= tol.residual_abs * (1.0 + np.sqrt(n)))
    failing, cp = None, None
    if f.field == REAL:
        try:
            failing = _failing_bipartition(_rows(f), tol)
            cp = failing is None
        except TooManyVectors:
            pass

    if not is_frame:
        # Every vector on one side: the pair (u, 2u) of a kernel vector u.
        return FrameReport(False, lo, hi, is_parseval, cp, NO, _equal_image_pair(V, range(len(V)), [], tol))

    if f.field == REAL:
        if cp is None:
            raise TooManyVectors("real decision needs the bipartition enumeration")
        if cp:
            return FrameReport(True, lo, hi, is_parseval, cp, YES, None)
        return FrameReport(True, lo, hi, is_parseval, cp, NO, _equal_image_pair(_rows(f), *failing, tol))

    verdict = decide(_measurement_channel(f), oracle_cfg, tol)
    if verdict.status == NOT_PR:
        x, y = verdict.state_witness.x, verdict.state_witness.y
        # Joint rescale so the projection difference has unit norm.
        s = np.sqrt(np.linalg.norm(np.outer(x, x.conj()) - np.outer(y, y.conj())))
        return FrameReport(True, lo, hi, is_parseval, cp, NO, (x / s, y / s))
    return FrameReport(True, lo, hi, is_parseval, cp, YES if verdict.status == PR else LIKELY_YES, None)


def random_generic_frame(n: int, N: int, field: str = COMPLEX, seed: int = 0) -> Frame:
    """N vectors with i.i.d. standard Gaussian entries, deterministic per seed."""
    if N < 1:
        raise ValueError("need at least one vector")
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0xF0A]))
    V = rng.normal(size=(N, n))
    if field == COMPLEX:
        V = V + 1j * rng.normal(size=(N, n))
    return Frame(dim=n, vectors=np.asarray(V, dtype=complex), field=field)


def minimal_pr_length(n: int, field: str = COMPLEX):
    """Smallest number of frame vectors that can do phase retrieval in dimension n.

    Real spaces need exactly ``2n - 1`` vectors.  Complex spaces need at most
    ``4n - 4``; that bound is known to be attained exactly when ``n - 1`` is a
    power of two, and the true complex minimum is open otherwise.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if field == REAL:
        return 2 * n - 1, EXACT
    value = 4 * n - 4
    k = n - 1
    exact = k > 0 and (k & (k - 1)) == 0
    return value, (EXACT if exact else UPPER_BOUND)


def rank_one_independent(f: Frame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the rank-one projections of the frame vectors are linearly independent."""
    return _rank_one_independent(f.vectors, tol)
