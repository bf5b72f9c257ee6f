"""Quantum channels in Kraus form: application, adjoint, Choi conversion, validation.

A channel is stored as its list of Kraus operators; the Choi matrix is always
derived.  Non-trace-preserving inputs are accepted everywhere and merely
recorded with a residual, so that completely positive maps that fail the
trace condition stay loadable and analyzable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch, NotPSD
from .linalg import COMPLEX, DEFAULT_TOL, REAL, Tolerance, as_matrix, hermitian_eig

__all__ = [
    "QuantumChannel",
    "ValidationReport",
    "apply",
    "adjoint_apply",
    "choi_matrix",
    "choi_rank",
    "minimal_kraus_from_choi",
    "validate",
    "channels_equal",
]


@dataclass
class QuantumChannel:
    """A completely positive map given by an ordered Kraus family.

    ``kraus`` holds ``dim_out x dim_in`` complex matrices.  ``field`` tags
    whether the channel lives over real or complex Hilbert spaces; real
    channels must have exactly zero imaginary parts.  Instances are treated
    as immutable after construction.
    """

    dim_in: int
    dim_out: int
    kraus: list = dc_field(default_factory=list)
    field: str = COMPLEX

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("channel dimensions must be positive")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {self.field!r}")
        if not len(self.kraus):
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for K in self.kraus:
            A = as_matrix(K)
            if A.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus operator of shape {A.shape}, expected "
                    f"({self.dim_out}, {self.dim_in})"
                )
            if self.field == REAL and np.any(A.imag != 0.0):
                raise ValueError("real channel carries nonzero imaginary parts")
            ops.append(A)
        self.kraus = ops


@dataclass
class ValidationReport:
    is_trace_preserving: bool
    tp_residual: float
    is_completely_positive: bool
    is_unital: bool
    unital_residual: float
    choi_rank: int


def apply(ch: QuantumChannel, T) -> np.ndarray:
    """Apply the channel to a ``dim_in``-square matrix: sum of ``A T A*``."""
    M = as_matrix(T)
    if M.shape != (ch.dim_in, ch.dim_in):
        raise DimensionMismatch(f"input of shape {M.shape}, expected square of size {ch.dim_in}")
    return _image(np.stack(ch.kraus), M)


def _image(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``sum_i A_i X A_i*`` for the stacked ``(r, m, n)`` Kraus family ``A``."""
    return (A @ X @ A.conj().mT).sum(axis=0)


def adjoint_apply(ch: QuantumChannel, S) -> np.ndarray:
    """Apply the Hilbert-Schmidt adjoint to a ``dim_out``-square matrix: sum of ``A* S A``."""
    M = as_matrix(S)
    if M.shape != (ch.dim_out, ch.dim_out):
        raise DimensionMismatch(f"input of shape {M.shape}, expected square of size {ch.dim_out}")
    return _image(np.stack(ch.kraus).conj().mT, M)


def choi_matrix(ch: QuantumChannel) -> np.ndarray:
    """Block matrix whose (i, j) block is the image of the matrix unit ``e_i e_j*``.

    Equals the sum of outer products of the column-stacked Kraus operators,
    ``F^T conj(F)`` for ``F`` of :func:`_column_stacked`, so it is Hermitian
    PSD for every Kraus-form channel.
    """
    F = _column_stacked(np.stack(ch.kraus))
    return F.T @ F.conj()


def choi_rank(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of the Choi matrix (the dimension of the Kraus span).

    The Choi matrix is ``F^* F`` for the matrix ``F`` whose rows are the
    column-stacked Kraus operators, so its eigenvalues that can be nonzero
    are the squared singular values of ``F``: one values-only decomposition
    of ``r x nm``, with no ``nm x nm`` matrix built.  Those above
    ``rank_rel`` times the largest one count; the zero map has rank 0.
    """
    return _choi_rank(np.stack(ch.kraus), tol)


def _column_stacked(A: np.ndarray) -> np.ndarray:
    """One row per operator of the stacked ``(r, m, n)`` family: its columns stacked top to bottom."""
    return A.transpose(0, 2, 1).reshape(len(A), -1)


def _choi_rank(A: np.ndarray, tol: Tolerance) -> int:
    """:func:`choi_rank` of the stacked ``(r, m, n)`` Kraus family ``A``."""
    lam = np.linalg.svd(_column_stacked(A), compute_uv=False) ** 2
    return int(np.count_nonzero(lam > tol.rank_rel * lam[0])) if lam[0] > 0.0 else 0


def minimal_kraus_from_choi(
    C, dim_in: int, dim_out: int, tol: Tolerance = DEFAULT_TOL, field: str = COMPLEX
) -> QuantumChannel:
    """Recover a channel with exactly Choi-rank many Kraus operators.

    ``C`` must be Hermitian within tolerance and PSD within tolerance: its
    smallest eigenvalue at least ``-residual_abs`` times its trace, which is
    ``sum_i ||A_i||_F^2`` for a Kraus family.  Eigenvectors above the rank
    cutoff are rescaled and reshaped into Kraus operators.  On the real field
    their imaginary parts must stay below ``residual_abs`` times the square
    root of the trace, the Frobenius norm of the whole family.  Both tests
    are unchanged by scaling the channel.
    """
    A = as_matrix(C)
    if A.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimensionMismatch(
            f"Choi matrix of shape {A.shape}, expected square of size {dim_in * dim_out}"
        )
    w, v = hermitian_eig(A, tol)
    trace = max(float(np.trace(A).real), 0.0)
    if w.size and w[-1] < -tol.residual_abs * trace:
        raise NotPSD(f"smallest eigenvalue {w[-1]:.3e} below -residual_abs times the trace {trace:.3e}")
    keep = w > tol.rank_rel * w.max(initial=0.0)
    # Each kept eigenvector, scaled, is a column-stacked Kraus operator.
    ops = (v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, dim_in, dim_out).transpose(0, 2, 1)
    if not len(ops):
        ops = np.zeros((1, dim_out, dim_in), dtype=complex)
    if field == REAL:
        if np.max(np.abs(ops.imag)) > tol.residual_abs * np.sqrt(trace):
            raise ValueError("Choi matrix is not real enough for a real channel")
        ops = ops.real
    return QuantumChannel(dim_in=dim_in, dim_out=dim_out, kraus=list(ops), field=field)


def validate(ch: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Trace-preservation, unitality and Choi-rank report for a channel."""
    eye_in = np.eye(ch.dim_in)
    eye_out = np.eye(ch.dim_out)
    tp = sum(A.conj().T @ A for A in ch.kraus)
    un = sum(A @ A.conj().T for A in ch.kraus)
    tp_res = float(np.linalg.norm(tp - eye_in))
    un_res = float(np.linalg.norm(un - eye_out))
    return ValidationReport(
        is_trace_preserving=tp_res <= tol.residual_abs,
        tp_residual=tp_res,
        is_completely_positive=True,  # Kraus form is CP by construction
        is_unital=un_res <= tol.residual_abs,
        unital_residual=un_res,
        choi_rank=choi_rank(ch, tol),
    )


def channels_equal(ch1: QuantumChannel, ch2: QuantumChannel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the two channels are the same map, decided on Choi matrices."""
    if (ch1.dim_in, ch1.dim_out) != (ch2.dim_in, ch2.dim_out):
        raise DimensionMismatch("channels act between different spaces")
    C1 = choi_matrix(ch1)
    C2 = choi_matrix(ch2)
    return float(np.linalg.norm(C1 - C2)) <= tol.residual_abs * (1.0 + np.linalg.norm(C1))
