"""Multistart alternating minimization for vanishing bilinear tensor searches.

Two engines live here.  The simple-tensor engine minimizes the norm of a map
applied to ``x (x) y`` over unit vectors; for fixed ``x`` the objective is
linear in the conjugated coordinates of ``y``, so each half step is an exact
smallest-singular-vector solve.  The symmetric engine minimizes the norm of a
map applied to ``x (x) y + y (x) x`` relative to the norm of that symmetric
product; for fixed ``x`` the objective is real-linear in ``y``, so each half
step is an exact generalized smallest-singular solve restricted to the range
of the normalizer ``v -> x v^* + v x^*``.  That normalizer's spectrum has a
closed form, so it is whitened by one Householder reflector instead of a
decomposition; every remaining solve is a singular value decomposition, never
normal equations, so vanishing minima resolve to machine precision.  The
decompositions are thin whenever the matrix has at least as many rows as
columns, and full otherwise, where the last right singular vector must still
span a null direction.

Both engines read the channel through its natural representation
``K = sum_i A_i (x) conj(A_i)``, which sends ``s (x) t`` to ``vec(Phi(s t^T))``:
every half-step matrix is one of the two slot contractions of ``K`` at the
fixed vector (:func:`_slot_maps`), one matrix-vector product each, and never
a sum of Kronecker products.  The restarts run one after another, each
from a unit vector drawn from ``default_rng([seed, tag, r])``
(:func:`_starts`).  The search stops at the first witness-grade minimum and
reports the best pair seen (lowest restart index on ties).  No ``x`` a
restart holds vanishes: the start is a unit vector, and each later one is a
unit singular vector or a solution whose symmetric product with the
previous, nonzero ``x`` has unit norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import COMPLEX

# An objective below this is treated as an exact zero of the bilinear form.
_SUCCESS = 1e-26
# A restart is abandoned once its current geometric convergence rate cannot
# push the objective below this witness-grade value within the remaining
# iteration budget.  Runs heading to a strictly positive minimum slow to a
# rate near one and are cut off immediately; runs heading to a true zero keep
# a rate bounded away from one and survive the projection.
_TARGET = 1e-18
_LOG_TARGET = np.log(_TARGET)
# The iteration budget of one restart.
_MAX_ITERS = 500


def _hopeless(val: float, prev: float, iters_left: int) -> bool:
    if not math.isfinite(prev) or prev <= 0.0 or val <= 0.0:
        return False
    rate = val / prev
    return rate >= 1.0 or np.log(val) + iters_left * np.log(rate) > _LOG_TARGET


__all__ = [
    "OracleConfig",
    "smallest_generalized",
    "minimize_simple_pair",
    "minimize_symmetric_pair",
]


@dataclass(frozen=True)
class OracleConfig:
    """Multistart search budget of the numeric oracles, and their decision floor.

    ``restarts`` is a positive integer (not a bool).  A LIKELY_PR floor above
    the constant ``decision_floor`` confirms a construction claimed PR.
    """

    restarts: int = 64
    seed: int = 0
    decision_floor: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not isinstance(self.restarts, numbers.Integral) or isinstance(self.restarts, bool) or self.restarts <= 0:
            raise ValueError(f"restarts must be a positive integer, got {self.restarts!r}")


def _symmetric_whitener(x: np.ndarray) -> np.ndarray:
    """Whitener of the normalizer ``v -> x v^* + v x^*`` in ``[Re v; Im v]`` coordinates.

    The normalizer scales the real direction of ``x`` by ``2 ||x||``, kills
    ``i x``, and scales the complex orthogonal complement of ``x`` by
    ``sqrt(2) ||x||``.  For a nonzero ``x`` of length ``n`` returns the real
    ``2n x (2n - 1)`` matrix ``W`` whose image under the normalizer has
    orthonormal columns spanning its range.
    """
    n = x.size
    nrm = np.sqrt(np.vdot(x, x).real)
    xh = x / nrm
    # Householder reflector H = I - 2 w w^* / ||w||^2 with w = xh - alpha e1 and
    # alpha = -xh[0] / |xh[0]| (1 where xh[0] = 0), so ||w||^2 = 2 + 2 |xh[0]|
    # never cancels.  Its last n - 1 columns are an orthonormal basis of the
    # complement of xh.
    a0 = abs(xh[0])
    w = xh.copy()
    w[0] += xh[0] / a0 if a0 > 0.0 else 1.0
    c = 1.0 / (np.sqrt(2.0) * nrm)
    # Complex columns: xh / (2 ||x||), then c H[:, 1:], then i c H[:, 1:].
    B = np.empty((n, 2 * n - 1), dtype=complex)
    B[:, 0] = xh / (2.0 * nrm)
    Q = B[:, 1:n]
    np.multiply.outer(w, w[1:].conj(), out=Q)
    Q *= -c / (1.0 + a0)
    B.reshape(-1)[2 * n :: 2 * n] += c  # the identity part of H[:, 1:], at B[j, j]
    np.multiply(Q, 1j, out=B[:, n:])
    return np.concatenate((B.real, B.imag))


def smallest_generalized(L: np.ndarray, x: np.ndarray):
    """Minimize ``||L v||^2 / ||x v^* + v x^*||_F^2`` over real ``v = [Re; Im]``.

    ``x`` must be nonzero, as every start and every solution of the engines
    is.  Returns the minimum and a minimizer ``v`` whose symmetric product
    has unit Frobenius norm, so ``1 / (2 ||x||) <= ||v|| <= 1 / (sqrt(2) ||x||)``.
    When ``L`` has fewer rows than the whitened space has dimensions the
    minimum is zero.
    """
    W = _symmetric_whitener(x)
    M = L @ W
    wide = M.shape[0] < M.shape[1]
    _, sm, vmt = np.linalg.svd(M, full_matrices=wide)
    return 0.0 if wide else float(sm[-1]) ** 2, W @ vmt[-1]


def _rand_unit(rng, n: int, field: str) -> np.ndarray:
    v = rng.normal(size=n)
    if field == COMPLEX:
        v = v + 1j * rng.normal(size=n)
    # n standard normal draws all exactly zero have probability zero.
    return v / np.linalg.norm(v)


def _starts(seed: int, tag: int, r: int, n: int, field: str) -> np.ndarray:
    """Restart ``r``'s start, the first draw from ``default_rng([seed, tag, r])``."""
    return _rand_unit(np.random.default_rng([abs(int(seed)), tag, r]), n, field)


def _restarts(step, cfg: OracleConfig, tag: int, n: int, field: str):
    """The best ``(value, x, y)`` of the restarts, run one after another.

    ``step(x)`` advances ``x`` by one iteration and returns
    ``(value, x_next, other)``.  A restart reports its last step, a result
    replaces the best only when strictly smaller, and the search ends at the
    first witness-grade one.
    """
    best = None
    for r in range(cfg.restarts):
        x, prev = _starts(cfg.seed, tag, r, n, field), np.inf
        for it in range(_MAX_ITERS):
            val, x, other = step(x)
            if val < _SUCCESS or prev - val <= 0.0 or _hopeless(val, prev, _MAX_ITERS - it):
                break
            prev = val
        if best is None or val < best[0]:
            best = (val, x, other)
        if best[0] < _SUCCESS:
            break
    return best


def _block_real(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """The real matrix of v -> P1 conj(v) + P2 v in stacked [Re; Im] coordinates."""
    rows, cols = P1.shape
    out = np.empty((2 * rows, 2 * cols))
    np.add(P1.real, P2.real, out=out[:rows, :cols])
    np.subtract(P1.imag, P2.imag, out=out[:rows, cols:])
    np.add(P1.imag, P2.imag, out=out[rows:, :cols])
    np.subtract(P2.real, P1.real, out=out[rows:, cols:])
    return out


def _slot_maps(K: np.ndarray, n: int):
    """The slot contractions ``(left, right)`` of the natural representation ``K``.

    ``K`` acts on ``vec(s t^T) = s (x) t``, so ``Phi(x y^*) = K (x (x) conj(y))``.
    ``left(u)`` fixes ``s = u`` and acts on ``t = conj(v)``; ``right(u)`` fixes
    ``t = conj(u)`` and acts on ``s = v``.  Each is one matrix-vector product
    with ``K`` viewed as a ``(rows, n, n)`` array.
    """
    rows = K.shape[0]
    left_slot = K.reshape(rows, n, n).transpose(0, 2, 1).reshape(rows * n, n)
    right_slot = K.reshape(rows * n, n)

    def left(u):
        return (left_slot @ u[:, None]).reshape(rows, n)

    def right(u):
        return (right_slot @ u.conj()[:, None]).reshape(rows, n)

    return left, right


def minimize_simple_pair(K: np.ndarray, dim: int, field: str, cfg: OracleConfig):
    """Minimize ``||K (x (x) conj(y))||^2`` over unit ``x``, ``y`` in dimension ``dim``.

    ``K`` is the natural representation ``sum_i A_i (x) conj(A_i)``, real for
    a search over real vectors.  The half steps alternate the smallest right
    singular vectors of ``left(x)`` and ``right(y)`` (:func:`_slot_maps`).
    Returns the best ``(value, x, y)`` over all restarts.
    """
    left, right = _slot_maps(K, dim)
    # Each half-step matrix has K's rows and dim columns; with fewer rows than
    # columns only the full decomposition yields a null vector.
    full = K.shape[0] < dim

    def step(x):
        # The solve yields conj(y); the row of vh undoes the conjugation.
        y = np.linalg.svd(left(x), full_matrices=full)[2][-1]
        _, s2, vh2 = np.linalg.svd(right(y), full_matrices=full)
        return float(s2[-1]) ** 2, vh2[-1].conj(), y

    return _restarts(step, cfg, 0x51, dim, field)


def minimize_symmetric_pair(K: np.ndarray, dim: int, cfg: OracleConfig):
    """Minimize ``||K (x (x) conj(y) + y (x) conj(x))||^2 / ||x y^* + y x^*||_F^2`` by alternation.

    ``K`` is a natural representation on complex ``dim``-vectors.  At a fixed
    slot ``x`` the objective is ``left(x) conj(v) + right(x) v``
    (:func:`_slot_maps`), real-linear in ``v``.  Returns the best ``(value, x,
    y)``, with the pair normalized so the symmetric product has unit
    Frobenius norm.
    """
    left, right = _slot_maps(K, dim)

    def step(x):
        val, v = smallest_generalized(_block_real(left(x), right(x)), x)
        return val, v[:dim] + 1j * v[dim:], x  # alternate which slot is solved next

    val, x, y = _restarts(step, cfg, 0x52, dim, COMPLEX)
    root = np.sqrt(np.linalg.norm(np.outer(x, y.conj()) + np.outer(y, x.conj())))
    return val, x / root, y / root
