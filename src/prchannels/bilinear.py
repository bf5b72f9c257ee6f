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

Both engines build their half-step matrices by contracting a stacked operator
array once per step, not by summing Kronecker products.  They are
deterministic functions of the configured seed: restart ``r`` draws from
``default_rng([seed, tag, r])``, restarts stop early once a witness-grade
minimum is found, and the reported pair is the best seen so far (lowest
restart index on ties).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import COMPLEX, REAL

# An objective below this is treated as an exact zero of the bilinear form.
_SUCCESS = 1e-26
# A restart is abandoned once its current geometric convergence rate cannot
# push the objective below this witness-grade value within the remaining
# iteration budget.  Runs heading to a strictly positive minimum slow to a
# rate near one and are cut off immediately; runs heading to a true zero keep
# a rate bounded away from one and survive the projection.
_TARGET = 1e-18


def _hopeless(val: float, prev: float, iters_left: int) -> bool:
    if not np.isfinite(prev) or prev <= 0.0 or val <= 0.0:
        return False
    rate = val / prev
    if rate >= 1.0:
        return True
    return np.log(val) + iters_left * np.log(rate) > np.log(_TARGET)


__all__ = [
    "OracleConfig",
    "smallest_generalized",
    "minimize_simple_pair",
    "minimize_symmetric_pair",
]


@dataclass(frozen=True)
class OracleConfig:
    """Multistart search budget and decision threshold for the numeric oracles."""

    restarts: int = 64
    max_iters: int = 500
    seed: int = 0
    decision_floor: float = 1e-6

    def __post_init__(self):
        if self.restarts <= 0 or self.max_iters <= 0 or self.decision_floor <= 0:
            raise ValueError("oracle configuration values must be positive")


def _symmetric_whitener(x: np.ndarray):
    """Whitener of the normalizer ``v -> x v^* + v x^*`` in ``[Re v; Im v]`` coordinates.

    The normalizer scales the real direction of ``x`` by ``2 ||x||``, kills
    ``i x``, and scales the complex orthogonal complement of ``x`` by
    ``sqrt(2) ||x||``.  Returns the real ``2n x (2n - 1)`` matrix ``W`` whose
    image under the normalizer has orthonormal columns spanning its range,
    or None when ``x`` vanishes.
    """
    n = x.size
    nrm = float(np.sqrt(np.vdot(x, x).real))
    if nrm == 0.0:
        return None
    xh = x / nrm
    # Householder reflector H = I - 2 w w^* / ||w||^2 with w = xh - alpha e1 and
    # alpha = -xh[0] / |xh[0]|, so ||w||^2 = 2 + 2 |xh[0]| never cancels.  Its
    # last n - 1 columns are an orthonormal basis of the complement of xh.
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

    Returns ``(value, v)`` with the symmetric product of unit Frobenius norm,
    or ``(None, None)`` when ``x`` vanishes.  When ``L`` has fewer rows than
    the whitened space has dimensions the minimum is zero.
    """
    W = _symmetric_whitener(x)
    if W is None:
        return None, None
    M = L @ W
    wide = M.shape[0] < M.shape[1]
    _, sm, vmt = np.linalg.svd(M, full_matrices=wide)
    val = 0.0 if wide else float(sm[-1]) ** 2
    return val, W @ vmt[-1]


def _rand_unit(rng, n: int, field: str) -> np.ndarray:
    v = rng.normal(size=n)
    if field == COMPLEX:
        v = v + 1j * rng.normal(size=n)
    nrm = np.linalg.norm(v)
    while nrm == 0.0:  # essentially impossible, but keeps the loop total
        v = rng.normal(size=n) + (1j * rng.normal(size=n) if field == COMPLEX else 0.0)
        nrm = np.linalg.norm(v)
    return v / nrm


def _block_real(out: np.ndarray, P1: np.ndarray, P2: np.ndarray) -> None:
    """Fill ``out`` with the real matrix of v -> P1 conj(v) + P2 v in stacked [Re; Im] coordinates."""
    rows, cols = P1.shape
    np.add(P1.real, P2.real, out=out[:rows, :cols])
    np.subtract(P1.imag, P2.imag, out=out[:rows, cols:])
    np.add(P1.imag, P2.imag, out=out[rows:, :cols])
    np.subtract(P2.real, P1.real, out=out[rows:, cols:])


def _fixed_x_matrix(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_i kron(A_i x, conj(A_i))`` for operators stacked as ``A[i]``.

    It sends conj(y) to the objective's vector at fixed x.
    """
    _, m, n = A.shape
    return ((A @ x).T @ A.conj().reshape(len(A), m * n)).reshape(m * m, n)


def _fixed_y_matrix(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_i kron(A_i, conj(A_i y))``: sends x to the objective's vector at fixed y."""
    _, m, n = A.shape
    M = ((A @ y).conj().T @ A.reshape(len(A), m * n)).reshape(m, m, n)
    return M.transpose(1, 0, 2).reshape(m * m, n)


def minimize_simple_pair(kraus, field: str, cfg: OracleConfig, dim_in: int):
    """Minimize ``|| sum_i (A_i x)(A_i y)^* ||_F^2`` over unit ``x``, ``y``.

    For real channels the search stays over real vectors.  Returns the best
    ``(value, x, y)`` over all restarts.
    """
    A = np.stack(kraus)
    if field == REAL:
        A = A.real
    _, m, n = A.shape
    # Each half-step matrix has m^2 rows and n columns; with fewer rows than
    # columns only the full decomposition yields a null vector.
    full = m * m < n
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([abs(int(cfg.seed)), 0x51, r]))
        x = _rand_unit(rng, dim_in, field)
        y = x.copy()
        prev = np.inf
        val = np.inf
        for it in range(cfg.max_iters):
            _, _, vh1 = np.linalg.svd(_fixed_x_matrix(A, x), full_matrices=full)
            y = np.array(vh1[-1])  # the solve yields conj(y); undo the conjugation
            _, s2, vh2 = np.linalg.svd(_fixed_y_matrix(A, y), full_matrices=full)
            x = vh2[-1].conj()
            val = float(s2[-1]) ** 2
            if val < _SUCCESS or prev - val <= 0.0:
                break
            if _hopeless(val, prev, cfg.max_iters - it):
                break
            prev = val
        if best is None or val < best[0]:
            best = (val, x, y)
        if best[0] < _SUCCESS:
            break
    return best


def minimize_symmetric_pair(pair_maps, dim: int, cfg: OracleConfig):
    """Minimize ``||map(x, y)||^2 / ||x y^* + y x^*||_F^2`` by alternation.

    ``pair_maps(u)`` must return complex matrices ``(P1, P2)`` such that the
    objective at the fixed slot ``u`` is ``P1 conj(v) + P2 v``; the map is
    assumed symmetric in its two slots.  Returns the best ``(value, x, y)``
    with the pair normalized so the symmetric product has unit Frobenius
    norm, or None when every restart degenerated.
    """
    L = None
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([abs(int(cfg.seed)), 0x52, r]))
        x = _rand_unit(rng, dim, COMPLEX)
        y = None
        prev = np.inf
        val = np.inf
        for it in range(cfg.max_iters):
            P1, P2 = pair_maps(x)
            if L is None:
                L = np.empty((2 * P1.shape[0], 2 * dim))
            _block_real(L, P1, P2)
            step_val, vt = smallest_generalized(L, x)
            if vt is None:
                x = _rand_unit(rng, dim, COMPLEX)
                continue
            y = vt[:dim] + 1j * vt[dim:]
            val = step_val
            x, y = y, x  # alternate which slot is solved next
            if val < _SUCCESS or prev - val <= 0.0:
                break
            if _hopeless(val, prev, cfg.max_iters - it):
                break
            prev = val
        if y is None:
            continue
        pair = _renormalize_symmetric(x, y)
        if pair is None:
            continue
        if best is None or val < best[0]:
            best = (val, pair[0], pair[1])
        if best[0] < _SUCCESS:
            break
    return best


def _renormalize_symmetric(x: np.ndarray, y: np.ndarray):
    s = np.linalg.norm(np.outer(x, y.conj()) + np.outer(y, x.conj()))
    if s == 0.0:
        return None
    root = np.sqrt(s)
    return x / root, y / root
