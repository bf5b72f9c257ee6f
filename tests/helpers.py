"""Shared generators for the test suite: random channels, unitaries, frames."""

import numpy as np

from prchannels import COMPLEX, REAL, QuantumChannel, verify_certificate
from prchannels.linalg import psd_inv_sqrt


def rand_matrix(rng, rows, cols, field):
    M = rng.normal(size=(rows, cols))
    if field == COMPLEX:
        M = M + 1j * rng.normal(size=(rows, cols))
    return np.asarray(M, dtype=complex)


def random_cptp(n, m, r, field, rng):
    """Random trace-preserving channel with exactly r Kraus operators."""
    raw = [rand_matrix(rng, m, n, field) for _ in range(r)]
    S = sum(A.conj().T @ A for A in raw)
    W = psd_inv_sqrt(S)
    kraus = [A @ W for A in raw]
    if field == REAL:
        kraus = [K.real.astype(complex) for K in kraus]
    return QuantumChannel(dim_in=n, dim_out=m, kraus=kraus, field=field)


def random_unitary(n, field, rng):
    G = rand_matrix(rng, n, n, field)
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    Q = Q * (d / np.abs(d))
    if field == REAL:
        Q = Q.real.astype(complex)
    return Q


def rho(x):
    x = np.asarray(x, dtype=complex)
    return np.outer(x, x.conj())


def antisymmetric_kernel_channel(rng):
    """Real 2 -> 3 channel with ``sum_i A_i J A_i^T = 0`` for the antisymmetric J.

    ``A J A^T`` is the cross product of A's two columns, written as an
    antisymmetric matrix; the third operator's columns ``u`` and ``(t x u)/|u|^2``
    with ``u`` orthogonal to ``t`` have cross product ``t``, the negated sum of
    the first two.
    """
    A1, A2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    t = -(np.cross(*A1.T) + np.cross(*A2.T))
    u = np.cross(t, rng.normal(size=3))
    A3 = np.column_stack([u, np.cross(t, u) / (u @ u)])
    return QuantumChannel(2, 3, [A1, A2, A3], REAL)


def assert_relative_certificate(ch, verdict, rtol=1e-8):
    """A symmetric-product NOT_PR certificate and its state pair re-verify relative to sum_i ||A_i||_F^2."""
    scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
    res = verify_certificate(ch, verdict)
    cert, sw = verdict.certificate, verdict.state_witness
    sym = np.outer(cert.x, cert.y.conj()) + np.outer(cert.y, cert.x.conj())
    assert res["tensor"] <= rtol * scale * np.linalg.norm(sym)
    nx, ny = np.linalg.norm(sw.x) ** 2, np.linalg.norm(sw.y) ** 2
    assert res["state"] <= rtol * scale * (nx + ny)
    assert res["separation"] >= 0.05 * max(nx, ny)
