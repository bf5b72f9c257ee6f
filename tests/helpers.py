"""Shared generators for the test suite (random channels, unitaries, frames), a
point-by-point reference of the pencil engine and a two-image reference of the
state-witness conversion."""

import numpy as np

from prchannels import (
    ALL_OF_C,
    COMPLEX,
    DEFAULT_TOL,
    FINITE,
    REAL,
    QuantumChannel,
    StateWitness,
    apply,
    smallest_singular_value,
    verify_certificate,
)
from prchannels.linalg import ZERO_POLY, as_matrix, poly_roots, psd_inv_sqrt, trim_polynomial
from prchannels.spectra import SingularSet, _cluster_roots, _significant_poly


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


def pinching(dims, field):
    """The pinching onto consecutive diagonal blocks of sizes ``dims``."""
    n, ops, offset = sum(dims), [], 0
    for d in dims:
        P = np.zeros((n, n))
        P[offset : offset + d, offset : offset + d] = np.eye(d)
        ops.append(P)
        offset += d
    return QuantumChannel(n, n, ops, field)


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


def _reference_det_poly_square(P, Q):
    n = P.shape[0]
    k = n + 1
    nodes = np.exp(2j * np.pi * np.arange(k) / k)
    vals = np.array([np.linalg.det(P + t * Q) for t in nodes])
    return np.fft.fft(vals) / k


def reference_pencil_singular_set(P, Q, tol=DEFAULT_TOL, seed=0):
    """Point-by-point evaluation, one LAPACK call per node, probe and candidate.

    Returns the singular set and the name of the branch that produced it.
    """
    Pm = as_matrix(P)
    Qm = as_matrix(Q)
    m, n = Pm.shape
    scale = max(np.linalg.norm(Pm), np.linalg.norm(Qm))
    if scale == 0.0:
        return SingularSet(ALL_OF_C, []), "zero"
    Pn = Pm / scale
    Qn = Qm / scale
    margin = 1e-6 * (np.linalg.norm(Pn) + np.linalg.norm(Qn))
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0x5EC7]))

    R = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    guard_coeffs = _reference_det_poly_square(R @ Pn, R @ Qn)
    guard_poly = _significant_poly(guard_coeffs)

    branch = "finite"
    if guard_poly is None:
        probes = [complex(rng.normal(), rng.normal()) for _ in range(3)]
        if all(smallest_singular_value(Pn + lam * Qn) <= margin for lam in probes):
            return SingularSet(ALL_OF_C, []), "all_of_c"
        guard_poly = trim_polynomial(guard_coeffs)
        if guard_poly.size == 0:
            return SingularSet(FINITE, []), "noise_zero_guard"
        branch = "noise_full_rank"

    candidates = []
    if guard_poly.size > 1:
        roots = poly_roots(guard_poly)
        if roots is not ZERO_POLY:
            candidates.extend(roots)
    if not candidates:
        branch = "no_candidates"
    for cl in _cluster_roots(candidates, 1e-4):
        if len(cl) > 1:
            candidates.append(complex(np.mean(cl)))

    verified = [
        (lam, sv)
        for lam in candidates
        if (sv := smallest_singular_value(Pn + lam * Qn)) <= margin
    ]
    kept = []
    for cl in _cluster_roots(verified, tol.root_cluster, root=lambda pair: pair[0]):
        lam_best, _ = min(cl, key=lambda pair: pair[1])
        kept.append(lam_best)
    kept.sort(key=lambda z: (z.real, z.imag))
    return SingularSet(FINITE, kept), branch


def reference_to_state_witness(ch, x, y, tol=DEFAULT_TOL):
    """The state-witness conversion from two channel images, one per state,
    subtracted: the reference for the one-image conversion in ``deciders``."""
    outer = lambda a, b: np.outer(a, b.conj())
    choi_trace = float(sum(np.vdot(A, A).real for A in ch.kraus))
    u = x + y
    v = x - y
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    big = max(nu, nv)
    if big == 0.0:
        return None
    if min(nu, nv) < 1e-9 * big:
        base = x if np.linalg.norm(x) > np.linalg.norm(y) else y
        base = base / np.linalg.norm(base)
        u, v = base, 2.0 * base
        scale = choi_trace * 5.0
        if np.linalg.norm(apply(ch, outer(base, base))) > tol.residual_abs * scale:
            return None
    else:
        u, v = u / big, v / big
        scale = choi_trace * (nu**2 + nv**2) / big**2
    ru = outer(u, u)
    rv = outer(v, v)
    if np.linalg.norm(ru - rv) < 0.05:
        return None
    if np.linalg.norm(apply(ch, ru) - apply(ch, rv)) > 1e-7 * scale:
        return None
    return StateWitness(u, v)
