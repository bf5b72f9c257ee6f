"""Shared generators for the test suite (random channels, unitaries, frames,
the rotation-pair channel whose screen violation is complex on R^4, channels
with a given Hermitian kernel, the benchmark's decide items), dense samples
of the kernel sphere with the signature gap ``g`` on them, a point-by-point
reference of the pencil engine and the earlier determinant engine beside it,
a two-set reference of the rank-2 decision, a two-image reference of the
state-witness conversion, and the small linear-algebra helpers those
references use: companion-matrix roots, the smallest singular value and the
inverse square root."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import prchannels
from prchannels import (
    ALL_OF_C,
    COMPLEX,
    DEFAULT_TOL,
    FINITE,
    REAL,
    QuantumChannel,
    StateWitness,
    apply,
    hermitian_eig,
    verify_certificate,
)
from prchannels.frames import _measurement_channel
from prchannels.linalg import _svdvals, as_matrix
from prchannels.spectra import SingularSet, _cluster_roots


class _ZeroPoly:
    """Sentinel for the identically-zero polynomial (every point is a root)."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO_POLY"


ZERO_POLY = _ZeroPoly()


def trim_polynomial(coeffs, rel: float = 1e-12):
    """Drop the leading coefficients of an ascending coefficient array below
    ``rel`` times the largest magnitude; an empty array for the zero
    polynomial."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.size == 0:
        return c
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        return c[:0]
    keep = np.nonzero(np.abs(c) >= rel * top)[0]
    return c[: keep[-1] + 1]


def poly_roots(coeffs):
    """All complex roots (with multiplicity) of an ascending-coefficient polynomial.

    The polynomial is degree-trimmed first and solved through the balanced
    companion matrix.  Returns :data:`ZERO_POLY` when the polynomial is
    identically zero and an empty list for nonzero constants.
    """
    c = trim_polynomial(coeffs)
    if c.size == 0:
        return ZERO_POLY
    if c.size == 1:
        return []
    return [complex(r) for r in np.polynomial.polynomial.polyroots(c)]


def smallest_singular_value(M) -> float:
    """Smallest singular value counted over the column dimension: 0 when ``M``
    has more columns than rows, since it then has a nontrivial kernel."""
    A = as_matrix(M)
    rows, cols = A.shape
    if rows == 0 or cols == 0 or rows < cols:
        return 0.0
    return float(_svdvals(A)[-1])


def psd_inv_sqrt(H, tol=DEFAULT_TOL) -> np.ndarray:
    """Inverse Hermitian square root of a positive definite matrix."""
    w, v = hermitian_eig(H, tol)
    if w[-1] <= tol.rank_rel * max(w[0], 0.0):
        raise np.linalg.LinAlgError("matrix is numerically singular")
    return (v / np.sqrt(w)) @ v.conj().T


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


def _orthonormalized(G):
    """Gram-Schmidt of the stacked Hermitian ``G`` in the real Frobenius inner product, first one first."""
    d, n, _ = G.shape
    flat = G.reshape(d, n * n)
    q, r = np.linalg.qr(np.concatenate((flat.real, flat.imag), axis=1).T)
    q = q * np.sign(np.diag(r))
    return (q[: n * n] + 1j * q[n * n :]).T.reshape(d, n, n)


def orthonormal_family(rng, d, n, field, first=None):
    """``d`` random orthonormal Hermitian matrices; the first spans ``first`` when given."""
    G = rand_matrix(rng, d * n, n, field).reshape(d, n, n)
    G = G + G.conj().transpose(0, 2, 1)
    if first is not None:
        G[0] = first
    return _orthonormalized(G)


def traceless_family(rng, d, n, field, first=None):
    """``d`` random Frobenius-orthonormal traceless Hermitian matrices; the first spans the traceless ``first`` when given."""
    G = rand_matrix(rng, (d + 1) * n, n, field).reshape(d + 1, n, n)
    G = G + G.conj().transpose(0, 2, 1)
    G[0] = np.eye(n)
    if first is not None:
        G[1] = first
    return _orthonormalized(G)[1:]


def channel_with_kernel(H, field, rng):
    """A channel ``X -> sum_j tr(P_j X) e_j e_j*`` whose Hermitian kernel (Sym(n) on
    the real field) is the span of the orthonormal traceless ``H_1..H_d``.

    ``P_0 = I / sqrt(n)`` and ``P_j = P_0 + B_j / (2 sqrt(n))``, the ``B_j`` an
    orthonormal basis of the complement of the span of ``I`` and the ``H_k``: each
    ``P_j`` is positive definite, and together they span the complement of the
    ``H_k``.
    """
    d, n = H.shape[:2]
    dim = n * n if field == COMPLEX else n * (n + 1) // 2
    G = rand_matrix(rng, dim * n, n, field).reshape(dim, n, n)
    G = G + G.conj().transpose(0, 2, 1)
    G[0], G[1 : d + 1] = np.eye(n), H
    B = _orthonormalized(G)
    P = np.concatenate((B[:1], B[:1] + B[d + 1 :] / (2.0 * np.sqrt(n))))
    return measurement_channel(P.real if field == REAL else P, field)


def measurement_channel(P, field):
    """The channel ``X -> sum_j tr(P_j X) e_j e_j*`` of the stacked positive semidefinite
    ``P_j``: each ``P_j``'s eigenpairs ``(w, v)`` give its Kraus operators ``e_j (sqrt(w) v)*``."""
    m, n = P.shape[:2]
    w, v = np.linalg.eigh(P)
    kraus = []
    for j in range(m):
        for k in range(n):
            A = np.zeros((m, n), dtype=complex)
            A[j] = np.sqrt(max(w[j, k], 0.0)) * v[j, :, k].conj()
            kraus.append(A)
    return QuantumChannel(n, m, kraus, field)


def signature_gap(H, c):
    """``g(c) = max(l2, -l_{n-1})`` of ``H(c) = sum_k c_k H_k`` at each row of ``c``, for the
    eigenvalues ``l1 >= ... >= ln``: ``g <= 0`` exactly where ``H(c)`` is a multiple of some ``xx* - yy*``."""
    w = np.linalg.eigvalsh(np.tensordot(c, H, axes=1))
    return np.maximum(w[:, -2], -w[:, 1])


def sphere_sample(d):
    """Dense unit vectors of R^d: both points of R^1, a fine half circle, or a Fibonacci sphere."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        t = np.linspace(0.0, np.pi, 5001)
        return np.column_stack((np.cos(t), np.sin(t)))
    k = np.arange(20000) + 0.5
    z = 1.0 - 2.0 * k / len(k)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))


def planted_basis(n, d, field, rng):
    """Frobenius-orthonormal ``H_1..H_d`` whose span holds ``xx* - yy*`` among d - 1 random directions.

    The planted element is rotated into the span, so no basis matrix is it.
    """
    x, y = rand_matrix(rng, 2, n, field)
    mats = [np.outer(x, x.conj()) - np.outer(y, y.conj())]
    for _ in range(d - 1):
        G = rand_matrix(rng, n, n, field)
        mats.append(G + G.conj().T)
    # The real coordinates of Hermitian matrices keep the Frobenius inner product.
    coords = np.array([np.concatenate((M.real.ravel(), M.imag.ravel())) for M in mats]).T
    Q = np.linalg.qr(coords)[0].T
    H = (Q[:, : n * n] + 1j * Q[:, n * n :]).reshape(d, n, n)
    if field == REAL:
        H = H.real
    return np.tensordot(np.linalg.qr(rng.normal(size=(d, d)))[0], H, 1)


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


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def rotation_pairs(field):
    """``A_i = R(theta_i) (+) beta_i R(psi_i)`` on R^4, with ``beta_4, psi_4`` chosen so
    that the relative spectra meet ``1 + <lam, mu> = 0`` only at complex witnesses."""
    theta, psi, beta = [0.0, 1.0, 2.0, 3.0], [0.5, 2.5, 4.0], [1.0, 1.0, 1.0]
    S = sum(np.exp(1j * (t - p)) for t, p in zip(theta, psi))
    beta.append(abs(S))
    psi.append(3.0 - np.angle(-S))
    zero = np.zeros((2, 2))
    ops = [np.block([[_rotation(t), zero], [zero, b * _rotation(p)]]) for t, p, b in zip(theta, psi, beta)]
    return QuantumChannel(4, 4, ops, field)


def perfbench_decide_items(workloads, seeds=(1, 101, 202, 4242)):
    """``(key, item)`` for every decide item of the benchmark's ``workloads`` at ``seeds``.

    A complex frame report of synthesis_cli counts as a decide item on the
    frame's measurement channel, which the report decides."""
    root = Path(__file__).resolve().parent.parent
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from perfbench import corpus

    for workload in workloads:
        for seed in seeds:
            # synthesis_cli's generator also builds CLI argument lists, which need the paths.
            paths = (root, root / "unused") if workload == "synthesis_cli" else ()
            for item in corpus.GENERATORS[workload](prchannels, seed, *paths):
                if item.op == "frame" and item.payload.field == COMPLEX:
                    item = replace(item, op="decide", payload=_measurement_channel(item.payload))
                if item.op in ("decide", "decide_verify"):
                    yield f"{workload}/{seed}/{item.key}", item


def real_up_to_phase(v) -> bool:
    """Whether ``v`` is a real vector times one phase, to 1e-9 relative."""
    v = np.asarray(v, dtype=complex)
    return np.linalg.norm((v * np.exp(-0.5j * np.angle(v @ v))).imag) <= 1e-9 * np.linalg.norm(v)


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


def reference_pencil_singular_set(P, Q, tol=DEFAULT_TOL, seed=0):
    """Point-by-point evaluation of the eigenvalue engine: one LAPACK call per
    shift, probe, candidate and centroid.

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
    if n == 1:
        u = Qn / np.linalg.norm(Qn) if np.linalg.norm(Qn) > 0.0 else Qn
        if np.linalg.norm(Pn - np.vdot(u, Pn) * u) > 2.0 * margin:
            return SingularSet(FINITE, []), "one_column"
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0x5EC7]))
    R = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    probes = [complex(rng.normal(), rng.normal()) for _ in range(3)]
    shift = complex(rng.normal(), rng.normal())
    A, B = R @ Pn, R @ Qn

    def roots_from(shift):
        """The candidate roots seen from ``shift``, and whether the rule at infinity cut any."""
        try:
            X = np.linalg.solve(A + shift * B, B)
            nu = np.linalg.eigvals(X)
        except np.linalg.LinAlgError:
            return [], False
        nu = nu[np.argsort(np.abs(nu), kind="stable")]
        # Eigenvalues at rounding level are at infinity, and so is the
        # longest run of smallest eigenvalues that is a k-fold zero to
        # rounding, when Qn, the pencil at infinity, passes the margin test.
        tiny = cut = int(np.count_nonzero(np.abs(nu) <= 1e-12 * np.linalg.norm(X)))
        if smallest_singular_value(Qn) <= margin:
            scale = np.linalg.norm(X, 2)
            total, coeffs = 0j, np.ones(1, dtype=complex)
            for i, z in enumerate(nu):
                total += z
                coeffs = np.append(coeffs, 0.0) - np.append(0.0, z / scale * coeffs)
                if np.abs(total) <= 1e-12 * np.linalg.norm(X) and np.all(np.abs(coeffs[1:]) <= 1e-12):
                    cut = max(cut, i + 1)
        return list(shift - 1.0 / nu[cut:]), cut > tiny

    def sv(lam):
        return smallest_singular_value(Pn + lam * Qn)

    branch = "finite"
    if sv(shift) <= margin:
        probe_svs = [sv(lam) for lam in probes]
        if all(s <= margin for s in probe_svs):
            return SingularSet(ALL_OF_C, []), "all_of_c"
        shift = probes[int(np.argmax(probe_svs))]
        branch = "singular_shift"
    candidates, cut = roots_from(shift)
    if cut:
        branch = "infinite"
    if not candidates:
        branch = "no_candidates"
    radii = (1e-4, 1e-3, 1e-2, 1e-1) if len(candidates) >= 4 else (1e-4,)
    if any(abs(a - b) <= radii[-1] for i, a in enumerate(candidates) for b in candidates[i + 1 :]):
        clusters = []
        for radius in radii:
            for cl in _cluster_roots(candidates, radius):
                if len(cl) > 1 and cl not in clusters:
                    clusters.append(cl)
        candidates += [complex(np.mean(cl)) for cl in clusters]
        branch = "centroid"
    verified = [(lam, s) for lam in candidates if (s := sv(lam)) <= margin]
    kept = []
    for cl in _cluster_roots(verified, tol.root_cluster, root=lambda pair: pair[0]):
        lam_best, _ = min(cl, key=lambda pair: pair[1])
        kept.append(lam_best)
    kept.sort(key=lambda z: (z.real, z.imag))
    return SingularSet(FINITE, kept), branch


def interpolation_pencil_singular_set(P, Q, tol=DEFAULT_TOL, seed=0):
    """The earlier determinant engine, a second reference for the roots: the guard
    ``det(R (P + lam Q))`` interpolated at the n + 1 roots of unity and solved
    through the companion matrix, its candidates and the centroids of their
    loose clusters kept where they pass the margin test.  Returns the
    singular set."""
    Pm = as_matrix(P)
    Qm = as_matrix(Q)
    m, n = Pm.shape
    scale = max(np.linalg.norm(Pm), np.linalg.norm(Qm))
    if scale == 0.0:
        return SingularSet(ALL_OF_C, [])
    Pn = Pm / scale
    Qn = Qm / scale
    margin = 1e-6 * (np.linalg.norm(Pn) + np.linalg.norm(Qn))
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0x5EC7]))
    R = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    nodes = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    guard = np.fft.fft([np.linalg.det(R @ (Pn + t * Qn)) for t in nodes]) / (n + 1)
    coeffs = trim_polynomial(guard)
    if coeffs.size == 0 or np.max(np.abs(coeffs)) <= 1e-12:
        probes = [complex(rng.normal(), rng.normal()) for _ in range(3)]
        if all(smallest_singular_value(Pn + lam * Qn) <= margin for lam in probes):
            return SingularSet(ALL_OF_C, [])
    roots = poly_roots(guard)
    candidates = [] if roots is ZERO_POLY else list(roots)
    radii = (1e-4, 1e-3, 1e-2, 1e-1) if len(candidates) >= 4 else (1e-4,)
    clusters = []
    for radius in radii:
        for cl in _cluster_roots(candidates, radius):
            if len(cl) > 1 and cl not in clusters:
                clusters.append(cl)
    candidates += [complex(np.mean(cl)) for cl in clusters]
    verified = [(lam, sv) for lam in candidates if (sv := smallest_singular_value(Pn + lam * Qn)) <= margin]
    kept = [min(cl, key=lambda pair: pair[1])[0] for cl in _cluster_roots(verified, tol.root_cluster, root=lambda pair: pair[0])]
    kept.sort(key=lambda z: (z.real, z.imag))
    return SingularSet(FINITE, kept)


def reference_rank2_clash(ch, tol=DEFAULT_TOL):
    """The rank-2 clash by intersecting two singular sets, point by point: the
    ``lam`` of the set of ``A1 + lam A2`` whose reflection matches, within
    ``root_cluster``, some ``-conj(mu)`` of the set of ``A2 + mu A1``; None
    when the sets miss each other.  ``(A1, A2)`` is the listed pair, or a
    longer family mixed by the two leading left singular vectors of its stack
    as in ``deciders``; ``dim_out >= dim_in``.  The reference for the
    one-set decision in ``deciders``."""
    A = np.stack(ch.kraus)
    if len(A) != 2:
        F = A.reshape(len(A), -1)
        U = np.linalg.svd(F.real if ch.field == REAL else F, full_matrices=False)[0]
        A = (U[:, :2].conj().T @ F).reshape(2, ch.dim_out, ch.dim_in)
    s1, _ = reference_pencil_singular_set(A[0], A[1], tol)
    t, _ = reference_pencil_singular_set(A[1], A[0], tol)
    reflected = [-np.conj(mu) for mu in t.roots]
    if s1.is_all and t.is_all:
        return 0j
    if s1.is_all:
        return reflected[0] if reflected else None
    if t.is_all:
        return s1.roots[0] if s1.roots else None
    return next((lam for lam in s1.roots if any(abs(lam - r) <= tol.root_cluster for r in reflected)), None)


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
