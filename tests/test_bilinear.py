"""The oracle engines' kernels against their Kronecker-product definitions, and
the engines' restart loop bit for bit against a one-restart-at-a-time
reference."""

import numpy as np
import pytest

from prchannels import COMPLEX, REAL, OracleConfig
from prchannels import bilinear
from prchannels.bilinear import (
    _SUCCESS,
    _hopeless,
    _slot_maps,
    _symmetric_whitener,
    minimize_simple_pair,
    minimize_symmetric_pair,
    smallest_generalized,
)
from prchannels.deciders import _natural_representation

from helpers import rand_matrix

SHAPES = [(3, 3, 3), (2, 4, 3), (1, 3, 4), (5, 4, 2)]  # (m, n, r)


def _normalizer(x):
    """Real matrix of v -> vec(x v^* + v x^*), built from Kronecker products."""
    n = x.size
    eye = np.eye(n)
    D1 = np.kron(x[:, None], eye)
    D2 = np.kron(eye, x.conj()[:, None])
    C1, C2 = D1 + D2, 1j * (D2 - D1)
    return np.block([[C1.real, C2.real], [C1.imag, C2.imag]])


def _reference_generalized(L, N, cutoff=1e-12):
    """The SVD-whitened generalized solve the closed form replaces."""
    _, sn, vnt = np.linalg.svd(N, full_matrices=False)
    keep = sn > cutoff * sn[0]
    W = vnt[keep].T / sn[keep]
    M = L @ W
    _, sm, vmt = np.linalg.svd(M, full_matrices=True)
    val = 0.0 if M.shape[0] < W.shape[1] else float(sm[-1]) ** 2
    return val, W @ vmt[-1]


@pytest.mark.parametrize("m,n,r", SHAPES)
def test_pair_maps_match_kron_products(m, n, r):
    # Both fields in one test: the slot maps of a real K drive the simple
    # engine, those of a complex K both engines.
    for field in (REAL, COMPLEX):
        rng = np.random.default_rng([n, m, r])
        kraus = [rand_matrix(rng, m, n, field) for _ in range(r)]
        channel_mat = sum(np.kron(A, A.conj()) for A in kraus)
        K = _natural_representation(np.stack(kraus), field)
        assert np.iscomplexobj(K) == (field == COMPLEX)
        np.testing.assert_allclose(K, channel_mat, atol=1e-13)
        us = rand_matrix(rng, 3, n, field)
        if field == REAL:
            us = us.real
        eye = np.eye(n)
        left, right = _slot_maps(K, n)
        for u in us:
            L, R = left(u), right(u)
            # The half-step matrices: x -> sum_i kron(A_i x, conj(A_i)) and
            # y -> sum_i kron(A_i, conj(A_i y)).
            np.testing.assert_allclose(L, channel_mat @ np.kron(u[:, None], eye), atol=1e-13)
            np.testing.assert_allclose(R, channel_mat @ np.kron(eye, u.conj()[:, None]), atol=1e-13)
            np.testing.assert_allclose(L, sum(np.kron((A @ u)[:, None], A.conj()) for A in kraus), atol=1e-13)
            np.testing.assert_allclose(R, sum(np.kron(A, (A @ u).conj()[:, None]) for A in kraus), atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("lead_zero", [False, True])
def test_whitener_orthonormalizes_the_normalizer(n, lead_zero):
    rng = np.random.default_rng(n)
    x = 3.0 * rand_matrix(rng, n, 1, COMPLEX)[:, 0]
    if lead_zero and n > 1:
        x[0] = 0.0
    N = _normalizer(x)
    W = _symmetric_whitener(x)
    assert W.shape == (2 * n, 2 * n - 1)
    NW = N @ W
    np.testing.assert_allclose(NW.T @ NW, np.eye(2 * n - 1), atol=1e-12)
    # W spans the row space of N (the complement of the direction i x).
    _, s, vt = np.linalg.svd(N)
    rank = int(np.sum(s > 1e-12 * s[0]))
    assert rank == 2 * n - 1
    row_space = vt[:rank].T @ vt[:rank]
    np.testing.assert_allclose(row_space @ W, W, atol=1e-12)


@pytest.mark.parametrize("rows", [2, 9])
def test_generalized_solve_matches_svd_whitening(rows):
    rng = np.random.default_rng(rows)
    n = 4
    x = rand_matrix(rng, n, 1, COMPLEX)[:, 0]
    L = rng.normal(size=(2 * rows, 2 * n))
    val, v = smallest_generalized(L, x)
    ref_val, ref_v = _reference_generalized(L, _normalizer(x))
    assert val == pytest.approx(ref_val, rel=1e-10, abs=1e-14)
    assert np.linalg.norm(_normalizer(x) @ v) == pytest.approx(1.0)
    if 2 * rows < 2 * n - 1:
        # Fewer rows than whitened dimensions: v is a true null vector of L.
        assert val == 0.0
        assert np.linalg.norm(L @ v) < 1e-12
    else:
        assert min(np.linalg.norm(v - ref_v), np.linalg.norm(v + ref_v)) < 1e-8


@pytest.mark.parametrize("rows", [2, 9])
def test_batched_generalized_solve_matches_one_at_a_time(rows):
    rng = np.random.default_rng([rows, 1])
    n = 4
    xs = rand_matrix(rng, 5, n, COMPLEX)
    xs[3, 0] = 0.0
    Ls = rng.normal(size=(5, 2 * rows, 2 * n))
    for k in range(5):
        got_val, got_v = smallest_generalized(Ls[k], xs[k])
        val, v = _reference_smallest_generalized(Ls[k], xs[k])
        assert got_val == val and got_v.tobytes() == v.tobytes()


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("rows", [2, 9])
def test_generalized_rows_have_unit_symmetric_products(rows, scale):
    # The engines never hold a vanishing x: each solution v of a nonzero x has
    # ||x v* + v x*||_F = 1, which bounds ||v|| on both sides.
    rng = np.random.default_rng([rows, 2])
    n = 4
    xs = scale * rand_matrix(rng, 6, n, COMPLEX)
    xs[1:3, 0] = 0.0
    xs[2, 1] = 0.0
    for x, L in zip(xs, rng.normal(size=(6, 2 * rows, 2 * n))):
        vt = smallest_generalized(L, x)[1]
        v = vt[:n] + 1j * vt[n:]
        assert np.linalg.norm(np.outer(x, v.conj()) + np.outer(v, x.conj())) == pytest.approx(1.0, rel=1e-12)
        nx, nv = np.linalg.norm(x), np.linalg.norm(v)
        assert 1.0 / (2.0 * nx) * (1.0 - 1e-12) <= nv <= 1.0 / (np.sqrt(2.0) * nx) * (1.0 + 1e-12)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_simple_search_with_one_output_dimension_finds_a_null_pair(field):
    rng = np.random.default_rng(5)
    kraus = [rand_matrix(rng, 1, 4, field) for _ in range(3)]
    _, x, y = minimize_simple_pair(_natural_representation(np.stack(kraus), field), 4, field, OracleConfig(restarts=2))
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.linalg.norm(y) == pytest.approx(1.0)
    if field == REAL:
        assert not np.iscomplexobj(x) and not np.iscomplexobj(y)
    residual = sum(np.outer(K @ x, (K @ y).conj()) for K in kraus)
    assert np.linalg.norm(residual) < 1e-12


# -- One restart at a time, each step on unstacked arrays: the reference the
# restart loop (once run in lockstep batches) must match bit for bit.


def _reference_whitener(x):
    n = x.size
    nrm = float(np.sqrt(np.vdot(x, x).real))
    if nrm == 0.0:
        return None
    xh = x / nrm
    a0 = abs(xh[0])
    w = xh.copy()
    w[0] += xh[0] / a0 if a0 > 0.0 else 1.0
    c = 1.0 / (np.sqrt(2.0) * nrm)
    B = np.empty((n, 2 * n - 1), dtype=complex)
    B[:, 0] = xh / (2.0 * nrm)
    Q = B[:, 1:n]
    np.multiply.outer(w, w[1:].conj(), out=Q)
    Q *= -c / (1.0 + a0)
    B.reshape(-1)[2 * n :: 2 * n] += c
    np.multiply(Q, 1j, out=B[:, n:])
    return np.concatenate((B.real, B.imag))


def _reference_smallest_generalized(L, x):
    W = _reference_whitener(x)
    if W is None:
        return None, None
    M = L @ W
    wide = M.shape[0] < M.shape[1]
    _, sm, vmt = np.linalg.svd(M, full_matrices=wide)
    val = 0.0 if wide else float(sm[-1]) ** 2
    return val, W @ vmt[-1]


def _renormalize_symmetric(x: np.ndarray, y: np.ndarray):
    s = np.linalg.norm(np.outer(x, y.conj()) + np.outer(y, x.conj()))
    if s == 0.0:
        return None
    root = np.sqrt(s)
    return x / root, y / root


def _reference_minimize_simple_pair(K, dim, field, cfg):
    left, right = _slot_maps(K, dim)
    full = K.shape[0] < dim
    best = None
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([abs(int(cfg.seed)), 0x51, k]))
        x = bilinear._rand_unit(rng, dim, field)
        prev = np.inf
        for it in range(cfg.max_iters):
            y = np.array(np.linalg.svd(left(x), full_matrices=full)[2][-1])
            _, s2, vh2 = np.linalg.svd(right(y), full_matrices=full)
            x = vh2[-1].conj()
            val = float(s2[-1]) ** 2
            if val < _SUCCESS or prev - val <= 0.0 or _hopeless(val, prev, cfg.max_iters - it):
                break
            prev = val
        if best is None or val < best[0]:
            best = (val, x, y)
        if best[0] < _SUCCESS:
            break
    return best


def _reference_minimize_symmetric_pair(K, dim, cfg):
    left, right = _slot_maps(K, dim)
    best = None
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([abs(int(cfg.seed)), 0x52, k]))
        x = bilinear._rand_unit(rng, dim, COMPLEX)
        y = None
        prev = np.inf
        val = np.inf
        for it in range(cfg.max_iters):
            P1, P2 = left(x), right(x)
            L = np.block([[P1.real + P2.real, P1.imag - P2.imag], [P1.imag + P2.imag, P2.real - P1.real]])
            step_val, vt = _reference_smallest_generalized(L, x)
            if vt is None:
                x = bilinear._rand_unit(rng, dim, COMPLEX)
                continue
            y = vt[:dim] + 1j * vt[dim:]
            val = step_val
            x, y = y, x
            if val < _SUCCESS or prev - val <= 0.0 or _hopeless(val, prev, cfg.max_iters - it):
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


def _assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert type(got[0]) is type(want[0]) and got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _kraus(seed, m, n, r, field):
    rng = np.random.default_rng(seed)
    return [rand_matrix(rng, m, n, field) for _ in range(r)]


def _run_both_simple(kraus, field, cfg):
    n = kraus[0].shape[1]
    K = _natural_representation(np.stack(kraus), field)
    got = minimize_simple_pair(K, n, field, cfg)
    want = _reference_minimize_simple_pair(K, n, field, cfg)
    _assert_same_bits(got, want)
    return got


def _run_both_symmetric(kraus, cfg):
    n = kraus[0].shape[1]
    K = _natural_representation(np.stack(kraus), COMPLEX)
    got = minimize_symmetric_pair(K, n, cfg)
    want = _reference_minimize_symmetric_pair(K, n, cfg)
    _assert_same_bits(got, want)
    return got


# (m, n, r): square, tall, and wide (m^2 < n, or 2 m^2 < 2n - 1 for the
# symmetric engine) half-step matrices.
ENGINE_SHAPES = [(3, 3, 3), (3, 2, 2), (1, 4, 3), (2, 5, 2)]


@pytest.mark.parametrize("restarts", [1, 3, 16, 64, 100, 200])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_lockstep_simple_engine_is_bitwise_sequential(restarts, field):
    for i, (m, n, r) in enumerate(ENGINE_SHAPES):
        cfg = OracleConfig(restarts=restarts, seed=7 + i)
        _run_both_simple(_kraus([restarts, i], m, n, r, field), field, cfg)


@pytest.mark.parametrize("restarts", [1, 3, 16, 64, 100, 200])
def test_lockstep_symmetric_engine_is_bitwise_sequential(restarts):
    for i, (m, n, r) in enumerate(ENGINE_SHAPES):
        cfg = OracleConfig(restarts=restarts, seed=7 + i)
        _run_both_symmetric(_kraus([restarts, i], m, n, r, COMPLEX), cfg)


def test_lockstep_engines_bitwise_with_few_iterations():
    # Restarts cut by the iteration budget report their last step.
    cfg = OracleConfig(restarts=16, max_iters=2, seed=3)
    _run_both_simple(_kraus(0, 3, 3, 3, REAL), REAL, cfg)
    _run_both_symmetric(_kraus(0, 3, 3, 3, COMPLEX), cfg)


def _first_witness_restart(run, restarts):
    return next(k for k in range(restarts) if run(OracleConfig(restarts=k + 1))[0] < _SUCCESS)


@pytest.mark.parametrize(
    "seed,m,n,r,field,hit",
    [
        (1, 3, 4, 2, REAL, 0),
        (3, 2, 3, 3, REAL, 2),
        (7, 2, 3, 3, REAL, 6),
        (0, 2, 3, 3, COMPLEX, 0),
        (11, 3, 4, 3, COMPLEX, 3),
        (18, 3, 4, 3, COMPLEX, 7),
        # Restart 3 ends even lower than the witness of restart 2, but the
        # search stops at restart 2.
        (58, 2, 3, 3, REAL, 2),
        (25, 3, 4, 3, COMPLEX, 2),
    ],
)
def test_lockstep_witness_matches_sequential(seed, m, n, r, field, hit):
    # Restart k starts from the first draw of default_rng([seed, tag, k]),
    # and the search ends at the first restart with a witness-grade minimum.
    kraus = _kraus(seed, m, n, r, field)
    K = _natural_representation(np.stack(kraus), field)
    tag = 0x51 if field == REAL else 0x52
    for k in range(hit + 1):
        want = bilinear._rand_unit(np.random.default_rng([0, tag, k]), n, field)
        assert bilinear._starts(0, tag, k, n, field).tobytes() == want.tobytes()
    if field == REAL:
        run = lambda cfg: _reference_minimize_simple_pair(K, n, field, cfg)  # noqa: E731
    else:
        run = lambda cfg: _reference_minimize_symmetric_pair(K, n, cfg)  # noqa: E731
    assert _first_witness_restart(run, 16) == hit
    for restarts in (hit + 1, 16, 64):
        cfg = OracleConfig(restarts=restarts)
        got = _run_both_simple(kraus, field, cfg) if field == REAL else _run_both_symmetric(kraus, cfg)
        assert got[0] < _SUCCESS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"restarts": 2.5},
        {"restarts": True},
        {"restarts": 0},
        {"max_iters": 10.0},
        {"max_iters": False},
        {"decision_floor": np.nan},
        {"decision_floor": np.inf},
        {"decision_floor": 0.0},
    ],
)
def test_oracle_config_rejects_bad_values(kwargs):
    # A float or bool budget would fail later, inside the search.
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        OracleConfig(**kwargs)


def test_oracle_config_accepts_numpy_integers():
    cfg = OracleConfig(restarts=np.int64(3), max_iters=np.int32(7))
    assert (cfg.restarts, cfg.max_iters) == (3, 7)
