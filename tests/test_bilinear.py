"""The oracle engines' kernels against their Kronecker-product definitions."""

import numpy as np
import pytest

from prchannels import COMPLEX, REAL, OracleConfig
from prchannels.bilinear import (
    _fixed_x_matrix,
    _fixed_y_matrix,
    _symmetric_whitener,
    minimize_simple_pair,
    smallest_generalized,
)
from prchannels.deciders import _channel_pair_maps, _natural_representation

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
def test_half_step_matrices_match_kron_sums(m, n, r):
    rng = np.random.default_rng([m, n, r])
    kraus = [rand_matrix(rng, m, n, COMPLEX) for _ in range(r)]
    A = np.stack(kraus)
    x = rand_matrix(rng, n, 1, COMPLEX)[:, 0]
    My = sum(np.kron((K @ x)[:, None], K.conj()) for K in kraus)
    Mx = sum(np.kron(K, (K @ x).conj()[:, None]) for K in kraus)
    np.testing.assert_allclose(_fixed_x_matrix(A, x), My, atol=1e-13)
    np.testing.assert_allclose(_fixed_y_matrix(A, x), Mx, atol=1e-13)


@pytest.mark.parametrize("m,n,r", SHAPES)
def test_pair_maps_match_kron_products(m, n, r):
    rng = np.random.default_rng([n, m, r])
    kraus = [rand_matrix(rng, m, n, COMPLEX) for _ in range(r)]
    channel_mat = sum(np.kron(K, K.conj()) for K in kraus)
    K = _natural_representation(kraus)
    np.testing.assert_allclose(K, channel_mat, atol=1e-13)
    u = rand_matrix(rng, n, 1, COMPLEX)[:, 0]
    eye = np.eye(n)
    left, right = _channel_pair_maps(K, n)(u)
    np.testing.assert_allclose(left, channel_mat @ np.kron(u[:, None], eye), atol=1e-13)
    np.testing.assert_allclose(right, channel_mat @ np.kron(eye, u.conj()[:, None]), atol=1e-13)


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
    assert _symmetric_whitener(np.zeros(n, dtype=complex)) is None


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
    assert smallest_generalized(L, np.zeros(n, dtype=complex)) == (None, None)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_simple_search_with_one_output_dimension_finds_a_null_pair(field):
    rng = np.random.default_rng(5)
    kraus = [rand_matrix(rng, 1, 4, field) for _ in range(3)]
    _, x, y = minimize_simple_pair(kraus, field, OracleConfig(restarts=2), 4)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.linalg.norm(y) == pytest.approx(1.0)
    if field == REAL:
        assert not np.iscomplexobj(x) and not np.iscomplexobj(y)
    residual = sum(np.outer(K @ x, (K @ y).conj()) for K in kraus)
    assert np.linalg.norm(residual) < 1e-12
