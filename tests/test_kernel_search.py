"""The kernel-sphere witness search: planted bad elements are found to rounding
level on both fields, and a LIKELY_PR floor is the relative residual of the
pair the search returns."""

import numpy as np
import pytest

from prchannels import COMPLEX, DEFAULT_TOL, LIKELY_PR, REAL, OracleConfig, apply, decide, random_generic_frame
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import ORACLE_NO_WITNESS, _ChannelRecord, _kernel_search

from helpers import rand_matrix


def _planted_basis(n, d, field, rng):
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


@pytest.mark.parametrize(
    "field,n,d",
    [(COMPLEX, 3, 4), (COMPLEX, 4, 8), (COMPLEX, 5, 12), (REAL, 4, 4), (REAL, 5, 8), (REAL, 6, 12)],
)
def test_search_finds_a_planted_bad_element(field, n, d):
    for trial in range(3):
        H = _planted_basis(n, d, field, np.random.default_rng([n, d, trial]))
        c = _kernel_search(H, OracleConfig(restarts=8))
        assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-12)
        # H(c) has unit norm; at most one positive and one negative
        # eigenvalue remain, up to rounding.
        w = np.linalg.eigvalsh(np.tensordot(c, H, 1))
        assert np.sqrt(np.sum(w[1:-1] ** 2)) < 1e-13
        assert w[-1] > 0.1 and w[0] < -0.1


@pytest.mark.parametrize("field,n,N", [(REAL, 5, 9), (COMPLEX, 4, 12)])
def test_likely_pr_floor_is_the_relative_residual_of_the_search_pair(field, n, N):
    # Generic frames of these lengths are PR with a kernel past the sphere
    # search (d = 6 and 4), so the search runs and finds no witness.
    ch = projector_channel_from_frame(random_generic_frame(n, N, field, seed=0))
    cfg = OracleConfig(restarts=8)
    verdict = decide(ch, cfg)
    assert (verdict.status, verdict.method) == (LIKELY_PR, ORACLE_NO_WITNESS)
    H = _ChannelRecord(ch, DEFAULT_TOL).kernel_basis
    w, v = np.linalg.eigh(np.tensordot(_kernel_search(H, cfg), H, 1))
    x, y = np.sqrt(w[-1]) * v[:, -1], np.sqrt(-w[0]) * v[:, 0]
    D = np.outer(x, x.conj()) - np.outer(y, y.conj())
    assert verdict.floor == pytest.approx(np.linalg.norm(apply(ch, D)) / np.linalg.norm(D), rel=1e-12)
    assert verdict.floor > DEFAULT_TOL.residual_abs
