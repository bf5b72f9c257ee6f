"""The kernel-sphere witness search: planted bad elements are found to rounding
level on both fields, degenerate pinching kernels raise nothing, the step is a
pseudo-inverse's step computed without an SVD, and a LIKELY_PR floor is the
relative residual of the pair the search returns."""

import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    LIKELY_PR,
    REAL,
    OracleConfig,
    QuantumChannel,
    apply,
    decide,
    random_generic_frame,
)
from prchannels.constructors import orthogonal_projection_channel, projector_channel_from_frame
from prchannels import deciders
from prchannels.deciders import ORACLE_NO_WITNESS, _ChannelRecord, _kernel_search, _tangent_step

from helpers import planted_basis, random_unitary


@pytest.mark.parametrize(
    "field,n,d",
    [(COMPLEX, 3, 4), (COMPLEX, 4, 8), (COMPLEX, 5, 12), (REAL, 4, 4), (REAL, 5, 8), (REAL, 6, 12)],
)
def test_search_finds_a_planted_bad_element(field, n, d):
    for trial in range(3):
        H = planted_basis(n, d, field, np.random.default_rng([n, d, trial]))
        c = _kernel_search(H, OracleConfig(restarts=8))
        assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-12)
        # H(c) has unit norm; at most one positive and one negative
        # eigenvalue remain, up to rounding.
        w = np.linalg.eigvalsh(np.tensordot(c, H, 1))
        assert np.sqrt(np.sum(w[1:-1] ** 2)) < 1e-13
        assert w[-1] > 0.1 and w[0] < -0.1


@pytest.mark.parametrize("field", [COMPLEX, REAL])
@pytest.mark.parametrize("dims", [(1, 2, 1), (1, 3, 1), (2, 1, 2), (2, 2, 2)], ids=str)
def test_search_reaches_the_zero_on_degenerate_pinchings(field, dims):
    # Pinching kernels make the tangent systems rank deficient: the
    # undamped normal equations are singular on some of them.
    pinch = orthogonal_projection_channel(dims).channel
    rng = np.random.default_rng([len(dims), *dims, int(field == COMPLEX)])
    for _ in range(3):
        U, W = random_unitary(pinch.dim_out, field, rng), random_unitary(pinch.dim_in, field, rng)
        ch = QuantumChannel(pinch.dim_in, pinch.dim_out, [U @ A @ W for A in pinch.kraus], field)
        H = _ChannelRecord(ch, DEFAULT_TOL).kernel_basis
        for seed in range(3):
            w = np.linalg.eigvalsh(np.tensordot(_kernel_search(H, OracleConfig(seed=seed)), H, 1))
            assert np.sum(w[1:-1] ** 2) < 1e-28


def test_tangent_step_is_the_pseudo_inverse_step():
    rng = np.random.default_rng(17)
    for d, m in [(2, 1), (3, 2), (4, 4), (6, 6), (9, 9), (6, 15)]:
        c = rng.normal(size=(8, d))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        # A = J - r c^T with r = J c: singular values 1e-2 to 3 on the
        # tangent space and an O(1) residual.
        P = np.eye(d) - c[:, :, None] * c[:, None, :]
        Q = np.linalg.qr(P @ rng.normal(size=(8, d, d - 1)))[0]
        U = np.linalg.qr(rng.normal(size=(8, m, d - 1)))[0]
        A = U * np.logspace(-2, 0.5, d - 1) @ Q.mT
        r = rng.normal(size=(8, m, 1))
        J = A + r * c[:, None, :]
        step = _tangent_step(J, c)
        want = (np.linalg.pinv(A, rtol=1e-12) @ r)[:, :, 0]
        assert np.all(np.linalg.norm(step - want, axis=1) <= 1e-9 * np.linalg.norm(want, axis=1))
        assert np.all(np.abs(np.sum(step * c, axis=1)) <= 1e-12 * np.linalg.norm(step, axis=1))


def test_search_calls_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the witness search computed an SVD")

    H = planted_basis(5, 8, COMPLEX, np.random.default_rng(5))
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "pinv", refuse)
    c = _kernel_search(H, OracleConfig(restarts=8))
    w = np.linalg.eigvalsh(np.tensordot(c, H, 1))
    assert np.sum(w[1:-1] ** 2) < 1e-28


@pytest.mark.parametrize("field,n,N", [(REAL, 5, 9), (COMPLEX, 4, 12)])
def test_likely_pr_floor_is_the_relative_residual_of_the_search_pair(monkeypatch, field, n, N):
    # Generic frames of these lengths are PR with a kernel of dimension 6
    # and 4, so the search runs and finds no witness.  The
    # rank-one step (real field) and the Macaulay step (complex field) would
    # prove PR first, so they are left out.
    monkeypatch.setattr(deciders, "_rank_one_verdict", lambda rec: None)
    monkeypatch.setattr(deciders, "_macaulay_verdict", lambda rec: None)
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
