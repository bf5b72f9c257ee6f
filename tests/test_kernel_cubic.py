"""The kernel stage's cubic step, just before the witness search.

Every real element of rank at most 2 in the span of ``H1, H2`` sits at a real
root of ``p(s, t) = det(U* (s H1 + t H2) U)`` (``U = I`` at n = 3, a seeded
isometry past it).  On C^3 and R^3 a kernel of dimension 2 or more always
holds one, so no such kernel reaches the search; at kernel dimension 2 the
candidates decide the channel exactly: NOT_PR from a candidate of rank at
most 2, PR when every candidate keeps a third eigenvalue clear of the rank
rule.  A tangent root, which rounding splits, is still found; a kernel
whose element lies within the margin of rank 2 declines to the search.
"""

import numpy as np
import pytest

from prchannels import COMPLEX, DEFAULT_TOL, NOT_PR, PR, REAL, QuantumChannel, decide, deciders, verify_certificate
from prchannels.deciders import HERMITIAN_KERNEL, _ChannelRecord, _cubic_verdict
from prchannels.linalg import _cubic_candidates, _cubic_isometry

from helpers import (
    _orthonormalized,
    assert_relative_certificate,
    channel_with_kernel,
    perfbench_decide_items,
    rand_matrix,
    random_unitary,
    traceless_family,
)

WORKLOADS = ("exact", "search_exhaustive", "search_witness", "synthesis_cli")


def _refuse(*args, **kwargs):
    raise AssertionError("the witness search ran")


def test_no_decide_item_up_to_dimension_three_reaches_the_witness_search(monkeypatch):
    # The C^3 short frames of search_witness's probe and synthesis_cli's C^3
    # frame reports were the items of dimension at most 3 that searched.
    monkeypatch.setattr(deciders, "_kernel_search", _refuse)
    seen = 0
    for key, item in perfbench_decide_items(WORKLOADS):
        if item.payload.dim_in <= 3:
            decide(item.payload)
            seen += 1
    assert seen > 1000


def _traceless_pair(x, y):
    """``xx* - yy*`` at unit Frobenius norm, traceless for ``|x| = |y|``."""
    H = np.outer(x, x.conj()) - np.outer(y, y.conj())
    return H / np.linalg.norm(H)


def _cubic(H1, H2, t):
    """``p(1, t)`` at each ``t``."""
    U = _cubic_isometry(H1.shape[0])
    return np.array([np.linalg.det(U.conj().T @ (H1 + s * H2) @ U).real for s in t])


@pytest.mark.parametrize("field", [COMPLEX, REAL])
@pytest.mark.parametrize("n", [4, 5])
def test_a_tangent_rank_two_root_gives_not_pr(monkeypatch, field, n):
    # The kernel spans H0 = xx* - yy* and an H2 with (U w)* H2 (U w) = 0, w the
    # kernel vector of U* H0 U, so p has a double root at H0.
    rng = np.random.default_rng([n, 0x7A])
    x, y = rand_matrix(rng, 2, n, field)
    H0 = _traceless_pair(x / np.linalg.norm(x), y / np.linalg.norm(y))
    U = _cubic_isometry(n)
    u = U @ np.linalg.svd(U.conj().T @ H0 @ U)[2][-1].conj()
    # H2 is orthogonal to uu*, and on the real field to its real part.
    uu = np.outer(u, u.conj())
    G = rand_matrix(rng, n, n, field)
    basis = _orthonormalized(np.array([np.eye(n), H0, uu.real if field == REAL else uu, G + G.conj().T]))
    H = np.array([H0, basis[-1]])
    H = H.real if field == REAL else H
    # Value and slope of p vanish at H0 (t = 0); its second coefficient does not.
    t = np.array([-2.0, -1.0, 1.0, 2.0, 0.5])
    coef = np.polynomial.polynomial.polyfit(t, _cubic(H[0], H[1], t), 3)
    assert abs(coef[0]) < 1e-12 and abs(coef[1]) < 1e-12 and abs(coef[2]) > 1e-4
    ch = channel_with_kernel(H, field, rng)
    assert _ChannelRecord(ch, DEFAULT_TOL).kernel_dim == 2
    monkeypatch.setattr(deciders, "_kernel_search", _refuse)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (NOT_PR, HERMITIAN_KERNEL)
    assert_relative_certificate(ch, verdict)


def test_a_kernel_within_the_margin_of_rank_two_declines():
    # H0 has eigenvalues (1, eps, -eps, -1) / sqrt(2): the best candidate's
    # third eigenvalue lies past the rank rule's cut but within the margin,
    # and the pair of its extreme eigenvalues fails the witness test.
    rng = np.random.default_rng(1)
    eps = 3e-7
    Q = np.linalg.qr(rand_matrix(rng, 4, 4, REAL))[0]
    H0 = Q @ np.diag([1.0, eps, -eps, -1.0]) @ Q.conj().T
    G = rand_matrix(rng, 4, 4, REAL)
    H = _orthonormalized(np.array([np.eye(4), H0, G + G.T]))[1:].real
    rec = _ChannelRecord(channel_with_kernel(H, REAL, rng), DEFAULT_TOL)
    assert rec.kernel_dim == 2
    g = _cubic_candidates(rec.kernel_basis)[1].min()
    assert DEFAULT_TOL.rank_rel < g <= deciders._CUBIC_MARGIN * DEFAULT_TOL.rank_rel
    assert _cubic_verdict(rec, rec.kernel_basis) is None


@pytest.mark.parametrize("field", [COMPLEX, REAL])
@pytest.mark.parametrize("n", [3, 4])
def test_a_vanishing_cubic_gives_the_first_matrix_at_n_three(field, n):
    # Every matrix of the span of e1 v* + v e1* and e1 w* + w e1* (v, w
    # orthogonal to e1) has rank at most 2, and so has every compression of
    # one: the cubic vanishes.  At n = 3 then det H1 = 0, and H1's pair is
    # the witness; past n = 3 the compressed cubic proves nothing, and the
    # step declines.
    rng = np.random.default_rng([n, 0x0C])
    e1 = np.eye(n)[0]
    V = rand_matrix(rng, 2, n, field)
    V[:, 0] = 0.0
    H = _orthonormalized(np.array([np.outer(e1, v.conj()) + np.outer(v, e1) for v in V]))
    H = H.real if field == REAL else H
    assert _cubic_candidates(H) is None
    ch = channel_with_kernel(H, field, rng)
    verdict = _cubic_verdict(_ChannelRecord(ch, DEFAULT_TOL), H)
    if n == 3:
        assert (verdict.status, verdict.method) == (NOT_PR, HERMITIAN_KERNEL)
        assert_relative_certificate(ch, verdict)
    else:
        assert verdict is None


@pytest.mark.parametrize("field", [COMPLEX, REAL])
def test_a_semidefinite_root_gives_the_pair_of_a_ray(field):
    # Every Kraus operator kills u, so uu* lies in the kernel, next to G, of
    # rank 3 on the complement of u: the only element of rank at most 2 in
    # their span is uu*, a double root of the cubic.  Its pair degenerates to
    # the ray of u, and the state witness is two scalings of u.
    rng = np.random.default_rng(5)
    V = random_unitary(4, field, rng)
    u, rest = V[:, 0], V[:, 1:]
    kraus = [np.outer(np.eye(4)[j], rest[:, j].conj()) for j in range(3)]
    ch = QuantumChannel(4, 4, kraus, field)
    G = rest @ (np.ones((3, 3)) - np.eye(3)) @ rest.conj().T / np.sqrt(6.0)
    H = np.array([np.outer(u, u.conj()), G])
    verdict = _cubic_verdict(_ChannelRecord(ch, DEFAULT_TOL), H.real if field == REAL else H)
    assert (verdict.status, verdict.method) == (NOT_PR, HERMITIAN_KERNEL)
    sw = verdict.state_witness
    assert np.allclose(sw.y, 2.0 * sw.x) and np.isclose(abs(np.vdot(u, sw.x)), 1.0)
    res = verify_certificate(ch, verdict)
    assert res["tensor"] <= 1e-12 and res["state"] <= 1e-12 and res["separation"] >= 1.0


@pytest.mark.parametrize("field", [COMPLEX, REAL])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_dimension_two_kernels_are_decided_exactly(monkeypatch, field, n, seed):
    # A span through some xx* - yy* is NOT_PR; a generic one is PR from n = 4
    # on, where it misses the rank-2 matrices, and NOT_PR at n = 3, where the
    # cubic is det itself.  Neither reaches the search.
    rng = np.random.default_rng([n, seed])
    x, y = rand_matrix(rng, 2, n, field)
    planted = _traceless_pair(x / np.linalg.norm(x), y / np.linalg.norm(y))
    monkeypatch.setattr(deciders, "_kernel_search", _refuse)
    for first, want in ((planted, NOT_PR), (None, NOT_PR if n == 3 else PR)):
        H = traceless_family(rng, 2, n, field, first)
        ch = channel_with_kernel(H.real if field == REAL else H, field, rng)
        rec = _ChannelRecord(ch, DEFAULT_TOL)
        assert rec.kernel_dim == 2
        verdict = _cubic_verdict(rec, rec.kernel_basis)
        assert (verdict.status, verdict.method) == (want, HERMITIAN_KERNEL)
        if want == NOT_PR:
            assert_relative_certificate(ch, verdict)
        assert decide(ch).status == want
