"""PR on the kernel's unit sphere at kernel dimensions 1 to 3, checked against a dense sample of it.

For Frobenius-orthonormal Hermitian (real field: symmetric) ``H_1..H_d``,
``g(c) = max(l2, -l_{n-1})`` of the eigenvalues ``l1 >= ... >= ln`` of
``H(c) = sum_k c_k H_k`` is at most 0 exactly where ``H(c)`` is a multiple of
some ``xx* - yy*``.  The channels here have a chosen kernel: at d = 1 the
kernel stage proves PR by ``gamma = g(H1)``, at n = 4 and d = 2 or 3 by the
Macaulay step, and on C^3 and R^3 at d = 2 or 3 never, since ``det H(c)`` is
an odd cubic form and vanishes on the sphere.  A family through a pure-state
difference must never be proved.
"""

import numpy as np
import pytest

from prchannels import COMPLEX, DEFAULT_TOL, NOT_PR, PR, REAL, decide, deciders
from prchannels.deciders import HERMITIAN_KERNEL, MACAULAY, _ChannelRecord

from helpers import (
    assert_relative_certificate,
    channel_with_kernel,
    measurement_channel,
    rand_matrix,
    random_cptp,
    signature_gap,
    sphere_sample,
    traceless_family,
)

MARGIN = DEFAULT_TOL.residual_abs


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_proved_gamma_never_exceeds_the_sampled_minimum(field, n, d):
    # Random traceless kernels: PR only where the sampled g stays above the
    # margin, and at d = 1 a floor sigma_r gamma / sqrt(2) with gamma no
    # larger than the sampled minimum.
    rng = np.random.default_rng([n, d, field == COMPLEX])
    sample = sphere_sample(d)
    proved = 0
    for _ in range(8):
        H = traceless_family(rng, d, n, field)
        ch = channel_with_kernel(H, field, rng)
        rec = _ChannelRecord(ch, DEFAULT_TOL)
        assert rec.kernel_dim == d
        verdict = decide(ch)
        if verdict.status != PR:
            continue
        proved += 1
        low = signature_gap(H, sample).min()
        assert low > MARGIN
        if d == 1:
            assert verdict.method == HERMITIAN_KERNEL
            sigma_r = rec.singular_values[rec.herm_rank - 1]
            assert 0.0 < verdict.floor <= sigma_r * low / np.sqrt(2.0) * (1.0 + 1e-9)
        else:
            assert verdict.method == MACAULAY
    # In Herm(4) and Sym(4) the bad matrices have codimension 4 and 3, so a
    # random kernel of dimension 1 to 3 generically misses them; in Herm(3)
    # and Sym(3) a kernel of dimension 2 or more never does.
    if n == 4 or d == 1:
        assert proved >= 4
    else:
        assert proved == 0


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_family_through_a_pure_state_difference_is_never_proved(field, n, d, monkeypatch):
    # The kernel holds xx* - yy* for unit x, y.  The eigenvector pair of the
    # d = 1 step is withheld, so that the eigenvalue test meets the bad
    # matrix itself; the later witnesses still speak.
    signature = deciders._signature_verdict

    def no_pair(rec, H, method):
        return (None, 1.0) if method == HERMITIAN_KERNEL else signature(rec, H, method)

    monkeypatch.setattr(deciders, "_signature_verdict", no_pair)
    rng = np.random.default_rng([7, n, d, field == COMPLEX])
    for _ in range(6):
        x, y = rand_matrix(rng, 2, n, field)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        H = traceless_family(rng, d, n, field, first=np.outer(x, x.conj()) - np.outer(y, y.conj()))
        assert signature_gap(H, np.eye(d)[:1])[0] <= MARGIN
        ch = channel_with_kernel(H, field, rng)
        assert _ChannelRecord(ch, DEFAULT_TOL).kernel_dim == d
        verdict = decide(ch)
        assert verdict.status != PR
        if verdict.status == NOT_PR:
            assert_relative_certificate(ch, verdict)


@pytest.mark.parametrize("field", (REAL, COMPLEX))
def test_random_channels_on_dimension_three_are_never_pr(field):
    # Kernels of dimension 2 and 3 on Herm(3) and Sym(3), from random
    # positive measurements and from random trace-preserving channels into
    # R^2: det H(c) vanishes on the kernel's sphere, so no proof exists, and
    # the witness steps find a pair that re-verifies.
    rng = np.random.default_rng([3, field == COMPLEX])
    dim = 9 if field == COMPLEX else 6
    channels = []
    for d in (2, 3):
        for _ in range(6):
            G = rand_matrix(rng, (dim - d) * 3, 3, field).reshape(dim - d, 3, 3)
            channels.append((d, measurement_channel(G @ G.conj().transpose(0, 2, 1), field)))
    if field == REAL:
        channels += [(3, random_cptp(3, 2, r, REAL, rng)) for r in (3, 4, 5) for _ in range(2)]
    for d, ch in channels:
        assert _ChannelRecord(ch, DEFAULT_TOL).kernel_dim == d
        verdict = decide(ch)
        assert verdict.status == NOT_PR
        assert_relative_certificate(ch, verdict)
