"""Property tests: Hermitian-kernel verdicts survive the symmetries of phase retrieval.

Scaling the Kraus family by ``10**k`` with ``|k| <= 6``, unitary pre- and
post-conjugation, unitary mixing of the Kraus operators and splitting one
operator into two scaled copies all leave the channel's phase retrievability
unchanged.  So a proof by a trivial Hermitian kernel, the exact verdict at
kernel dimension 1, a proof by the Macaulay step at dimensions 2 and 3 and
the cubic step's verdict on C^3 and R^3 kernels of dimension 2 or more and
on kernels of dimension 2 must survive them on both fields, and every
NOT_PR certificate must re-verify relative to the moved channel's scale.
Past the kernel stage, :func:`decide` must stay sound at every scale: a
NOT_PR of the witness search re-verifies relative to the channel's scale,
and no PR comes without a proof: an exact stage, the eigenvalue test at
kernel dimension 1, the real-field rank-one step, the Macaulay step or the
cubic step.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    NOT_PR,
    PR,
    REAL,
    Frame,
    OracleConfig,
    QuantumChannel,
    complement_property,
    decide,
    decide_method,
    deciders,
    orthogonal_projection_channel,
)
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import COMPLEMENT_PROPERTY, HERMITIAN_KERNEL, MACAULAY, RANK1, RANK2_EXACT
from prchannels.frames import _measurement_channel

from helpers import assert_relative_certificate, channel_with_kernel, rand_matrix, random_cptp, random_unitary
from helpers import traceless_family


def _kernel_verdict(ch):
    # The "oracle" sub-list is the kernel stage alone.  PR comes only at
    # kernel dimension 0 or from its eigenvalue test at dimension 1, with
    # method HERMITIAN_KERNEL, on the real field from the rank-one step,
    # with method COMPLEMENT_PROPERTY, or from the Macaulay step, with method
    # MACAULAY.
    return decide_method(ch, "oracle")


def _mix(kraus, W):
    return [sum(W[i, j] * kraus[j] for j in range(len(kraus))) for i in range(len(kraus))]


def _moved(kraus, field, rng, k):
    """The Kraus family after each symmetry, by name."""
    m, n = kraus[0].shape
    V, U = random_unitary(m, field, rng), random_unitary(n, field, rng)
    moves = {
        "scale down": [10.0**-k * A for A in kraus],
        "scale up": [10.0**k * A for A in kraus],
        "conjugate": [V @ A @ U for A in kraus],
        "mix": _mix(kraus, random_unitary(len(kraus), field, rng)),
        "split": [kraus[0] / np.sqrt(2.0), kraus[0] / np.sqrt(2.0), *kraus[1:]],
    }
    for name, moved in moves.items():
        if field == REAL:
            moved = [A.real.astype(complex) for A in moved]
        yield name, QuantumChannel(n, m, moved, field)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(1, 4),
    extra_out=st.integers(0, 2),
    r=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
)
def test_kernel_stage_pr_is_invariant(field, n, extra_out, r, seed, k):
    rng = np.random.default_rng(seed)
    m = n + extra_out
    kraus = [rand_matrix(rng, m, n, field) for _ in range(r)]
    before = _kernel_verdict(QuantumChannel(n, m, kraus, field))
    assume(before.status == PR)
    assert before.method == HERMITIAN_KERNEL

    for name, moved in _moved(kraus, field, rng, k):
        after = _kernel_verdict(moved)
        assert (after.status, after.method) == (PR, HERMITIAN_KERNEL), name


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
)
def test_kernel_stage_dimension_one_verdict_is_invariant(field, n, seed, k):
    # A measurement channel of dim - 1 generic vectors has a one-dimensional
    # Hermitian kernel: NOT_PR in C^2 and R^2, PR from n = 3 on.
    rng = np.random.default_rng(seed)
    dim = n * n if field == COMPLEX else n * (n + 1) // 2
    f = Frame(dim=n, vectors=rand_matrix(rng, dim - 1, n, field), field=field)
    kraus = _measurement_channel(f).kraus
    before = _kernel_verdict(QuantumChannel(n, dim - 1, kraus, field))
    assert before.method == HERMITIAN_KERNEL
    assert before.status == (NOT_PR if n == 2 else PR)

    for name, moved in [("unmoved", QuantumChannel(n, dim - 1, kraus, field)), *_moved(kraus, field, rng, k)]:
        after = _kernel_verdict(moved)
        assert (after.status, after.method) == (before.status, HERMITIAN_KERNEL), name
        if after.status == NOT_PR:
            assert_relative_certificate(moved, after)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    short=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
)
def test_sphere_search_pr_is_invariant(field, short, seed, k):
    # A measurement channel of dim - 2 or dim - 3 generic vectors in C^4 or
    # R^4 has a kernel of dimension 2 or 3, below the codimension of the
    # rank-2 matrices, which the Macaulay step proves (on the real field the
    # rank-one step may prove it first, and after a move that mixes the
    # rank-one operators, the Macaulay step).  (In dimension 3 those frames
    # are too short to be PR.)  The Macaulay step reads the kernel alone, so
    # every move must keep PR, and a Macaulay proof must stay one.
    rng = np.random.default_rng(seed)
    n = 4
    dim = n * n if field == COMPLEX else n * (n + 1) // 2
    f = Frame(dim=n, vectors=rand_matrix(rng, dim - short, n, field), field=field)
    kraus = _measurement_channel(f).kraus
    before = _kernel_verdict(QuantumChannel(n, dim - short, kraus, field))
    assume(before.status == PR)
    assert before.method in ((MACAULAY, COMPLEMENT_PROPERTY) if field == REAL else (MACAULAY,))

    for name, moved in _moved(kraus, field, rng, k):
        after = _kernel_verdict(moved)
        assert after.status == PR, name
        if before.method == MACAULAY:
            assert after.method == MACAULAY, name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(("frame", "pinching")),
    field=st.sampled_from((REAL, COMPLEX)),
    big=st.booleans(),
    d=st.integers(4, 6),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-6, 6),
)
def test_decide_is_sound_at_every_scale(kind, field, big, d, seed, k):
    # Channels past the eigenvalue test (Hermitian kernel dimension 4 or
    # more): measurement channels of frames too short to be PR (R^4, C^3)
    # or that may be PR (R^5, C^4), and pinchings conjugated by random
    # unitaries.  Scaled by 10**k, a NOT_PR must still re-verify relative to
    # sum_i ||A_i||_F^2, and a PR must come from an exact or proving stage;
    # LIKELY_PR is always allowed.
    rng = np.random.default_rng(seed)
    if kind == "frame":
        n = {REAL: 4, COMPLEX: 3}[field] + big
        N = (n * n if field == COMPLEX else n * (n + 1) // 2) - d
        kraus = _measurement_channel(Frame(dim=n, vectors=rand_matrix(rng, N, n, field), field=field)).kraus
    else:
        # Choi rank 3 or 4; the kernel, the off-block-diagonal part, has
        # dimension 5 or 6 on Sym(4) and 10 or 12 on Herm(4).
        dims = (1, 1, 1, 1) if big else (1, 1, 2)
        n = N = sum(dims)
        V, U = random_unitary(n, field, rng), random_unitary(n, field, rng)
        kraus = [V @ A @ U for A in orthogonal_projection_channel(dims).channel.kraus]
    ch = QuantumChannel(n, N, [10.0**k * A for A in kraus], field)
    assert deciders._ChannelRecord(ch, DEFAULT_TOL).kernel_dim >= 4

    verdict = decide(ch, OracleConfig(restarts=4))
    if verdict.status == NOT_PR:
        assert_relative_certificate(ch, verdict)
    if verdict.status == PR:
        assert verdict.method in (RANK1, RANK2_EXACT, HERMITIAN_KERNEL, COMPLEMENT_PROPERTY, MACAULAY)


@pytest.mark.parametrize(
    "field,n,N,seed",
    [
        (COMPLEX, 3, 4, 0),
        (COMPLEX, 3, 5, 0),
        (COMPLEX, 3, 6, 0),
        (COMPLEX, 3, 6, 7),
        (COMPLEX, 3, 6, 28),
        (REAL, 4, 4, 0),
        (REAL, 4, 5, 0),
        (REAL, 4, 6, 0),
        (REAL, 4, 6, 15),
    ],
)
def test_short_frame_not_pr_survives_every_symmetry(field, n, N, seed):
    # Projector channels of frames too short to be PR (minimal_pr_length is
    # 8 in C^3 and 7 in R^4), with kernel dimension 3 to 6.  Seeds 7 and 28
    # of C^3, N = 6, and 15 of R^4, N = 6, are draws on which 64 restarts of
    # the bilinear search find no witness.  Scaled by 1e-3 and 1e3,
    # conjugated, mixed and split, each must stay NOT_PR with a certificate
    # that re-verifies relative to the moved channel's scale.
    rng = np.random.default_rng([n, N, seed])
    base = projector_channel_from_frame(Frame(dim=n, vectors=rand_matrix(rng, N, n, field), field=field))
    for name, ch in [("unmoved", base), *_moved(base.kraus, field, rng, 3)]:
        verdict = decide(ch)
        assert verdict.status == NOT_PR, name
        assert_relative_certificate(ch, verdict)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    measurement=st.booleans(),
    n=st.integers(3, 5),
    extra=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
)
def test_rank_one_step_agrees_with_the_complement_property(measurement, n, extra, seed, k):
    # Real frames of n to 2n + 1 vectors, as measurement and as projector
    # channels, and their moves: wherever the rank-one step settles, PR is the
    # frame's complement property and a NOT_PR re-verifies relative to the
    # moved channel's scale.
    rng = np.random.default_rng(seed)
    f = Frame(dim=n, vectors=rng.normal(size=(n + min(extra, n + 1), n)), field=REAL)
    cp = complement_property(f)
    kraus = (_measurement_channel(f) if measurement else projector_channel_from_frame(f)).kraus
    m = kraus[0].shape[0]
    for name, ch in [("unmoved", QuantumChannel(n, m, kraus, REAL)), *_moved(kraus, REAL, rng, k)]:
        verdict = deciders._rank_one_verdict(deciders._ChannelRecord(ch, DEFAULT_TOL))
        if verdict is None:
            continue
        assert verdict.method == COMPLEMENT_PROPERTY
        assert (verdict.status == PR) == cp, name
        if verdict.status == NOT_PR:
            assert_relative_certificate(ch, verdict)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 5),
    narrow=st.integers(1, 3),
    r=st.integers(3, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_one_step_declines_random_real_channels(n, narrow, r, seed):
    # A random real channel into a smaller output space has a kernel of
    # dimension 2 or more whose complement holds no spanning set of rank-one
    # points.
    ch = random_cptp(n, max(n - narrow, 2), r, REAL, np.random.default_rng(seed))
    rec = deciders._ChannelRecord(ch, DEFAULT_TOL)
    assume(rec.kernel_dim >= 2)
    assert deciders._rank_one_verdict(rec) is None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(("three", "planted", "generic")),
    field=st.sampled_from((REAL, COMPLEX)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
)
def test_cubic_step_verdict_is_invariant(kind, field, seed, k):
    # Random channels from C^3 or R^3 into two dimensions (kernel dimension
    # 5 or 3, NOT_PR), and kernels of dimension 2 on C^4 or R^4 through some
    # xx* - yy* (NOT_PR) or generic (PR).  The cubic step reads the kernel
    # alone, so every move keeps its verdict and the kernel stage's status,
    # and a NOT_PR re-verifies relative to the moved channel's scale.
    rng = np.random.default_rng(seed)
    if kind == "three":
        kraus = [rand_matrix(rng, 2, 3, field) for _ in range(3)]
    else:
        x, y = rand_matrix(rng, 2, 4, field)
        first = np.outer(x, x.conj()) / (x.conj() @ x) - np.outer(y, y.conj()) / (y.conj() @ y)
        H = traceless_family(rng, 2, 4, field, first if kind == "planted" else None)
        kraus = channel_with_kernel(H.real if field == REAL else H, field, rng).kraus
    m, n = kraus[0].shape
    rec = deciders._ChannelRecord(QuantumChannel(n, m, kraus, field), DEFAULT_TOL)
    before = deciders._cubic_verdict(rec, rec.kernel_basis)
    assert (before.status, before.method) == (PR if kind == "generic" else NOT_PR, HERMITIAN_KERNEL)

    for name, moved in _moved(kraus, field, rng, k):
        rec = deciders._ChannelRecord(moved, DEFAULT_TOL)
        after = deciders._cubic_verdict(rec, rec.kernel_basis)
        assert (after.status, after.method) == (before.status, HERMITIAN_KERNEL), name
        assert _kernel_verdict(moved).status == before.status, name
        if after.status == NOT_PR:
            assert_relative_certificate(moved, after)
