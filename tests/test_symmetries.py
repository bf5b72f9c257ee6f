"""The verdict of ``decide`` is a property of the map up to the symmetries that
preserve phase retrievability: scaling, unitary conjugation on both sides,
unitary mixing of the Kraus family and splitting an operator into two
1/sqrt2 copies.  Each seeded channel keeps its status under every variant
(the method may move), and every NOT_PR re-verifies relative to
``sum_i ||A_i||_F^2``.  The projector channels of phase-retrievable real
frames keep their method too: the rank-one step reads the kernel alone,
which no variant changes."""

import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    NOT_PR,
    PR,
    REAL,
    QuantumChannel,
    decide,
    fixture,
    NO,
    YES,
    Frame,
    is_phase_retrievable_frame,
    parseval_normalize,
    random_generic_frame,
    verify_certificate,
)
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import COMPLEMENT_PROPERTY

from helpers import pinching, random_cptp, random_unitary


def _channels():
    for field in (REAL, COMPLEX):
        for dims in ((1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 1, 1, 1)):
            yield f"pinching {dims} {field}", pinching(dims, field)
        for n, r in ((3, 3), (4, 2)):
            yield f"cptp {n}x{n} r={r} {field}", random_cptp(n, n, r, field, np.random.default_rng([6, n, r]))
    for field, shapes in ((COMPLEX, ((3, 4), (3, 5), (3, 6), (4, 6))), (REAL, ((3, 4), (4, 5), (4, 6), (5, 8)))):
        for n, N in shapes:
            yield f"short frame {n}-{N} {field}", projector_channel_from_frame(random_generic_frame(n, N, field, 6))
    yield "example_2_6", fixture("example_2_6")
    yield "dephasing", fixture("dephasing")


def _variants(ch, rng):
    """The channel scaled by 1e-3 and 1e3, conjugated by unitaries on both sides,
    unitarily mixed into r + 1 operators, and with its first operator split."""
    kraus, field, r = ch.kraus, ch.field, len(ch.kraus)

    def channel(ops):
        return QuantumChannel(ch.dim_in, ch.dim_out, list(ops), field)

    U, V = random_unitary(ch.dim_out, field, rng), random_unitary(ch.dim_in, field, rng)
    W = random_unitary(r + 1, field, rng)[:, :r]
    yield "x1e-3", channel(1e-3 * A for A in kraus)
    yield "x1e3", channel(1e3 * A for A in kraus)
    yield "conjugated", channel(U @ A @ V for A in kraus)
    yield "mixed", channel(sum(W[i, j] * kraus[j] for j in range(r)) for i in range(r + 1))
    yield "split", channel([kraus[0] / np.sqrt(2.0), kraus[0] / np.sqrt(2.0), *kraus[1:]])


@pytest.mark.parametrize("label,ch", list(_channels()))
def test_status_holds_under_the_four_symmetries(label, ch):
    status = decide(ch).status
    for variant, copy in _variants(ch, np.random.default_rng(6)):
        verdict = decide(copy)
        assert verdict.status == status, (variant, verdict.method)
        if verdict.status == NOT_PR:
            res = verify_certificate(copy, verdict)
            trace = sum(np.linalg.norm(A) ** 2 for A in copy.kraus)
            assert res.get("tensor", 0.0) <= DEFAULT_TOL.residual_abs * trace, variant
            assert res.get("state", 0.0) <= 1e-7 * trace, variant


# Generic real frames of these lengths have the complement property, and the
# rank-one step proves them at kernel dimension 6, 5 and 3; at 3 it runs
# ahead of the Macaulay step.
PR_FRAMES = {(5, 9): COMPLEMENT_PROPERTY, (5, 10): COMPLEMENT_PROPERTY, (4, 7): COMPLEMENT_PROPERTY}


@pytest.mark.parametrize("n,N", list(PR_FRAMES))
def test_pr_real_frame_channels_keep_status_and_method(n, N):
    ch = projector_channel_from_frame(random_generic_frame(n, N, REAL, 6))
    want = (PR, PR_FRAMES[n, N])
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == want
    for variant, copy in _variants(ch, np.random.default_rng(6)):
        verdict = decide(copy)
        assert (verdict.status, verdict.method) == want, variant


# A generic complex frame of 4n - 4 = 12 vectors in C^4, proved by the
# Macaulay step, and a frame of 8, too short to be phase retrievable.
@pytest.mark.parametrize("N,want", [(12, YES), (8, NO)])
def test_complex_frame_verdict_holds_under_frame_symmetries(N, want):
    f = random_generic_frame(4, N, COMPLEX, 6)
    rng = np.random.default_rng([4, N])
    phases = np.exp(2j * np.pi * rng.random(N))
    U = random_unitary(4, COMPLEX, rng)
    variants = {
        "unmoved": f,
        "scaled": Frame(dim=4, vectors=f.vectors * (10.0 ** rng.uniform(-3, 3, N) * phases)[:, None], field=COMPLEX),
        "unitary": Frame(dim=4, vectors=f.vectors @ U.T, field=COMPLEX),
        "parseval": parseval_normalize(f),
    }
    for name, g in variants.items():
        report = is_phase_retrievable_frame(g)
        assert report.phase_retrievable == want, name
        if want == NO:
            x, y = report.witness
            gap = np.abs(g.vectors.conj() @ x) ** 2 - np.abs(g.vectors.conj() @ y) ** 2
            assert np.linalg.norm(gap) <= 1e-7 * np.linalg.norm(g.vectors) ** 2, name
