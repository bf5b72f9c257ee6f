"""What one ``decide`` call computes from the Kraus family: one stack and one
values-only SVD of it, shared by every image, rank test and ``K`` of the call
and never by another call; certificates that re-verify relative to the
channel's scale; and a thin SVD for the kernel basis that keeps the full
SVD's bits, whose leading vectors the rank-one step reads as the kernel's
complement."""

import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    NOT_FINITE,
    NOT_PR,
    PR,
    REAL,
    QuantumChannel,
    decide,
    fixture,
    necessary_inner_product_check,
    random_generic_frame,
    scalar_relative_spectrum,
    verify_certificate,
)
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import COMPLEMENT_PROPERTY, _ChannelRecord, _hermitian_basis
from prchannels.errors import NotFinite

from helpers import pinching, rand_matrix


def _record_channels():
    for field in (REAL, COMPLEX):
        yield f"pinching (1,1,1) {field}", pinching((1, 1, 1), field)
        yield f"pinching (2,2,2) {field}", pinching((2, 2, 2), field)
        n, N = (4, 5) if field == REAL else (4, 6)
        yield f"short frame {n}-{N} {field}", projector_channel_from_frame(random_generic_frame(n, N, field, 0))
        rng = np.random.default_rng([21, field == REAL])
        yield f"generic 3x3 r=4 {field}", QuantumChannel(3, 3, [rand_matrix(rng, 3, 3, field) for _ in range(4)], field)
        yield f"example_2_11 {field}", QuantumChannel(2, 2, fixture("example_2_11").kraus, field)


@pytest.mark.parametrize("label,ch", list(_record_channels()))
def test_one_kraus_stack_and_one_kraus_svd_per_decide(monkeypatch, label, ch):
    stacks, kraus_svds = [], []
    stack, svd = np.stack, np.linalg.svd
    A = stack(ch.kraus)
    A = A.real if ch.field == REAL else A

    def counting_stack(arrays, *args, **kwargs):
        stacks.append(arrays is ch.kraus)
        return stack(arrays, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        values_only = kwargs.get("compute_uv", args[1] if len(args) > 1 else True) is False
        kraus_svds.append(values_only and np.shape(a) == A.shape and np.array_equal(a, A))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np, "stack", counting_stack)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    decide(ch)
    assert sum(stacks) == 1
    # Example 2.11 has Choi rank 2: the exact rank-2 stage settles it before
    # any stage reads the operators' singular values.
    assert sum(kraus_svds) == (0 if label.startswith("example_2_11") else 1)


def _public_screen(ch):
    """Bits of every relative spectrum and of the screen's verdict, from public calls."""
    out = []
    for j in range(len(ch.kraus)):
        points = scalar_relative_spectrum(ch, j)
        out.append(
            "NOT_FINITE" if points is NOT_FINITE else [(p.lam.tobytes(), p.witness.tobytes()) for p in points]
        )
    try:
        v = necessary_inner_product_check(ch)
    except NotFinite:
        out.append("NotFinite")
    else:
        cert = None if v is None else v.certificate
        out.append(None if v is None else (v.status, v.method, cert.j, cert.x.tobytes(), cert.y.tobytes(),
                                           sorted((k, float(r).hex()) for k, r in v.residuals.items())))
    return out


@pytest.mark.parametrize("label,ch", list(_record_channels()))
def test_public_screen_calls_ignore_a_preceding_decide(label, ch):
    before = _public_screen(ch)
    decide(ch)
    assert _public_screen(ch) == before


def _scaled_short_frames():
    for scale in (1e-3, 1e5):
        for seed in range(4):
            ch = projector_channel_from_frame(random_generic_frame(3, 6, COMPLEX, seed))
            yield scale, seed, QuantumChannel(3, 3, [scale * A for A in ch.kraus], COMPLEX)


def test_scaled_short_frames_are_not_pr_relative_to_their_scale():
    # Complex short frames in C^3 scaled by 1e-3 and 1e5: the witness search
    # runs on the kernel's unit sphere, so its certificate re-verifies
    # relative to sum_i ||A_i||_F^2 at either scale.
    for scale, seed, ch in _scaled_short_frames():
        verdict = decide(ch)
        assert verdict.status == NOT_PR, (scale, seed)
        res = verify_certificate(ch, verdict)
        trace = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
        assert res["tensor"] <= DEFAULT_TOL.residual_abs * trace, (scale, seed)
        if "state" in res:
            assert res["state"] <= 1e-7 * trace, (scale, seed)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_thin_svd_keeps_the_right_singular_vectors_bits(field):
    rng = np.random.default_rng([21, 2, field == REAL])
    for rows, cols in ((6, 6), (8, 6), (12, 6), (18, 9), (20, 10), (32, 16), (50, 16), (40, 25), (81, 45)):
        for deficient in (False, True):
            M = rng.normal(size=(rows, cols))
            if deficient:
                M = M[:, : cols - 3] @ rng.normal(size=(cols - 3, cols))
            assert np.array_equal(np.linalg.svd(M, full_matrices=False)[2], np.linalg.svd(M)[2])
    # The kernel basis of channels with a nontrivial kernel, against one full SVD of M.
    channels = [pinching((1, 2, 1), field), pinching((2, 2, 2), field)]
    channels += [projector_channel_from_frame(random_generic_frame(4, N, field, s)) for N in (5, 6) for s in range(3)]
    channels += [QuantumChannel(4, 3, [rand_matrix(rng, 3, 4, field) for _ in range(2)], field)]
    for ch in channels:
        rec = _ChannelRecord(ch, DEFAULT_TOL)
        assert rec.kernel_dim > 0
        T, n = _hermitian_basis(ch.dim_in, field), ch.dim_in
        vh = np.linalg.svd(rec.M)[2][rec.herm_rank :]
        assert np.array_equal(rec.kernel_basis, np.array([(T @ v).reshape(n, n) for v in vh]))


def test_rank_one_step_takes_no_second_svd_of_M(monkeypatch):
    # The step reads the kernel's complement off the kernel basis's SVD of M:
    # one SVD with vectors of M per decide, whose leading right singular
    # vectors are the complement's basis.  The frame channel's Kraus family
    # is mixed by an orthogonal matrix, so no operator has rank one and the
    # step recovers the rank-one points from that complement.
    frame = projector_channel_from_frame(random_generic_frame(5, 9, REAL, 0))
    O = np.linalg.qr(np.random.default_rng(27).normal(size=(9, 9)))[0]
    ch = QuantumChannel(5, 5, list(np.tensordot(O, np.stack(frame.kraus), 1)), REAL)
    rec = _ChannelRecord(ch, DEFAULT_TOL)
    svd, shapes = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (PR, COMPLEMENT_PROPERTY)
    assert shapes.count(rec.M.shape) == 1
    monkeypatch.setattr(np.linalg, "svd", svd)
    T, n = _hermitian_basis(5, REAL), 5
    vh = np.linalg.svd(rec.M)[2][: rec.herm_rank]
    assert np.array_equal(rec.complement_basis, np.array([(T @ v).reshape(n, n) for v in vh]))
