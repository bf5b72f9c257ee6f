"""The rank-one factor step of the real kernel stage.

A real family of operators of rank at most one, ``A_j = u_j q_j^T``, maps
``H`` to ``sum_j (q_j^T H q_j) u_j u_j^T``: a failing bipartition of
``{q_j}`` gives NOT_PR whatever the ``u_j``, and the complement property of
``{q_j}`` gives PR when the ``u_j u_j^T`` are independent.
``_rank_one_verdict`` reads ``q_j`` and ``u_j`` off the operators before it
recovers any point from the kernel's complement by the linearized minors;
where the factors settle nothing, and on every other family, the minors
decide as before.
"""

import numpy as np
import pytest

from prchannels import DEFAULT_TOL, NOT_PR, PR, REAL, Frame, QuantumChannel, complement_property, decide, deciders
from prchannels import decide_method
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import COMPLEMENT_PROPERTY, _ChannelRecord
from prchannels.frames import _measurement_channel

from helpers import assert_relative_certificate, random_unitary


def _frames():
    """Real frames of n = 3..5 and N = n..2n + 1 vectors, three draws each."""
    for n in (3, 4, 5):
        for N in range(n, 2 * n + 2):
            for seed in range(3):
                rng = np.random.default_rng([27, n, N, seed])
                yield Frame(dim=n, vectors=rng.normal(size=(N, n)), field=REAL)


def _minors_verdict(ch):
    """The verdict of the minors path alone: the complement property of the recovered points."""
    rec = _ChannelRecord(ch, DEFAULT_TOL)
    B = deciders._rank_one_points(rec.complement_basis, rec.tol)
    return None if B is None else deciders._complement_verdict(rec, B)


def _step(monkeypatch, ch):
    """``_rank_one_verdict`` on ``ch``, and whether it recovered points by the minors."""
    minors, ran = deciders._rank_one_points, []

    def spy(*args):
        ran.append(1)
        return minors(*args)

    monkeypatch.setattr(deciders, "_rank_one_points", spy)
    verdict = deciders._rank_one_verdict(_ChannelRecord(ch, DEFAULT_TOL))
    monkeypatch.setattr(deciders, "_rank_one_points", minors)
    return verdict, bool(ran)


def _label(verdict):
    return None if verdict is None else (verdict.status, verdict.method)


def _mixed(ch, seed):
    """The family mixed by an orthogonal matrix: the same channel, no operator of rank one."""
    O = random_unitary(len(ch.kraus), REAL, np.random.default_rng(seed)).real
    return QuantumChannel(ch.dim_in, ch.dim_out, list(np.tensordot(O, np.stack(ch.kraus), 1)), REAL)


def test_the_factors_agree_with_the_minors_on_real_frame_channels(monkeypatch):
    # Projector and measurement channels: every verdict of the factors is the
    # frame's complement property, and the minors path, where it settles,
    # gives the same status and method.  A Kraus-mixed copy declines the
    # factors and reaches the same verdict through the minors wherever they
    # settle it.
    seen, mixed_seen = set(), set()
    for f in _frames():
        cp = complement_property(f)
        for ch in (projector_channel_from_frame(f), _measurement_channel(f)):
            verdict, ran = _step(monkeypatch, ch)
            if not ran:
                assert _label(verdict) == (PR if cp else NOT_PR, COMPLEMENT_PROPERTY)
                seen.add(verdict.status)
            reference = _minors_verdict(ch)
            if reference is not None:
                assert _label(verdict) == _label(reference)
            if verdict is not None and verdict.status == NOT_PR:
                assert_relative_certificate(ch, verdict)
            mixed = _mixed(ch, len(f))
            assert _ChannelRecord(mixed, DEFAULT_TOL).kraus_ranks.max() > 1
            moved, ran = _step(monkeypatch, mixed)
            assert ran
            if moved is not None:
                assert _label(moved) == _label(verdict)
                mixed_seen.add(moved.status)
                if moved.status == NOT_PR:
                    assert_relative_certificate(mixed, moved)
    assert seen == mixed_seen == {PR, NOT_PR}


def test_a_split_operator_makes_the_outputs_dependent_and_falls_back(monkeypatch):
    # Splitting an operator into two copies scaled by 1/sqrt(2) keeps the
    # channel, but its u u^T is listed twice: the factors prove nothing, and
    # the verdict is the minors' on the unsplit channel.
    proved = 0
    for f in _frames():
        ch = projector_channel_from_frame(f)
        if not complement_property(f):
            continue
        split = QuantumChannel(f.dim, f.dim, [ch.kraus[0] / np.sqrt(2.0)] * 2 + ch.kraus[1:], REAL)
        verdict, ran = _step(monkeypatch, split)
        assert ran
        assert _label(verdict) == _label(_minors_verdict(ch))
        proved += verdict is not None
    assert proved


@pytest.mark.parametrize("under", [True, False])
def test_a_second_singular_value_at_the_kraus_rank_cut(monkeypatch, under):
    # A perturbation of one operator with singular value just under the cut of
    # kraus_ranks leaves it of rank one, and the factors settle; just over it,
    # the factors decline and the minors run.  A verdict is the frame's
    # complement property.
    checked = 0
    for f in _frames():
        n = f.dim
        if len(f) > 2 * n - 1:
            continue
        ch = projector_channel_from_frame(f)
        rec = _ChannelRecord(ch, DEFAULT_TOL)
        top = rec.kraus_values[:, 0]
        tau = DEFAULT_TOL.rank_rel * top.max() ** 2 / (4.0 * top.sum())
        A0 = ch.kraus[0].real
        u, s, vt = np.linalg.svd(A0)
        kraus = [A0 + (0.5 if under else 2.0) * tau * np.outer(u[:, 1], vt[1]), *ch.kraus[1:]]
        moved = QuantumChannel(n, n, kraus, REAL)
        assert _ChannelRecord(moved, DEFAULT_TOL).kraus_ranks[0] == (1 if under else 2)
        verdict, ran = _step(monkeypatch, moved)
        assert ran != under
        if verdict is None:
            assert not under
            continue
        cp = complement_property(f)
        assert _label(verdict) == (PR if cp else NOT_PR, COMPLEMENT_PROPERTY)
        if not cp:
            assert_relative_certificate(moved, verdict)
        checked += 1
    assert checked


def test_the_factors_take_no_svd_of_M_with_vectors(monkeypatch):
    # A real frame channel of 9 vectors in R^5: decide reads the kernel's
    # dimension off M's singular values, and the factors settle it without the
    # kernel basis, so M gets no SVD with vectors and no point is recovered.
    ch = projector_channel_from_frame(Frame(dim=5, vectors=np.random.default_rng(9).normal(size=(9, 5)), field=REAL))
    M_shape = _ChannelRecord(ch, DEFAULT_TOL).M.shape
    svd, shapes = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("the minors ran")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(deciders, "_rank_one_points", refuse)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (PR, COMPLEMENT_PROPERTY)
    assert M_shape not in shapes


@pytest.mark.parametrize("n", (3, 4, 5))
def test_long_short_frames_are_not_pr_when_restart_zero_misses(monkeypatch, n):
    # Real frames of 2n - 3 and 2n - 2 vectors never have the complement
    # property.  decide settles them by the rank split, and the kernel stage
    # alone by the failing bipartition of the factors, ahead of the witness
    # search; each pair re-verifies, and neither answers LIKELY_PR.
    def refuse(*args, **kwargs):
        raise AssertionError("the witness search ran")

    monkeypatch.setattr(deciders, "_kernel_search", refuse)
    for N in (2 * n - 3, 2 * n - 2):
        for seed in range(6):
            vectors = np.random.default_rng([27, 2, n, N, seed]).normal(size=(N, n))
            ch = projector_channel_from_frame(Frame(dim=n, vectors=vectors, field=REAL))
            for method in ("full", "oracle"):
                verdict = decide_method(ch, method)
                assert (verdict.status, verdict.method) == (NOT_PR, COMPLEMENT_PROPERTY), (N, seed, method)
                assert_relative_certificate(ch, verdict)
