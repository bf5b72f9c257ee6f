"""Property tests of the rank split: Kraus operators whose ranks split into
two groups, each summing to at most ``n - 1``, share a kernel vector per group,
so the family fails the complement property of an operator-valued frame and
the channel is NOT_PR.  Planted splits always give NOT_PR with a pair that
re-verifies and is real on the real field, a family with an injective
operator never splits, the status holds under the four symmetries of phase
retrieval (the method may move), and complex frames of at most ``2n - 2``
vectors are decided NO exactly.  Every pinching and every frame of at most
``2n - 2`` vectors is settled by an exact stage, ahead of the screen."""

from itertools import compress

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from prchannels import COMPLEX, DEFAULT_TOL, NO, NOT_PR, REAL, QuantumChannel, decide, verify_certificate
from prchannels import deciders, is_phase_retrievable_frame, random_generic_frame
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import COMPLEMENT_PROPERTY, RANK1, RANK2_EXACT, SIMPLE, _ChannelRecord, _rank_split_stage
from prchannels.frames import _measurement_channel

from helpers import perfbench_decide_items, pinching, rand_matrix, random_unitary, real_up_to_phase
from test_symmetries import _variants


def _of_rank(rng, m, n, k, field):
    return rand_matrix(rng, m, k, field) @ rand_matrix(rng, k, n, field)


def _group(rng, m, n, field):
    """Operators whose ranks sum to at most ``n - 1``: at least one, each of rank at least one."""
    total = int(rng.integers(1, n))
    count = int(rng.integers(1, total + 1))
    cuts = np.sort(rng.choice(np.arange(1, total), size=count - 1, replace=False)) if count > 1 else []
    return [_of_rank(rng, m, n, int(k), field) for k in np.diff([0, *cuts, total])]


def _planted(field, n, extra_out, seed):
    rng = np.random.default_rng(seed)
    m = n + extra_out
    kraus = _group(rng, m, n, field) + _group(rng, m, n, field)
    return QuantumChannel(n, m, [kraus[i] for i in rng.permutation(len(kraus))], field)


def _assert_certified(ch, verdict):
    scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
    res = verify_certificate(ch, verdict)
    assert res["tensor"] <= DEFAULT_TOL.residual_abs * scale
    if verdict.state_witness is not None:
        assert res["state"] <= 1e-7 * scale
    if ch.field == REAL:
        assert real_up_to_phase(verdict.certificate.x) and real_up_to_phase(verdict.certificate.y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(2, 6),
    extra_out=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_splits_give_a_certified_not_pr(field, n, extra_out, seed):
    ch = _planted(field, n, extra_out, seed)
    verdict = _rank_split_stage(_ChannelRecord(ch, DEFAULT_TOL))
    assert (verdict.status, verdict.method, verdict.certificate.kind) == (NOT_PR, COMPLEMENT_PROPERTY, SIMPLE)
    _assert_certified(ch, verdict)
    # The real stacks' singular vectors are real, not only real up to a phase.
    assert field == COMPLEX or not (verdict.certificate.x.imag.any() or verdict.certificate.y.imag.any())
    verdict = decide(ch)
    assert verdict.status == NOT_PR
    _assert_certified(ch, verdict)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_a_family_with_a_common_kernel_splits_with_one_group_empty(field):
    # Ranks (2, 0, 0) in C^3 or R^3: the most even split puts every operator on
    # one side, whose common kernel vector serves as both x and y.
    rng = np.random.default_rng(3)
    ch = QuantumChannel(3, 3, [_of_rank(rng, 3, 3, 2, field), np.zeros((3, 3)), np.zeros((3, 3))], field)
    verdict = _rank_split_stage(_ChannelRecord(ch, DEFAULT_TOL))
    assert (verdict.status, verdict.method) == (NOT_PR, COMPLEMENT_PROPERTY)
    assert np.array_equal(verdict.certificate.x, verdict.certificate.y)
    _assert_certified(ch, verdict)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(1, 6),
    extra_out=st.integers(0, 2),
    ranks=st.lists(st.integers(0, 6), min_size=0, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_family_with_an_injective_operator_never_splits(field, n, extra_out, ranks, seed):
    # The injective operator's group sums to at least n, whatever the others.
    rng = np.random.default_rng(seed)
    m = n + extra_out
    kraus = [_of_rank(rng, m, n, n, field)] + [_of_rank(rng, m, n, min(k, n), field) for k in ranks]
    ch = QuantumChannel(n, m, [kraus[i] for i in rng.permutation(len(kraus))], field)
    assert _rank_split_stage(_ChannelRecord(ch, DEFAULT_TOL)) is None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(2, 5),
    extra_out=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_split_status_holds_under_the_four_symmetries(field, n, extra_out, seed):
    ch = _planted(field, n, extra_out, seed)
    for name, moved in _variants(ch, np.random.default_rng(seed)):
        verdict = decide(moved)
        assert verdict.status == NOT_PR, (name, verdict.method)
        _assert_certified(moved, verdict)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_short_complex_frames_are_decided_no_exactly(n):
    # Up to two vectors the Choi-rank stages decide; past that the rank split.
    for N in range(1, 2 * n - 1):
        f = random_generic_frame(n, N, COMPLEX, N)
        assert is_phase_retrievable_frame(f).phase_retrievable == NO, N
        verdict = decide(_measurement_channel(f))
        assert verdict.method == (RANK1 if N == 1 else RANK2_EXACT if N == 2 else COMPLEMENT_PROPERTY), N


def _compositions(n):
    """Every ordered split of ``n`` into block sizes, at least two blocks."""
    for mask in range(1, 2 ** (n - 1)):
        cuts = list(compress(range(1, n), ((mask >> i) & 1 for i in range(n - 1))))
        yield tuple(np.diff([0, *cuts, n]).tolist())


def _pinchings_and_short_frames():
    rng = np.random.default_rng(46)
    for field in (REAL, COMPLEX):
        for n in range(2, 7):
            for dims in _compositions(n):
                ch = pinching(dims, field)
                U, W = random_unitary(n, field, rng), random_unitary(n, field, rng)
                yield f"pinching {dims} {field}", QuantumChannel(n, n, [U @ A @ W for A in ch.kraus], field)
        for n in range(2, 6):
            for N in range(1, 2 * n - 1):
                f = random_generic_frame(n, N, field, int(rng.integers(2**31)))
                yield f"frame {n}-{N} {field}", _measurement_channel(f)
                if N >= n:  # the trace-preserving recipe needs a spanning frame
                    yield f"projector frame {n}-{N} {field}", projector_channel_from_frame(f)
    for key, item in perfbench_decide_items(("exact", "search_witness")):
        ch = item.payload
        if item.slice in ("pinch2", "pinch") or item.slice == "short_frame" and len(ch.kraus) <= 2 * ch.dim_in - 2:
            yield key, ch


def test_pinchings_and_short_frames_never_reach_the_screen(monkeypatch):
    def screen(*args, **kwargs):
        raise AssertionError("the screen ran")

    monkeypatch.setattr(deciders, "scalar_relative_spectrum", screen)
    counts = {}
    for key, ch in _pinchings_and_short_frames():
        verdict = decide(ch)
        assert verdict.status == NOT_PR, key
        counts[key.split("/")[0]] = counts.get(key.split("/")[0], 0) + 1
    assert counts["exact"] == 4 * 7 and counts["search_witness"] >= 4 * 396
