import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import prchannels.frames as frames_module
import prchannels.linalg as linalg_module
from prchannels import (
    COMPLEX,
    EXACT,
    LIKELY_YES,
    NO,
    REAL,
    UPPER_BOUND,
    YES,
    Frame,
    OracleConfig,
    complement_property,
    frame_bounds,
    frame_operator,
    is_phase_retrievable_frame,
    minimal_pr_length,
    parseval_normalize,
    random_generic_frame,
    rank_one_independent,
    validate,
)
from prchannels.constructors import projector_channel_from_frame
from prchannels.errors import NotAFrame, TooManyVectors
from prchannels.linalg import DEFAULT_TOL, _failing_bipartition, numerical_rank

from helpers import rand_matrix, random_unitary

E1E2SUM = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)


def _measure(frame, x):
    return np.abs(frame.vectors.conj() @ x) ** 2


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(dim=2, vectors=np.zeros((2, 2)), field=REAL)
    with pytest.raises(ValueError):
        Frame(dim=2, vectors=np.ones((1, 3)), field=REAL)
    with pytest.raises(ValueError):
        Frame(dim=2, vectors=np.ones((1, 2)) * 1j, field=REAL)


def test_frame_bounds():
    onb = Frame(dim=2, vectors=np.eye(2), field=REAL)
    assert frame_bounds(onb) == (pytest.approx(1.0), pytest.approx(1.0))

    f = Frame(dim=2, vectors=E1E2SUM, field=REAL)
    lo, hi = frame_bounds(f)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(3.0)

    partial = Frame(dim=2, vectors=np.array([[1.0, 0.0]]), field=REAL)
    lo, hi = frame_bounds(partial)
    assert lo == pytest.approx(0.0, abs=1e-14) and hi == pytest.approx(1.0)


def test_parseval_normalize():
    onb = Frame(dim=2, vectors=np.eye(2), field=REAL)
    again = parseval_normalize(onb)
    assert np.allclose(again.vectors, onb.vectors)

    f = Frame(dim=2, vectors=E1E2SUM, field=REAL)
    p = parseval_normalize(f)
    assert np.linalg.norm(frame_operator(p) - np.eye(2)) <= 1e-10

    scaled = Frame(dim=2, vectors=2.0 * np.eye(2), field=REAL)
    p = parseval_normalize(scaled)
    assert np.allclose(p.vectors, np.eye(2))

    with pytest.raises(NotAFrame):
        parseval_normalize(Frame(dim=2, vectors=np.array([[1.0, 0.0]]), field=REAL))


def test_complement_property_examples():
    assert complement_property(Frame(dim=2, vectors=E1E2SUM, field=REAL))
    # An orthonormal basis alone never has the complement property for n >= 2.
    assert not complement_property(Frame(dim=2, vectors=np.eye(2), field=REAL))
    assert not complement_property(Frame(dim=3, vectors=np.eye(3), field=REAL))


def test_complement_property_pigeonhole():
    # 2n - 2 vectors can always be split into two non-spanning halves.
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        for _ in range(5):
            V = rng.normal(size=(2 * n - 2, n))
            f = Frame(dim=n, vectors=V, field=REAL)
            assert not complement_property(f)


def test_complement_property_cap():
    f = random_generic_frame(2, 25, REAL, seed=0)
    with pytest.raises(TooManyVectors):
        complement_property(f)


def _reference_failing_bipartition(f, tol=DEFAULT_TOL):
    """One-mask-at-a-time complement-property test: two rank decisions per bipartition."""
    V = f.vectors
    N, n = V.shape
    for mask in range(2 ** (N - 1)):
        side = [0] + [j for j in range(1, N) if (mask >> (j - 1)) & 1]
        comp = [j for j in range(1, N) if not (mask >> (j - 1)) & 1]
        if numerical_rank(V[side], tol) == n:
            continue
        if comp and numerical_rank(V[comp], tol) == n:
            continue
        return side, comp
    return None


def _two_plane_frame():
    # Vectors 0, 6 and 7 span one plane of R^3, vectors 1-5 another; the only
    # failing bipartition is {0, 6, 7} | {1, ..., 5}, mask 96, in the second chunk.
    rng = np.random.default_rng(12)
    p, q = rng.normal(size=(2, 3, 2))
    V = np.empty((8, 3))
    V[[0, 6, 7]] = rng.normal(size=(3, 2)) @ p.T
    V[1:6] = rng.normal(size=(5, 2)) @ q.T
    return Frame(dim=3, vectors=V, field=REAL)


def _bipartition_cases():
    rng = np.random.default_rng(18)
    for field in (REAL, COMPLEX):
        for n in range(2, 7):
            for N in range(n, 2 * n + 2):
                V = random_generic_frame(n, N, field, seed=int(rng.integers(0, 10**6))).vectors
                yield Frame(dim=n, vectors=V, field=field)
                cut = V.copy()
                cut[: int(rng.integers(1, N + 1)), int(rng.integers(0, n))] = 0.0
                yield Frame(dim=n, vectors=cut, field=field)
                zero = V.copy()
                zero[int(rng.integers(0, N))] = 0.0
                yield Frame(dim=n, vectors=zero, field=field)
                if N <= 9:  # keeps the reference loop's time down
                    for scale in (1e-5, 1e5):
                        yield Frame(dim=n, vectors=scale * V, field=field)
    yield _two_plane_frame()


def _rows(f):
    return f.vectors.real if f.field == REAL else f.vectors


def test_stacked_bipartitions_match_the_mask_loop():
    for f in _bipartition_cases():
        assert _failing_bipartition(_rows(f), DEFAULT_TOL) == _reference_failing_bipartition(f)


def test_first_failing_mask_past_the_first_chunk():
    f = _two_plane_frame()
    assert _failing_bipartition(_rows(f), DEFAULT_TOL) == ([0, 6, 7], [1, 2, 3, 4, 5])


def _counting(monkeypatch, name):
    original, seen = getattr(np.linalg, name), []

    def counting(*args, **kwargs):
        seen.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return seen


@pytest.mark.parametrize("n, N, calls", [(4, 7, 1), (5, 9, 4)])
def test_one_svd_per_chunk(monkeypatch, n, N, calls):
    # One stacked determinant per chunk; every side of a generic frame clears
    # the Gram bound, so no side needs the SVD.
    def no_rank(*args, **kwargs):
        raise AssertionError("the enumeration called numerical_rank")

    f = random_generic_frame(n, N, REAL, seed=7)
    svds, dets = _counting(monkeypatch, "svd"), _counting(monkeypatch, "det")
    monkeypatch.setattr(frames_module, "numerical_rank", no_rank)
    monkeypatch.setattr(linalg_module, "numerical_rank", no_rank)
    assert complement_property(f)
    assert (len(dets), len(svds)) == (calls, 0)


def test_sides_past_the_gram_bound_take_one_svd_per_chunk(monkeypatch):
    # The two-plane frame's failing mask lies in its second chunk; sides
    # within a plane do not clear the bound and go through the SVD.
    f = _two_plane_frame()
    svds, dets = _counting(monkeypatch, "svd"), _counting(monkeypatch, "det")
    assert _failing_bipartition(_rows(f), DEFAULT_TOL) == ([0, 6, 7], [1, 2, 3, 4, 5])
    assert len(dets) == 2 and 1 <= len(svds) <= 2


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_ill_conditioned_frame_report(field):
    # sigma_min / sigma_max = 1e-7 lies between the square root of the rank
    # cut and the rank cut: a frame by the rank rule, and so for the
    # normalizations, whose polar factor needs no frame-operator eigenvalues.
    V = np.array([[1, 0], [0, 1e-7], [1, 1e-7]])
    f = Frame(dim=2, vectors=V, field=field)
    report = is_phase_retrievable_frame(f)
    assert report.is_frame
    assert report.phase_retrievable == (YES if field == REAL else NO)
    assert np.linalg.norm(frame_operator(parseval_normalize(f)) - np.eye(2)) <= 1e-10
    assert validate(projector_channel_from_frame(f)).tp_residual <= 1e-10
    # At 1e-12 the vectors span a line: NO, with a kernel witness.
    V = np.array([[1, 0], [0, 1e-12], [1, 1e-12]])
    f = Frame(dim=2, vectors=V, field=field)
    report = is_phase_retrievable_frame(f)
    assert not report.is_frame and report.phase_retrievable == NO
    for normalization in (parseval_normalize, projector_channel_from_frame):
        with pytest.raises(NotAFrame):
            normalization(f)
    x, y = report.witness
    # x spans the numerical kernel, so x and y = 2x both measure zero.
    assert np.linalg.norm(f.vectors.conj() @ x) <= 1e-10 * np.linalg.norm(f.vectors, 2) * np.linalg.norm(x)
    assert np.allclose(y, 2.0 * x)


def _complement_margin(V: np.ndarray, n: int) -> float:
    """The least, over bipartitions, of the better side's sigma_n / sigma_1 (0 for fewer than n vectors)."""
    N, worst = len(V), np.inf
    for mask in range(2 ** (N - 1)):
        side = np.array([j == 0 or bool(mask >> (j - 1) & 1) for j in range(N)])
        ratios = [0.0]
        for part in (V[side], V[~side]):
            if len(part) >= n:
                s = np.linalg.svd(part, compute_uv=False)
                ratios.append(s[n - 1] / s[0])
        worst = min(worst, max(ratios))
    return worst


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    extra=st.integers(0, 5),
    k=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([REAL, COMPLEX]),
)
def test_one_spanning_rule_and_real_verdict_invariance(n, extra, k, seed, field):
    # N = n..2n+1 vectors, one of them scaled by 10**-k; past k = 10 some of
    # them span a hyperplane only.  The normalizations raise NotAFrame
    # exactly when the report finds no frame.
    N = n + min(extra, n + 1)
    rng = np.random.default_rng(seed)
    V = rand_matrix(rng, N, n, field)
    V[rng.integers(N)] *= 10.0**-k
    f = Frame(dim=n, vectors=V, field=field)
    report = is_phase_retrievable_frame(f, OracleConfig(restarts=4))
    if report.is_frame:
        assert np.linalg.norm(frame_operator(parseval_normalize(f)) - np.eye(n)) <= 1e-10
        assert validate(projector_channel_from_frame(f)).is_trace_preserving
    else:
        with pytest.raises(NotAFrame):
            parseval_normalize(f)
        with pytest.raises(NotAFrame):
            projector_channel_from_frame(f)
    if field == COMPLEX:
        return
    # On the real field the verdict survives parseval_normalize, per-vector
    # scaling and orthogonal conjugation.  These move every side's sigma ratio
    # by at most cond(V), 4 and 1: the verdict is fixed once the frame's ratio
    # and the complement margin lie beyond that stretch of the rank cut.
    stretch = 8.0 * (np.linalg.cond(V) if report.is_frame else 1.0)
    s = np.linalg.svd(V.real, compute_uv=False)
    for ratio in (s[-1] / s[0], _complement_margin(V.real, n)):
        assume(not DEFAULT_TOL.rank_rel / stretch < ratio <= DEFAULT_TOL.rank_rel * stretch)
    moved = [
        Frame(dim=n, vectors=rng.uniform(0.5, 2.0, size=(N, 1)) * V, field=REAL),
        Frame(dim=n, vectors=V @ random_unitary(n, REAL, rng).T, field=REAL),
    ]
    if report.is_frame:
        moved.append(parseval_normalize(f))
    for g in moved:
        assert is_phase_retrievable_frame(g).phase_retrievable == report.phase_retrievable


def test_real_pr_iff_complement():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        N = int(rng.integers(1, 10))
        f = random_generic_frame(n, N, REAL, seed=int(rng.integers(0, 10000)))
        report = is_phase_retrievable_frame(f)
        if not report.is_frame:
            assert report.phase_retrievable == NO
            continue
        assert (report.phase_retrievable == YES) == report.complement_property


def test_real_no_witness_verifies():
    f = Frame(dim=2, vectors=np.eye(2), field=REAL)
    report = is_phase_retrievable_frame(f)
    assert report.phase_retrievable == NO
    x, y = report.witness
    assert np.max(np.abs(_measure(f, x) - _measure(f, y))) <= 1e-8
    assert np.linalg.norm(np.outer(x, x.conj()) - np.outer(y, y.conj())) > 1e-3


def test_complex_triangle_frame_not_pr():
    f = Frame(dim=2, vectors=E1E2SUM, field=COMPLEX)
    report = is_phase_retrievable_frame(f, OracleConfig(restarts=32, seed=1))
    assert report.phase_retrievable == NO
    # The complement property holds, yet the complex frame is not PR; a
    # complex report does not compute it.
    assert complement_property(f)
    assert report.complement_property is None
    x, y = report.witness
    gap = np.abs(_measure(f, x) - _measure(f, y))
    assert np.max(gap) <= 1e-8
    diff = np.outer(x, x.conj()) - np.outer(y, y.conj())
    assert np.linalg.norm(diff) == pytest.approx(1.0, abs=1e-6)


def test_complex_generic_frame_is_pr():
    # Four generic vectors in C^2 have rank-one projections spanning Herm(2):
    # a trivial Hermitian kernel proves phase retrieval.
    f = random_generic_frame(2, 4, COMPLEX, seed=3)
    report = is_phase_retrievable_frame(f, OracleConfig(restarts=24, seed=0))
    assert report.phase_retrievable == YES
    assert report.witness is None


def test_complex_tomographic_frame_is_pr_at_any_scale():
    # The projections of {e1, e2, e1 + e2, e1 + i e2} span Herm(2), so the
    # Hermitian kernel is trivial; scaling the vectors changes nothing.
    V = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]], dtype=complex)
    for scale in (1.0, 1e-5):
        report = is_phase_retrievable_frame(Frame(dim=2, vectors=scale * V, field=COMPLEX))
        assert report.phase_retrievable == YES and report.witness is None


def test_real_generic_frames_pr_at_2n_minus_1():
    for n in (3, 4):
        for seed in range(10):
            f = random_generic_frame(n, 2 * n - 1, REAL, seed=seed)
            assert is_phase_retrievable_frame(f).phase_retrievable == YES


def test_parseval_preserves_pr_status():
    cfg = OracleConfig(restarts=24, seed=2)
    cases = [
        Frame(dim=2, vectors=E1E2SUM, field=REAL),
        Frame(dim=2, vectors=E1E2SUM, field=COMPLEX),
        random_generic_frame(3, 5, REAL, seed=4),
        random_generic_frame(2, 2, REAL, seed=5),
    ]
    for f in cases:
        before = is_phase_retrievable_frame(f, cfg).phase_retrievable
        after = is_phase_retrievable_frame(parseval_normalize(f), cfg).phase_retrievable
        if NO in (before, after):
            assert before == after
        else:
            # YES and LIKELY_YES are both positive outcomes.
            assert {before, after} <= {YES, LIKELY_YES}


def test_random_generic_frame_determinism():
    a = random_generic_frame(3, 4, COMPLEX, seed=11)
    b = random_generic_frame(3, 4, COMPLEX, seed=11)
    assert np.array_equal(a.vectors, b.vectors)
    single = random_generic_frame(2, 1, REAL, seed=0)
    assert not is_phase_retrievable_frame(single).is_frame


def test_minimal_pr_length():
    assert minimal_pr_length(3, REAL) == (5, EXACT)
    assert minimal_pr_length(3, COMPLEX) == (8, EXACT)
    assert minimal_pr_length(4, COMPLEX) == (12, UPPER_BOUND)
    assert minimal_pr_length(2, COMPLEX) == (4, EXACT)
    assert minimal_pr_length(5, COMPLEX) == (16, EXACT)
    with pytest.raises(ValueError):
        minimal_pr_length(1, REAL)


def test_rank_one_independent():
    assert rank_one_independent(Frame(dim=2, vectors=E1E2SUM, field=REAL))
    dep = Frame(dim=2, vectors=np.array([[1.0, 0.0], [2.0, 0.0]]), field=REAL)
    assert not rank_one_independent(dep)
    # Minimal phase-retrievable frames always have independent projections.
    for seed in range(5):
        f = random_generic_frame(3, 5, REAL, seed=seed)
        if is_phase_retrievable_frame(f).phase_retrievable == YES:
            assert rank_one_independent(f)
