import numpy as np
import pytest

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
)
from prchannels.errors import NotAFrame, TooManyVectors

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
