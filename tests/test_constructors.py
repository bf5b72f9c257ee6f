import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    LIKELY_PR,
    NOT_PR,
    PR,
    REAL,
    Frame,
    OracleConfig,
    QuantumChannel,
    apply,
    channel_from_observables,
    channels_equal,
    choi_rank,
    decide,
    decide_rank2,
    fixture,
    minimal_pr_length,
    orthogonal_projection_channel,
    parseval_normalize,
    projector_channel_from_frame,
    rank2_injective_plus_rankone,
    rankr_positive_construction,
    validate,
)
from prchannels.constructors import _identity_in_proper_span, _sample_rankr_parts
from prchannels.errors import (
    BadPartition,
    NotAFrame,
    NotIndependent,
    SpanConditionFailed,
    UnknownFixture,
)
from prchannels.linalg import DEFAULT_TOL

from helpers import rho

TRIANGLE = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)


def _povm_checks(povm, dim):
    total = sum(povm.elements)
    assert np.linalg.norm(total - np.eye(dim)) <= 1e-9
    for E in povm.elements:
        assert np.linalg.norm(E - E.conj().T) <= 1e-10
        assert np.linalg.eigvalsh((E + E.conj().T) / 2)[0] >= -1e-10


def test_projector_channel_real_frame():
    f = Frame(dim=2, vectors=TRIANGLE, field=REAL)
    ch = projector_channel_from_frame(f)
    rep = validate(ch)
    assert rep.is_trace_preserving
    verdict = decide(ch, OracleConfig(restarts=24, seed=0))
    assert verdict.status in (PR, LIKELY_PR)
    if verdict.status == LIKELY_PR:
        assert verdict.floor > 1e-6

    # Not injective on all matrices: the antisymmetric unit is annihilated
    # after the normalization change of coordinates.
    from prchannels.linalg import psd_sqrt

    projections = [np.outer(v, v.conj()) for v in f.vectors]
    S = sum(P @ P for P in projections)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    T = psd_sqrt(S) @ J @ psd_sqrt(S)
    assert abs(np.trace(T)) < 1e-10
    assert np.linalg.norm(apply(ch, T)) <= 1e-10


def test_projector_channel_complex_frame_not_pr():
    f = Frame(dim=2, vectors=TRIANGLE, field=COMPLEX)
    ch = projector_channel_from_frame(f)
    verdict = decide(ch, OracleConfig(restarts=32, seed=0))
    assert verdict.status == NOT_PR
    sw = verdict.state_witness
    assert sw is not None
    assert np.linalg.norm(apply(ch, rho(sw.x)) - apply(ch, rho(sw.y))) <= 1e-7


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_projector_channel_operators_stay_rank_one(field):
    # One vector scaled by 10^-k: every operator stays a rank-one map onto its
    # vector's line, and the family stays trace preserving.  At k = 9 on 3
    # vectors in R^3 (seed 0) the polar factor of the stacked projections
    # gave sigma_2 / sigma_1 = 0.39.
    for N in (3, 4, 5):
        for k in range(10):
            rng = np.random.default_rng([N, k])
            V = rng.normal(size=(N, 3)) + (1j * rng.normal(size=(N, 3)) if field == COMPLEX else 0.0)
            V[0] *= 10.0**-k
            try:
                ch = projector_channel_from_frame(Frame(dim=3, vectors=V, field=field))
            except NotAFrame:
                continue
            for A, v in zip(ch.kraus, V):
                s = np.linalg.svd(A, compute_uv=False)
                assert s[1] <= 1e-12 * s[0]
                assert np.linalg.norm(A - np.outer(v, v.conj() @ A) / np.vdot(v, v).real) <= 1e-12 * s[0]
            assert validate(ch).tp_residual <= 1e-12
    rng = np.random.default_rng(0)
    V = rng.normal(size=(3, 3))
    V[0] *= 1e-9
    ch = projector_channel_from_frame(Frame(dim=3, vectors=V, field=field))
    assert max(np.linalg.svd(A, compute_uv=False)[1] / np.linalg.norm(A, 2) for A in ch.kraus) <= 1e-12


def test_projector_channel_requires_frame():
    bad = Frame(dim=2, vectors=np.array([[1.0, 0.0]]), field=REAL)
    with pytest.raises(NotAFrame):
        projector_channel_from_frame(bad)


def test_rank2_injective_plus_rankone():
    for n in (2, 3):
        for seed in range(5):
            res = rank2_injective_plus_rankone(n, seed=seed)
            assert res.claimed_status == PR
            assert validate(res.channel).is_trace_preserving
            assert choi_rank(res.channel) == 2
            assert decide_rank2(res.channel).status == PR
            d_n, _ = minimal_pr_length(n, REAL)
            assert res.observables.rank_one_count == d_n
            _povm_checks(res.observables, n)


def test_rank2_observables_separate_states():
    res = rank2_injective_plus_rankone(2, seed=1)
    ch, povm = res.channel, res.observables
    rng = np.random.default_rng(14)
    for _ in range(1000):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        x = x / np.linalg.norm(x)
        y = y / np.linalg.norm(y)
        if np.linalg.norm(rho(x) - rho(y)) < 1e-3:
            continue
        diff = apply(ch, rho(x)) - apply(ch, rho(y))
        gaps = [abs(np.trace(diff @ F.conj().T)) for F in povm.elements]
        assert max(gaps) > 1e-8


def test_rank2_remark_counterexample():
    # A rank-two second operator breaks the recipe: the swap plus identity
    # channel collides the two basis states.
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = QuantumChannel(2, 2, [np.eye(2, dtype=complex) / np.sqrt(2), X / np.sqrt(2)], COMPLEX)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert np.allclose(apply(ch, rho(e1)), apply(ch, rho(e2)))
    assert decide(ch).status == NOT_PR


def test_rankr_positive_construction():
    res = rankr_positive_construction(2, 3, seed=0)
    assert choi_rank(res.channel) == 3
    assert validate(res.channel).is_trace_preserving
    verdict = decide(res.channel, OracleConfig(restarts=32, seed=0))
    assert verdict.status != NOT_PR
    if verdict.floor is not None:
        assert verdict.floor > 1e-6
    d2, _ = minimal_pr_length(2, REAL)
    assert res.observables.rank_one_count == d2
    _povm_checks(res.observables, 2)

    res = rankr_positive_construction(3, 2, seed=0)
    assert choi_rank(res.channel) == 2
    assert decide_rank2(res.channel).status == PR

    with pytest.raises(ValueError):
        rankr_positive_construction(2, 5, seed=0)


def test_rankr_mixing_matrix_floor():
    rng = np.random.default_rng(3)
    anchor, us, fs = _sample_rankr_parts(3, 4, rng, DEFAULT_TOL)
    M = np.eye(3) + np.array([[abs(np.vdot(u, f)) ** 2 for f in fs] for u in us])
    assert np.linalg.eigvalsh(M)[0] >= 1.0 - 1e-10


def test_channel_from_observables_rank_sweep():
    f = parseval_normalize(Frame(dim=2, vectors=TRIANGLE, field=REAL))
    for r in (1, 2, 3):
        res = channel_from_observables(f, r, seed=0)
        assert choi_rank(res.channel) == r
        assert validate(res.channel).is_trace_preserving
        verdict = decide(res.channel, OracleConfig(restarts=32, seed=0))
        assert verdict.status != NOT_PR
        assert res.observables.rank_one_count == 3
        _povm_checks(res.observables, 2)
    res = channel_from_observables(f, 2, seed=0)
    assert decide_rank2(res.channel).status == PR


def test_channel_from_observables_rejections():
    dep = Frame(dim=2, vectors=np.array([[1.0, 0.0], [2.0, 0.0], [0, 1.0]]), field=REAL)
    with pytest.raises(NotIndependent):
        channel_from_observables(dep, 2, seed=0)
    # The unnormalized triangle frame puts the identity in the span of the
    # first two projections.
    raw = Frame(dim=2, vectors=TRIANGLE, field=REAL)
    with pytest.raises(SpanConditionFailed):
        channel_from_observables(raw, 2, seed=0)


def _identity_in_proper_span_by_subsets(vectors, n, tol):
    """One least squares per left-out projection: the reference for the stacked QR."""
    raw = [np.outer(f, np.conj(f)).reshape(-1) for f in np.asarray(vectors, dtype=complex)]
    target = np.eye(n, dtype=complex).reshape(-1)
    for skip in range(len(raw)):
        basis = np.column_stack([raw[j] for j in range(len(raw)) if j != skip])
        coeff, *_ = np.linalg.lstsq(basis, target, rcond=None)
        if np.linalg.norm(basis @ coeff - target) <= tol.residual_abs * np.sqrt(n):
            return True
    return False


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_identity_span_test_matches_one_least_squares_per_subset(field):
    rng = np.random.default_rng(11)
    seen = set()
    for n in range(2, 6):
        top = n * (n + 1) // 2 if field == REAL else n * n
        for N in range(2, top + 1):
            V = rng.normal(size=(N, n))
            if field == COMPLEX:
                V = V + 1j * rng.normal(size=(N, n))
            if rng.random() < 0.3:  # an orthonormal basis inside: the identity lies in a proper span
                V[:n] = np.linalg.qr(V[:n].T)[0].T if N > n else V[:n]
            got = _identity_in_proper_span(V, n, DEFAULT_TOL)
            assert got == _identity_in_proper_span_by_subsets(V, n, DEFAULT_TOL), (n, N)
            seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_in_the_span_of_a_basis_is_found(field, n):
    rng = np.random.default_rng(n)
    extra = rng.normal(size=(1, n)) + (1j * rng.normal(size=(1, n)) if field == COMPLEX else 0)
    V = np.vstack([np.eye(n), extra])
    assert _identity_in_proper_span(V, n, DEFAULT_TOL)
    assert not _identity_in_proper_span(np.vstack([np.eye(n)[:-1], extra]), n, DEFAULT_TOL)


def test_orthogonal_projection_channel():
    res = orthogonal_projection_channel([1, 1])
    assert channels_equal(res.channel, fixture("dephasing"))
    assert res.claimed_status == NOT_PR
    w = res.witness
    assert np.linalg.norm(apply(res.channel, rho(w.x)) - apply(res.channel, rho(w.y))) <= 1e-12
    assert np.linalg.norm(rho(w.x) - rho(w.y)) >= 0.5
    assert decide(res.channel).status == NOT_PR

    res = orthogonal_projection_channel([2, 1])
    w = res.witness
    assert np.linalg.norm(apply(res.channel, rho(w.x)) - apply(res.channel, rho(w.y))) <= 1e-12
    assert decide(res.channel).status == NOT_PR

    with pytest.raises(BadPartition):
        orthogonal_projection_channel([3])
    with pytest.raises(BadPartition):
        orthogonal_projection_channel([2, 0])


def test_fixture_registry():
    assert validate(fixture("dephasing")).is_trace_preserving
    assert not validate(fixture("example_2_11")).is_trace_preserving
    assert validate(fixture("example_2_6")).is_trace_preserving
    assert choi_rank(fixture("identity", 3)) == 1
    with pytest.raises(UnknownFixture):
        fixture("nope")
