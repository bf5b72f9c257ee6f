import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    REAL,
    QuantumChannel,
    adjoint_apply,
    apply,
    channels_equal,
    choi_matrix,
    choi_rank,
    fixture,
    minimal_kraus_from_choi,
    numerical_rank,
    validate,
)
from prchannels.errors import DimensionMismatch, NotPSD

from helpers import rand_matrix, random_cptp, rho

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_channel_validation():
    with pytest.raises(ValueError):
        QuantumChannel(2, 2, [], COMPLEX)
    with pytest.raises(DimensionMismatch):
        QuantumChannel(2, 3, [np.eye(2)], COMPLEX)
    with pytest.raises(ValueError):
        QuantumChannel(2, 2, [np.eye(2) * 1j], REAL)


def test_apply_identity_and_dephasing():
    ident = fixture("identity", 2)
    T = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(apply(ident, T), T)

    deph = fixture("dephasing")
    out = apply(deph, T)
    assert np.allclose(out, np.diag([1.0, 4.0]))


def test_apply_three_kraus_fixture():
    ch = fixture("example_2_11")
    out = apply(ch, rho([1.0, 0.0]))
    expected = np.array([[0.5, -1.0 / 6.0], [-1.0 / 6.0, 0.5]])
    assert np.allclose(out, expected, atol=1e-12)


def test_apply_dimension_check():
    with pytest.raises(DimensionMismatch):
        apply(fixture("identity", 2), np.eye(3))


def test_adjoint_examples():
    ident = fixture("identity", 2)
    S = rand_matrix(np.random.default_rng(0), 2, 2, COMPLEX)
    assert np.allclose(adjoint_apply(ident, S), S)

    deph = fixture("dephasing")
    # Adjoint of a trace-preserving channel is unital.
    assert np.allclose(adjoint_apply(deph, np.eye(2)), np.eye(2))
    # (X + ZXZ)/2 = 0 by hand.
    assert np.allclose(adjoint_apply(deph, X), np.zeros((2, 2)))


def test_adjoint_duality():
    rng = np.random.default_rng(21)
    ch = random_cptp(3, 2, 3, COMPLEX, rng)
    for _ in range(200):
        T = rand_matrix(rng, 3, 3, COMPLEX)
        S = rand_matrix(rng, 2, 2, COMPLEX)
        lhs = np.trace(apply(ch, T) @ S.conj().T)
        rhs = np.trace(T @ adjoint_apply(ch, S).conj().T)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(T) * np.linalg.norm(S)


def test_choi_matrix_identity():
    C = choi_matrix(fixture("identity", 2))
    expected = np.zeros((4, 4))
    for idx in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[idx] = 1.0
    assert np.allclose(C, expected)
    assert numerical_rank(C) == 1


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_choi_matrix_blocks_are_images_of_matrix_units(field):
    # The definition, against the one product F^T conj(F): block (i, j) is
    # the image of e_i e_j*, here for a map from C^3 to C^2.
    ch = random_cptp(3, 2, 4, field, np.random.default_rng(5))
    C = choi_matrix(ch)
    for i, j in np.ndindex(3, 3):
        E = np.outer(np.eye(3)[i], np.eye(3)[j])
        assert np.allclose(C[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], apply(ch, E), atol=1e-14)


def test_choi_rank_values():
    assert choi_rank(fixture("identity", 2)) == 1
    assert choi_rank(fixture("dephasing")) == 2
    # The third operator of the shipped fixture equals the difference of the
    # first two over sqrt(2), so the span is only two dimensional.
    ch = fixture("example_2_11")
    assert np.allclose(ch.kraus[2], (ch.kraus[0] - ch.kraus[1]) / np.sqrt(2.0), atol=1e-15)
    assert choi_rank(ch) == 2
    assert choi_rank(fixture("example_2_6")) == 3


def test_choi_rank_matches_gram_rank():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        r = int(rng.integers(int(np.ceil(n / m)), 5))  # r m >= n keeps TP feasible
        field = REAL if rng.random() < 0.5 else COMPLEX
        ch = random_cptp(n, m, r, field, rng)
        vecs = np.array([A.reshape(-1) for A in ch.kraus])
        gram = vecs @ vecs.conj().T
        assert choi_rank(ch) == numerical_rank(gram)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_choi_rank_matches_the_rank_of_the_choi_matrix(field):
    """The rank read from the stacked Kraus operators is the Choi matrix's own."""
    rng = np.random.default_rng([3, field == REAL])
    for _ in range(40):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        kraus = [rand_matrix(rng, m, n, field) for _ in range(r)]
        mix = rand_matrix(rng, r, r, field)
        # Independent operators, plus duplicated and linearly dependent ones.
        for ops in (kraus, kraus + kraus[:1], kraus + [sum(c * A for c, A in zip(mix[0], kraus))]):
            ch = QuantumChannel(dim_in=n, dim_out=m, kraus=ops, field=field)
            assert choi_rank(ch) == numerical_rank(choi_matrix(ch))
    zero = QuantumChannel(dim_in=2, dim_out=3, kraus=[np.zeros((3, 2)), np.zeros((3, 2))], field=field)
    assert choi_rank(zero) == numerical_rank(choi_matrix(zero)) == 0


def test_minimal_kraus_round_trip():
    rng = np.random.default_rng(7)
    for field in (REAL, COMPLEX):
        for _ in range(10):
            ch = random_cptp(3, 2, 2, field, rng)
            C = choi_matrix(ch)
            back = minimal_kraus_from_choi(C, 3, 2, field=field)
            assert len(back.kraus) == choi_rank(ch)
            assert np.linalg.norm(choi_matrix(back) - C) <= 1e-9 * (1 + np.linalg.norm(C))
            assert channels_equal(ch, back)


def test_minimal_kraus_reads_relative_to_the_trace():
    # Scaled by 1e5 the Choi matrix carries rounding near 1e-6 in its
    # eigenvalues, far above the absolute residual_abs and far below its trace.
    rng = np.random.default_rng(8)
    for field in (REAL, COMPLEX):
        for _ in range(5):
            ch = random_cptp(3, 2, 2, field, rng)
            for k in (-5, 5):
                C = choi_matrix(QuantumChannel(3, 2, [10.0**k * A for A in ch.kraus], field))
                back = minimal_kraus_from_choi(C, 3, 2, field=field)
                assert len(back.kraus) == 2
                assert np.linalg.norm(choi_matrix(back) - C) <= 1e-9 * np.linalg.norm(C)
    # A Kraus operator no phase makes real is rejected on the real field at every scale.
    A = np.array([[1.0, 1j], [0.0, 1.0]])
    for k in (-5, 0, 5):
        with pytest.raises(ValueError, match="not real enough"):
            minimal_kraus_from_choi(choi_matrix(QuantumChannel(2, 2, [10.0**k * A])), 2, 2, field=REAL)


def test_minimal_kraus_identity_choi():
    C = choi_matrix(fixture("identity", 2))
    back = minimal_kraus_from_choi(C, 2, 2)
    assert len(back.kraus) == 1
    K = back.kraus[0]
    phase = K[0, 0] / abs(K[0, 0])
    assert np.allclose(K / phase, np.eye(2), atol=1e-10)


def test_minimal_kraus_rejects_negative():
    # The PSD test reads relative to the trace, so an indefinite matrix
    # fails at every scale, a traceless one included.
    for scale in (1e-5, 1.0, 1e5):
        for diag in ([1.0, 1.0, 1.0, -0.1], [1.0, -1.0, 0.0, 0.0]):
            C = scale * np.diag(diag).astype(complex)
            with pytest.raises(NotPSD):
                minimal_kraus_from_choi(C, 2, 2)


def test_validate_fixtures():
    rep = validate(fixture("identity", 2))
    assert rep.is_trace_preserving and rep.is_unital and rep.choi_rank == 1

    rep = validate(fixture("dephasing"))
    assert rep.is_trace_preserving and rep.is_unital and rep.choi_rank == 2

    rep = validate(fixture("example_2_11"))
    assert not rep.is_trace_preserving
    assert rep.tp_residual == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-12)


def test_trace_preservation_property():
    rng = np.random.default_rng(4)
    ch = random_cptp(3, 3, 2, COMPLEX, rng)
    for _ in range(50):
        T = rand_matrix(rng, 3, 3, COMPLEX)
        assert abs(np.trace(apply(ch, T)) - np.trace(T)) <= 1e-10 * np.linalg.norm(T)


def test_channels_equal():
    ident = fixture("identity", 2)
    phased = QuantumChannel(2, 2, [np.exp(0.7j) * np.eye(2)], COMPLEX)
    assert channels_equal(ident, phased)

    deph = fixture("dephasing")
    rotated = QuantumChannel(2, 2, [(np.eye(2) + Z) / 2, (np.eye(2) - Z) / 2], COMPLEX)
    assert channels_equal(deph, rotated)
    assert not channels_equal(ident, deph)
    with pytest.raises(DimensionMismatch):
        channels_equal(ident, fixture("identity", 3))
