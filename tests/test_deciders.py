import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    NOT_FINITE,
    NOT_PR,
    PR,
    REAL,
    NoWitness,
    OracleConfig,
    QuantumChannel,
    StateWitness,
    TensorWitness,
    apply,
    decide,
    decide_rank1,
    decide_rank2,
    fixture,
    is_skew_commutative,
    kernel_basis,
    necessary_inner_product_check,
    pencil_singular_set,
    scalar_relative_spectrum,
    simple_tensor_oracle,
    symmetric_tensor_oracle,
    verify_certificate,
)
from prchannels.deciders import (
    NECESSARY_VIOLATION,
    ORACLE_NO_WITNESS,
    ORACLE_WITNESS,
    RANK1,
    RANK2_EXACT,
    _root_kernels,
)
from prchannels.errors import NotSquare, WrongField, WrongRank
from prchannels.serialize import dumps, verdict_to_json

from helpers import rand_matrix, random_cptp, random_unitary, rho

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _isometry(rng, m, n):
    q, _ = np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    return q[:, :n]


def test_decide_rank1():
    assert decide_rank1(fixture("identity", 2)).status == PR
    rng = np.random.default_rng(0)
    V = _isometry(rng, 3, 2)
    ch = QuantumChannel(2, 3, [V], COMPLEX)
    verdict = decide_rank1(ch)
    assert verdict.status == PR and verdict.method == RANK1
    with pytest.raises(WrongRank):
        decide_rank1(fixture("dephasing"))


def test_rank1_non_injective_is_not_pr():
    # [[1, 0]] maps (e1 + e2)/sqrt2 and (e1 - e2)/sqrt2 to the same 0.5.
    ch = QuantumChannel(2, 1, [[[1, 0]]])
    for verdict in (decide(ch), decide_rank1(ch)):
        assert verdict.status == NOT_PR and verdict.method == RANK1
        res = verify_certificate(ch, verdict)
        assert res["state"] <= 1e-12 and res["separation"] >= 0.05
    # Two listed copies of a singular real operator: still Choi rank 1.
    P = np.diag([1.0, 1.0, 0.0]).astype(complex)
    ch = QuantumChannel(3, 3, [P / np.sqrt(2), P / np.sqrt(2)], REAL)
    verdict = decide(ch)
    assert verdict.status == NOT_PR and verdict.method == RANK1
    assert np.all(verdict.state_witness.x.imag == 0) and np.all(verdict.state_witness.y.imag == 0)
    res = verify_certificate(ch, verdict)
    assert res["state"] <= 1e-12 and res["separation"] >= 0.05


def test_decide_rank2_dephasing():
    verdict = decide_rank2(fixture("dephasing"))
    assert verdict.status == NOT_PR and verdict.method == RANK2_EXACT
    assert abs(abs(verdict.certificate.lam) - 1.0) < 1e-8
    res = verify_certificate(fixture("dephasing"), verdict)
    assert res["tensor"] <= 1e-7
    sw = verdict.state_witness
    assert sw is not None
    assert res["state"] <= 1e-7 and res["separation"] >= 0.05
    # The derived state pair collides exactly like (1,1)/sqrt2 vs (1,-1)/sqrt2.
    assert np.allclose(apply(fixture("dephasing"), rho(sw.x)), np.eye(2) / 2, atol=1e-8)


def test_decide_rank2_pr_example():
    A1 = np.diag([1 / np.sqrt(2), 1.0]).astype(complex)
    A2 = np.diag([1 / np.sqrt(2), 0.0]).astype(complex)
    ch = QuantumChannel(2, 2, [A1, A2], COMPLEX)
    verdict = decide_rank2(ch)
    assert verdict.status == PR and verdict.method == RANK2_EXACT
    # Cross-check with the one-sided oracle.
    outcome = symmetric_tensor_oracle(ch, OracleConfig(restarts=64, seed=0))
    assert isinstance(outcome, NoWitness)
    assert outcome.floor > 1e-6


def test_decide_rank2_wrong_rank():
    with pytest.raises(WrongRank):
        decide_rank2(fixture("identity", 2))


def test_decide_rank2_reduces_longer_lists():
    # Three listed operators spanning a two-dimensional space.
    deph = fixture("dephasing")
    k0, k1 = deph.kraus
    tripled = QuantumChannel(
        2, 2, [k0 * np.sqrt(0.5), k0 * np.sqrt(0.5), k1], COMPLEX
    )
    verdict = decide_rank2(tripled)
    assert verdict.status == NOT_PR
    assert verify_certificate(tripled, verdict)["tensor"] <= 1e-7


def test_scalar_relative_spectrum_fixture():
    ch = fixture("example_2_11")
    points = scalar_relative_spectrum(ch, 0)
    lams = [tuple(np.round(p.lam, 8)) for p in points]
    assert len(points) == 2
    assert abs(points[0].lam[0] - (-1.0)) < 1e-8 and abs(points[0].lam[1] - np.sqrt(2)) < 1e-8
    assert abs(points[1].lam[0] - 1.0) < 1e-8 and abs(points[1].lam[1]) < 1e-8
    for p in points:
        stack = np.vstack([ch.kraus[i] - p.lam[k] * ch.kraus[0] for k, i in enumerate((1, 2))])
        assert np.linalg.norm(stack @ p.witness) <= 1e-8


def test_scalar_relative_spectrum_simple_tuples():
    eye = np.eye(2, dtype=complex)
    ch = QuantumChannel(2, 2, [eye / np.sqrt(2), eye / np.sqrt(2)], COMPLEX)
    points = scalar_relative_spectrum(ch, 0)
    assert len(points) == 1
    assert abs(points[0].lam[0] - 1.0) < 1e-8

    ch = QuantumChannel(2, 2, [eye / np.sqrt(2), Z / np.sqrt(2)], COMPLEX)
    points = scalar_relative_spectrum(ch, 0)
    assert sorted(p.lam[0].real for p in points) == pytest.approx([-1.0, 1.0])
    for p in points:
        target = np.array([0, 1]) if p.lam[0].real < 0 else np.array([1, 0])
        assert abs(abs(np.vdot(p.witness, target)) - 1.0) < 1e-8


def test_scalar_relative_spectrum_continuum():
    # Two copies of a singular diagonal share a kernel for every lam.
    P = np.diag([1.0, 0.0]).astype(complex)
    ch = QuantumChannel(2, 2, [P, P], COMPLEX)
    assert scalar_relative_spectrum(ch, 0) is NOT_FINITE


class _ReferenceContinuum(Exception):
    pass


def _reference_refine(Aj, coords_done, remaining, V, branches):
    """Point-by-point refinement: one kernel SVD per root."""
    if V.shape[1] == 0:
        return
    if not remaining:
        yield coords_done, V
        return
    for pos, (idx, Ai) in enumerate(remaining):
        ss = pencil_singular_set(Ai @ V, -(Aj @ V))
        if ss.is_all:
            continue
        rest = remaining[:pos] + remaining[pos + 1 :]
        for root in ss.roots:
            R = (Ai - root * Aj) @ V
            kern = kernel_basis(R)
            branches.add("kernel_fallback" if not kern else f"kernel_dim_{min(len(kern), 2)}")
            if not kern:
                kern = [np.linalg.svd(R)[2][-1].conj()]
            yield from _reference_refine(Aj, {**coords_done, idx: root}, rest, V @ np.column_stack(kern), branches)
        return
    raise _ReferenceContinuum


def _reference_spectrum(ch, j, branches):
    """Point-by-point scalar relative spectrum: one witness SVD per point."""
    ops = ch.kraus
    Aj = ops[j]
    others = [(i, ops[i]) for i in range(len(ops)) if i != j]
    points = []
    try:
        for coords, V in _reference_refine(Aj, {}, others, np.eye(ch.dim_in, dtype=complex), branches):
            lam = np.array([coords[i] for i, _ in others], dtype=complex)
            stack = np.vstack([Ai - coords[i] * Aj for i, Ai in others])
            witness = np.linalg.svd(stack)[2][-1].conj()
            scale = max(1.0, max(np.linalg.norm(Ai) for _, Ai in others))
            if np.linalg.norm(stack @ witness) > 1e-8 * scale:
                witness = V[:, 0] / np.linalg.norm(V[:, 0])
                if np.linalg.norm(stack @ witness) > 1e-8 * scale:
                    continue
            points.append((lam, witness))
    except _ReferenceContinuum:
        return NOT_FINITE
    deduped = []
    for lam, w in points:
        if not any(np.all(np.abs(lam - q) <= 1e-7) for q, _ in deduped):
            deduped.append((lam, w))
    deduped.sort(key=lambda p: tuple((z.real, z.imag) for z in p[0]))
    return deduped


def test_scalar_relative_spectrum_matches_pointwise_reference():
    rng = np.random.default_rng(31)
    channels = [fixture("example_2_11"), QuantumChannel(2, 2, [np.diag([1.0, 0.0])] * 2, COMPLEX)]
    for n in (1, 2, 3, 4):
        for field in (COMPLEX, REAL):
            # A shared kernel direction plus the identity: finite nonempty spectra.
            D = np.diag([1.0] * (n - 1) + [0.0])
            channels.append(QuantumChannel(n, n, [rand_matrix(rng, n, n, field) @ D + np.eye(n) for _ in range(3)], field))
            # Simultaneously diagonalizable with repeated eigenvalues: kernels of dimension 2.
            S = rand_matrix(rng, n, n, field)
            diag = [np.diag(rng.integers(-1, 2, size=n).astype(complex)) + (k == 0) * np.eye(n) for k in range(3)]
            channels.append(QuantumChannel(n, n, [S @ d @ np.linalg.inv(S) for d in diag], field))
    branches = set()
    for ch in channels:
        for j in range(len(ch.kraus)):
            expected = _reference_spectrum(ch, j, branches)
            got = scalar_relative_spectrum(ch, j)
            if expected is NOT_FINITE:
                assert got is NOT_FINITE
                continue
            assert len(got) == len(expected)
            for p, (lam, witness) in zip(got, expected):
                assert np.array_equal(p.lam, lam) and np.array_equal(p.witness, witness)
    assert branches >= {"kernel_fallback", "kernel_dim_1", "kernel_dim_2"}


def test_root_kernels_match_kernel_basis():
    # Bitwise, per root: the numerical kernel, or the smallest right singular
    # vector when the kernel is trivial (the off-pencil point 0.3 + 0.1j).
    rng = np.random.default_rng(32)
    for n, k in ((1, 1), (2, 1), (3, 2), (4, 4)):
        Ai, Aj = rand_matrix(rng, n, n, COMPLEX), rand_matrix(rng, n, n, COMPLEX)
        V = rand_matrix(rng, n, k, COMPLEX)
        pencil_roots = pencil_singular_set(Ai @ V, -(Aj @ V)).roots
        for roots in (pencil_roots, pencil_roots + [0.3 + 0.1j], [0.3 + 0.1j]):
            got = list(_root_kernels(Ai, Aj, V, roots, DEFAULT_TOL))
            assert len(got) == len(roots)
            for root, W in zip(roots, got):
                R = (Ai - root * Aj) @ V
                kern = kernel_basis(R) or [np.linalg.svd(R)[2][-1].conj()]
                assert np.array_equal(W, np.column_stack(kern))


def test_scalar_relative_spectrum_requires_square():
    rng = np.random.default_rng(1)
    ch = random_cptp(2, 3, 2, COMPLEX, rng)
    with pytest.raises(NotSquare):
        scalar_relative_spectrum(ch, 0)


def test_necessary_check_fixture():
    verdict = necessary_inner_product_check(fixture("example_2_11"))
    assert verdict is not None and verdict.method == NECESSARY_VIOLATION
    cert = verdict.certificate
    assert cert.j == 0
    assert np.allclose(cert.lam, [-1.0, np.sqrt(2.0)], atol=1e-8)
    assert np.allclose(cert.mu, [1.0, 0.0], atol=1e-8)
    assert verdict.residuals["inner_product"] <= 1e-10


def test_necessary_check_dephasing_and_identity():
    verdict = necessary_inner_product_check(fixture("dephasing"))
    assert verdict is not None and verdict.status == NOT_PR
    assert necessary_inner_product_check(fixture("identity", 2)) is None


def _natural_sigma_min(ch):
    K = sum(np.kron(A, A.conj()) for A in ch.kraus)
    return np.linalg.svd(K, compute_uv=False)[-1]


def test_trivial_kernel_real_is_pr_with_sigma_min_floor():
    ch = random_cptp(3, 3, 3, REAL, np.random.default_rng(4))
    verdict = decide(ch)
    assert verdict.status == PR and verdict.method == ORACLE_NO_WITNESS
    assert verdict.floor == pytest.approx(_natural_sigma_min(ch), rel=1e-10)


def test_trivial_kernel_complex_is_pr():
    # An injective natural representation proves PR on the complex field too,
    # without running the symmetric-product search.
    ch = random_cptp(3, 3, 3, COMPLEX, np.random.default_rng(1))
    verdict = decide(ch)
    assert verdict.status == PR and verdict.method == ORACLE_NO_WITNESS
    assert verdict.floor == pytest.approx(_natural_sigma_min(ch), rel=1e-10)


def test_wide_real_map_is_not_pr():
    # K is 4 x 9, so its kernel has dimension at least 5: the nullity is
    # counted among the n^2 columns, not among min(m^2, n^2) singular values.
    rng = np.random.default_rng(0)
    ch = QuantumChannel(3, 2, [rng.normal(size=(2, 3)) for _ in range(3)], REAL)
    verdict = decide(ch)
    assert verdict.status == NOT_PR
    res = verify_certificate(ch, verdict)
    assert res["tensor"] <= 1e-8
    assert res["state"] <= 1e-8 and res["separation"] >= 0.05


def test_simple_oracle_no_witness_on_projector_channel():
    ch = fixture("example_2_6")
    outcome = simple_tensor_oracle(ch, OracleConfig(restarts=64, seed=0))
    assert isinstance(outcome, NoWitness)
    assert outcome.floor > 1e-6


def test_simple_oracle_finds_pinching_witness():
    from prchannels import orthogonal_projection_channel

    ch = orthogonal_projection_channel([1, 1]).channel
    outcome = simple_tensor_oracle(ch, OracleConfig(restarts=16, seed=0))
    assert isinstance(outcome, TensorWitness)
    assert np.linalg.norm(apply(ch, np.outer(outcome.x, outcome.y.conj()))) < 1e-8


def test_symmetric_oracle_examples():
    cfg = OracleConfig(restarts=32, seed=0)
    ch = fixture("example_2_6")
    outcome = symmetric_tensor_oracle(ch, cfg)
    assert isinstance(outcome, TensorWitness)
    sym = np.outer(outcome.x, outcome.y.conj()) + np.outer(outcome.y, outcome.x.conj())
    assert np.linalg.norm(apply(ch, sym)) <= 1e-8
    assert np.linalg.norm(sym) == pytest.approx(1.0, abs=1e-8)

    assert isinstance(symmetric_tensor_oracle(fixture("identity", 2), cfg), NoWitness)

    deph = fixture("dephasing")
    outcome = symmetric_tensor_oracle(deph, cfg)
    assert isinstance(outcome, TensorWitness)

    real_ch = QuantumChannel(2, 2, [np.eye(2, dtype=complex)], REAL)
    with pytest.raises(WrongField):
        symmetric_tensor_oracle(real_ch, cfg)


def test_skew_commutative():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert is_skew_commutative([e1], [1j * e1])
    assert not is_skew_commutative([e1], [e2])

    # Images of a symmetric witness under the Kraus family are skew-commutative.
    deph = fixture("dephasing")
    outcome = symmetric_tensor_oracle(deph, OracleConfig(restarts=16, seed=2))
    assert isinstance(outcome, TensorWitness)
    us = [A @ outcome.x for A in deph.kraus]
    vs = [A @ outcome.y for A in deph.kraus]
    assert is_skew_commutative(us, vs)


def test_decide_dispatch():
    assert decide(fixture("identity", 2)).method == RANK1
    verdict = decide(fixture("dephasing"))
    assert verdict.status == NOT_PR and verdict.method == RANK2_EXACT
    assert verdict.state_witness is not None
    verdict = decide(fixture("example_2_11"))
    assert verdict.status == NOT_PR and verdict.method == NECESSARY_VIOLATION
    verdict = decide(fixture("example_2_6"), OracleConfig(restarts=32, seed=0))
    assert verdict.status == NOT_PR and verdict.method == ORACLE_WITNESS


def test_certificate_soundness_on_fixtures():
    cfg = OracleConfig(restarts=32, seed=0)
    for name in ("dephasing", "example_2_11", "example_2_6"):
        ch = fixture(name)
        verdict = decide(ch, cfg)
        assert verdict.status == NOT_PR
        res = verify_certificate(ch, verdict)
        assert res["tensor"] <= 1e-7 or res.get("state", 1) <= 1e-7
        if verdict.state_witness is not None:
            assert res["state"] <= 1e-7
            assert res["separation"] >= 0.05


def test_unitary_covariance():
    rng = np.random.default_rng(23)
    cfg = OracleConfig(restarts=24, seed=5)
    for name in ("identity", "dephasing", "example_2_11", "example_2_6"):
        ch = fixture(name) if name != "identity" else fixture("identity", 2)
        U = random_unitary(ch.dim_in, ch.field, rng)
        V = random_unitary(ch.dim_out, ch.field, rng)
        rotated = QuantumChannel(
            ch.dim_in, ch.dim_out, [V @ A @ U for A in ch.kraus], ch.field
        )
        assert decide(rotated, cfg).status == decide(ch, cfg).status


def test_necessary_never_contradicts_rank2():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        field = REAL if rng.random() < 0.5 else COMPLEX
        ch = random_cptp(n, n, 2, field, rng)
        if decide_rank2(ch).status != PR:
            continue
        verdict = necessary_inner_product_check(ch)
        assert verdict is None
        checked += 1
    assert checked > 20


def test_oracle_determinism():
    cfg = OracleConfig(restarts=16, seed=42)
    ch = fixture("example_2_6")
    v1 = symmetric_tensor_oracle(ch, cfg)
    v2 = symmetric_tensor_oracle(ch, cfg)
    assert isinstance(v1, TensorWitness) and isinstance(v2, TensorWitness)
    assert np.array_equal(v1.x, v2.x) and np.array_equal(v1.y, v2.y)
    d1 = decide(ch, cfg)
    d2 = decide(ch, cfg)
    assert dumps(verdict_to_json(d1)) == dumps(verdict_to_json(d2))


def test_zero_channel_is_not_pr():
    ch = QuantumChannel(2, 2, [np.zeros((2, 2), dtype=complex)], COMPLEX)
    verdict = decide(ch)
    assert verdict.status == NOT_PR
    # Settled by the rank 0/1 stage: no oracle runs.
    assert verdict.method == RANK1
    assert isinstance(verdict.certificate, StateWitness)


def test_zero_channel_on_one_dimensional_input_is_pr():
    # C^1 has a single pure state, so nothing can collide with it.
    ch = QuantumChannel(1, 1, [np.zeros((1, 1), dtype=complex)], COMPLEX)
    verdict = decide(ch)
    assert verdict.status == PR
    assert verdict.state_witness is None
