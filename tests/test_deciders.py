from itertools import product

import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    LIKELY_PR,
    NOT_FINITE,
    NOT_PR,
    PR,
    REAL,
    NoWitness,
    OracleConfig,
    QuantumChannel,
    StateWitness,
    TensorWitness,
    Frame,
    Tolerance,
    apply,
    complement_property,
    decide,
    decide_method,
    decide_rank1,
    decide_rank2,
    fixture,
    is_skew_commutative,
    kernel_basis,
    necessary_inner_product_check,
    pencil_singular_set,
    projector_channel_from_frame,
    random_generic_frame,
    scalar_relative_spectrum,
    simple_tensor_oracle,
    symmetric_tensor_oracle,
    verify_certificate,
)
from prchannels import channels, deciders
from prchannels.deciders import (
    COMPLEMENT_PROPERTY,
    HERMITIAN_KERNEL,
    NECESSARY_VIOLATION,
    ORACLE_NO_WITNESS,
    RANK1,
    RANK2_EXACT,
    _root_kernels,
)
from prchannels.errors import NotSquare, WrongField, WrongRank
from prchannels.frames import _measurement_channel
from prchannels.serialize import dumps, verdict_to_json

from helpers import (
    antisymmetric_kernel_channel,
    assert_relative_certificate,
    rand_matrix,
    random_cptp,
    random_unitary,
    reference_pencil_singular_set,
    reference_rank2_clash,
    rho,
)

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


def _rank2_pairs():
    """Two-operator families of Choi rank 2 with real entries: dephasing
    (NOT_PR), a diagonal and a random 3x3 pair (PR), and a random pair from
    C^3 to C^2 (NOT_PR)."""
    rng = np.random.default_rng(127)
    yield fixture("dephasing").kraus
    yield [np.diag([1 / np.sqrt(2), 1.0]), np.diag([1 / np.sqrt(2), 0.0])]
    yield [rng.normal(size=(3, 3)) for _ in range(2)]
    yield [rng.normal(size=(2, 3)) for _ in range(2)]


def _lengthen(pair, family, field, rng):
    """A longer list with the channel of ``pair``: mixed into 3 operators by an
    isometry, the first operator split into two 1/sqrt(2) copies, or a zero
    appended."""
    if family == "mixed":
        V = random_unitary(3, field, rng)[:, :2]
        return [V[i, 0] * pair[0] + V[i, 1] * pair[1] for i in range(3)]
    if family == "split":
        return [pair[0] * np.sqrt(0.5), pair[0] * np.sqrt(0.5), pair[1]]
    return [*pair, np.zeros_like(pair[0])]


@pytest.mark.parametrize("k", [-5, 0, 5])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("family", ["mixed", "split", "zero"])
def test_decide_rank2_reduces_longer_lists(monkeypatch, family, field, k):
    # A listed family of Choi rank 2 is reduced to two operators from its own
    # stack: the verdict is the two-operator original's, and no Choi matrix is
    # built.
    def no_choi(*args):
        raise AssertionError("the rank-2 reduction built a Choi matrix")

    for module in (channels, deciders):
        monkeypatch.setattr(module, "choi_matrix", no_choi, raising=False)
    rng = np.random.default_rng([k + 5, field == REAL])
    for pair in _rank2_pairs():
        m, n = pair[0].shape
        want = decide_rank2(QuantumChannel(n, m, pair, field)).status
        ch = QuantumChannel(n, m, _lengthen([10.0**k * np.asarray(A) for A in pair], family, field, rng), field)
        scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
        for verdict in (decide_rank2(ch), decide_method(ch, "exact")):
            assert verdict.status == want and verdict.method == RANK2_EXACT
            if verdict.status == NOT_PR:
                cert = verdict.certificate
                res = verify_certificate(ch, verdict)
                assert res["tensor"] <= 1e-8 * scale * np.linalg.norm(cert.x) * np.linalg.norm(cert.y)


@pytest.mark.parametrize("k", [-5, 0, 5])
def test_decide_rank2_scaled_example_2_11(k):
    # Scaled by 1e5, the Choi matrix of an orthogonally conjugated copy has
    # eigenvalues near -1e-6: rounding, relative to its trace near 1e10.  The
    # rank-2 reduction must not read them as an indefinite matrix.
    rng = np.random.default_rng(211)
    ex = fixture("example_2_11")
    for _ in range(5):
        U, W = random_unitary(2, REAL, rng), random_unitary(2, REAL, rng)
        ch = QuantumChannel(2, 2, [10.0**k * U @ A @ W for A in ex.kraus], ex.field)
        for verdict in (decide_rank2(ch), decide_method(ch, "exact")):
            assert verdict.status == NOT_PR and verdict.method == RANK2_EXACT
            cert = verdict.certificate
            scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
            res = verify_certificate(ch, verdict)
            assert res["tensor"] <= 1e-8 * scale * np.linalg.norm(cert.x) * np.linalg.norm(cert.y)


@pytest.mark.parametrize("k", [-5, 0, 5])
@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_rank2_pair_with_a_common_kernel_vector(field, m, k):
    # Both operators kill z, so both pencils are singular on all of C and
    # lam = 0 already clashes: NOT_PR, from the rank-2 stage, with a
    # certificate that re-verifies relative to sum_i ||A_i||_F^2.  m = 3 is
    # square, m = 4 tall.
    rng = np.random.default_rng([m, k + 5, field == REAL])
    z = rand_matrix(rng, 3, 1, field)[:, 0]
    P = np.eye(3) - np.outer(z, z.conj()) / np.vdot(z, z)
    ch = QuantumChannel(3, m, [10.0**k * rand_matrix(rng, m, 3, field) @ P for _ in range(2)], field)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (NOT_PR, RANK2_EXACT)
    cert = verdict.certificate
    assert cert.lam == 0.0
    scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
    res = verify_certificate(ch, verdict)
    assert res["tensor"] <= 1e-8 * scale * np.linalg.norm(cert.x) * np.linalg.norm(cert.y)
    sw = verdict.state_witness
    nx, ny = np.linalg.norm(sw.x) ** 2, np.linalg.norm(sw.y) ** 2
    assert res["state"] <= 1e-8 * scale * (nx + ny)
    assert res["separation"] >= 0.05 * max(nx, ny)


@pytest.mark.parametrize("k", [-5, 0, 5])
def test_state_witness_reads_relative_to_the_channel_scale(k):
    # Orthogonal conjugations of example_2_11 are NOT_PR at every scale; the
    # state pair's image residual grows with the channel, so it is read
    # relative to sum_i ||A_i||_F^2 times ||x||^2 + ||y||^2.
    ex = fixture("example_2_11")
    U = np.array([[0.6, -0.8], [0.8, 0.6]])
    W = np.array([[0.6, 0.8], [0.8, -0.6]])
    ch = QuantumChannel(2, 2, [10.0**k * U @ A @ W for A in ex.kraus], ex.field)
    scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
    for verdict in (decide(ch), decide_rank2(ch)):
        assert verdict.status == NOT_PR
        sw = verdict.state_witness
        assert sw is not None
        nx, ny = np.linalg.norm(sw.x) ** 2, np.linalg.norm(sw.y) ** 2
        res = verify_certificate(ch, verdict)
        assert res["state"] <= 1e-7 * scale * (nx + ny)
        assert res["separation"] >= 0.05 * max(nx, ny)


def _rank2_pair(case, field):
    """Two operators spanning a Choi-rank-2 family on ``field``, by name."""
    if case == "dephasing":
        return fixture("dephasing").kraus
    if case == "diagonal":
        return [np.diag([1 / np.sqrt(2), 1.0]).astype(complex), np.diag([1 / np.sqrt(2), 0.0]).astype(complex)]
    m, n = {"short": (2, 3), "square": (3, 3), "tall": (3, 2)}[case]
    rng = np.random.default_rng([m, n])
    return [rand_matrix(rng, m, n, field) for _ in range(2)]


@pytest.mark.parametrize(
    "case,status",
    [("dephasing", NOT_PR), ("short", NOT_PR), ("square", PR), ("tall", PR), ("diagonal", PR)],
)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_rank2_verdict_survives_duplication_and_mixing(field, case, status):
    # Splitting an operator into two copies scaled by 1/sqrt2, or listing
    # three operators mixed from the pair by a 3x2 isometry, leaves the
    # channel itself unchanged; the rank-2 stage must first reduce the list
    # to two operators.  "short" has dim_out < dim_in.
    A1, A2 = _rank2_pair(case, field)
    m, n = A1.shape
    rng = np.random.default_rng(len(case))
    families = [[A1, A2], [A1 / np.sqrt(2), A1 / np.sqrt(2), A2], [A1, A2 / np.sqrt(2), A2 / np.sqrt(2)]]
    for _ in range(4):
        W = random_unitary(3, field, rng)[:, :2]
        families.append([W[k, 0] * A1 + W[k, 1] * A2 for k in range(3)])
    for kraus in families:
        ch = QuantumChannel(n, m, kraus, field)
        verdict = decide_rank2(ch)
        assert verdict.status == status and verdict.method == RANK2_EXACT
        assert decide(ch).status == status
        if status == NOT_PR:
            assert verify_certificate(ch, verdict)["tensor"] <= 1e-7


def _clash_pair(m, n, lam, field, rng):
    """A pair from ``field^n`` to ``field^m`` whose pencils ``A1 + lam A2`` and
    ``-conj(lam) A1 + A2`` have the kernel vectors ``x`` and ``y``, the columns of
    a random ``X``: ``A1`` is a random matrix corrected on their span."""
    A2, R, X = rand_matrix(rng, m, n, field), rand_matrix(rng, m, n, field), rand_matrix(rng, n, 2, field)
    target = np.column_stack((-lam * A2 @ X[:, 0], A2 @ X[:, 1] / np.conj(lam)))
    return [R + (target - R @ X) @ np.linalg.pinv(X), A2]


def _rank2_reference_cases():
    """``(label, channel, clashes)`` of Choi rank 2 with ``dim_out >= dim_in``;
    ``clashes`` is True for pairs built to clash, else None."""
    for field in (REAL, COMPLEX):
        rng = np.random.default_rng([25, field == REAL])
        for k, (m, n) in product((3, 4), ((3, 3), (4, 3), (3, 2))):
            # The clash pair (lam, -1/conj(lam)) with |lam| = 10^k: both roots of one set.
            lam = 10.0**k * (1.0 if field == REAL else np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            pair = _clash_pair(m, n, lam, field, rng)
            yield f"clash-{field}-{m}x{n}-1e{k}", QuantumChannel(n, m, pair, field), True
            W = random_unitary(3, field, rng)[:, :2]
            three = [W[i, 0] * pair[0] + W[i, 1] * pair[1] for i in range(3)]
            yield f"clash-three-{field}-{m}x{n}-1e{k}", QuantumChannel(n, m, three, field), True
        for i in range(4):
            # A singular A2 drops the degree of det(A1 + lam A2): a root at infinity.
            z = rand_matrix(rng, 3, 1, field)[:, 0]
            P = np.eye(3) - np.outer(z, z.conj()) / np.vdot(z, z)
            pair = [rand_matrix(rng, 3, 3, field), rand_matrix(rng, 3, 3, field) @ P]
            yield f"singular-A2-{field}-{i}", QuantumChannel(3, 3, pair, field), None
            # Both operators kill z: both sets are all of C, and lam = 0 clashes.
            common = [rand_matrix(rng, 3, 3, field) @ P for _ in range(2)]
            yield f"common-kernel-{field}-{i}", QuantumChannel(3, 3, common, field), True
            m = 4 + i % 2
            tall = [rand_matrix(rng, m, 2, field) for _ in range(2)]
            yield f"tall-{field}-{m}x2-{i}", QuantumChannel(2, m, tall, field), None
            W = random_unitary(3, field, rng)[:, :2]
            three = [W[j, 0] * pair[0] + W[j, 1] * pair[1] for j in range(3)]
            yield f"three-{field}-{i}", QuantumChannel(3, 3, three, field), None


def test_rank2_one_set_matches_the_two_set_intersection():
    # Testing the roots of one singular set on the reflected pencil gives the
    # verdict of intersecting the two sets, and bit for bit its clash, or an
    # earlier root far from 0 whose reflection the intersection's absolute
    # root_cluster match misses, when it falls back on the partner
    # -1/conj(lam) of that root.
    seen = set()
    for label, ch, clashes in _rank2_reference_cases():
        verdict = decide_rank2(ch)
        want = reference_rank2_clash(ch)
        assert verdict.method == RANK2_EXACT, label
        if want is None:
            assert verdict.status == PR and not clashes, label
            seen.add(PR)
            continue
        assert verdict.status == NOT_PR, label
        lam, want = complex(verdict.certificate.lam), complex(want)
        if (lam.real.hex(), lam.imag.hex()) != (want.real.hex(), want.imag.hex()):
            assert (lam.real, lam.imag) < (want.real, want.imag) and abs(lam) >= 1e2, label
            assert abs(want + 1.0 / np.conj(lam)) <= 1e-6 * abs(want), label
        assert verify_certificate(ch, verdict)["tensor"] <= 1e-8 * sum(np.linalg.norm(A) ** 2 for A in ch.kraus), label
        seen.add(NOT_PR)
    assert seen == {PR, NOT_PR}


def test_rank2_stage_computes_one_singular_set(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pencil_singular_set(*args, **kwargs)

    monkeypatch.setattr(deciders, "pencil_singular_set", counted)
    for label, ch, _ in _rank2_reference_cases():
        del calls[:]
        decide_rank2(ch)
        assert len(calls) == 1, label


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
    """Point-by-point refinement: one kernel SVD per root, and every pencil
    through the point-by-point reference engine."""
    if V.shape[1] == 0:
        return
    if not remaining:
        yield coords_done, V
        return
    for pos, (idx, Ai) in enumerate(remaining):
        ss, _ = reference_pencil_singular_set(Ai @ V, -(Aj @ V))
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


def _conjugated_pinching(rng, dims, field):
    """Block projectors of sizes ``dims``, each as ``U P W`` for random unitaries U and W."""
    n = sum(dims)
    U, W = random_unitary(n, field, rng), random_unitary(n, field, rng)
    return QuantumChannel(n, n, [U @ np.diag(ind).astype(complex) @ W for ind in np.repeat(np.eye(len(dims)), dims, axis=1)], field)


def _planted_family(rng, n, lams, field):
    """``A_0`` and ``A_i = B_i + (lam_i A_0 x - B_i x) x*`` for generic ``B_i`` and a unit ``x``.

    Then ``A_i x = lam_i A_0 x``: the spectrum relative to ``A_0`` holds
    ``lams``, reached through one-column nodes past the first coordinate.
    """
    x = rand_matrix(rng, n, 1, field)
    x /= np.linalg.norm(x)
    A0 = rand_matrix(rng, n, n, field)
    kraus = [A0]
    for lam in lams:
        B = rand_matrix(rng, n, n, field)
        kraus.append(B + (lam * A0 @ x - B @ x) @ x.conj().T)
    return QuantumChannel(n, n, kraus, field)


def test_scalar_relative_spectrum_matches_pointwise_reference(monkeypatch):
    # The reference calls the point-by-point pencil engine on every
    # coordinate at every node; the engine skips the pencils whose ranks
    # already prove them singular on all of the plane, and settles one-column
    # pencils far from singular without determinants.  The calls the engine
    # makes are counted.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pencil_singular_set(*args, **kwargs)

    monkeypatch.setattr(deciders, "pencil_singular_set", counted)
    rng = np.random.default_rng(31)
    channels = [fixture("example_2_11"), QuantumChannel(2, 2, [np.diag([1.0, 0.0])] * 2, COMPLEX)]
    low_rank = []
    for n in (1, 2, 3, 4):
        for field in (COMPLEX, REAL):
            # A shared kernel direction plus the identity: finite nonempty spectra.
            D = np.diag([1.0] * (n - 1) + [0.0])
            channels.append(QuantumChannel(n, n, [rand_matrix(rng, n, n, field) @ D + np.eye(n) for _ in range(3)], field))
            # Simultaneously diagonalizable with repeated eigenvalues: kernels of dimension 2.
            S = rand_matrix(rng, n, n, field)
            diag = [np.diag(rng.integers(-1, 2, size=n).astype(complex)) + (k == 0) * np.eye(n) for k in range(3)]
            channels.append(QuantumChannel(n, n, [S @ d @ np.linalg.inv(S) for d in diag], field))
    tight = []
    for field in (COMPLEX, REAL):
        # Pinchings and rank-one frame channels: every pair of ranks sums
        # below n, so the exit settles each coordinate without a pencil.
        low_rank += [_conjugated_pinching(rng, dims, field) for dims in ((1, 1, 1), (1, 2, 1), (2, 1, 2))]
        for N in (4, 5, 6):
            V = rand_matrix(rng, N, 3, field)
            low_rank.append(QuantumChannel(3, 3, [np.outer(v, v.conj()) for v in V], field))
        # Ranks 1 + 2 = n exactly: relative to diag(1, 0, 0) the pencil of
        # diag(0, 1, 1) is singular at 0 only, and the spectrum is {(0, 0)}.
        U, W = random_unitary(3, field, rng), random_unitary(3, field, rng)
        tight.append(QuantumChannel(3, 3, [U @ np.diag(d).astype(complex) @ W for d in ([1, 0, 0], [0, 1, 1], [0, 1, 2])], field))
    planted = []
    for field in (COMPLEX, REAL):
        # Generic families: past the first coordinate every node has one
        # column, and its pencils are settled by the one-column exit.
        for n, r in ((2, 3), (3, 3), (3, 4), (4, 4)):
            channels.append(QuantumChannel(n, n, [rand_matrix(rng, n, n, field) for _ in range(r)], field))
        for lams in ((0.5, -1.5), (0.5, -1.5, 2.0)):
            planted.append((_planted_family(rng, 3, lams, field), lams))
    channels += [ch for ch, _ in planted]
    exit_only = {id(ch) for ch in low_rank}
    branches = set()
    one_column = 0
    for ch in channels + low_rank + tight:
        for j in range(len(ch.kraus)):
            expected = _reference_spectrum(ch, j, branches)
            del calls[:]
            got = scalar_relative_spectrum(ch, j)
            one_column += sum(shape[1] == 1 for shape in calls)
            if id(ch) in exit_only:
                assert calls == []
            if expected is NOT_FINITE:
                assert got is NOT_FINITE
                continue
            assert got is not NOT_FINITE and len(got) == len(expected)
            for p, (lam, witness) in zip(got, expected):
                assert np.array_equal(p.lam, lam) and np.array_equal(p.witness, witness)
    for ch in tight:
        got = scalar_relative_spectrum(ch, 0)
        assert got is not NOT_FINITE and len(got) == 1 and np.allclose(got[0].lam, 0.0, atol=1e-8)
    for ch, lams in planted:
        got = scalar_relative_spectrum(ch, 0)
        assert got is not NOT_FINITE and any(np.allclose(p.lam, lams, atol=1e-8) for p in got)
    assert one_column > 0
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


def _symmetric_sigma_min(ch):
    """Smallest singular value of the channel on Sym(n), from an explicit orthonormal basis."""
    n = ch.dim_in
    basis = []
    for a in range(n):
        for b in range(a, n):
            B = np.zeros((n, n))
            B[a, b] = B[b, a] = 1.0 if a == b else 1.0 / np.sqrt(2.0)
            basis.append(B)
    M = np.column_stack([apply(ch, B).real.reshape(-1) for B in basis])
    return np.linalg.svd(M, compute_uv=False)[-1]


def test_trivial_kernel_real_is_pr_with_sigma_min_floor():
    ch = random_cptp(3, 3, 3, REAL, np.random.default_rng(4))
    verdict = decide(ch)
    assert verdict.status == PR and verdict.method == HERMITIAN_KERNEL
    assert verdict.floor == pytest.approx(_symmetric_sigma_min(ch), rel=1e-10)


def test_trivial_kernel_complex_is_pr():
    # An injective natural representation proves PR on the complex field too,
    # without running the symmetric-product search.
    ch = random_cptp(3, 3, 3, COMPLEX, np.random.default_rng(1))
    verdict = decide(ch)
    assert verdict.status == PR and verdict.method == HERMITIAN_KERNEL
    assert verdict.floor == pytest.approx(_natural_sigma_min(ch), rel=1e-10)


def test_natural_representation_is_built_only_for_the_kernel_stage(monkeypatch):
    # Channels settled by the rank 0/1, screen or exact rank-2 stage never
    # build K; one that reaches the kernel stage builds it once.
    calls = []
    build = deciders._natural_representation
    monkeypatch.setattr(deciders, "_natural_representation", lambda *args: calls.append(1) or build(*args))
    cases = [
        (fixture("identity", 2), RANK1, 0),
        (fixture("dephasing"), RANK2_EXACT, 0),
        (fixture("example_2_11"), NECESSARY_VIOLATION, 0),
        (random_cptp(3, 3, 3, COMPLEX, np.random.default_rng(1)), HERMITIAN_KERNEL, 1),
    ]
    for ch, method, builds in cases:
        calls.clear()
        assert decide(ch).method == method
        assert len(calls) == builds


def test_real_kernel_is_counted_on_symmetric_matrices():
    # The channel kills the antisymmetric J, which no pure-state difference
    # can be; on Sym(2) its kernel is trivial, so it is PR.
    ch = antisymmetric_kernel_channel(np.random.default_rng(0))
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.linalg.norm(apply(ch, J)) <= 1e-12
    verdict = decide(ch)
    assert verdict.status == PR and verdict.method == HERMITIAN_KERNEL
    assert verdict.floor == pytest.approx(_symmetric_sigma_min(ch), rel=1e-10)


def test_kernel_stage_matches_complement_property_on_real_frames():
    # Real measurement channels of N = dim Sym(n) - 1 generic vectors have a
    # one-dimensional kernel, and the complement property decides them.
    # Every third frame has a planted subspace that breaks the property:
    # 3 of 5 vectors in a plane of R^3, or 6 of 9 in a hyperplane of R^4.
    rng = np.random.default_rng(41)
    seen = set()
    for n, N, planted in ((3, 5, 3), (4, 9, 6)):
        for trial in range(12):
            V = rng.normal(size=(N, n))
            if trial % 3 == 0:
                V[:planted, -1] = 0.0
            f = Frame(dim=n, vectors=V @ random_unitary(n, REAL, rng).real, field=REAL)
            ch = _measurement_channel(f)
            verdict = decide(ch)
            assert verdict.method == HERMITIAN_KERNEL
            assert verdict.status == (PR if complement_property(f) else NOT_PR)
            if verdict.status == NOT_PR:
                assert_relative_certificate(ch, verdict)
            seen.add((n, verdict.status))
    assert seen == {(3, PR), (3, NOT_PR), (4, PR), (4, NOT_PR)}


def test_kernel_stage_finds_every_complex_frame_of_three_in_c2_not_pr():
    # Phase retrieval in C^2 needs four vectors; three leave a kernel spanned
    # by some xx* - yy*.
    rng = np.random.default_rng(42)
    for _ in range(20):
        ch = _measurement_channel(Frame(dim=2, vectors=rand_matrix(rng, 3, 2, COMPLEX), field=COMPLEX))
        verdict = decide(ch)
        assert verdict.status == NOT_PR and verdict.method == HERMITIAN_KERNEL
        assert_relative_certificate(ch, verdict)


@pytest.mark.parametrize("k", [-5, 0, 5])
def test_kernel_stage_decides_every_kernel_dimension_in_c2(k):
    # A nonzero CP map on C^2 annihilates no definite matrix, so every nonzero
    # kernel element has at most one positive and one negative eigenvalue,
    # and the first basis element gives the witness whatever d is.  The
    # Kraus family {E11, E12, E21} kills the off-diagonal Hermitian matrices
    # (d = 2).
    E = np.eye(2)
    base = [np.outer(E[a], E[b]) for a, b in ((0, 0), (0, 1), (1, 0))]
    rng = np.random.default_rng(46)
    for trial in range(4):
        V, U = random_unitary(2, COMPLEX, rng), random_unitary(2, COMPLEX, rng)
        kraus = base if trial == 0 else [10.0**k * V @ A @ U for A in base]
        ch = QuantumChannel(2, 2, kraus, COMPLEX)
        assert deciders._ChannelRecord(ch, DEFAULT_TOL).kernel_dim == 2
        for verdict in (decide(ch), decide_method(ch, "oracle")):
            assert (verdict.status, verdict.method) == (NOT_PR, HERMITIAN_KERNEL)
            assert_relative_certificate(ch, verdict)


def test_kernel_stage_floor_is_below_the_oracle_floor():
    # The dimension-1 floor bounds ||Phi(H)|| from below over unit H = xx* - yy*;
    # the oracle's floor is the smallest value its search met, an upper bound.
    rng = np.random.default_rng(43)
    cfg = OracleConfig(restarts=8, seed=0)
    for _ in range(4):
        ch = _measurement_channel(Frame(dim=3, vectors=rand_matrix(rng, 8, 3, COMPLEX), field=COMPLEX))
        verdict = decide(ch)
        assert verdict.status == PR and verdict.method == HERMITIAN_KERNEL
        outcome = symmetric_tensor_oracle(ch, cfg)
        assert isinstance(outcome, NoWitness)
        assert 0.0 < verdict.floor <= outcome.floor


def test_kernel_stage_leaves_an_unannihilated_kernel_element_to_the_oracle():
    # Under a loose rank cutoff a weak fourth measurement is dropped from the
    # rank, leaving a numerical kernel element of signature (1, 1) that the
    # channel does not annihilate within residual_abs: it proves neither
    # NOT_PR nor PR, and the kernel stage ends in LIKELY_PR.
    rng = np.random.default_rng(44)
    base = _measurement_channel(Frame(dim=2, vectors=rand_matrix(rng, 3, 2, COMPLEX), field=COMPLEX))
    weak = 1e-3 * np.outer(np.eye(4)[3], rand_matrix(rng, 2, 1, COMPLEX).conj())
    ch = QuantumChannel(2, 4, [np.vstack([A, np.zeros((1, 2))]) for A in base.kraus] + [weak], COMPLEX)
    verdict = decide_method(ch, "oracle", OracleConfig(restarts=8), Tolerance(rank_rel=1e-4))
    assert verdict.status == LIKELY_PR


@pytest.mark.parametrize("k", [-4, -5, -6])
def test_oracle_witness_must_reverify_relative_to_the_channel_scale(monkeypatch, k):
    # A generic real frame of 2n - 1 vectors has the complement property, so
    # its projector channel is PR (kernel dimension 6), which the rank-one
    # step proves at every scale.  Without that step, the search's best pair
    # has a residual of 4.5e-6 to 8.1e-3 relative to sum_i ||A_i||_F^2:
    # neither the public oracle nor decide may accept it.
    base = projector_channel_from_frame(random_generic_frame(5, 9, REAL, seed=0))
    ch = QuantumChannel(5, base.dim_out, [10.0**k * A for A in base.kraus], REAL)
    assert isinstance(simple_tensor_oracle(ch), NoWitness)
    verdict = decide(ch)
    assert (verdict.status, verdict.method, verdict.floor) == (PR, COMPLEMENT_PROPERTY, None)
    monkeypatch.setattr(deciders, "_rank_one_verdict", lambda rec: None)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (LIKELY_PR, ORACLE_NO_WITNESS)
    # The floor, the residual of the search's best pair, is far above the
    # acceptance bound at every scale.
    assert verdict.floor > DEFAULT_TOL.residual_abs * sum(np.linalg.norm(A) ** 2 for A in ch.kraus)


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
    # The identity on C^3 scaled by 1e-5 is PR.  Its residual, 1e-10, lies far
    # above residual_abs * sum_i ||A_i||_F^2 = 3e-18: no witness, though it is
    # below residual_abs itself.
    tiny = QuantumChannel(3, 3, [1e-5 * np.eye(3)], COMPLEX)
    for oracle in (simple_tensor_oracle, symmetric_tensor_oracle):
        outcome = oracle(tiny, cfg)
        assert isinstance(outcome, NoWitness)
        assert outcome.floor == pytest.approx(1e-10, rel=1e-6)

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
    assert verdict.status == NOT_PR and verdict.method == HERMITIAN_KERNEL


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
    # C^1 has a single pure state, so nothing can collide with it, whichever
    # stage settles the channel.
    ch = QuantumChannel(1, 1, [np.zeros((1, 1), dtype=complex)], COMPLEX)
    for verdict in (decide(ch), decide_method(ch, "oracle")):
        assert verdict.status == PR
        assert verdict.state_witness is None
