"""What the witness paths compute: the Kraus ranks' cut bounds the rank of M,
the rank split settles pinchings and short frames without the SVD of M, the
kernel stage alone settles them and their Kraus-mixed copies too, ``decide``
never runs the bilinear search, a certificate costs one channel image, read
off the Kraus images ``A_i x`` in agreement with ``channels.apply``, and the
one-image state witness agrees with the two-image reference."""

import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    NOT_PR,
    REAL,
    OracleConfig,
    QuantumChannel,
    apply,
    decide,
    decide_method,
    random_generic_frame,
    verify_certificate,
)
from prchannels import channels, deciders
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import COMPLEMENT_PROPERTY, HERMITIAN_KERNEL, NECESSARY_VIOLATION, ORACLE_WITNESS
from prchannels.deciders import SYMMETRIC, _ChannelRecord, _rank_split_stage, _separation_sq, _state_image
from prchannels.deciders import _tensor_image, _to_state_witness

from helpers import pinching, rand_matrix, random_unitary, reference_to_state_witness
from test_verdict_corpus import corpus


def _with_singular_values(sv, m, n, field, rng):
    """An ``m x n`` operator with singular values ``sv`` and random singular vectors."""
    k = len(sv)
    return (random_unitary(m, field, rng)[:, :k] * sv) @ random_unitary(n, field, rng)[:, :k].conj().T


def _families(n, m, field, rng):
    """Named Kraus families: generic, rank-deficient, with a zero operator, an
    operator listed twice or split into two 1/sqrt2 copies, unitarily mixed,
    and with a singular value at 0.1, 1 and 10 times ``numerical_rank``'s cut."""
    k = min(n, m)
    deficient = [_with_singular_values(np.linspace(2.0, 1.0, max(k - 1, 1)), m, n, field, rng) for _ in range(2)]
    mix = random_unitary(3, field, rng)
    family = deficient + [rand_matrix(rng, m, n, field)]
    yield "generic", [rand_matrix(rng, m, n, field) for _ in range(3)]
    yield "rank-deficient", deficient
    yield "zero operator", deficient + [np.zeros((m, n))]
    yield "listed twice", deficient + deficient[:1]
    yield "split", [deficient[0] / np.sqrt(2.0), deficient[0] / np.sqrt(2.0), deficient[1]]
    yield "mixed", [sum(mix[i, j] * family[j] for j in range(3)) for i in range(3)]
    for t in (0.1, 1.0, 10.0):
        sv = np.linspace(2.0, 1.0, k)
        sv[-1] = t * DEFAULT_TOL.rank_rel * sv[0]
        edge = _with_singular_values(sv, m, n, field, rng)
        yield f"singular value at {t}x the cut, alone", [edge]
        yield f"singular value at {t}x the cut, with a smaller operator", [edge, 1e-3 * deficient[1]]
        yield f"singular value at {t}x the cut, among others", [edge, _with_singular_values(sv, m, n, field, rng)]


def _kernel_floor(rec):
    """``dim Herm(n) - sum_i k_i^2`` (``dim Sym(n) - sum_i k_i (k_i + 1) / 2`` on the
    real field) for the Kraus ranks ``k_i`` of ``rec.kraus_ranks``: the kernel
    dimension that their cut guarantees."""
    n, k = rec.ch.dim_in, rec.kraus_ranks
    return (n * n + n - int(k @ k + k.sum())) // 2 if rec.ch.field == REAL else n * n - int(k @ k)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (3, 5), (4, 2), (2, 3)])
def test_kernel_floor_never_exceeds_the_kernel_dimension(field, n, m):
    for trial in range(4):
        rng = np.random.default_rng([n, m, trial, field == REAL])
        for label, kraus in _families(n, m, field, rng):
            for scale in (1e-5, 1.0, 1e5):
                ops = [scale * np.asarray(A) for A in kraus]
                if field == REAL:
                    ops = [A.real for A in ops]
                rec = _ChannelRecord(QuantumChannel(n, m, ops, field), DEFAULT_TOL)
                assert _kernel_floor(rec) <= rec.kernel_dim, (label, scale, trial)


def test_kernel_floor_counts_exact_ranks():
    # Rank-one operators and a zero one: dim Herm(3) - 2 and dim Sym(3) - 2.
    ops = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.zeros((3, 3))]
    assert _kernel_floor(_ChannelRecord(QuantumChannel(3, 3, ops, COMPLEX), DEFAULT_TOL)) == 9 - 2
    assert _kernel_floor(_ChannelRecord(QuantumChannel(3, 3, ops, REAL), DEFAULT_TOL)) == 6 - 2
    zero = _ChannelRecord(QuantumChannel(2, 2, [np.zeros((2, 2))], COMPLEX), DEFAULT_TOL)
    assert list(zero.kraus_ranks) == [0] and _kernel_floor(zero) == zero.kernel_dim == 4


def _witness_channels():
    for field in (REAL, COMPLEX):
        for dims in ((1, 1, 1), (2, 2, 2), (1, 3, 1)):
            yield f"pinching {dims} {field}", pinching(dims, field)
        n, N = (4, 5) if field == REAL else (4, 6)
        for seed in range(3):
            yield f"short frame {n}-{N} {field} #{seed}", projector_channel_from_frame(random_generic_frame(n, N, field, seed))


def _m_shape(ch):
    n, m = ch.dim_in, ch.dim_out
    return (m * m, n * (n + 1) // 2) if ch.field == REAL else (2 * m * m, n * n)


def _mixed(ch, seed):
    """The Kraus family mixed by a seeded unitary: the same channel, every operator of full rank."""
    W = random_unitary(len(ch.kraus), ch.field, np.random.default_rng(seed))
    return QuantumChannel(ch.dim_in, ch.dim_out, list(np.tensordot(W, np.array(ch.kraus), 1)), ch.field)


@pytest.mark.parametrize("label,ch", list(_witness_channels()))
def test_restart_zero_witness_skips_the_svd_of_m(monkeypatch, label, ch):
    # decide settles the channel by the rank split, without the SVD of M.  The
    # kernel stage alone, which builds M, settles it too: on the real field by
    # the rank-one points read off operators of rank at most 1, on C^3 by the
    # first spanning matrix once the kernel cubic vanishes, and otherwise by
    # the witness search.
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (NOT_PR, COMPLEMENT_PROPERTY)
    assert _m_shape(ch) not in shapes
    verdict = decide_method(ch, "oracle")
    rec = _ChannelRecord(ch, DEFAULT_TOL)
    if ch.field == REAL and rec.kraus_ranks.max() <= 1:
        want = COMPLEMENT_PROPERTY
    else:
        want = HERMITIAN_KERNEL if ch.dim_in == 3 else ORACLE_WITNESS
    assert (verdict.status, verdict.method) == (NOT_PR, want)
    assert verify_certificate(ch, verdict)["tensor"] <= DEFAULT_TOL.residual_abs * rec.choi_trace


@pytest.mark.parametrize("label,ch", list(_witness_channels()))
def test_kraus_mixed_copies_are_settled_by_restart_zero(label, ch):
    # Mixing leaves every operator of full rank, so no rank split exists; the
    # kernel is unchanged.  The screen settles the mixed pinchings first; on
    # the real field the rank-one points of the kernel's complement settle
    # the short frames, and on the complex field the witness search does.
    mixed = _mixed(ch, 7)
    rec = _ChannelRecord(mixed, DEFAULT_TOL)
    assert np.all(rec.kraus_ranks == ch.dim_in) and _rank_split_stage(rec) is None
    verdict = decide(mixed)
    if label.startswith("pinching"):
        want = NECESSARY_VIOLATION
    else:
        want = COMPLEMENT_PROPERTY if ch.field == REAL else ORACLE_WITNESS
    assert (verdict.status, verdict.method) == (NOT_PR, want)
    assert verify_certificate(mixed, verdict)["tensor"] <= DEFAULT_TOL.residual_abs * rec.choi_trace


def _guard_channels():
    yield from corpus()
    for seed in range(6):
        yield f"complex-3-N5#{seed}", projector_channel_from_frame(random_generic_frame(3, 5, COMPLEX, seed))


@pytest.mark.parametrize("label,ch", list(_guard_channels()))
def test_decide_never_runs_the_bilinear_search(monkeypatch, label, ch):
    # The kernel stage runs one witness search, on the kernel itself; the
    # bilinear engines serve only the public one-sided oracles.
    def refuse(*args, **kwargs):
        raise AssertionError("the bilinear search ran")

    monkeypatch.setattr(deciders, "minimize_simple_pair", refuse)
    monkeypatch.setattr(deciders, "minimize_symmetric_pair", refuse)
    cfg = OracleConfig(restarts=16, seed=3)
    decide(ch, cfg)
    decide_method(ch, "oracle", cfg)


@pytest.mark.parametrize("label,ch", list(_witness_channels()))
def test_one_channel_image_per_certificate(monkeypatch, label, ch):
    # Every image of the deciders is read off the Kraus images A_i x: one
    # tensor image Phi(x y*) or one state image Phi(xx* - yy*) per call.  The
    # stacked image helper of channels.apply is never reached.
    images = []
    for name in ("_tensor_image", "_state_image"):
        helper = getattr(deciders, name)
        monkeypatch.setattr(deciders, name, lambda *args, _h=helper, _n=name: images.append(_n) or _h(*args))
    monkeypatch.setattr(channels, "_image", lambda *args: images.append("_image"))
    scale = sum(np.linalg.norm(A) ** 2 for A in ch.kraus)
    for run in (lambda: _rank_split_stage(_ChannelRecord(ch, DEFAULT_TOL)), lambda: decide_method(ch, "oracle")):
        images.clear()
        verdict = run()
        assert verdict is not None and verdict.state_witness is not None
        assert images == ["_tensor_image"]
        images.clear()
        res = verify_certificate(ch, verdict)
        assert images == ["_tensor_image", "_state_image"]
        assert res["tensor"] <= DEFAULT_TOL.residual_abs * scale and res["state"] <= 1e-7 * scale


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_kraus_images_match_the_channel_images_of_outer_products(field):
    # P = Phi(x y*) is read as (A x)^T conj(A y), and Phi(xx* - yy*) likewise:
    # both agree with channels.apply of the outer products at 1e-12 relative
    # to sum_i ||A_i||_F^2 |x| |y|, their natural bound, at every scale.
    rng = np.random.default_rng([30, field == REAL])
    checked = 0
    for n, m in ((2, 2), (3, 2), (2, 4), (4, 3)):
        for r in range(1, 5):
            base = [rand_matrix(rng, m, n, field) for _ in range(r)]
            for k in (-5, 0, 5):
                ch = QuantumChannel(n, m, [10.0**k * A for A in base], field)
                rec = _ChannelRecord(ch, DEFAULT_TOL)
                x, y = (rand_matrix(rng, 1, n, field)[0] for _ in range(2))
                bound = 1e-12 * rec.choi_trace * np.linalg.norm(x) * np.linalg.norm(y)
                ref = apply(ch, np.outer(x, y.conj()))
                res, P = _tensor_image(rec, x, y)
                assert np.linalg.norm(P - ref) <= bound and abs(res - np.linalg.norm(ref)) <= bound
                res = _tensor_image(rec, x, y, SYMMETRIC)[0]
                assert abs(res - np.linalg.norm(ref + ref.conj().T)) <= 2 * bound
                state = apply(ch, np.outer(x, x.conj()) - np.outer(y, y.conj()))
                bound = 1e-12 * rec.choi_trace * (x.conj() @ x + y.conj() @ y).real
                assert np.linalg.norm(_state_image(rec, x, y) - state) <= bound
                # ||uu* - vv*||_F from scalars, for a generic pair and a near-parallel one.
                for u, v in ((x, y), (x, (1 + 1e-3) * x + 1e-3 * y)):
                    outer = np.linalg.norm(np.outer(u, u.conj()) - np.outer(v, v.conj())) ** 2
                    scale = (u.conj() @ u + v.conj() @ v).real ** 2
                    assert abs(_separation_sq(u, v) - outer) <= 1e-12 * scale
                checked += 1
    assert checked == 48


def _pairs(ch, rng):
    """Seeded pairs: generic (rejected), annihilated cross-block tensors and
    (anti)parallel pairs on a killed ray (accepted), cross-block tensors tilted
    across the image threshold, nearly equal states, states whose separation
    ``2 sqrt2 t / (1 + t^2)`` straddles 0.05 and a zero pair."""
    n = ch.dim_in
    e = np.eye(n, dtype=complex)
    for _ in range(4):
        x, y = rand_matrix(rng, 2, n, COMPLEX)
        yield x, y
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if ch.field == COMPLEX else -1.0
        yield rng.uniform(0.5, 2) * e[0], phase * rng.uniform(0.5, 2) * e[-1]
        yield e[0], (1e-3 + 1e-12 * rng.normal()) * e[-1]
        for alpha in (1.0, -1.0, -0.5, 3.0):
            yield e[1], alpha * e[1] + 1e-12 * rng.normal() * e[0]
    for delta in np.geomspace(1e-9, 1e-6, 7):
        yield e[0], e[-1] + delta * e[0]
    for t in np.geomspace(0.01, 0.03, 9):
        yield e[0], t * e[-1]
    yield np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_one_image_state_witness_matches_the_two_image_reference(field):
    rng = np.random.default_rng([20, field == REAL])
    # Pinching (1,1,1) kills e0 e2*; the 3-input map onto span{e0, e2} also kills e1.
    killer = QuantumChannel(3, 2, [np.array([[1.0, 0, 0], [0, 0, 1.0]])], field)
    decided = rejected = 0
    for ch in (pinching((1, 1, 1), field), killer, projector_channel_from_frame(random_generic_frame(3, 4, field, 1))):
        for x, y in _pairs(ch, rng):
            ref = reference_to_state_witness(ch, x, y)
            rejected += ref is None
            new = _to_state_witness(_ChannelRecord(ch, DEFAULT_TOL), x, y, apply(ch, np.outer(x, y.conj())))
            assert (new is None) == (ref is None)
            if ref is not None:
                decided += 1
                assert np.array_equal(new.x, ref.x) and np.array_equal(new.y, ref.y)
    assert decided >= 10 and rejected >= 10
