"""Frozen verdict corpus: status, method and floor of ``decide`` on fixed inputs.

The channels are rebuilt here from fixed seeds; their golden verdicts live in
``data/verdict_corpus.json``.  A refactor or optimization of the deciders
must keep every status and method, and every floor to a relative 1e-8.  An
intended change of a verdict is made by regenerating the file with

    PYTHONPATH=src python tests/test_verdict_corpus.py --write

and listing the changed items where the change is described.
"""

import json
import sys
from pathlib import Path

import numpy as np

from prchannels import (
    COMPLEX,
    PR,
    REAL,
    NoWitness,
    OracleConfig,
    QuantumChannel,
    decide,
    fixture,
    simple_tensor_oracle,
    symmetric_tensor_oracle,
)
from prchannels.constructors import orthogonal_projection_channel, projector_channel_from_frame
from prchannels.frames import Frame, _measurement_channel

from helpers import antisymmetric_kernel_channel, rand_matrix, random_cptp, random_unitary

GOLDEN = Path(__file__).resolve().parent / "data" / "verdict_corpus.json"
# Reduced search budget: enough restarts for the witnesses of the short
# frames and pinchings, few enough that the whole corpus runs in seconds.
CFG = OracleConfig(restarts=16, seed=3)
FLOOR_RTOL = 1e-8


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([0xC0C, tag]))


def _conjugated(ch: QuantumChannel, rng, field=None) -> QuantumChannel:
    U = random_unitary(ch.dim_out, field or ch.field, rng)
    W = random_unitary(ch.dim_in, field or ch.field, rng)
    return QuantumChannel(ch.dim_in, ch.dim_out, [U @ A @ W for A in ch.kraus], ch.field)


def _mixed(ch: QuantumChannel, rng) -> QuantumChannel:
    """The family mixed into r + 1 operators by an isometry."""
    r = len(ch.kraus)
    W = random_unitary(r + 1, ch.field, rng)[:, :r]
    return QuantumChannel(ch.dim_in, ch.dim_out, list(np.tensordot(W, np.array(ch.kraus), 1)), ch.field)


def _frame_channel(n: int, N: int, field: str, rng) -> QuantumChannel:
    V = rand_matrix(rng, N, n, field)
    return projector_channel_from_frame(Frame(dim=n, vectors=V, field=field))


def corpus():
    """``(key, channel)`` for every corpus item, in a fixed order."""
    items = []
    rng = _rng(1)
    # Complex channels with a trivial Hermitian kernel: PR from the kernel stage.
    for instance in range(2):
        for n in (3, 4, 5, 6):
            for r, m in ((3, n), (4, n + 2)):
                key = f"trivial_kernel/complex-{n}x{m}-r{r}#{instance}"
                items.append((key, random_cptp(n, m, r, COMPLEX, rng)))
    # Frame channels whose kernel is wide, so the witness search runs to the end.
    rng = _rng(2)
    for n, N in ((3, 7), (3, 8), (4, 12), (4, 13)):
        items.append((f"wide_kernel/complex-{n}-N{N}", _frame_channel(n, N, COMPLEX, rng)))
    for n in (3, 4, 5):
        for instance in range(2):
            items.append((f"wide_kernel/real-{n}-N{2 * n - 1}#{instance}", _frame_channel(n, 2 * n - 1, REAL, rng)))
    # Pinchings with three or more blocks: the rank split settles them.
    rng = _rng(3)
    for field in (COMPLEX, REAL):
        for dims in ((1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 1, 1, 1), (2, 1, 2)):
            ch = orthogonal_projection_channel(dims).channel
            ch = QuantumChannel(ch.dim_in, ch.dim_out, ch.kraus, field)
            items.append((f"pinch/{field}-{dims}", _conjugated(ch, rng)))
    # Short frames, too short for phase retrieval.
    rng = _rng(4)
    for n, lengths in ((3, (3, 4)), (4, (4, 5)), (5, (5, 6))):
        for N in lengths:
            items.append((f"short_frame/real-{n}-N{N}", _frame_channel(n, N, REAL, rng)))
    for n, lengths in ((3, (4, 5)), (4, (5, 6, 8))):
        for N in lengths:
            items.append((f"short_frame/complex-{n}-N{N}", _frame_channel(n, N, COMPLEX, rng)))
    ex = fixture("example_2_6")
    items.append(("example_2_6", ex))
    items.append(("example_2_6/unitary", _conjugated(ex, _rng(5))))
    # Inputs settled before the minimizers: rank 1, exact rank 2 (example 2.11
    # too, ahead of the screen), trivial real kernels and the zero map.
    rng = _rng(6)
    items.append(("rank1/complex-2x3", QuantumChannel(2, 3, [rand_matrix(rng, 3, 2, COMPLEX)], COMPLEX)))
    items.append(("rank2/complex-3x3", random_cptp(3, 3, 2, COMPLEX, rng)))
    items.append(("rank2/real-3x4", random_cptp(3, 4, 2, REAL, rng)))
    items.append(("dephasing", fixture("dephasing")))
    items.append(("example_2_11", fixture("example_2_11")))
    items.append(("example_2_11/unitary", _conjugated(fixture("example_2_11"), rng)))
    for n, r in ((3, 3), (4, 4), (6, 3)):
        items.append((f"trivial_kernel/real-{n}-r{r}", random_cptp(n, n, r, REAL, rng)))
    items.append(("zero/2x2", QuantumChannel(2, 2, [np.zeros((2, 2), dtype=complex)], COMPLEX)))
    # Kernels counted on Sym(n) and Herm(n): trivial on Sym(2) though the map
    # kills an antisymmetric matrix, one-dimensional, and trivial at two scales.
    items.append(("antisymmetric_kernel/real-2x3", antisymmetric_kernel_channel(_rng(7))))
    items.append(("short_frame/complex-2-N3", _frame_channel(2, 3, COMPLEX, _rng(8))))
    tomographic = _measurement_channel(Frame(dim=2, vectors=[[1, 0], [0, 1], [1, 1], [1, 1j]], field=COMPLEX))
    items.append(("tomographic_frame", tomographic))
    items.append(("tomographic_frame*1e-5", QuantumChannel(2, 4, [1e-5 * A for A in tomographic.kraus], COMPLEX)))
    # A short frame in C^3 (kernel dimension 3) on which the bilinear search's
    # 16 restarts find no witness, and its copy scaled by 1e-3.
    short = _frame_channel(3, 6, COMPLEX, _rng(9))
    items.append(("short_frame/complex-3-N6", short))
    scaled = QuantumChannel(3, short.dim_out, [1e-3 * A for A in short.kraus], COMPLEX)
    items.append(("short_frame/complex-3-N6*1e-3", scaled))
    # Once NotPSD behind the screen: example_2_11 conjugated by orthogonal
    # matrices and scaled by 1e5.
    orthogonal = _conjugated(fixture("example_2_11"), _rng(10), REAL)
    items.append(("scale/example_2_11/orthogonal*1e5", QuantumChannel(2, 2, [1e5 * A for A in orthogonal.kraus])))
    # The rank-one step reads the kernel alone, so Kraus mixing keeps its proof.
    real59 = dict(items)["wide_kernel/real-5-N9#0"]
    items.append(("wide_kernel/real-5-N9#0/mixed", _mixed(real59, _rng(11))))
    return items


def record(ch: QuantumChannel) -> dict:
    v = decide(ch, CFG)
    return {"status": v.status, "method": v.method, "floor": v.floor}


def same_verdict(got: dict, want: dict) -> bool:
    """Equal status and method, and floors equal to ``FLOOR_RTOL`` relative."""
    same_floor = (got["floor"] is None) == (want["floor"] is None) and (
        got["floor"] is None or abs(got["floor"] - want["floor"]) <= FLOOR_RTOL * abs(want["floor"])
    )
    return (got["status"], got["method"]) == (want["status"], want["method"]) and same_floor


def test_verdict_corpus_unchanged():
    golden = json.loads(GOLDEN.read_text())
    items = corpus()
    assert [key for key, _ in items] == list(golden)
    mismatches = []
    for key, ch in items:
        got, want = record(ch), golden[key]
        if not same_verdict(got, want):
            mismatches.append(f"{key}: got {got}, want {want}")
    assert not mismatches, "\n".join(mismatches)


# The items a floor-giving kernel proof turned from the oracle's LIKELY_PR
# into PR.  At n = 4 the Macaulay and rank-one steps prove them, with no
# floor; at n = 3 their kernels have dimension 1, and the kernel stage's
# eigenvalue test of the spanning matrix proves them with a floor.
SPHERE_PROVED = (
    "wide_kernel/complex-3-N8",
    "wide_kernel/complex-4-N13",
    "wide_kernel/real-3-N5#0",
    "wide_kernel/real-3-N5#1",
    "wide_kernel/real-4-N7#0",
    "wide_kernel/real-4-N7#1",
)


def test_sphere_floors_are_below_the_oracle_floors():
    # A proved floor bounds ||Phi(H)|| from below over unit H = xx* - yy*; the
    # oracle's floor is the smallest residual its search met, so the proof
    # may not claim more than the floor it replaces.  A proof without a
    # floor claims no bound.
    proved = 0
    for key, ch in corpus():
        if key not in SPHERE_PROVED:
            continue
        verdict = decide(ch, CFG)
        if verdict.status == PR and verdict.floor is None:
            continue
        proved += 1
        oracle = simple_tensor_oracle if ch.field == REAL else symmetric_tensor_oracle
        outcome = oracle(ch, CFG)
        assert isinstance(outcome, NoWitness)
        assert verdict.status == PR and 0.0 < verdict.floor <= outcome.floor, key
    assert proved == 3


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_verdict_corpus.py --write")
    # A stored entry the test accepts is kept as it is, so rounding noise in
    # the floors does not show up as a change.
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    out = {}
    for key, ch in corpus():
        got = record(ch)
        out[key] = stored[key] if key in stored and same_verdict(got, stored[key]) else got
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
