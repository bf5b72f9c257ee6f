"""Synthesizing retrievable channels with a minimal rank-one observable set.

A real n-dimensional space needs 2n - 1 phaseless measurements; the recipes
below build channels together with exactly that many rank-one observables
(plus one completion element so the family sums to the identity), and the
verdicts re-verify the construction claims.  A complex n-dimensional space
needs at most 4n - 4: in C^4 the channel of 12 generic rank-one observables
is proved phase retrievable by the Macaulay step of the kernel stage.

Run:  python3 demos/05_minimal_observables.py
"""

import numpy as np

from prchannels import (
    Frame,
    OracleConfig,
    apply,
    channel_from_observables,
    choi_rank,
    decide,
    decide_rank2,
    minimal_pr_length,
    orthogonal_projection_channel,
    parseval_normalize,
    projector_channel_from_frame,
    random_generic_frame,
    rank2_injective_plus_rankone,
    rankr_positive_construction,
    validate,
)

cfg = OracleConfig(restarts=32, seed=0)

print("== Injective part plus a small rank-one part (Choi rank 2) ==")
for n in (2, 3):
    res = rank2_injective_plus_rankone(n, seed=1)
    d_n, _ = minimal_pr_length(n, "real")
    print(
        f"n={n}: TP={validate(res.channel).is_trace_preserving}, "
        f"decide_rank2 -> {decide_rank2(res.channel).status}, "
        f"rank-one observables = {res.observables.rank_one_count} (minimal = {d_n})"
    )

print("\n== Positive Kraus parts: one invertible anchor, the rest rank one ==")
res = rankr_positive_construction(2, 3, seed=0)
verdict = decide(res.channel, cfg)
print(f"Choi rank {choi_rank(res.channel)}, verdict {verdict.status}, floor {verdict.floor}")

print("\n== Prescribed Choi rank from a given observable family ==")
triangle = Frame(dim=2, vectors=np.array([[1, 0], [0, 1], [1, 1]], dtype=complex), field="real")
parseval = parseval_normalize(triangle)
for r in (1, 2, 3):
    res = channel_from_observables(parseval, r, seed=0)
    print(f"requested rank {r}: got {choi_rank(res.channel)}, verdict {decide(res.channel, cfg).status}")

print("\n== A complex space: 4n - 4 generic rank-one observables in C^4 ==")
N, kind = minimal_pr_length(4)
frame = random_generic_frame(4, N, "complex", seed=0)
verdict = decide(projector_channel_from_frame(frame), cfg)
cert = verdict.certificate
print(
    f"{N} observables ({kind}): verdict {verdict.status} via {verdict.method}, "
    f"Macaulay degree {cert.degree}, sigma ratio {cert.ratio:.2e}"
)

print("\n== The negative direction: block pinchings never retrieve ==")
res = orthogonal_projection_channel([2, 1])
w = res.witness
gap = np.linalg.norm(
    apply(res.channel, np.outer(w.x, w.x.conj())) - apply(res.channel, np.outer(w.y, w.y.conj()))
)
print(f"blocks (2, 1): claimed {res.claimed_status}, exact collision gap = {gap:.1e}")
print(f"decide -> {decide(res.channel).status}")
