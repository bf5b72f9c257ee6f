"""Exact phase-retrievability decision for Choi-rank-2 channels.

A rank-2 channel fails to separate pure states exactly when some lam makes
both A1 + lam A2 and -conj(lam) A1 + A2 lose injectivity.  The singular set
of the first pencil is finite (or the whole plane, and then so is the
second's), so testing its roots on the reflected pencil is a complete
decision procedure.

Run:  python3 demos/02_exact_rank2_decision.py
"""

import numpy as np

from prchannels import (
    QuantumChannel,
    apply,
    decide_rank2,
    fixture,
    pencil_singular_set,
    verify_certificate,
)

print("== Dephasing: the classic failure ==")
deph = fixture("dephasing")
A1, A2 = deph.kraus
s = pencil_singular_set(A1, A2)
print("singular set of A1 + lam A2:", np.round(s.roots, 6))
for lam in s.roots:
    sv = np.linalg.svd(-np.conj(lam) * A1 + A2, compute_uv=False)[-1]
    print(f"  smallest singular value of -conj(lam) A1 + A2 at lam = {lam:.6f}: {sv:.2e}")
verdict = decide_rank2(deph)
print(f"verdict: {verdict.status} via {verdict.method}, clash at lam = {verdict.certificate.lam:.6f}")

sw = verdict.state_witness
print("colliding pure states:")
print("  x =", np.round(sw.x, 6))
print("  y =", np.round(sw.y, 6))
rx = apply(deph, np.outer(sw.x, sw.x.conj()))
ry = apply(deph, np.outer(sw.y, sw.y.conj()))
print("  ||Phi(rho_x) - Phi(rho_y)|| =", np.linalg.norm(rx - ry))
print("  re-verified:", verify_certificate(deph, verdict))

print("\n== A retrievable rank-2 pair: the reflected pencil is injective at every root ==")
B1 = np.diag([1 / np.sqrt(2), 1.0]).astype(complex)
B2 = np.diag([1 / np.sqrt(2), 0.0]).astype(complex)
ch = QuantumChannel(2, 2, [B1, B2], "complex")
s = pencil_singular_set(B1, B2)
print("singular set of B1 + lam B2:", np.round(s.roots, 6))
for lam in s.roots:
    sv = np.linalg.svd(-np.conj(lam) * B1 + B2, compute_uv=False)[-1]
    print(f"  smallest singular value of -conj(lam) B1 + B2 at lam = {lam:.6f}: {sv:.2e}")
print("verdict:", decide_rank2(ch).status)

print("\n== An injective part plus a rank-two part can still fail ==")
X = np.array([[0, 1], [1, 0]], dtype=complex)
swap_mix = QuantumChannel(2, 2, [np.eye(2, dtype=complex) / np.sqrt(2), X / np.sqrt(2)], "complex")
e1, e2 = np.eye(2)
print("Phi(e1 e1*) == Phi(e2 e2*):", np.allclose(apply(swap_mix, np.outer(e1, e1)), apply(swap_mix, np.outer(e2, e2))))
print("verdict:", decide_rank2(swap_mix).status)
