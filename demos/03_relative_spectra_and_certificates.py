"""Scalar relative joint spectra and the inner-product necessary condition.

For square Kraus families, every lam vector with a common kernel vector x of
the pencils A_i - lam_i A_j is a point of the spectrum relative to A_j.  If
two points lam, mu satisfy 1 + <lam, mu> = 0, the channel cannot separate
pure states, and the two kernel witnesses assemble an explicit collision.

Run:  python3 demos/03_relative_spectra_and_certificates.py
"""

import numpy as np

from prchannels import (
    apply,
    decide,
    decide_method,
    fixture,
    in_relative_spectrum,
    scalar_relative_spectrum,
    verify_certificate,
)

ch = fixture("example_2_11")
print("Kraus family (weights sqrt(1/3), sqrt(1/3), sqrt(1/6)):")
for A in ch.kraus:
    print(np.round(A.real, 4))

print("\n== Spectrum relative to the first operator ==")
points = scalar_relative_spectrum(ch, 0)
for p in points:
    print(f"lam = {np.round(p.lam.real, 6)}, witness = {np.round(p.witness, 6)}")

print("\n== Membership re-check through the tuple interface ==")
a1, a2, a3 = ch.kraus
for lam in ([[1.0, 0.0]], [[-1.0, np.sqrt(2.0)]]):
    ok, w = in_relative_spectrum([a2, a3], [a1], np.array(lam))
    print(f"Lambda = {lam}: member = {ok}")

print("\n== The inner products flag the violation ==")
for p in points:
    for q in points:
        val = 1.0 + np.sum(p.lam * np.conj(q.lam))
        tag = "  <-- violation" if abs(val) < 1e-8 else ""
        print(f"1 + <{np.round(p.lam.real, 4)}, {np.round(q.lam.real, 4)}> = {val:.3e}{tag}")

print("\n== The screen's own verdict, with a machine-checkable certificate ==")
# The family has Choi rank 2, so decide settles it exactly ahead of the screen;
# the "necessary" method runs the screen alone.
print("decide:", decide(ch).method)
verdict = decide_method(ch, "necessary")
print(f"status: {verdict.status}, method: {verdict.method}")
print("residuals:", {k: f"{v:.2e}" for k, v in verify_certificate(ch, verdict).items()})
sw = verdict.state_witness
rx = apply(ch, np.outer(sw.x, sw.x.conj()))
ry = apply(ch, np.outer(sw.y, sw.y.conj()))
print("state collision: ||Phi(rho_x) - Phi(rho_y)|| =", np.linalg.norm(rx - ry))
print("with rho_x != rho_y: ||rho_x - rho_y|| =", np.linalg.norm(np.outer(sw.x, sw.x.conj()) - np.outer(sw.y, sw.y.conj())))
