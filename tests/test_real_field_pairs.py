"""Real-field NOT_PR verdicts carry real pairs.

A pair ``x, y`` with ``Phi(x y^*) = 0`` certifies a real channel only when
both vectors are real up to a global phase: a complex pair collides complex
states, which a real channel need not separate.  The screen keeps a real-field
violation only with such a pair, and the exact rank-2 stage takes its kernel
vectors from the real pencils at the clash root's real part, or passes the
channel on when that pair does not re-verify.  Every real-field NOT_PR of the
benchmark corpora and of the frozen verdict corpus is checked.
"""

import numpy as np
import pytest

from prchannels import COMPLEX, DEFAULT_TOL, LIKELY_PR, NOT_PR, PR, REAL, QuantumChannel, decide, decide_method
from prchannels import decide_rank2, verify_certificate
from prchannels.deciders import COMPLEMENT_PROPERTY, HERMITIAN_KERNEL, NECESSARY_PASS, NECESSARY_VIOLATION, RANK2_EXACT
from prchannels.errors import WrongRank

import test_verdict_corpus
from helpers import perfbench_decide_items, real_up_to_phase, rotation_pairs


def test_the_screen_issues_no_real_verdict_from_a_complex_pair():
    # On C^4 the screen's pair is a genuine witness; on R^4 the channel is PR
    # (its Sym(4) kernel has dimension 2 and only elements of rank 4), so no
    # stage may certify NOT_PR, and the screen alone passes it.  The kernel's
    # cubic proves it: its rank-2 points sit at non-real roots, which also
    # keep the Macaulay step, a test over C, from proving it.
    verdict = decide(rotation_pairs(COMPLEX))
    assert (verdict.status, verdict.method) == (NOT_PR, NECESSARY_VIOLATION)
    assert not real_up_to_phase(verdict.certificate.x) or not real_up_to_phase(verdict.certificate.y)
    real = rotation_pairs(REAL)
    verdict = decide(real)
    assert (verdict.status, verdict.method, verdict.floor) == (PR, HERMITIAN_KERNEL, None)
    verdict = decide_method(real, "necessary")
    assert (verdict.status, verdict.method) == (LIKELY_PR, NECESSARY_PASS)


def test_a_non_real_rank2_clash_passes_the_real_channel_on():
    # Phi(X) = J X J^T + X with J the quarter turn: the complex pencils clash at
    # lam = i, with a complex pair that proves nothing about real states, and
    # the real pencils at Re(lam) = 0 clash nowhere.  The kernel stage decides
    # R^2 exactly: e1 and e2 collide, with a real pair.
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    ch = QuantumChannel(2, 2, [J, np.eye(2)], REAL)
    verdict = decide(ch)
    assert (verdict.status, verdict.method) == (NOT_PR, HERMITIAN_KERNEL)
    cert = verdict.certificate
    assert real_up_to_phase(cert.x) and real_up_to_phase(cert.y)
    assert np.allclose(abs(cert.x), 2**-0.75) and np.allclose(abs(cert.y), 2**-0.75)
    scale = 4.0  # sum_i ||A_i||_F^2
    res = verify_certificate(ch, verdict)
    assert res["tensor"] <= DEFAULT_TOL.residual_abs * scale and res["state"] <= 1e-7 * scale
    for exact in (lambda: decide_method(ch, "exact"), lambda: decide_rank2(ch)):
        with pytest.raises(WrongRank, match="did not settle"):
            exact()
    # On C^2 the same clash is a genuine witness.
    verdict = decide(QuantumChannel(2, 2, [J, np.eye(2)], COMPLEX))
    assert (verdict.status, verdict.method) == (NOT_PR, RANK2_EXACT)


def _perfbench_channels():
    for key, item in perfbench_decide_items(("exact", "search_exhaustive", "search_witness")):
        if item.payload.field == REAL:
            yield key, item.payload, None


def _verdict_corpus_channels():
    for key, ch in test_verdict_corpus.corpus():
        if ch.field == REAL:
            yield key, ch, test_verdict_corpus.CFG


# The methods of the pair-certified real NOT_PRs each source holds.
@pytest.mark.parametrize(
    "source,methods",
    [(_perfbench_channels, {COMPLEMENT_PROPERTY, RANK2_EXACT}), (_verdict_corpus_channels, {COMPLEMENT_PROPERTY})],
)
def test_every_real_field_not_pr_carries_a_real_pair(source, methods):
    seen = set()
    for key, ch, cfg in source():
        verdict = decide(ch, cfg)
        if verdict.status != NOT_PR or not hasattr(verdict.certificate, "x"):
            continue
        seen.add(verdict.method)
        cert = verdict.certificate
        assert real_up_to_phase(cert.x) and real_up_to_phase(cert.y), (key, verdict.method)
    assert seen == methods
