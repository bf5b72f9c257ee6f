"""Real-field NOT_PR verdicts carry real pairs.

A pair ``x, y`` with ``Phi(x y^*) = 0`` certifies a real channel only when
both vectors are real up to a global phase: a complex pair collides complex
states, which a real channel need not separate.  The screen keeps a real-field
violation only with such a pair, and the exact rank-2 stage takes its kernel
vectors from the real pencils when its clash root is real within the pencil
margin.  Every real-field NOT_PR of the benchmark corpora and of the frozen
verdict corpus is checked.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import prchannels
from prchannels import COMPLEX, LIKELY_PR, NOT_PR, REAL, QuantumChannel, decide, decide_method
from prchannels.deciders import COMPLEMENT_PROPERTY, NECESSARY_PASS, NECESSARY_VIOLATION, RANK2_EXACT

import test_verdict_corpus
from helpers import real_up_to_phase

ROOT = Path(__file__).resolve().parent.parent


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _rotation_pairs(field):
    """``A_i = R(theta_i) (+) beta_i R(psi_i)`` on R^4, with ``beta_4, psi_4`` chosen so
    that the relative spectra meet ``1 + <lam, mu> = 0`` only at complex witnesses."""
    theta, psi, beta = [0.0, 1.0, 2.0, 3.0], [0.5, 2.5, 4.0], [1.0, 1.0, 1.0]
    S = sum(np.exp(1j * (t - p)) for t, p in zip(theta, psi))
    beta.append(abs(S))
    psi.append(3.0 - np.angle(-S))
    zero = np.zeros((2, 2))
    ops = [np.block([[_rotation(t), zero], [zero, b * _rotation(p)]]) for t, p, b in zip(theta, psi, beta)]
    return QuantumChannel(4, 4, ops, field)


def test_the_screen_issues_no_real_verdict_from_a_complex_pair():
    # On C^4 the screen's pair is a genuine witness; on R^4 the channel is PR
    # (its Sym(4) kernel has dimension 2 and only elements of rank 4), so no
    # stage may certify NOT_PR, and the screen alone passes it.
    verdict = decide(_rotation_pairs(COMPLEX))
    assert (verdict.status, verdict.method) == (NOT_PR, NECESSARY_VIOLATION)
    assert not real_up_to_phase(verdict.certificate.x) or not real_up_to_phase(verdict.certificate.y)
    real = _rotation_pairs(REAL)
    assert decide(real).status != NOT_PR
    verdict = decide_method(real, "necessary")
    assert (verdict.status, verdict.method) == (LIKELY_PR, NECESSARY_PASS)


def _perfbench_channels():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import corpus

    for workload in ("exact", "search_exhaustive", "search_witness"):
        for seed in (1, 101, 202, 4242):
            for item in corpus.GENERATORS[workload](prchannels, seed):
                if item.op in ("decide", "decide_verify") and item.payload.field == REAL:
                    yield f"{workload}/{seed}/{item.key}", item.payload, None


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
