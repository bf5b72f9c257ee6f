"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance below is fixed, not calibrated.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from prchannels import (
    COMPLEX,
    NOT_PR,
    PR,
    REAL,
    Frame,
    NoWitness,
    OracleConfig,
    TensorWitness,
    adjoint_apply,
    apply,
    channel_from_observables,
    channels_equal,
    choi_matrix,
    choi_rank,
    complement_property,
    constrained_2x2_eigenpair,
    decide,
    decide_method,
    decide_rank2,
    fixture,
    is_phase_retrievable_frame,
    minimal_kraus_from_choi,
    minimal_pr_length,
    numerical_rank,
    orthogonal_projection_channel,
    parseval_normalize,
    random_generic_frame,
    rank2_injective_plus_rankone,
    rankr_positive_construction,
    scalar_relative_spectrum,
    simple_tensor_oracle,
    symmetric_tensor_oracle,
)
from prchannels.deciders import NECESSARY_VIOLATION, RANK2_EXACT

from helpers import rand_matrix, random_cptp, rho

REPO = Path(__file__).resolve().parents[1]
TRIANGLE = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_worked_example_reproduction():
    start = time.monotonic()
    ch = fixture("example_2_11")
    points = scalar_relative_spectrum(ch, 0)
    assert len(points) == 2
    expected = [np.array([-1.0, np.sqrt(2.0)]), np.array([1.0, 0.0])]
    for p, e in zip(points, expected):
        assert np.max(np.abs(p.lam - e)) <= 1e-8

    # The channel has Choi rank 2, so decide settles it exactly ahead of the
    # screen; the screen alone still finds the paper's violation.
    exact = decide(ch)
    verdict = decide_method(ch, "necessary")
    ok = (
        (exact.status, exact.method) == (NOT_PR, RANK2_EXACT)
        and verdict.status == NOT_PR
        and verdict.method == NECESSARY_VIOLATION
        and np.max(np.abs(verdict.certificate.lam - expected[0])) <= 1e-8
        and np.max(np.abs(verdict.certificate.mu - expected[1])) <= 1e-8
        and verdict.residuals["inner_product"] <= 1e-10
    )
    elapsed = time.monotonic() - start
    _report("criterion 1: worked-example reproduction", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_rank2_exact_oracle_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    dims = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    cfg = OracleConfig(restarts=64, seed=17)
    disagreements = 0
    for i in range(200):
        field = REAL if i % 2 == 0 else COMPLEX
        n, m = dims[i % len(dims)]
        ch = random_cptp(n, m, 2, field, rng)
        if choi_rank(ch) != 2:
            continue
        exact = decide_rank2(ch).status
        oracle = simple_tensor_oracle if field == REAL else symmetric_tensor_oracle
        outcome = oracle(ch, cfg)
        if isinstance(outcome, TensorWitness):
            agrees = exact == NOT_PR
        else:
            agrees = exact == PR and outcome.floor > 1e-6
        disagreements += 0 if agrees else 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 2: rank-2 exact/oracle agreement",
        disagreements == 0 and elapsed < 120.0,
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_3_simple_passes_symmetric_fails():
    start = time.monotonic()
    ch = fixture("example_2_6")
    cfg = OracleConfig(restarts=64, seed=0)
    simple = simple_tensor_oracle(ch, cfg)
    symmetric = symmetric_tensor_oracle(ch, cfg)
    ok = isinstance(simple, NoWitness) and simple.floor > 1e-6
    ok = ok and isinstance(symmetric, TensorWitness)
    if ok:
        sym = np.outer(symmetric.x, symmetric.y.conj()) + np.outer(symmetric.y, symmetric.x.conj())
        ok = np.linalg.norm(apply(ch, sym)) <= 1e-8
    ok = ok and decide(ch, cfg).status == NOT_PR
    elapsed = time.monotonic() - start
    _report("criterion 3: non-sufficiency of the simple-tensor test", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_4_negative_projection_constructions():
    start = time.monotonic()
    ok = True
    for dims in ([1, 1], [2, 1]):
        res = orthogonal_projection_channel(dims)
        w = res.witness
        image_gap = np.linalg.norm(apply(res.channel, rho(w.x)) - apply(res.channel, rho(w.y)))
        separation = np.linalg.norm(rho(w.x) - rho(w.y))
        ok = ok and image_gap <= 1e-12 and separation >= 0.5
        ok = ok and decide(res.channel).status == NOT_PR
    elapsed = time.monotonic() - start
    _report("criterion 4: pinching channels are certified not retrievable", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_5_positive_constructions():
    start = time.monotonic()
    cfg = OracleConfig(restarts=32, seed=1)
    ok = True
    for n in (2, 3):
        d_n, _ = minimal_pr_length(n, REAL)
        for seed in range(20):
            res = rank2_injective_plus_rankone(n, seed=seed)
            ok = ok and decide_rank2(res.channel).status == PR
            ok = ok and res.observables.rank_one_count == d_n

    res = rankr_positive_construction(2, 3, seed=0)
    verdict = decide(res.channel, cfg)
    ok = ok and choi_rank(res.channel) == 3 and verdict.status != NOT_PR
    ok = ok and res.observables.rank_one_count == minimal_pr_length(2, REAL)[0]
    res = rankr_positive_construction(3, 2, seed=0)
    ok = ok and choi_rank(res.channel) == 2 and decide_rank2(res.channel).status == PR

    parseval = parseval_normalize(Frame(dim=2, vectors=TRIANGLE, field=REAL))
    for r in (1, 2, 3):
        res = channel_from_observables(parseval, r, seed=0)
        ok = ok and choi_rank(res.channel) == r
        ok = ok and decide(res.channel, cfg).status != NOT_PR
        ok = ok and res.observables.rank_one_count == minimal_pr_length(2, REAL)[0]
    elapsed = time.monotonic() - start
    _report("criterion 5: positive constructions verify", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_6_frame_suite():
    start = time.monotonic()
    ok = True
    for n in (3, 4):
        hits = sum(
            is_phase_retrievable_frame(random_generic_frame(n, 2 * n - 1, REAL, seed=s)).phase_retrievable
            == "YES"
            for s in range(50)
        )
        ok = ok and hits == 50

    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for _ in range(25):
            f = Frame(dim=n, vectors=rng.normal(size=(2 * n - 2, n)), field=REAL)
            ok = ok and not complement_property(f)

    f = Frame(dim=2, vectors=TRIANGLE, field=COMPLEX)
    report = is_phase_retrievable_frame(f, OracleConfig(restarts=32, seed=0))
    ok = ok and report.phase_retrievable == "NO" and report.witness is not None
    if report.witness is not None:
        x, y = report.witness
        gap = np.abs(np.abs(f.vectors.conj() @ x) ** 2 - np.abs(f.vectors.conj() @ y) ** 2)
        ok = ok and np.max(gap) <= 1e-8
        ok = ok and np.linalg.norm(rho(x) - rho(y)) > 0.5
    elapsed = time.monotonic() - start
    _report("criterion 6: frame suite", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_7_structural_identities():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    ok = True

    for _ in range(20):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        r = int(rng.integers(int(np.ceil(n / m)), 4))
        ch = random_cptp(n, m, r, COMPLEX, rng)
        C = choi_matrix(ch)
        back = minimal_kraus_from_choi(C, n, m)
        ok = ok and np.linalg.norm(choi_matrix(back) - C) <= 1e-10 * (1 + np.linalg.norm(C))
        ok = ok and channels_equal(ch, back)

    ch = random_cptp(3, 2, 3, COMPLEX, rng)
    for _ in range(200):
        T = rand_matrix(rng, 3, 3, COMPLEX)
        S = rand_matrix(rng, 2, 2, COMPLEX)
        lhs = np.trace(apply(ch, T) @ S.conj().T)
        rhs = np.trace(T @ adjoint_apply(ch, S).conj().T)
        ok = ok and abs(lhs - rhs) <= 1e-10 * np.linalg.norm(T) * np.linalg.norm(S)

    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        r = int(rng.integers(int(np.ceil(n / m)), 5))
        field = REAL if rng.random() < 0.5 else COMPLEX
        ch = random_cptp(n, m, r, field, rng)
        vecs = np.array([A.reshape(-1) for A in ch.kraus])
        ok = ok and choi_rank(ch) == numerical_rank(vecs @ vecs.conj().T)

    for _ in range(1000):
        lam = (rng.normal() + 1j * rng.normal()) * 0.4
        while abs(lam) >= 0.95:
            lam = (rng.normal() + 1j * rng.normal()) * 0.4
        mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
        a2 = np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.sqrt(1 - abs(lam) ** 2)
        A = a2 * np.array([[lam, mu], [1.0, np.conj(lam) * mu]])
        l1, l2 = constrained_2x2_eigenpair(A)
        ok = ok and abs(l1 * np.conj(l2) + 1.0) <= 1e-8
    elapsed = time.monotonic() - start
    _report("criterion 7: structural identities", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_8_byte_identical_reports():
    start = time.monotonic()
    fixtures_dir = REPO / "fixtures"
    if not fixtures_dir.exists():
        subprocess.run(
            [sys.executable, "-m", "prchannels.cli", "fixtures", "--out", str(fixtures_dir)],
            check=True,
            cwd=REPO,
        )

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "prchannels.cli", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
        ).stdout

    ok = True
    for args in (
        ("check", str(fixtures_dir / "example_2_6.json"), "--output", "json", "--seed", "11"),
        ("check", str(fixtures_dir / "example_2_11.json"), "--output", "json", "--seed", "11"),
        ("spectrum", str(fixtures_dir / "example_2_11.json"), "--j", "1", "--output", "json"),
        ("frame", str(fixtures_dir / "parseval3.json"), "--output", "json", "--seed", "11"),
    ):
        first = run(*args)
        second = run(*args)
        ok = ok and first == second and json.loads(first) is not None
    elapsed = time.monotonic() - start
    _report("criterion 8: byte-identical reports per seed", ok, f"{elapsed:.1f}s")
