"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Workload smoke runs go through a subprocess because set-up re-imports the
package from scratch, which must not disturb the modules this test process
holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import prchannels  # noqa: E402
from prchannels import bilinear, cli, deciders, frames, serialize  # noqa: E402

from perfbench import checks, corpus, metrics, run, tracing  # noqa: E402

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def P():
    return checks.Package(prchannels, serialize, cli)


def _tiny_run(workload, trace):
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from perfbench import run\n"
        f"result, lines = run.run_workload({workload!r}, 3, 0.0, {trace}, reps=2, per_slice=1, min_samples=1)\n"
        "print(json.dumps({'result': result, 'lines': lines}))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV, capture_output=True,
                         text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_smoke_untraced(workload):
    out = _tiny_run(workload, 0)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == metrics.END_TO_END[name][0]
        assert math.isfinite(m["value"]) and m["value"] > 0


def test_known_defect_probe_is_reported():
    out = _tiny_run("exact", 0)
    assert any(line.startswith("# known defect zero_dim1: ") for line in out["lines"])
    assert any(line.startswith("# fail_frac = ") for line in out["lines"])


def test_known_defect_classes_are_by_class(P):
    items = corpus.exact_items(P.pc, 7) + corpus.search_witness_items(P.pc, 7)
    probe = {it.key: it.probe for it in items if it.probe is not None}
    assert set(probe.values()) <= set(corpus.KNOWN_DEFECTS)
    assert probe["edge/zero-1x1"] == "zero_dim1"
    for it in items:
        if it.scaled_from is not None and abs(it.meta["k"]) >= corpus.PROBE_EXPONENT:
            assert it.probe == "scale", it.key
        if it.key.startswith("short_frame/complex-2-"):
            assert it.probe == "long_short_frame", it.key
    assert sum(it.probe is None for it in items) > 0.75 * len(items)


def test_set_up_repeat_keeps_the_package_modules():
    before = run._package_modules()
    assert before["prchannels"] is prchannels
    setups = run.SetUpRepeats(("exact", 3, run.OUT_DIR / "cli-work", 1), 0.5, 3, 10.0)
    setups.maybe(4.0)
    assert len(setups.times) == 2
    setups.finish()
    assert len(setups.times) == 3 and all(t > 0 for t in setups.times)
    assert run._package_modules() == before


def test_smoke_traced_matches_untraced():
    out = _tiny_run("synthesis_cli", 1)
    result = out["result"]
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    for name, m in result["metrics"].items():
        assert m["unit"] == metrics.PER_LAYER[name][0]
        assert math.isfinite(m["value"])
    assert result["metrics"]["cli.calls"]["value"] > 0
    assert not any("traced output differs" in line for line in out["lines"])


def _decide_item(P, ch, allowed=None, **kw):
    return corpus.Item("probe", "probe", "decide", ch, allowed, **kw)


def _pinching(P, dims=(1, 1, 1)):
    return P.pc.orthogonal_projection_channel(list(dims)).channel


def test_checker_accepts_a_sound_certificate(P):
    ch = _pinching(P)
    item = _decide_item(P, ch, corpus.NOT_PR_ONLY)
    assert checks.Checker(P).first(item, P.pc.decide(ch)) == []


def test_checker_catches_forged_certificate(P):
    ch = _pinching(P)
    verdict = P.pc.decide(ch)
    assert verdict.status == "NOT_PR"
    rng = np.random.default_rng(0)
    cert = verdict.certificate
    cert.x = cert.x + 1e-3 * (rng.normal(size=cert.x.shape) + 1j * rng.normal(size=cert.x.shape))
    reasons = checks.Checker(P).first(_decide_item(P, ch, corpus.NOT_PR_ONLY), verdict)
    assert any("tensor residual" in r for r in reasons)


def test_checker_catches_forged_state_witness(P):
    ch = _pinching(P)
    verdict = P.pc.decide(ch)
    sw = verdict.state_witness
    sw.y = sw.x.copy()  # no separation left
    reasons = checks.Checker(P).first(_decide_item(P, ch, corpus.NOT_PR_ONLY), verdict)
    assert any("does not separate" in r for r in reasons)


def test_checker_catches_wrong_label(P):
    ch = _pinching(P)
    reasons = checks.Checker(P).first(_decide_item(P, ch, corpus.PR_OK), P.pc.decide(ch))
    assert any("construction allows PR/LIKELY_PR" in r for r in reasons)


def test_checker_catches_scale_flip(P):
    checker = checks.Checker(P)
    checker.status["original:orig"] = "LIKELY_PR"
    ch = _pinching(P)
    item = _decide_item(P, ch, scaled_from="orig", meta={"k": -5})
    reasons = checker.first(item, P.pc.decide(ch))
    assert any("scaling by 1e-5 turned LIKELY_PR into NOT_PR" in r for r in reasons)


def test_checker_catches_changed_repeat(P):
    checker = checks.Checker(P)
    ch = _pinching(P)
    item = _decide_item(P, ch)
    verdict = P.pc.decide(ch)
    assert checker.first(item, verdict) == []
    verdict.method = "SOMETHING_ELSE"
    assert checker.again(item, verdict) == ["output differs from the first call of the same input"]


def test_checker_records_exceptions(P):
    out = checks.guarded(P, corpus.Item("bad", "probe", "decide", "not a channel"))
    assert isinstance(out, checks.Raised)
    assert checks.Checker(P).first(corpus.Item("bad", "probe", "decide", None), out)[0].startswith("raised")


def test_corpus_is_a_function_of_the_seed(P):
    a = corpus.exact_items(P.pc, 11)
    b = corpus.exact_items(P.pc, 11)
    c = corpus.exact_items(P.pc, 12)
    assert [it.key for it in a] == [it.key for it in b]
    assert all(np.array_equal(x, y) for i, j in zip(a, b) for x, y in zip(i.payload.kraus, j.payload.kraus))
    assert any(not np.array_equal(i.payload.kraus[0], j.payload.kraus[0]) for i, j in zip(a, c))


def test_traced_and_untraced_verdicts_agree(P):
    items = corpus.exact_items(P.pc, 5)[::4] + corpus.search_witness_items(P.pc, 5)[:12:3]
    tracer = tracing.Tracer()
    for k, it in enumerate(items):
        plain = checks.guarded(P, it)
        tracer.install()
        try:
            traced = tracer.run_item(k + 1, checks.guarded, P, it)
        finally:
            tracer.uninstall()
        assert checks.fingerprint(it, traced) == checks.fingerprint(it, plain), it.key
    assert np.linalg.svd is tracer._patches[-4][2]  # uninstall restored numpy
    assert tracer.spans and all(tracer.names[s[tracing.NAME]] for s in tracer.spans)


def test_binding_coverage_holds_for_the_package():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.check_coverage()
        assert hasattr(deciders.minimize_symmetric_pair, "__wrapped__")
        assert hasattr(frames.minimize_symmetric_pair, "__wrapped__")
        assert hasattr(bilinear.smallest_generalized, "__wrapped__")
        assert hasattr(prchannels.decide, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(deciders.decide, "__wrapped__")


def test_binding_coverage_fails_on_a_rename(monkeypatch):
    monkeypatch.delattr(deciders, "necessary_inner_product_check")
    with pytest.raises(tracing.CoverageError, match="necessary_inner_product_check"):
        tracing.Tracer()


def test_binding_coverage_fails_on_an_unwrapped_binding():
    tracer = tracing.Tracer()
    original = frames.minimize_symmetric_pair
    tracer.install()
    try:
        frames.minimize_symmetric_pair = original
        with pytest.raises(tracing.CoverageError, match="frames.minimize_symmetric_pair"):
            tracer.check_coverage()
    finally:
        tracer.uninstall()
    assert frames.minimize_symmetric_pair is original


def test_self_time_excludes_children_and_kernels():
    names = ["bench.item", "deciders.decide", "bilinear.smallest_generalized"]
    spans = [
        [2, 10, 40, 3, 2, 1, {"svd": [2, 10, 100.0]}],
        [1, 0, 100, 2, 1, 1, None],
        [0, 0, 120, 1, 0, 1, None],
    ]
    out = tracing.layer_metrics(names, spans, items=1)
    assert out["bilinear.self_ms"] == pytest.approx(20e-6)
    assert out["deciders.self_ms"] == pytest.approx(70e-6)
    assert out["kernel.svd_calls"] == 2 and out["kernel.svd_flops_computed"] == 100.0
    assert out["bilinear.steps_per_search"] == 0.0


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == metrics.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    }
    assert max(metrics.END_TO_END.values(), key=lambda v: v[2])[2] == metrics.END_TO_END["setup_s"][2]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=ENV,
                         capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
