"""Benchmark launcher: one workload, one seed, one process, one caller (closed loop).

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Set-up imports the package from ``src/`` of this checkout, generates the
seeded corpus and warms up on fixed inputs.  It is made seven times, once
before the timed loop and six more at even points through it (all before it
with ``--trace 1``), and ``setup_s`` is the median.  The timed loop then makes whole passes over
the corpus, calling the package's public entry points once per item, until the
time is used up (and for at least two passes and 100 calls).
Every first output is checked in full and every repeat must match it
exactly; a failure is recorded with its reason and never stops the run.

Items of the classes in ``corpus.KNOWN_DEFECTS`` are not timed: after the
timed loop each of them is decided and checked once, their failures are
printed, and ``fail_frac``/``exact_frac`` are reported over the whole corpus
(each item once).  The result line's ``failed`` and ``correct`` cover the
timed calls, on which no call should fail.

Latency and throughput are reported in "cal": the duration of a fixed
numpy/Python reference kernel (``calibrate.py``) timed between the calls of
the same run, in batches every 50 ms of calls.  Each call's wall time is
divided by the mean of the batches just before and just after it, which
cancels the host's speed changes (tens of percent, within a fraction of a
second on a shared machine) but not a change in the package.  The
wall-clock figures are printed in the report lines too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` calls every item
twice per pass, untraced and traced, reports the per-layer metrics of the
traced calls and the tracing overhead, and writes the spans to
``.perfbench_out/``.  Report lines start with ``#``; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # Pinned before numpy loads: one BLAS thread keeps runs steady on a
    # small shared machine and keeps the single caller single-threaded.
    for _var in _THREAD_VARS:
        os.environ[_var] = BLAS_THREADS
    sys.path[0] = str(ROOT)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import calibrate, checks, corpus, metrics, tracing  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 7
MIN_SAMPLES = 100
MAX_FAIL_LINES = 40


class MissingPackage(RuntimeError):
    """The checkout has no package source to benchmark."""


def import_package() -> checks.Package:
    """Import prchannels afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "prchannels" / "__init__.py").is_file():
        raise MissingPackage(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "prchannels" or m.startswith("prchannels.")]:
        del sys.modules[name]
    pc = importlib.import_module("prchannels")
    if Path(pc.__file__).resolve().parent != (src / "prchannels").resolve():
        raise MissingPackage(f"prchannels was imported from {pc.__file__}, not {src}")
    return checks.Package(pc, importlib.import_module("prchannels.serialize"),
                          importlib.import_module("prchannels.cli"))


def select(items, per_slice):
    """The first ``per_slice`` items of each slice (all of them for None)."""
    if per_slice is None:
        return items
    seen = {}
    kept = []
    for it in items:
        seen[it.slice] = seen.get(it.slice, 0) + 1
        if seen[it.slice] <= per_slice:
            kept.append(it)
    return kept


def set_up(workload, seed, work, per_slice):
    """Import, generate and warm up once.

    Returns the package, the timed items, the known-defect probe items and
    the time the set-up took.
    """
    t0 = time.perf_counter()
    P = import_package()
    gen = corpus.GENERATORS[workload]
    items = gen(P.pc, seed, ROOT, work) if workload == "synthesis_cli" else gen(P.pc, seed)
    items = select(items, per_slice)
    warm_up(P)
    elapsed = time.perf_counter() - t0
    timed = [it for it in items if it.probe is None]
    probe = [it for it in items if it.probe is not None]
    return P, timed, probe, elapsed


def _package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "prchannels" or k.startswith("prchannels.")}


class SetUpRepeats:
    """Repeats the set-up at even points of the run; ``setup_s`` is the median.

    The host's speed changes from one second to the next, so set-ups made
    back to back all see the same state; spread over the run, their median is
    steadier.  A repeat's package and corpus are discarded, and the modules
    the run uses are put back into ``sys.modules``, so imports made inside the
    package at call time still resolve to them.
    """

    def __init__(self, args, first_s, reps, seconds):
        self.args = args
        self.times = [first_s]
        self.due = [seconds * k / reps for k in range(1, reps)]

    def maybe(self, elapsed):
        """Make the repeats that are due ``elapsed`` seconds into the timed loop."""
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self._repeat()

    def finish(self):
        while self.due:
            self.due.pop(0)
            self._repeat()

    def _repeat(self):
        saved = _package_modules()
        try:
            self.times.append(set_up(*self.args)[3])
        finally:
            for name in _package_modules():
                del sys.modules[name]
            sys.modules.update(saved)
            gc.collect()  # free this repeat's corpus before the next, so the peak RSS stays put

    def median(self) -> float:
        return statistics.median(self.times)


def warm_up(P):
    """Exercise every entry point once on the same fixed inputs for every seed.

    This loads LAPACK and the lazily initialised numpy paths before timing,
    at a cost that does not depend on the seed's corpus.
    """
    pc, ser = P.pc, P.serialize
    for name in ("example_2_6", "example_2_11", "dephasing"):
        ch = pc.fixture(name)
        verdict = pc.decide(ch)
        pc.verify_certificate(ch, verdict)
        ser.dumps(ser.verdict_to_json(verdict))
    frame = pc.Frame(dim=2, vectors=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), field="real")
    pc.is_phase_retrievable_frame(frame)
    pc.orthogonal_projection_channel([1, 1])
    checks.run_cli(P, ["fixtures"])


class Tally:
    """Latencies, failures and exact verdicts over the timed calls.

    The caller times the reference kernel right after each timed call
    (``cal.tick``), outside the call's own timing and before checking it.
    """

    def __init__(self):
        self.cal = calibrate.Calibrator()
        self.cal.sample()  # a batch before the first call
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.first_exact = 0  # exact verdicts among each item's first call
        self._seen: set[str] = set()
        self.failures: dict[str, list[str]] = {}
        self.slice_time: dict[str, float] = {}

    def add(self, item, out, dt, reasons, timed=True, t0=0.0):
        """Count one call; ``timed=False`` keeps a traced call out of the latencies."""
        self.attempted += 1
        self.failed += bool(reasons)
        if item.key not in self._seen:
            self._seen.add(item.key)
            self.first_exact += checks.proved(item, out)
        if timed:
            self.latencies.append(dt)
            self.spans.append((t0, t0 + dt))
            self.slice_time[item.slice] = self.slice_time.get(item.slice, 0.0) + dt
        if reasons and item.key not in self.failures:
            self.failures[item.key] = reasons


def _more_passes(done, elapsed, seconds, samples, min_samples):
    """Whether to start another whole pass: while ``seconds`` are not used up.

    At least two passes are timed, so the first, checked pass never makes up
    all of a run's samples, and at least ``min_samples`` calls.  A run takes
    from ``seconds`` to ``seconds`` plus one pass, so a workload with long
    passes does not lose most of a pass to rounding.
    """
    return done < 2 or samples < min_samples or elapsed < seconds


def measure(P, items, seconds, min_samples, setups):
    checker = checks.Checker(P)
    tally = Tally()
    p = 0
    start = time.perf_counter()
    while p == 0 or _more_passes(p, time.perf_counter() - start, seconds, len(tally.latencies), min_samples):
        for it in items:
            t0 = time.perf_counter()
            out = checks.guarded(P, it)
            dt = time.perf_counter() - t0
            tally.cal.tick(dt)
            reasons = checker.first(it, out) if p == 0 else checker.again(it, out)
            tally.add(it, out, dt, reasons, t0=t0)
            setups.maybe(time.perf_counter() - start)
        p += 1
    return tally, p


def run_probe(P, probe):
    """Decide and check each known-defect item once, untimed; returns ``(failures, proved)``."""
    checker = checks.Checker(P)
    failures, proved = {}, 0
    for it in probe:
        out = checks.guarded(P, it)
        reasons = checker.first(it, out)
        proved += checks.proved(it, out)
        if reasons:
            failures[it.key] = reasons
    return failures, proved


def measure_traced(P, items, seconds, spans_path):
    """Each item untraced then traced; per-layer numbers come from the traced calls."""
    checker = checks.Checker(P)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.check_coverage()
    finally:
        tracer.uninstall()
    tally = Tally()
    untraced_s = traced_s = 0.0
    p, call_no = 0, 0
    start = time.perf_counter()
    while p == 0 or (time.perf_counter() - start) * (p + 1) / p <= seconds:
        for it in items:
            t_plain = time.perf_counter()
            plain = checks.guarded(P, it)
            du = time.perf_counter() - t_plain
            tally.cal.tick(du)
            tracer.install()
            try:
                call_no += 1
                t0 = time.perf_counter()
                traced = tracer.run_item(call_no, checks.guarded, P, it)
                dt = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            untraced_s += du
            traced_s += dt
            if p == 0:
                reasons = checker.first(it, plain)
                if checks.fingerprint(it, traced) != checks.fingerprint(it, plain):
                    reasons = reasons + ["traced output differs from the untraced one"]
                    checker.reasons[it.key] = reasons
                traced_reasons = reasons
            else:
                reasons = checker.again(it, plain)
                traced_reasons = checker.again(it, traced)
            tally.add(it, plain, du, reasons, t0=t_plain)
            tally.add(it, traced, dt, traced_reasons, timed=False)
        p += 1
    layer = tracing.layer_metrics(tracer.names, tracer.spans, call_no)
    layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return tally, p, layer


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def machine_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def run_workload(workload, seed, seconds, trace, reps=SETUP_REPS, per_slice=None,
                 min_samples=MIN_SAMPLES):
    """Run one workload; returns ``(result, report_lines)``."""
    work = OUT_DIR / "cli-work"
    P, items, probe, first_s = set_up(workload, seed, work, per_slice)
    setups = SetUpRepeats((workload, seed, work, per_slice), first_s, reps, seconds)
    if trace:
        setups.finish()  # the tracer wraps the modules in sys.modules: no re-import while it runs
        spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        tally, passes, layer = measure_traced(P, items, seconds, spans_path)
    else:
        tally, passes = measure(P, items, seconds, min_samples, setups)
    setups.finish()
    setup_s = setups.median()
    probe_failures, probe_proved = run_probe(P, probe)
    shutil.rmtree(work, ignore_errors=True)

    lat = tally.latencies
    norm = [x / c for x, c in zip(lat, tally.cal.speed_at(tally.spans))]
    attempted = tally.attempted
    e2e = {
        "throughput_per_kcal": 1e3 * len(norm) / sum(norm),
        "latency_p50_cal": statistics.median(norm),
        "latency_p90_cal": _p90(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    corpus_items = len(items) + len(probe)
    reported = {
        "verified_frac": 1.0 - tally.failed / attempted,
        "throughput_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": _p90(lat) * 1e3,
        "cal_ms": statistics.median(tally.cal.durations) * 1e3,
        "fail_frac": (len(tally.failures) + len(probe_failures)) / corpus_items,
        "exact_frac": (tally.first_exact + probe_proved) / corpus_items,
        "probe_fail_frac": len(probe_failures) / len(probe) if probe else 0.0,
    }
    if trace:
        values = {name: layer[name] for name in metrics.PER_LAYER}
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    else:
        values = e2e
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    total = sum(tally.slice_time.values()) or 1.0
    slices = {}
    for it in items:
        s = slices.setdefault(it.slice, {"items": 0})
        s["items"] += 1
    for name, s in slices.items():
        s["share_items"] = round(s["items"] / len(items), 4)
        s["share_time"] = round(tally.slice_time.get(name, 0.0) / total, 4)
    lines = [
        f"# workload {workload} seed {seed} trace {trace}: {len(items)} items x {passes} passes, "
        f"{attempted} calls, {len(lat)} timed, closed loop, 1 caller; "
        f"{len(probe)} known-defect items decided once, untimed",
        "# machine " + json.dumps(machine_info(), sort_keys=True),
        "# slices " + json.dumps(slices, sort_keys=True),
    ]
    for name, value in {**e2e, **reported}.items():
        unit = metrics.END_TO_END[name][0] if name in metrics.END_TO_END else metrics.REPORTED_ONLY[name]
        lines.append(f"# {name} = {value:.6g} {unit}")
    if trace:
        for name, value in values.items():
            lines.append(f"# {name} = {value:.6g} {units[name]}")
    for key, reasons in list(tally.failures.items())[:MAX_FAIL_LINES]:
        lines.append(f"# FAIL {key}: {'; '.join(reasons)}")
    if len(tally.failures) > MAX_FAIL_LINES:
        lines.append(f"# FAIL ... and {len(tally.failures) - MAX_FAIL_LINES} more inputs")
    by_class = {}
    for it in probe:
        c = by_class.setdefault(it.probe, [0, 0])
        c[0] += 1
        c[1] += it.key in probe_failures
    for tag, (n, failed) in by_class.items():
        lines.append(f"# known defect {tag}: {failed} of {n} items fail ({corpus.KNOWN_DEFECTS[tag]})")
    for key, reasons in list(probe_failures.items())[:MAX_FAIL_LINES]:
        lines.append(f"# KNOWN FAIL {key}: {'; '.join(reasons)}")
    if len(probe_failures) > MAX_FAIL_LINES:
        lines.append(f"# KNOWN FAIL ... and {len(probe_failures) - MAX_FAIL_LINES} more inputs")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (MissingPackage, tracing.CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
