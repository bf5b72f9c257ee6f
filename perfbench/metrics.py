"""Names, units and intent of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; ``test_perfbench.py`` keeps the two in step.  The third field of
each ``PER_LAYER`` entry records the end-to-end metric that layer metric is
expected to move and the workload it moves it on, so that a change claiming a
gain can name both before it is measured.
"""

from __future__ import annotations

WORKLOADS = {
    "exact": (
        "decide on channels settled without the minimizer (rank 1, exact rank 2, "
        "trivial real kernel, screen violations, edge shapes); bypass workload for "
        "every oracle change"
    ),
    "search_exhaustive": (
        "decide where no witness exists so every oracle restart runs: random complex "
        "channels with trivial kernel and wide-kernel frame channels; bilinear and "
        "numpy kernels dominate"
    ),
    "search_witness": (
        "decide plus verify_certificate where the oracle finds a witness and stops "
        "early: pinchings of 3+ blocks, short frames, example_2_6"
    ),
    "synthesis_cli": (
        "constructor recipes with a verifying decide and serialize round trip, frame "
        "reports, and cli.main in-process on the shipped fixtures"
    ),
}

# name -> (unit, better, bound); bound is the tolerated worsening as a share
# of the parent's median.  Latency and throughput are counted in "cal", the
# duration of a fixed numpy/Python reference kernel timed alongside the calls
# in the same run (see calibrate.py): the host's speed drifts by tens of
# percent within minutes, and the ratio cancels that drift.  The raw
# wall-clock figures are printed in the report lines as well.
END_TO_END = {
    "throughput_per_kcal": ("1/kcal", "higher", 0.25),
    "latency_p50_cal": ("cal", "lower", 0.25),
    "latency_p90_cal": ("cal", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
}

# Printed in the report lines of every run but not gated.  fail_frac and
# exact_frac count each item of the whole corpus once, the known-defect
# probe included; they are exactly 0 on some workloads, so a share of the
# parent's median is undefined for them, and how many one-sided oracle misses
# a seed draws moves them by more than any useful bound.  Failures of the
# timed calls are carried by the result line as failed / attempted.
REPORTED_ONLY = {
    "verified_frac": "ratio",
    "throughput_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cal_ms": "ms",
    "fail_frac": "ratio",
    "exact_frac": "ratio",
    "probe_fail_frac": "ratio",
}

# name -> (unit, better, what it should move)
PER_LAYER = {
    "bilinear.searches": ("count/item", "lower", "latency_p50_cal on search_exhaustive most, search_witness less; exact has none"),
    "bilinear.self_ms": ("ms/item", "lower", "latency_p50_cal/throughput_per_kcal on search_exhaustive, then search_witness"),
    "bilinear.generalized_steps": ("count/item", "lower", "search_exhaustive latency (smallest_generalized calls)"),
    "bilinear.steps_per_search": ("count", "lower", "search_exhaustive latency (steps per symmetric search)"),
    "kernel.svd_calls": ("count/item", "lower", "search_exhaustive latency (ROADMAP item 2)"),
    "kernel.svd_ms": ("ms/item", "lower", "search_exhaustive latency (ROADMAP item 2)"),
    "kernel.svd_flops_computed": ("flop/item", "lower", "search_exhaustive latency; computed from shapes and full_matrices"),
    "kernel.kron_calls": ("count/item", "lower", "search_exhaustive latency"),
    "kernel.kron_ms": ("ms/item", "lower", "search_exhaustive latency"),
    "kernel.block_ms": ("ms/item", "lower", "search_exhaustive latency"),
    "kernel.det_calls": ("count/item", "lower", "exact latency"),
    "kernel.det_ms": ("ms/item", "lower", "exact latency"),
    "spectra.calls": ("count/item", "lower", "latency_p50_cal on exact; small share on the search workloads"),
    "spectra.self_ms": ("ms/item", "lower", "latency_p50_cal on exact"),
    "spectra.pencil_roots_per_call": ("count", "lower", "exact latency (verified roots per pencil_singular_set call)"),
    "channels.calls": ("count/item", "lower", "exact latency"),
    "channels.self_ms": ("ms/item", "lower", "exact latency"),
    "channels.choi_builds_per_decide": ("count", "lower", "exact latency (choi_matrix calls per decide)"),
    "linalg.calls": ("count/item", "lower", "exact latency"),
    "linalg.self_ms": ("ms/item", "lower", "exact latency"),
    "deciders.self_ms": ("ms/item", "lower", "latency on all decide workloads"),
    "deciders.screen_ms": ("ms/item", "lower", "exact and both search workloads (necessary_inner_product_check)"),
    "deciders.spectrum_points": ("count/item", "lower", "exact latency (points from scalar_relative_spectrum)"),
    "deciders.oracle_calls": ("count/item", "lower", "search_witness and search_exhaustive latency"),
    "deciders.witness_hit_frac": ("ratio", "higher", "search_witness latency (TensorWitness / oracle calls)"),
    "deciders.verify_ms": ("ms/item", "lower", "search_witness latency (verify_certificate)"),
    "deciders.exact_frac": ("ratio", "higher", "exact_frac on search_exhaustive when exact stages land"),
    "frames.calls": ("count/item", "lower", "synthesis_cli latency"),
    "frames.self_ms": ("ms/item", "lower", "synthesis_cli latency"),
    "constructors.calls": ("count/item", "lower", "synthesis_cli latency"),
    "constructors.self_ms": ("ms/item", "lower", "synthesis_cli latency"),
    "serialize.calls": ("count/item", "lower", "synthesis_cli latency"),
    "serialize.self_ms": ("ms/item", "lower", "synthesis_cli latency"),
    "serialize.bytes_out": ("B/item", "lower", "synthesis_cli latency; guards JSON growth from a verdict trace"),
    "cli.calls": ("count/item", "lower", "synthesis_cli latency"),
    "cli.self_ms": ("ms/item", "lower", "synthesis_cli latency"),
    "trace.overhead_frac": ("ratio", "lower", "none; must stay small for self times to be trusted"),
}

# Package modules that form the layers; "kernel" is the numpy calls they make.
LAYERS = (
    "linalg",
    "channels",
    "spectra",
    "bilinear",
    "deciders",
    "frames",
    "constructors",
    "serialize",
    "cli",
)
