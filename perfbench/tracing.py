"""Per-layer tracing of the prchannels package from the outside.

Every public function of every package module is replaced, at every module
attribute that binds it, by a wrapper that records a span: name, start, end,
span id, parent span id and the id of the top-level item it belongs to.
Four numpy kernels (``linalg.svd``, ``kron``, ``block``, ``linalg.det``) are
not given spans of their own; their calls are counted and timed on the
innermost enclosing span.  Spans stay in memory and are written out once at
the end of the run.  No file of the package is touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

from .metrics import LAYERS

# Functions the per-layer metrics are computed from.  A rename under src/
# must fail the traced run instead of silently reporting zeros.
REQUIRED = (
    "bilinear.smallest_generalized",
    "bilinear.minimize_simple_pair",
    "bilinear.minimize_symmetric_pair",
    "channels.choi_matrix",
    "cli.main",
    "deciders.decide",
    "deciders.necessary_inner_product_check",
    "deciders.scalar_relative_spectrum",
    "deciders.simple_tensor_oracle",
    "deciders.symmetric_tensor_oracle",
    "deciders.verify_certificate",
    "serialize.dumps",
    "spectra.pencil_singular_set",
)

PACKAGE = "prchannels"
ROOT_NAME = "bench.item"

# Span record fields.
NAME, START, END, SID, PARENT, ITEM, EXTRA = range(7)
COLUMNS = ("name", "start_ns", "end_ns", "id", "parent_id", "item", "extra")


class CoverageError(RuntimeError):
    """The package no longer exposes a function or binding the trace relies on."""


def _svd_flops(a, full_matrices=True, compute_uv=True, hermitian=False):
    """Golub-Van Loan operation counts for a (stacked) SVD; computed, not measured."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    elif full_matrices:
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    else:
        flops = 14.0 * m * n * n + 8.0 * n**3
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    complex_factor = 4.0 if np.iscomplexobj(a) else 1.0
    return flops * batch * complex_factor


def _hook_roots(result):
    return "roots", len(getattr(result, "roots", ()) or ())


def _hook_points(result):
    return "points", len(result) if isinstance(result, list) else 0


def _hook_witness(result):
    return "witness", int(type(result).__name__ == "TensorWitness")


def _hook_exact(result):
    return "exact", int(getattr(result, "status", None) in ("PR", "NOT_PR"))


def _hook_bytes(result):
    return "bytes", len(result.encode()) if isinstance(result, str) else 0


HOOKS = {
    "spectra.pencil_singular_set": _hook_roots,
    "deciders.scalar_relative_spectrum": _hook_points,
    "deciders.simple_tensor_oracle": _hook_witness,
    "deciders.symmetric_tensor_oracle": _hook_witness,
    "deciders.decide": _hook_exact,
    "serialize.dumps": _hook_bytes,
}


class Tracer:
    """Wraps the package's public functions and the numpy kernels; holds the spans."""

    def __init__(self):
        self.names: list[str] = [ROOT_NAME]  # span names; index 0 is the item root
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_id = 1
        self.item = 0
        self.installed = False
        self._originals: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- set-up -----------------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return {
            name[len(prefix):]: mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None and name.count(".") == 1
        }

    def _binding_owners(self):
        pkg = sys.modules[PACKAGE]
        return [pkg, *self._modules().values()]

    def _plan(self):
        modules = self._modules()
        wrappers: dict[int, object] = {}
        layers_seen = set()
        for short, mod in modules.items():
            if short == "errors":
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                public = getattr(mod, "__all__", None)
                if public is not None and attr not in public:
                    continue
                qual = f"{short}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, qual)
                self._originals[id(obj)] = obj
                layers_seen.add(short)
        missing = [q for q in REQUIRED if not any(n == q for n in self.names)]
        if missing:
            raise CoverageError(f"traced functions missing from the package: {', '.join(missing)}")
        absent = [layer for layer in LAYERS if layer not in layers_seen]
        if absent:
            raise CoverageError(f"layers without any public function: {', '.join(absent)}")
        for owner in self._binding_owners():
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and self._originals.get(id(obj)) is obj:
                    self._patches.append((owner, attr, obj, wrappers[id(obj)]))
        kernels = (
            (np.linalg, "svd", "svd", _svd_flops),
            (np, "kron", "kron", None),
            (np, "block", "block", None),
            (np.linalg, "det", "det", None),
        )
        for owner, attr, kind, flops in kernels:
            orig = getattr(owner, attr)
            self._originals[id(orig)] = orig
            self._patches.append((owner, attr, orig, self._wrap_kernel(orig, kind, flops)))

    def _wrap(self, fn, qual):
        idx = len(self.names)
        self.names.append(qual)
        hook = HOOKS.get(qual)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            rec = [idx, 0, 0, sid, stack[-1][SID] if stack else 0, self.item, None]
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                spans.append(rec)
            if hook is not None:
                key, value = hook(result)
                if rec[EXTRA] is None:
                    rec[EXTRA] = {}
                rec[EXTRA][key] = value
            return result

        return wrapper

    def _wrap_kernel(self, fn, kind, flops):
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec = stack[-1]
                if rec[EXTRA] is None:
                    rec[EXTRA] = {}
                acc = rec[EXTRA].setdefault(kind, [0, 0, 0.0])
                acc[0] += 1
                acc[1] += dt
                if flops is not None:
                    acc[2] += flops(*args, **kwargs)

        return wrapper

    # -- switching --------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self.installed = False

    def check_coverage(self):
        """Raise when any package module still binds an unwrapped original."""
        if not self.installed:
            raise RuntimeError("coverage is checked with the wrappers installed")
        leaks = []
        for owner in self._binding_owners():
            for attr, obj in vars(owner).items():
                if self._originals.get(id(obj)) is obj:
                    leaks.append(f"{owner.__name__}.{attr}")
        if leaks:
            raise CoverageError(f"unwrapped bindings: {', '.join(sorted(leaks))}")
        for qual in ("deciders.minimize_symmetric_pair", "frames.minimize_symmetric_pair"):
            short, attr = qual.split(".")
            bound = getattr(self._modules()[short], attr, None)
            if bound is None or not hasattr(bound, "__wrapped__"):
                raise CoverageError(f"{qual} is not bound to a traced wrapper")

    # -- items ------------------------------------------------------------

    def run_item(self, item_no: int, call, *args):
        """Run ``call(*args)`` as top-level item ``item_no`` under a root span."""
        self.item = item_no
        sid = self.next_id
        self.next_id = sid + 1
        rec = [0, 0, 0, sid, 0, item_no, None]
        self.stack.append(rec)
        rec[START] = time.perf_counter_ns()
        try:
            return call(*args)
        finally:
            rec[END] = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append(rec)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": COLUMNS, "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def layer_metrics(names, spans, items: int) -> dict:
    """Per-item layer numbers from the spans; self time excludes children and kernels."""
    child_ns: dict[int, int] = {}
    for rec in spans:
        if rec[PARENT]:
            child_ns[rec[PARENT]] = child_ns.get(rec[PARENT], 0) + rec[END] - rec[START]
    calls: dict[str, int] = {}
    self_ns: dict[str, float] = {}
    by_name_calls: dict[str, int] = {}
    by_name_ns: dict[str, int] = {}
    kernel = {k: [0, 0, 0.0] for k in ("svd", "kron", "block", "det")}
    extra_sum: dict[str, int] = {}
    witness_hits = 0
    for rec in spans:
        name = names[rec[NAME]]
        layer = name.split(".", 1)[0]
        dur = rec[END] - rec[START]
        kern_ns = 0
        extra = rec[EXTRA]
        if extra:
            for key, value in extra.items():
                if key in kernel:
                    acc = kernel[key]
                    acc[0] += value[0]
                    acc[1] += value[1]
                    acc[2] += value[2]
                    kern_ns += value[1]
                elif key == "witness":
                    witness_hits += value
                else:
                    extra_sum[key] = extra_sum.get(key, 0) + value
        calls[layer] = calls.get(layer, 0) + 1
        self_ns[layer] = self_ns.get(layer, 0.0) + dur - child_ns.get(rec[SID], 0) - kern_ns
        by_name_calls[name] = by_name_calls.get(name, 0) + 1
        by_name_ns[name] = by_name_ns.get(name, 0) + dur

    per = 1.0 / max(items, 1)

    def n(name):
        return by_name_calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) * per
        out[f"{layer}.self_ms"] = self_ns.get(layer, 0.0) * 1e-6 * per
    searches = n("bilinear.minimize_symmetric_pair") + n("bilinear.minimize_simple_pair")
    steps = n("bilinear.smallest_generalized")
    out["bilinear.searches"] = searches * per
    out["bilinear.generalized_steps"] = steps * per
    out["bilinear.steps_per_search"] = ratio(steps, n("bilinear.minimize_symmetric_pair"))
    for kind in ("svd", "kron", "block", "det"):
        out[f"kernel.{kind}_calls"] = kernel[kind][0] * per
        out[f"kernel.{kind}_ms"] = kernel[kind][1] * 1e-6 * per
    out["kernel.svd_flops_computed"] = kernel["svd"][2] * per
    out["spectra.pencil_roots_per_call"] = ratio(extra_sum.get("roots", 0), n("spectra.pencil_singular_set"))
    out["channels.choi_builds_per_decide"] = ratio(n("channels.choi_matrix"), n("deciders.decide"))
    oracle_calls = n("deciders.simple_tensor_oracle") + n("deciders.symmetric_tensor_oracle")
    out["deciders.screen_ms"] = by_name_ns.get("deciders.necessary_inner_product_check", 0) * 1e-6 * per
    out["deciders.spectrum_points"] = extra_sum.get("points", 0) * per
    out["deciders.oracle_calls"] = oracle_calls * per
    out["deciders.witness_hit_frac"] = ratio(witness_hits, oracle_calls)
    out["deciders.verify_ms"] = by_name_ns.get("deciders.verify_certificate", 0) * 1e-6 * per
    out["deciders.exact_frac"] = ratio(extra_sum.get("exact", 0), n("deciders.decide"))
    out["serialize.bytes_out"] = extra_sum.get("bytes", 0) * per
    return out
