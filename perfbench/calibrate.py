"""A fixed reference kernel timed alongside the workload to track machine speed.

The kernel imitates the package's hot path without calling the package: a
short alternating loop of ``kron``/``block``/thin-SVD steps on a fixed
complex vector, at two sizes (4 and 8, as in small channels and in the
search workloads' larger ones), plus list, dict and string work of the kind
the interpreter does around them.  Only its ratio to the workload's call
times is reported.
"""

from __future__ import annotations

import time

import numpy as np


class Calibrator:
    """Times the reference kernel in batches between the calls to track machine speed.

    A batch of ``batch`` kernel runs follows a call once ``every_s`` seconds
    of calls have passed since the last one (so at once after a long call).
    The host's speed switches between states within a fraction of a second,
    so a call is judged by the batches just before and just after it.
    """

    def __init__(self, every_s: float = 0.05, batch: int = 3):
        rng = np.random.default_rng(0)
        self.sizes = []  # (n, steps, start vector, operator, identity)
        for n, steps in ((4, 12), (8, 4)):
            x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
            K = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
            self.sizes.append((n, steps, x0, K, np.eye(n)))
        self.every_s = every_s
        self.batch = batch
        self.since = every_s  # the first call is always followed by a batch
        self.times: list[float] = []  # end of each batch
        self.durations: list[float] = []  # mean kernel duration of each batch

    def kernel(self) -> float:
        log = {}
        for n, steps, x0, K, eye in self.sizes:
            x = x0 / np.linalg.norm(x0)
            for step in range(steps):
                D1 = np.kron(x[:, None], eye)
                D2 = np.kron(eye, x.conj()[:, None])
                L = K @ (D1 + D2)
                M = np.block([[L.real, -L.imag], [L.imag, L.real]])
                _, s, vh = np.linalg.svd(M, full_matrices=False)
                v = vh[-1]
                x = v[:n] + 1j * v[n:]
                x = x / np.linalg.norm(x)
                log[f"n{n}-step{step}"] = (float(s[-1]), [round(float(abs(z)), 6) for z in x])
        return sum(val for val, _ in sorted(log.values()))

    def sample(self):
        total = 0.0
        for _ in range(self.batch):
            t0 = time.perf_counter()
            self.kernel()
            total += time.perf_counter() - t0
        self.times.append(time.perf_counter())
        self.durations.append(total / self.batch)

    def tick(self, item_s: float):
        """Called right after each timed call of ``item_s`` seconds."""
        self.since += item_s
        if self.since >= self.every_s:
            self.since = 0.0
            self.sample()

    def speed_at(self, spans) -> np.ndarray:
        """Mean of the batches just before and just after each ``(start, end)`` span."""
        t = np.asarray(self.times)
        d = np.asarray(self.durations)
        out = np.empty(len(spans))
        for i, (start, end) in enumerate(spans):
            near = [d[k] for k in (np.searchsorted(t, start) - 1, np.searchsorted(t, end)) if 0 <= k < len(t)]
            out[i] = sum(near) / len(near)
        return out
