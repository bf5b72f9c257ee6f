"""Seeded, labelled inputs for the four workloads.

Every generator is a pure function of the workload seed.  Channels and frames
are built from numpy draws here, so the program under test only ever receives
finished inputs.  An item carries the statuses its construction allows when
the theory fixes one:

* two-block and many-block pinchings, ``dim_out < dim_in`` at Choi rank 2,
  ``example_2_11``/``example_2_6`` and frames too short to do phase
  retrieval are NOT_PR;
* rank 1 with an injective operator, a trivial Hermitian kernel, the
  projector channel of a phase-retrievable frame and everything on a
  one-dimensional input space are PR (``LIKELY_PR`` is allowed too, since
  the oracle is one sided).

Scaled copies multiply every Kraus operator by ``10**k`` with ``0 < |k| <= 5``
and must receive the status of their original.  They are copied from the
workload's originals at the fixed seed ``SCALE_SEED``, at fixed positions and
exponents, so every run carries the same scale slice.  With the package as it
is, the search cost of a tiny-scale copy swings by seconds from one input to
the next (restarts never reach their absolute exit thresholds), which would
otherwise dominate the run-to-run spread of the search workloads.

Input classes on which the package gives wrong answers at the commit that
introduced this benchmark carry ``probe``, a key of ``KNOWN_DEFECTS``.  They
are not left out: every run decides and checks each of them once, outside
the timed loop, and reports their failures and the ``fail_frac`` of the whole
corpus.  The timed loop gets the rest, on which no call should fail, so a
wrong answer there is a new defect and makes the run incorrect.  The rules
are by class (shape, length, exponent), never by item or by seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, cycle
from pathlib import Path

import numpy as np

REAL = "real"
COMPLEX = "complex"
PR_OK = ("PR", "LIKELY_PR")
NOT_PR_ONLY = ("NOT_PR",)

SCALE_EXPONENTS = (-5, 5, -3, 3, -1, 1)
SCALE_SEED = 0

# Why an input class is decided in the known-defect probe and not timed.
KNOWN_DEFECTS = {
    "scale": "scaling by 1e+-5 flips or breaks verdicts (ROADMAP item 4: absolute thresholds)",
    "zero_dim1": "the zero map on a 1-dim input gets NOT_PR with a separation-0 witness (ROADMAP item 4)",
    "long_short_frame": (
        "frames of the largest length without phase retrieval, or one less: the one-sided "
        "oracle misses the witness of some of them and answers LIKELY_PR"
    ),
}
PROBE_EXPONENT = 5  # scaled copies with |k| at least this go to the probe

# Lower bound 4n - 2a - 3 (a = binary digit sum of n - 1) on the length of a
# complex phase-retrievable frame, as the largest length that must fail.
_COMPLEX_SHORT_MAX = {2: 3, 3: 6, 4: 8}


@dataclass
class Item:
    """One top-level call of a workload."""

    key: str
    slice: str
    op: str  # decide | decide_verify | recipe | frame | cli
    payload: object
    allowed: tuple | None = None
    scaled_from: str | None = None
    expect_exit: int | None = None
    probe: str | None = None  # a KNOWN_DEFECTS key: decided once per run, not timed
    meta: dict = dc_field(default_factory=dict)


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0xBE7C, tag]))


def rand_matrix(rng, rows: int, cols: int, field: str) -> np.ndarray:
    M = rng.normal(size=(rows, cols))
    if field == COMPLEX:
        M = M + 1j * rng.normal(size=(rows, cols))
    return np.asarray(M, dtype=complex)


def haar_unitary(rng, n: int, field: str) -> np.ndarray:
    Q, R = np.linalg.qr(rand_matrix(rng, n, n, field))
    d = np.diag(R)
    U = Q * (d / np.abs(d))
    return U.real.astype(complex) if field == REAL else U


def _inv_sqrt(S: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((S + S.conj().T) / 2.0)
    return (v / np.sqrt(w)) @ v.conj().T


def tp_normalize(kraus, field: str):
    """Right-multiply by the inverse square root of sum(A* A)."""
    W = _inv_sqrt(sum(A.conj().T @ A for A in kraus))
    out = [A @ W for A in kraus]
    return [K.real.astype(complex) for K in out] if field == REAL else out


def hermitian_kernel_trivial(kraus) -> bool:
    """Whether sum A (x) conj(A) is injective (numerically, relative 1e-8)."""
    K = sum(np.kron(A, A.conj()) for A in kraus)
    if K.shape[0] < K.shape[1]:
        return False
    s = np.linalg.svd(K, compute_uv=False)
    return bool(s[-1] > 1e-8 * s[0])


def complement_margin(V: np.ndarray) -> float:
    """Smallest, over bipartitions of the rows of V, of the better-conditioned side.

    A side's conditioning is its smallest singular value over the frame's
    largest one (0 when it cannot span).  The complement property holds
    exactly when the margin is positive.
    """
    N, n = V.shape
    top = np.linalg.norm(V, 2)

    def spread(rows):
        if len(rows) < n:
            return 0.0
        return float(np.linalg.svd(V[list(rows)], compute_uv=False)[n - 1]) / top

    worst = np.inf
    for size in range(N // 2 + 1):
        for side in combinations(range(N), size):
            rest = [j for j in range(N) if j not in side]
            worst = min(worst, max(spread(side), spread(rest)))
    return worst


def frame_label(V: np.ndarray, pr: tuple, not_pr: tuple):
    """``pr`` with a clear complement property, ``not_pr`` without one, else None.

    Frames within 1e-3 of losing the property are left unlabelled: a witness
    that nearly annihilates them is within the package's tolerances.
    """
    margin = complement_margin(V)
    if margin > 1e-3:
        return pr
    return not_pr if margin < 1e-12 else None


class Builder:
    """Constructs package objects from numpy draws; ``pc`` is the imported package."""

    def __init__(self, pc, seed: int, tag: int):
        self.pc = pc
        self.rng = rng_for(seed, tag)
        self.items: list[Item] = []

    def channel(self, kraus, field=COMPLEX, dim_in=None, dim_out=None):
        kraus = [np.asarray(A, dtype=complex) for A in kraus]
        m, n = kraus[0].shape
        return self.pc.QuantumChannel(dim_in=dim_in or n, dim_out=dim_out or m, kraus=kraus, field=field)

    def cptp(self, n, m, r, field):
        return self.channel(tp_normalize([rand_matrix(self.rng, m, n, field) for _ in range(r)], field), field)

    def frame_vectors(self, n, N, field):
        return rand_matrix(self.rng, N, n, field)

    def observable_frame(self, n, N, field):
        """Frame vectors whose rank-one projections are independent with a clear margin.

        ``channel_from_observables`` requires independent projections and
        rejects a frame that is dependent within its rank tolerance.  A draw
        that close to dependence (about one in a few hundred in C^2) is
        replaced by the next draw, so the recipe's precondition holds.
        """
        while True:
            V = self.frame_vectors(n, N, field)
            U = V / np.linalg.norm(V, axis=1, keepdims=True)
            s = np.linalg.svd(np.array([np.outer(u, u.conj()).reshape(-1) for u in U]), compute_uv=False)
            if s[N - 1] > 1e-3 * s[0]:
                return V

    def projector_channel(self, V, field):
        return self.channel(tp_normalize([np.outer(v, v.conj()) for v in V], field), field)

    def pinching(self, dims, field):
        n = sum(dims)
        U = haar_unitary(self.rng, n, field)
        W = haar_unitary(self.rng, n, field)
        kraus, offset = [], 0
        for d in dims:
            P = np.zeros((n, n), dtype=complex)
            P[offset:offset + d, offset:offset + d] = np.eye(d)
            kraus.append(U @ P @ W)
            offset += d
        return self.channel(kraus, field)

    def conjugated(self, ch, field):
        U = haar_unitary(self.rng, ch.dim_out, field)
        W = haar_unitary(self.rng, ch.dim_in, field)
        return self.channel([U @ A @ W for A in ch.kraus], ch.field)

    def subseed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def add(self, key, slice_, op, payload, allowed=None, **kw):
        if any(it.key == key for it in self.items):
            raise ValueError(f"duplicate item key {key!r}")
        self.items.append(Item(key, slice_, op, payload, allowed, **kw))

    def add_scaled(self, originals, every: int):
        """Scaled copies of every ``every``-th nonzero original, cycling through SCALE_EXPONENTS."""
        nonzero = [it for it in originals if any(np.any(A) for A in it.payload.kraus)]
        for it, k in zip(nonzero[::every], cycle(SCALE_EXPONENTS)):
            self.add_scaled_copy(it, k)

    def add_scaled_copy(self, it: Item, k: int):
        ch = it.payload
        scaled = self.channel([A * 10.0**k for A in ch.kraus], ch.field, ch.dim_in, ch.dim_out)
        probe = "scale" if abs(k) >= PROBE_EXPONENT else it.probe
        self.add(f"scale/{it.key}*1e{k}", "scaled", it.op, scaled, it.allowed, scaled_from=it.key,
                 probe=probe, meta={"k": k, "original": ch})


def _with_scale_slice(pc, seed, tag, originals, every, extra=()):
    """The originals at ``seed`` followed by the scale slice copied at SCALE_SEED."""
    b = Builder(pc, seed, tag)
    originals(b)
    fixed = Builder(pc, SCALE_SEED, tag)
    originals(fixed)
    b.add_scaled(fixed.items, every)
    for pick, k in extra:
        b.add_scaled_copy(pick(fixed.items), k)
    return b.items


def exact_items(pc, seed: int) -> list[Item]:
    return _with_scale_slice(pc, seed, 1, _exact_originals, 1)


def _exact_originals(b: Builder):
    pc = b.pc
    C, R = COMPLEX, REAL
    for n, m, field in ((2, 3, C), (3, 3, C), (4, 6, C), (3, 3, R), (5, 5, R)):
        b.add(f"rank1/{field}-{n}x{m}", "rank1", "decide",
              b.channel([rand_matrix(b.rng, m, n, field)], field), PR_OK)
    for n, m, field in ((2, 2, C), (3, 3, C), (4, 4, C), (6, 6, C), (3, 4, R), (5, 6, R)):
        b.add(f"rank2/{field}-{n}x{m}", "rank2_generic", "decide", b.cptp(n, m, 2, field))
    for dims, field in (((1, 1), C), ((1, 2), C), ((2, 2), C), ((3, 3), C),
                        ((1, 1), R), ((2, 1), R), ((2, 3), R)):
        b.add(f"pinch2/{field}-{dims}", "pinch2", "decide", b.pinching(dims, field), NOT_PR_ONLY)
    for n, m, field in ((3, 2, C), (5, 4, C), (4, 3, R)):
        b.add(f"narrow/{field}-{n}x{m}", "narrow_rank2", "decide", b.cptp(n, m, 2, field), NOT_PR_ONLY)
    deph = pc.fixture("dephasing")
    b.add("dephasing", "dephasing", "decide", deph, NOT_PR_ONLY)
    b.add("dephasing/conj", "dephasing", "decide", b.conjugated(deph, C), NOT_PR_ONLY)
    for n, r in ((3, 3), (4, 3), (4, 4), (6, 3), (6, 4), (8, 3)):
        ch = b.cptp(n, n, r, R)
        allowed = PR_OK if hermitian_kernel_trivial(ch.kraus) else None
        b.add(f"trivial_kernel/real-{n}-r{r}", "trivial_kernel", "decide", ch, allowed)
    ex = pc.fixture("example_2_11")
    b.add("example_2_11", "screen", "decide", ex, NOT_PR_ONLY)
    b.add("example_2_11/unitary", "screen", "decide", b.conjugated(ex, C), NOT_PR_ONLY)
    b.add("example_2_11/orthogonal", "screen", "decide", b.conjugated(ex, R), NOT_PR_ONLY)
    # Edge shapes.  A one-dimensional input space has a single pure state.
    b.add("edge/zero-1x1", "edge", "decide", b.channel([np.zeros((1, 1))]), PR_OK, probe="zero_dim1")
    b.add("edge/zero-2x2", "edge", "decide", b.channel([np.zeros((2, 2))]), NOT_PR_ONLY)
    b.add("edge/zero-3x2", "edge", "decide", b.channel([np.zeros((2, 3))]), NOT_PR_ONLY)
    b.add("edge/dim1-rank1", "edge", "decide", b.channel([rand_matrix(b.rng, 1, 1, C)]), PR_OK)
    b.add("edge/dim1-to-3-rank2", "edge", "decide",
          b.channel([rand_matrix(b.rng, 3, 1, C) for _ in range(2)]), PR_OK)


def search_exhaustive_items(pc, seed: int) -> list[Item]:
    return _with_scale_slice(pc, seed, 2, _search_exhaustive_originals, 8)


def _search_exhaustive_originals(b: Builder):
    for instance, sizes in enumerate((range(3, 9), range(3, 6))):
        for n in sizes:
            for r in (3, 4):
                for m in (n, n + 2):
                    ch = b.cptp(n, m, r, COMPLEX)
                    allowed = PR_OK if hermitian_kernel_trivial(ch.kraus) else None
                    b.add(f"trivial_kernel/{n}x{m}-r{r}#{instance}", "trivial_kernel", "decide", ch, allowed)
    # Lengths spread evenly over the range rather than drawn: the search cost
    # depends on the kernel dimension n^2 - N, and a draw of three long
    # frames would shift the workload's tail from seed to seed.
    for n, lo, hi in ((4, 12, 13), (5, 16, 22)):
        for instance, N in enumerate(np.linspace(lo, hi, 3).round().astype(int).tolist()):
            ch = b.projector_channel(b.frame_vectors(n, N, COMPLEX), COMPLEX)
            b.add(f"wide_kernel/complex-{n}-N{N}#{instance}", "wide_kernel", "decide", ch, PR_OK)
    # The search cost of a real wide-kernel frame swings by 2x between
    # inputs and these frames make up much of the tail, so six instances per
    # shape keep the p90 steady across seeds.
    for n in (4, 5):
        for instance in range(6):
            V = b.frame_vectors(n, 2 * n - 1, REAL)
            allowed = frame_label(V.real, PR_OK, NOT_PR_ONLY)
            ch = b.projector_channel(V, REAL)
            b.add(f"wide_kernel/real-{n}-N{2 * n - 1}#{instance}", "wide_kernel", "decide", ch, allowed)


def search_witness_items(pc, seed: int) -> list[Item]:
    # Known scale-dependent cases: scaled up by 1e5, example_2_6 loses its
    # witness; scaled down by 1e5, its certificate no longer re-verifies.
    def example_2_6(items):
        return next(it for it in items if it.key == "example_2_6")

    extra = ((example_2_6, 5), (example_2_6, -5))
    return _with_scale_slice(pc, seed, 3, _search_witness_originals, 64, extra=extra)


def _search_witness_originals(b: Builder):
    # Witness search costs swing by orders of magnitude between inputs of one
    # shape (the restart that first succeeds is random), so each shape gets
    # many instances to keep the per-run quantiles steady across seeds.
    # Pinchings, whose witness is found at once, are the majority, so that
    # the median is the typical early-exit call and not the boundary between
    # frames that needed one restart and frames that needed two.  Frame
    # lengths cycle through their range instead of being drawn, so every seed
    # times the same mix of lengths and puts the same count in the probe.
    pc = b.pc
    for instance in range(33):
        for field in (COMPLEX, REAL):
            for dims in ((1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 1, 1, 1), (2, 1, 2), (1, 3, 1)):
                b.add(f"pinch/{field}-{dims}#{instance}", "pinch", "decide_verify", b.pinching(dims, field),
                      NOT_PR_ONLY)
    for n in (3, 4, 5):
        for instance, N in zip(range(36), cycle(range(n, 2 * n - 1))):  # N <= 2n - 2: no complement property
            ch = b.projector_channel(b.frame_vectors(n, N, REAL), REAL)
            b.add(f"short_frame/real-{n}-N{N}#{instance}", "short_frame", "decide_verify", ch, NOT_PR_ONLY,
                  probe="long_short_frame" if N >= 2 * n - 3 else None)
    for n, hi in _COMPLEX_SHORT_MAX.items():
        # Every short frame in C^2 has the largest length and goes to the
        # probe, where the oracle misses about two witnesses in five, each
        # miss a full search; fewer instances keep the probe short.
        for instance, N in zip(range(6 if n == 2 else 36), cycle(range(n + 1, hi + 1))):
            ch = b.projector_channel(b.frame_vectors(n, N, COMPLEX), COMPLEX)
            b.add(f"short_frame/complex-{n}-N{N}#{instance}", "short_frame", "decide_verify", ch, NOT_PR_ONLY,
                  probe="long_short_frame" if N >= hi - 1 else None)
    ex = pc.fixture("example_2_6")
    b.add("example_2_6", "example_2_6", "decide_verify", ex, NOT_PR_ONLY)
    for instance in range(16):
        b.add(f"example_2_6/unitary#{instance}", "example_2_6", "decide_verify", b.conjugated(ex, COMPLEX),
              NOT_PR_ONLY)


def synthesis_cli_items(pc, seed: int, root: Path, work: Path) -> list[Item]:
    b = Builder(pc, seed, 4)
    for instance in range(REPEAT):
        _synthesis_recipes_and_frames(b, pc, instance)
    fx = root / "fixtures"
    s = str(b.subseed() % 1000)
    commands = (
        (["check", fx / "example_2_11.json", "--output", "json"], 1),
        (["check", fx / "dephasing.json", "--output", "json"], 1),
        (["check", fx / "identity2.json"], 0),
        (["check", fx / "example_2_6.json", "--method", "oracle", "--restarts", "16", "--seed", s,
          "--output", "json"], 1),
        (["frame", fx / "f3_real.json", "--output", "json"], 0),
        (["frame", fx / "parseval3.json"], 0),
        (["spectrum", fx / "example_2_11.json", "--j", "1", "--output", "json"], 1),
        (["construct", "--recipe", "projection", "--n", "3", "--dims", "1,2", "--out", work / "projection"], 0),
        (["construct", "--recipe", "rank2", "--n", "3", "--seed", s, "--out", work / "rank2"], 0),
        (["construct", "--recipe", "from-observables", "--frame", fx / "parseval3.json", "--r", "2",
          "--seed", s, "--out", work / "from-observables"], 0),
    )
    for argv, code in commands:
        argv = [str(a) for a in argv]
        name = argv[0] + "/" + Path(argv[1]).stem if argv[0] != "construct" else "construct/" + argv[2]
        b.add(f"cli/{name}", "cli", "cli", argv, expect_exit=code)
    return b.items


# Instances of each seeded recipe and frame shape per synthesis corpus.
REPEAT = 8


def _synthesis_recipes_and_frames(b: Builder, pc, instance: int):
    for n in (2, 3, 4):
        b.add(f"recipe/rank2-n{n}#{instance}", "recipe", "recipe", ("rank2", (n,), b.subseed()), ("PR",))
    for n, r in ((3, 3), (3, 4), (4, 5)):
        b.add(f"recipe/rankr-n{n}-r{r}#{instance}", "recipe", "recipe", ("rankr", (n, r), b.subseed()), ("PR",))
    for n, N, r, field in ((2, 3, 2, REAL), (3, 5, 2, REAL), (3, 5, 3, REAL),
                           (2, 4, 2, COMPLEX), (2, 4, 3, COMPLEX), (2, 4, 3, COMPLEX)):
        frame = pc.Frame(dim=n, vectors=b.observable_frame(n, N, field), field=field)
        b.add(f"recipe/from-observables-{field}-n{n}-N{N}-r{r}#{len(b.items)}", "recipe", "recipe",
              ("from-observables", (frame, r), b.subseed()), ("PR",))
    if instance == 0:
        for dims in ((1, 2), (2, 1, 1), (1, 1, 1)):
            b.add(f"recipe/projection-{dims}", "recipe", "recipe", ("projection", (dims,), 0), ("NOT_PR",))
    for n, N, field in ((3, 5, REAL), (4, 7, REAL), (4, 6, REAL), (3, 4, REAL),
                        (2, 4, COMPLEX), (2, 4, COMPLEX), (3, 8, COMPLEX), (3, 5, COMPLEX), (2, 3, COMPLEX)):
        frame = pc.Frame(dim=n, vectors=b.frame_vectors(n, N, field), field=field)
        if field == REAL:
            allowed = frame_label(frame.vectors.real, ("YES",), ("NO",))
        else:
            allowed = ("NO",) if N <= _COMPLEX_SHORT_MAX[n] else ("YES", "LIKELY_YES")
        b.add(f"frame/{field}-{n}-N{N}#{len(b.items)}", "frame_report", "frame", frame, allowed)


GENERATORS = {
    "exact": exact_items,
    "search_exhaustive": search_exhaustive_items,
    "search_witness": search_witness_items,
    "synthesis_cli": synthesis_cli_items,
}
