from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from prchannels import (
    ALL_OF_C,
    DEFAULT_TOL,
    FINITE,
    constrained_2x2_eigenpair,
    fixture,
    in_relative_spectrum,
    is_left_invertible,
    kernel_basis,
    pencil_singular_set,
    smallest_singular_value,
)
from prchannels.errors import ConstraintViolated, DimensionMismatch
from prchannels.linalg import ZERO_POLY, as_matrix, poly_roots, trim_polynomial
from prchannels.spectra import (
    _MAX_MINOR_SCAN,
    SingularSet,
    _cluster_roots,
    _pencil_points,
    _significant_poly,
)

from helpers import rand_matrix, random_unitary

Z = np.diag([1.0, -1.0]).astype(complex)


def test_left_invertible_examples():
    assert is_left_invertible([np.eye(2)])
    assert is_left_invertible([np.eye(2) / np.sqrt(2), Z / np.sqrt(2)])
    assert not is_left_invertible([np.array([[1, 0], [0, 0]], dtype=complex)])


def test_left_invertible_matches_kernel():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 5))
        ops = [rand_matrix(rng, rows, cols, "complex") for _ in range(k)]
        if rng.random() < 0.3:
            ops = [A @ np.diag([1.0] * (cols - 1) + [0.0]) for A in ops]  # force a kernel
        stacked = np.vstack(ops)
        assert is_left_invertible(ops) == (len(kernel_basis(stacked)) == 0)


def test_relative_spectrum_membership_fixture():
    ch = fixture("example_2_11")
    a1, a2, a3 = ch.kraus
    ok, w = in_relative_spectrum([a2, a3], [a1], np.array([[1.0, 0.0]]))
    assert ok
    assert abs(abs(np.vdot(w, np.array([1, 1]) / np.sqrt(2))) - 1.0) < 1e-8

    ok, w = in_relative_spectrum([a2, a3], [a1], np.array([[-1.0, np.sqrt(2.0)]]))
    assert ok
    assert abs(abs(np.vdot(w, np.array([1, -1]) / np.sqrt(2))) - 1.0) < 1e-8

    ok, w = in_relative_spectrum([a2, a3], [a1], np.array([[0.0, 0.0]]))
    assert not ok and w is None


def test_relative_spectrum_shape_check():
    with pytest.raises(DimensionMismatch):
        in_relative_spectrum([np.eye(2)], [np.eye(2)], np.zeros((2, 2)))


def test_pencil_singular_set_examples():
    s = pencil_singular_set(np.eye(2) / np.sqrt(2), Z / np.sqrt(2))
    assert s.kind == FINITE
    assert np.allclose(sorted(r.real for r in s.roots), [-1.0, 1.0], atol=1e-9)

    s = pencil_singular_set(np.diag([1 / np.sqrt(2), 1.0]), np.array([[1 / np.sqrt(2), 0], [0, 0]]))
    assert s.kind == FINITE
    assert len(s.roots) == 1
    assert s.roots[0] == pytest.approx(-1.0, abs=1e-9)

    s = pencil_singular_set(np.zeros((2, 2)), np.zeros((2, 2)))
    assert s.kind == ALL_OF_C


def test_pencil_singular_set_tall_and_degenerate():
    # Tall pencil with no singular point at all.
    P = np.vstack([np.eye(2), np.zeros((1, 2))]).astype(complex)
    Q = np.vstack([np.zeros((2, 2)), np.ones((1, 2))]).astype(complex)
    s = pencil_singular_set(P, Q)
    assert s.kind == FINITE and s.roots == []

    # Rank-deficient for every lam: both matrices share a column kernel.
    P = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    s = pencil_singular_set(P, P)
    assert s.kind == ALL_OF_C


def test_pencil_roots_match_generalized_eigenvalues():
    # Independent oracle: det(P + lam Q) = 0 is a generalized eigenvalue
    # problem solved by the QZ algorithm.
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        P = rand_matrix(rng, n, n, "complex")
        Q = rand_matrix(rng, n, n, "complex")
        mine = pencil_singular_set(P, Q)
        eig = scipy.linalg.eigvals(P, -Q)
        expected = sorted(
            (complex(z) for z in eig if np.isfinite(z)), key=lambda z: (z.real, z.imag)
        )
        assert mine.kind == FINITE
        assert len(mine.roots) == len(expected)
        for a, b in zip(mine.roots, expected):
            assert abs(a - b) <= 1e-7 * (1 + abs(b))  # within the clustering radius


def test_pencil_roots_verify_residual():
    # Plant a singular point at lam = 0.5 in tall pencils and check both that
    # it is found and that every root passes the smallest-singular-value test.
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        Q = rand_matrix(rng, n + 1, n, "complex")
        P0 = rand_matrix(rng, n + 1, n, "complex")
        x = rand_matrix(rng, n, 1, "complex")
        x = x / np.linalg.norm(x)
        P = P0 - ((P0 + 0.5 * Q) @ x) @ x.conj().T
        s = pencil_singular_set(P, Q)
        norms = np.linalg.norm(P) + np.linalg.norm(Q)
        assert any(abs(r - 0.5) < 1e-6 for r in s.roots)
        for r in s.roots:
            assert smallest_singular_value(P + r * Q) <= 1e-6 * norms


def _reference_det_poly_square(P, Q):
    n = P.shape[0]
    k = n + 1
    nodes = np.exp(2j * np.pi * np.arange(k) / k)
    vals = np.array([np.linalg.det(P + t * Q) for t in nodes])
    return np.fft.fft(vals) / k


def _reference_pencil_singular_set(P, Q, tol=DEFAULT_TOL, seed=0):
    """Point-by-point evaluation, one LAPACK call per node, probe and candidate.

    Returns the singular set and the name of the branch that produced it.
    """
    Pm = as_matrix(P)
    Qm = as_matrix(Q)
    m, n = Pm.shape
    scale = max(np.linalg.norm(Pm), np.linalg.norm(Qm))
    if scale == 0.0:
        return SingularSet(ALL_OF_C, []), "zero"
    Pn = Pm / scale
    Qn = Qm / scale
    margin = 1e-6 * (np.linalg.norm(Pn) + np.linalg.norm(Qn))
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(seed)), 0x5EC7]))

    first_poly = None
    for count, rows in enumerate(combinations(range(m), n)):
        if count >= _MAX_MINOR_SCAN:
            break
        poly = _significant_poly(_reference_det_poly_square(Pn[list(rows)], Qn[list(rows)]))
        if poly is not None:
            first_poly = poly
            break

    R = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    guard_poly = _significant_poly(_reference_det_poly_square(R @ Pn, R @ Qn))

    branch = "finite"
    if first_poly is None and guard_poly is None:
        probes = [complex(rng.normal(), rng.normal()) for _ in range(3)]
        if all(smallest_singular_value(Pn + lam * Qn) <= margin for lam in probes):
            return SingularSet(ALL_OF_C, []), "all_of_c"
        guard_poly = trim_polynomial(_reference_det_poly_square(R @ Pn, R @ Qn))
        if guard_poly.size == 0:
            return SingularSet(FINITE, []), "noise_zero_guard"
        branch = "noise_full_rank"

    candidates = []
    for poly in (first_poly, guard_poly):
        if poly is None or poly.size <= 1:
            continue
        roots = poly_roots(poly)
        if roots is not ZERO_POLY:
            candidates.extend(roots)
    if not candidates:
        branch = "no_candidates"
    for cl in _cluster_roots(candidates, 1e-4):
        if len(cl) > 1:
            candidates.append(complex(np.mean(cl)))

    verified = [
        (lam, sv)
        for lam in candidates
        if (sv := smallest_singular_value(Pn + lam * Qn)) <= margin
    ]
    kept = []
    for cl in _cluster_roots(verified, tol.root_cluster, root=lambda pair: pair[0]):
        lam_best, _ = min(cl, key=lambda pair: pair[1])
        kept.append(lam_best)
    kept.sort(key=lambda z: (z.real, z.imag))
    return SingularSet(FINITE, kept), branch


def _reference_cases():
    """Seeded (label, P, Q, seed) pencils; the test checks which branches they reach."""
    rng = np.random.default_rng(2024)
    C = "complex"
    cases = []
    for n in (1, 2, 3, 4, 6):
        cases.append((f"square-{n}", rand_matrix(rng, n, n, C), rand_matrix(rng, n, n, C), 0))
    for m, n in ((3, 1), (6, 1), (3, 2), (4, 2), (5, 3)):
        # A planted singular point at lam = 0.5.
        Q = rand_matrix(rng, m, n, C)
        P0 = rand_matrix(rng, m, n, C)
        x = rand_matrix(rng, n, 1, C)
        x = x / np.linalg.norm(x)
        cases.append((f"tall-{m}x{n}", P0 - ((P0 + 0.5 * Q) @ x) @ x.conj().T, Q, 0))
    for n in (2, 3, 5):
        # A shared column kernel makes every point singular.
        D = np.diag([1.0] * (n - 1) + [0.0])
        cases.append((f"all-{n}", rand_matrix(rng, n, n, C) @ D, rand_matrix(rng, n, n, C) @ D, 0))
    for n in (4, 5):
        # Three singular values near 1e-5 push every minor below the noise
        # floor, while the pencil itself stays injective at the probes.
        U, W = random_unitary(n, C, rng), random_unitary(n, C, rng)
        tiny = 1e-5 * (1.0 + rng.random(n - 1))
        P = U @ np.diag(np.r_[1.0, tiny]) @ W
        Q = U @ np.diag(np.r_[0.5, tiny * rng.normal(size=n - 1)]) @ W
        cases.append((f"noise-{n}", P, Q, 0))
    cases.append(("zero", np.zeros((3, 2)), np.zeros((3, 2)), 0))
    for n in (2, 4):
        # det(I + lam N) = 1 for nilpotent N: no candidate root at all.
        N = np.triu(rand_matrix(rng, n, n, C), 1)
        cases.append((f"constant-{n}", np.eye(n), N, 0))
    for seed in (3, -3, 11):
        cases.append((f"seed{seed}", rand_matrix(rng, 4, 3, C), rand_matrix(rng, 4, 3, C), seed))
    return cases


def test_pencil_singular_set_matches_pointwise_reference():
    branches = set()
    for label, P, Q, seed in _reference_cases():
        expected, branch = _reference_pencil_singular_set(P, Q, seed=seed)
        branches.add(branch)
        got = pencil_singular_set(P, Q, seed=seed)
        assert got.kind == expected.kind, label
        assert len(got.roots) == len(expected.roots), label
        for a, b in zip(got.roots, expected.roots):
            assert type(a) is complex, label
            assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex()), label
    assert branches >= {"finite", "all_of_c", "noise_full_rank", "zero", "no_candidates"}


def test_pencil_points_match_scalar_evaluation():
    # Bitwise, including one point on a 1x1 pencil, where numpy rounds an
    # array-by-array product differently from a scalar-by-array one.
    rng = np.random.default_rng(8)
    for m, n in ((1, 1), (2, 1), (2, 2), (4, 3)):
        for count in (1, 2, 3):
            for _ in range(20):
                P, Q = rand_matrix(rng, m, n, "complex"), rand_matrix(rng, m, n, "complex")
                lams = [complex(z) for z in rng.normal(size=count) + 1j * rng.normal(size=count)]
                expected = np.array([P + lam * Q for lam in lams])
                assert np.array_equal(_pencil_points(P, Q, lams), expected)


def test_constrained_eigenpair_examples():
    l1, l2 = constrained_2x2_eigenpair(np.array([[0, 1], [1, 0]], dtype=complex))
    assert (l1, l2) == (pytest.approx(1.0), pytest.approx(-1.0))
    assert l1 * np.conj(l2) == pytest.approx(-1.0, abs=1e-8)

    l1, l2 = constrained_2x2_eigenpair(np.array([[1, np.sqrt(2)], [np.sqrt(2), 1]], dtype=complex))
    assert l1 == pytest.approx(1 + np.sqrt(2))
    assert l2 == pytest.approx(1 - np.sqrt(2))
    assert l1 * np.conj(l2) == pytest.approx(-1.0, abs=1e-8)

    with pytest.raises(ConstraintViolated):
        constrained_2x2_eigenpair(np.eye(2))


def test_constrained_eigenpair_parametrized_family():
    # The constraint system is solved by scaling [[lam, mu], [1, conj(lam) mu]]
    # with |a|^2 = 1/(1 - |lam|^2); every such matrix must satisfy the product rule.
    rng = np.random.default_rng(17)
    for _ in range(1000):
        lam = (rng.normal() + 1j * rng.normal()) * 0.4
        while abs(lam) >= 0.95:
            lam = (rng.normal() + 1j * rng.normal()) * 0.4
        mu = np.exp(1j * rng.uniform(0, 2 * np.pi))
        a2 = np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.sqrt(1 - abs(lam) ** 2)
        A = a2 * np.array([[lam, mu], [1.0, np.conj(lam) * mu]])
        l1, l2 = constrained_2x2_eigenpair(A)
        assert abs(l1 * np.conj(l2) + 1.0) <= 1e-8
