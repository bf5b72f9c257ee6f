import numpy as np
import pytest
import scipy.linalg

from prchannels import (
    ALL_OF_C,
    FINITE,
    constrained_2x2_eigenpair,
    fixture,
    in_relative_spectrum,
    is_left_invertible,
    kernel_basis,
    pencil_singular_set,
)
from prchannels.errors import ConstraintViolated, DimensionMismatch
from prchannels.spectra import _pencil_points

from helpers import rand_matrix, random_unitary, reference_pencil_singular_set, smallest_singular_value

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


def _multiple_root(k, n, lam, field, rng):
    """``P + mu Q = U diag(mu - lam (k times), mu - 1, ...) W``: a k-fold root at lam, the rest at 1."""
    U, W = random_unitary(n, field, rng), random_unitary(n, field, rng)
    return U @ np.diag(np.r_[[-lam] * k, [-1.0] * (n - k)]) @ W, U @ W


@pytest.mark.parametrize("field", ["real", "complex"])
def test_multiple_roots_are_kept(field):
    # The companion eigenvalues of a k-fold root split by about eps^(1/k);
    # none of them passes the margin test from k = 4 on, and the centroid of
    # the cluster that holds them all does.  Two-block pinchings whose larger
    # block has size 4 or more have such roots.
    rng = np.random.default_rng([13, field == "real"])
    for k in range(1, 8):
        for lam in (0.0, 0.3 - 0.2j if field == "complex" else -0.3):
            P, Q = _multiple_root(k, k + 1, lam, field, rng)
            got = pencil_singular_set(P, Q)
            assert got.kind == FINITE and len(got.roots) == 2, (k, lam)
            assert min(abs(z - lam) for z in got.roots) <= 1e-8 and min(abs(z - 1.0) for z in got.roots) <= 1e-8


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


def _one_column_pencil(m, lam, delta, rng):
    """Unit ``Q`` (m x 1, m >= 3) and ``P = -lam Q + delta e`` with unit ``e`` orthogonal to ``Q``, ``e[0] = 0``.

    ``||P + mu Q||^2 = |mu - lam|^2 + delta^2``: the distance from P to the
    line of Q is delta, and the first row's minor has the root lam.
    """
    Q = rand_matrix(rng, m, 1, "complex")
    Q /= np.linalg.norm(Q)
    e = rand_matrix(rng, m, 1, "complex")
    e[0] = 0.0
    e[1:] -= (np.vdot(Q[1:], e[1:]) / np.vdot(Q[1:], Q[1:])) * Q[1:]
    e /= np.linalg.norm(e)
    return -lam * Q + delta * e, Q


@pytest.mark.parametrize("k", [-5, 0, 5])
def test_one_column_exit(monkeypatch, k):
    # A one-column pencil is singular only where P + lam Q vanishes, so a
    # distance from P to the line of Q beyond twice the margin settles it
    # before any determinant, with the answer of the full computation.
    # Within the margin the root is still found.
    det_calls = []
    det = np.linalg.det

    def counted(a):
        det_calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    rng = np.random.default_rng(41)
    lam = 0.3 + 0.4j
    margin = 1e-6 * (1.0 + abs(lam))  # ||Qn|| + ||Pn|| after normalization by ||Q|| = 1
    for m in (3, 5):
        for delta in (0.0, 0.9 * margin, 3.0 * margin):
            P, Q = _one_column_pencil(m, lam, delta, rng)
            P, Q = 10.0**k * P, 10.0**k * Q
            expected, _ = reference_pencil_singular_set(P, Q)
            del det_calls[:]
            got = pencil_singular_set(P, Q)
            assert got.kind == expected.kind == FINITE
            assert [(z.real.hex(), z.imag.hex()) for z in got.roots] == [
                (z.real.hex(), z.imag.hex()) for z in expected.roots
            ]
            if delta < margin:
                # Off the exact root, the guard's root moves by about delta and
                # stays the only candidate: one near-singular point, one root.
                assert len(got.roots) == 1 and abs(got.roots[0] - lam) <= 2.0 * margin
            else:
                assert got.roots == [] and det_calls == []
    for m in (1, 3):
        Z0 = np.zeros((m, 1))
        del det_calls[:]
        s = pencil_singular_set(10.0**k * rng.normal(size=(m, 1)), Z0)
        assert s.kind == FINITE and s.roots == [] and det_calls == []
        assert pencil_singular_set(Z0, Z0).kind == ALL_OF_C


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
    for k in (4, 7):
        # A k-fold root, kept only by the centroid of a loose cluster.
        cases.append((f"multiple-{k}", *_multiple_root(k, k + 2, 0.5j, C, rng), 0))
    return cases


def test_pencil_singular_set_matches_pointwise_reference(monkeypatch):
    # Past the zero-scale exit, each pencil builds one determinant
    # polynomial, the guard: one stacked det over its n + 1 nodes.
    det_calls = []
    det = np.linalg.det

    def counted(a):
        det_calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    branches = set()
    for label, P, Q, seed in _reference_cases():
        expected, branch = reference_pencil_singular_set(P, Q, seed=seed)
        branches.add(branch)
        del det_calls[:]
        got = pencil_singular_set(P, Q, seed=seed)
        n = P.shape[1]
        assert det_calls == ([] if branch == "zero" else [(n + 1, n, n)]), label
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
