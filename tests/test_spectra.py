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
from prchannels.spectra import _pencil_points, _seeded_draws

from helpers import (
    interpolation_pencil_singular_set,
    rand_matrix,
    random_unitary,
    reference_pencil_singular_set,
    smallest_singular_value,
)

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
    # The companion matrix of a determinant polynomial split a k-fold root by
    # about eps^(1/k) even where the pencil's root is semisimple, and lost it
    # from k = 12 on.  The generalized eigenvalues of a semisimple root stay
    # within rounding of it, so it passes the margin test at every k.
    # Two-block pinchings have such roots, of the larger block's size.
    rng = np.random.default_rng([13, field == "real"])
    for k in range(1, 15):
        for lam in (0.0, 0.3 - 0.2j if field == "complex" else -0.3):
            P, Q = _multiple_root(k, k + 1, lam, field, rng)
            got = pencil_singular_set(P, Q)
            assert got.kind == FINITE and len(got.roots) == 2, (k, lam)
            assert min(abs(z - lam) for z in got.roots) <= 1e-8 and min(abs(z - 1.0) for z in got.roots) <= 1e-8


def _jordan_root(k, n, lam, field, rng):
    """``P + mu Q = U ((mu - lam) I_k + N_k (+) (mu - 1) I) W`` with the nilpotent shift ``N_k``:
    one Jordan block of size k at lam, the rest at 1."""
    U, W = random_unitary(n, field, rng), random_unitary(n, field, rng)
    D = np.diag(np.r_[[-lam] * k, [-1.0] * (n - k)]).astype(complex) + np.diag(np.r_[np.ones(k - 1), np.zeros(n - k)], 1)
    return U @ D @ W, U @ W


@pytest.mark.parametrize("field", ["real", "complex"])
def test_defective_roots_are_kept(field):
    # The eigenvalues of a Jordan block of size k split by about eps^(1/k),
    # 1e-4 at k = 4, and each of them passes the margin test; the centroid
    # of the loose cluster that holds them is the root to rounding.
    rng = np.random.default_rng([14, field == "real"])
    for k in range(2, 9):
        for lam in (0.0, 0.3 - 0.2j if field == "complex" else -0.3):
            P, Q = _jordan_root(k, k + 1, lam, field, rng)
            got = pencil_singular_set(P, Q)
            assert got.kind == FINITE, (k, lam)
            assert min(abs(z - lam) for z in got.roots) <= 1e-8, (k, lam)
            assert min(abs(z - 1.0) for z in got.roots) <= 1e-8, (k, lam)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_defective_roots_at_infinity_are_dropped(field):
    # U (I_k + mu N_k (+) (mu - 1)) W with the nilpotent shift N_k has the one
    # finite root 1 and a Jordan block of size k at infinity.  Its
    # eigenvalues split around nu = 0 by about eps^(1/k) and sum to
    # rounding; the margin test alone would keep the far roots they give,
    # since ||(I + mu N_k)^-1|| grows like |mu|^(k - 1).
    rng = np.random.default_rng([15, field == "real"])
    for k in range(2, 9):
        U, W = random_unitary(k + 1, field, rng), random_unitary(k + 1, field, rng)
        N = np.diag(np.r_[np.ones(k - 1), 0.0], 1)
        P = U @ np.diag(np.r_[np.ones(k), -1.0]) @ W
        Q = U @ (N + np.diag(np.r_[np.zeros(k), 1.0])) @ W
        got = pencil_singular_set(P, Q)
        assert got.kind == FINITE and len(got.roots) == 1 and abs(got.roots[0] - 1.0) <= 1e-8, (k, got.roots)
        got = pencil_singular_set(U[:k, :k] @ np.eye(k) @ W[:k, :k], U[:k, :k] @ N[:k, :k] @ W[:k, :k])
        assert got.kind == FINITE and got.roots == [], (k, got.roots)


def _planted_roots(roots, field, rng, kernel=0):
    """``P + mu Q = U diag(mu - roots, 1 (kernel times)) W``: the given simple
    roots, and ``kernel`` semisimple roots at infinity."""
    n = len(roots) + kernel
    U, W = random_unitary(n, field, rng), random_unitary(n, field, rng)
    P = U @ np.diag(np.r_[-np.asarray(roots, dtype=complex), np.ones(kernel)]) @ W
    return P, U @ np.diag(np.r_[np.ones(len(roots)), np.zeros(kernel)]) @ W


def test_roots_symmetric_about_the_shift_are_kept():
    # The roots s + d and s - d about the seeded shift s give the eigenvalues
    # -1/d and 1/d of X, whose sum is at rounding level, like the split of a
    # defective root at infinity.  Their product is not, so both stay finite,
    # also beside semisimple roots at infinity, which go.
    rng = np.random.default_rng(17)
    for kernel in (0, 1, 2):
        s = _seeded_draws(0, 2 + kernel, 2 + kernel)[2]
        for d in (1e-2, 0.5, 1.0, 3.0, 1e3, 0.7 - 0.4j):
            roots = [s + d, s - d]
            pencils = [_planted_roots(roots, "complex", rng, kernel)]
            if kernel == 0:
                pencils.append((-np.diag(roots), np.eye(2)))
            for P, Q in pencils:
                got = pencil_singular_set(P, Q)
                assert got.kind == FINITE and len(got.roots) == 2, (kernel, d, got.roots)
                for lam in roots:
                    assert min(abs(z - lam) for z in got.roots) <= 1e-8 * (1.0 + abs(lam)), (kernel, d)


def test_roots_on_a_circle_about_the_shift_are_kept():
    # k roots s + omega^i on the unit circle about the shift, omega a k-th
    # root of unity, give eigenvalues of X whose characteristic polynomial
    # is z^k + c: every power sum below k vanishes.  A root 1e-3 from the
    # shift makes ||X|| about 1e3, so c / ||X||^k is below 1e-12 from k = 4
    # on and they would pass for a k-fold zero; Q has no kernel, so infinity
    # is no root and they stay.
    rng = np.random.default_rng(18)
    for k in range(2, 9):
        s = _seeded_draws(0, k + 1, k + 1)[2]
        roots = [s + 1e-3j] + [s + np.exp(2j * np.pi * i / k) for i in range(k)]
        got = pencil_singular_set(*_planted_roots(roots, "complex", rng))
        assert got.kind == FINITE and len(got.roots) == k + 1, (k, got.roots)
        for lam in roots:
            assert min(abs(z - lam) for z in got.roots) <= 1e-8, k


def test_roots_match_the_determinant_engine():
    # On generic square and tall pencils and on the reference cases without
    # multiple or tiny-scale roots, where the two engines verify different
    # points of one cluster, the eigenvalue engine keeps the roots of the
    # earlier determinant engine to 1e-6.
    rng = np.random.default_rng(16)
    pencils = []
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = n + int(rng.integers(0, 3))
        pencils.append((rand_matrix(rng, m, n, "complex"), rand_matrix(rng, m, n, "complex")))
    for label, P, Q, _ in _reference_cases():
        if not label.startswith(("noise", "multiple", "jordan")):
            pencils.append((P, Q))
    compared = 0
    for P, Q in pencils:
        got, want = pencil_singular_set(P, Q), interpolation_pencil_singular_set(P, Q)
        assert got.kind == want.kind and len(got.roots) == len(want.roots)
        for a, b in zip(got.roots, want.roots):
            assert abs(a - b) <= 1e-6 * (1.0 + abs(b))
            compared += 1
    assert compared > 50


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
    # before any eigenvalue, with the answer of the full computation.
    # Within the margin the root is still found.
    eig_calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        eig_calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rng = np.random.default_rng(41)
    lam = 0.3 + 0.4j
    margin = 1e-6 * (1.0 + abs(lam))  # ||Qn|| + ||Pn|| after normalization by ||Q|| = 1
    for m in (3, 5):
        for delta in (0.0, 0.9 * margin, 3.0 * margin):
            P, Q = _one_column_pencil(m, lam, delta, rng)
            P, Q = 10.0**k * P, 10.0**k * Q
            expected, _ = reference_pencil_singular_set(P, Q)
            del eig_calls[:]
            got = pencil_singular_set(P, Q)
            assert got.kind == expected.kind == FINITE
            assert [(z.real.hex(), z.imag.hex()) for z in got.roots] == [
                (z.real.hex(), z.imag.hex()) for z in expected.roots
            ]
            if delta < margin:
                # Off the exact root, the compressed 1x1 pencil's root moves by
                # about delta and is the only candidate: one near-singular
                # point, one root.
                assert len(got.roots) == 1 and abs(got.roots[0] - lam) <= 2.0 * margin
            else:
                assert got.roots == [] and eig_calls == []
    for m in (1, 3):
        Z0 = np.zeros((m, 1))
        del eig_calls[:]
        s = pencil_singular_set(10.0**k * rng.normal(size=(m, 1)), Z0)
        assert s.kind == FINITE and s.roots == [] and eig_calls == []
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
    for m, n in ((3, 2), (4, 3)):
        # A planted singular point at the seeded shift itself: a probe takes over.
        shift = _seeded_draws(0, n, m)[2]
        Q = rand_matrix(rng, m, n, C)
        P0 = rand_matrix(rng, m, n, C)
        x = rand_matrix(rng, n, 1, C)
        x = x / np.linalg.norm(x)
        cases.append((f"at-shift-{m}x{n}", P0 - ((P0 + shift * Q) @ x) @ x.conj().T, Q, 0))
    # A one-column pencil far from singular.
    cases.append(("one-column", rand_matrix(rng, 4, 1, C), rand_matrix(rng, 4, 1, C), 0))
    for n in (2, 3, 5):
        # A shared column kernel makes every point singular.
        D = np.diag([1.0] * (n - 1) + [0.0])
        cases.append((f"all-{n}", rand_matrix(rng, n, n, C) @ D, rand_matrix(rng, n, n, C) @ D, 0))
    for n in (4, 5):
        # Three singular values near 1e-5 make every maximal minor tiny; the
        # eigenvalues of the compressed pencil do not see that scale.
        U, W = random_unitary(n, C, rng), random_unitary(n, C, rng)
        tiny = 1e-5 * (1.0 + rng.random(n - 1))
        P = U @ np.diag(np.r_[1.0, tiny]) @ W
        Q = U @ np.diag(np.r_[0.5, tiny * rng.normal(size=n - 1)]) @ W
        cases.append((f"noise-{n}", P, Q, 0))
    cases.append(("zero", np.zeros((3, 2)), np.zeros((3, 2)), 0))
    for n in (2, 4):
        # det(I + lam N) = 1 for nilpotent N: every root is at infinity.
        N = np.triu(rand_matrix(rng, n, n, C), 1)
        cases.append((f"constant-{n}", np.eye(n), N, 0))
    for seed in (3, -3, 11):
        cases.append((f"seed{seed}", rand_matrix(rng, 4, 3, C), rand_matrix(rng, 4, 3, C), seed))
    for n in (2, 4):
        # Roots symmetric about the seeded shift: their eigenvalues sum to zero.
        s = _seeded_draws(0, n, n)[2]
        cases.append((f"symmetric-{n}", *_planted_roots([s + 0.8, s - 0.8], C, rng, n - 2), 0))
    for k in (2, 3):
        # A Jordan block of size k at infinity beside the finite root 1.
        U, W = random_unitary(k + 1, C, rng), random_unitary(k + 1, C, rng)
        N = np.diag(np.r_[np.ones(k - 1), 0.0], 1)
        cases.append((f"infinite-{k}", U @ np.diag(np.r_[np.ones(k), -1.0]) @ W, U @ (N + np.diag(np.r_[np.zeros(k), 1.0])) @ W, 0))
    for k in (4, 7):
        # A semisimple k-fold root, and a Jordan block of size k whose
        # eigenvalues split around their centroid.
        cases.append((f"multiple-{k}", *_multiple_root(k, k + 2, 0.5j, C, rng), 0))
        cases.append((f"jordan-{k}", *_jordan_root(k, k + 2, 0.5j, C, rng), 0))
    return cases


def test_pencil_singular_set_matches_pointwise_reference(monkeypatch):
    # Past the zero-scale and one-column exits, each pencil makes one solve
    # at the shift, and one more at a probe when it is singular at the
    # shift; each verification is one stacked SVD, the same bits as one SVD
    # per point.
    solve_calls = []
    solve = np.linalg.solve

    def counted(a, b):
        solve_calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    branches = set()
    for label, P, Q, seed in _reference_cases():
        expected, branch = reference_pencil_singular_set(P, Q, seed=seed)
        branches.add(branch)
        del solve_calls[:]
        got = pencil_singular_set(P, Q, seed=seed)
        n = P.shape[1]
        calls = {"zero": 0, "one_column": 0, "singular_shift": 2}.get(branch, 1)
        assert solve_calls == [(n, n)] * calls, label
        assert got.kind == expected.kind, label
        assert len(got.roots) == len(expected.roots), label
        for a, b in zip(got.roots, expected.roots):
            assert type(a) is complex, label
            assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex()), label
    assert branches == {"finite", "all_of_c", "singular_shift", "zero", "one_column", "no_candidates", "centroid", "infinite"}


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
