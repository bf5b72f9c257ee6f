import numpy as np
import pytest

from prchannels import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Frame,
    QuantumChannel,
    Tolerance,
    hermitian_eig,
    kernel_basis,
    minimal_kraus_from_choi,
    numerical_rank,
)
from prchannels.errors import NotHermitian
from prchannels.linalg import _rank_one_independent, as_matrix

from helpers import ZERO_POLY, poly_roots, rand_matrix, random_unitary, smallest_singular_value


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=1.5)
    with pytest.raises(ValueError):
        Tolerance(residual_abs=-1e-8)


@pytest.mark.parametrize("name", ["residual_abs", "root_cluster"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_tolerance_rejects_non_finite_and_non_positive_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
        Tolerance(**{name: value})
    with pytest.raises(ValueError, match="rank_rel"):
        Tolerance(rank_rel=value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
def test_non_finite_entries_are_rejected(bad):
    M = np.eye(2, dtype=complex)
    M[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(M)
    with pytest.raises(ValueError, match="non-finite"):
        QuantumChannel(2, 2, [np.eye(2), M])
    with pytest.raises(ValueError, match="finite"):
        Frame(dim=2, vectors=M)
    # The same entries, finite, pass all three.
    M[1, 0] = 0.5
    as_matrix(M)
    QuantumChannel(2, 2, [np.eye(2), M])
    Frame(dim=2, vectors=M)


def test_numerical_rank_basics():
    assert numerical_rank(np.eye(2)) == 2
    assert numerical_rank([[1, 1], [1, 1]]) == 1
    assert numerical_rank(np.zeros((3, 2))) == 0


def test_numerical_rank_isometry_stack():
    # Stack of I/sqrt2 over the coordinate swap/sqrt2 is an isometry: all
    # singular values equal 1, checked directly against the SVD.
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    stack = np.vstack([np.eye(2) / np.sqrt(2), X / np.sqrt(2)])
    svals = np.linalg.svd(stack, compute_uv=False)
    assert np.allclose(svals, 1.0, atol=1e-12)
    assert numerical_rank(stack) == 2


def test_numerical_rank_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rows, cols = rng.integers(2, 7, size=2)
        M = rand_matrix(rng, rows, cols, "complex")
        # Make some inputs genuinely rank-deficient.
        if rng.random() < 0.5 and min(rows, cols) > 1:
            u = rand_matrix(rng, rows, 1, "complex")
            v = rand_matrix(rng, 1, cols, "complex")
            M = u @ v
        U = random_unitary(rows, "complex", rng)
        V = random_unitary(cols, "complex", rng)
        assert numerical_rank(U @ M @ V) == numerical_rank(M)


def test_kernel_basis_examples():
    assert kernel_basis(np.eye(3)) == []
    (v,) = kernel_basis([[1, 1], [1, 1]])
    assert abs(abs(np.vdot(v, np.array([1, -1]) / np.sqrt(2))) - 1.0) < 1e-10
    (w,) = kernel_basis([[1, 0], [0, 0], [0, 0]])
    assert abs(abs(w[1]) - 1.0) < 1e-12 and abs(w[0]) < 1e-12


def test_kernel_basis_properties():
    rng = np.random.default_rng(5)
    for _ in range(30):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        A = rand_matrix(rng, rows, rank, "complex") @ rand_matrix(rng, rank, cols, "complex") if rank else np.zeros((rows, cols), dtype=complex)
        basis = kernel_basis(A)
        assert len(basis) == cols - numerical_rank(A)
        smax = np.linalg.svd(A, compute_uv=False)[0] if rank else 0.0
        for i, v in enumerate(basis):
            assert np.linalg.norm(A @ v) <= 10 * DEFAULT_TOL.rank_rel * smax + 1e-14
            for w in basis[i + 1 :]:
                assert abs(np.vdot(v, w)) < 1e-12
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_smallest_singular_value():
    assert smallest_singular_value(np.eye(4)) == pytest.approx(1.0)
    assert smallest_singular_value(np.diag([3.0, 0.5])) == pytest.approx(0.5)
    assert smallest_singular_value([[1, 1], [1, 1]]) == pytest.approx(0.0, abs=1e-12)
    # Wide matrices always have a kernel over the column dimension.
    assert smallest_singular_value(np.ones((1, 3))) == 0.0


def test_hermitian_eig_examples():
    vals, vecs = hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(vals, [2.0, 1.0])
    assert np.allclose(np.abs(vecs), np.eye(2))

    vals, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(vals, [1.0, -1.0])

    # Frame operator of {e1, e2, e1+e2}; characteristic polynomial by hand
    # gives (lam - 2)^2 = 1, so eigenvalues 3 and 1.
    vals, _ = hermitian_eig(np.array([[2, 1], [1, 2]], dtype=complex))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_reads_relative_to_the_norm():
    # A one-sided off-diagonal entry of half the diagonal is far from
    # Hermitian at any scale, also below unit norm.
    H = 1e-10 * np.eye(4, dtype=complex)
    H[0, 1] = 5e-11
    with pytest.raises(NotHermitian):
        hermitian_eig(H)
    with pytest.raises(NotHermitian):
        minimal_kraus_from_choi(H, 2, 2)
    # Rounding noise on a large Hermitian matrix still passes, and so does zero.
    rng = np.random.default_rng(4)
    G = rand_matrix(rng, 4, 4, "complex")
    H = 1e5 * (G + G.conj().T)
    noisy = H + 1e-15 * np.linalg.norm(H) * rand_matrix(rng, 4, 4, "complex")
    assert not np.array_equal(noisy, noisy.conj().T)
    vals, _ = hermitian_eig(noisy)
    assert np.allclose(vals, np.linalg.eigvalsh(H)[::-1], rtol=0.0, atol=1e-9 * np.linalg.norm(H))
    vals, _ = hermitian_eig(np.zeros((3, 3)))
    assert np.array_equal(vals, np.zeros(3))


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(3)
    for n in (2, 5, 17, 32):
        G = rand_matrix(rng, n, n, "complex")
        H = G + G.conj().T
        vals, vecs = hermitian_eig(H)
        assert np.all(np.diff(vals) <= 1e-12)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(H - recon) <= 1e-10 * (1 + np.linalg.norm(H))


def test_poly_roots_examples():
    roots = poly_roots([-1.0, 0.0, 1.0])
    assert sorted(r.real for r in roots) == pytest.approx([-1.0, 1.0])
    assert poly_roots([1.0]) == []
    assert poly_roots([]) is ZERO_POLY
    assert poly_roots([0.0, 0.0]) is ZERO_POLY
    # det((I + lam X)/sqrt 2) expands to (1 - lam^2)/2 by hand.
    roots = poly_roots([0.5, 0.0, -0.5])
    assert sorted(r.real for r in roots) == pytest.approx([-1.0, 1.0])


def test_poly_roots_residuals():
    rng = np.random.default_rng(9)
    for deg in range(1, 13):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        roots = poly_roots(c)
        top = np.max(np.abs(c))
        for r in roots:
            val = abs(np.polynomial.polynomial.polyval(r, c))
            assert val <= 1e-6 * top * (1 + abs(r)) ** deg


def test_poly_roots_trims_tiny_leading_terms():
    roots = poly_roots([-1.0, 0.0, 1.0, 1e-15])
    assert len(roots) == 2


def _outer_product_independent(U, tol=DEFAULT_TOL):
    """The reference: the Gram matrix of the flattened outer products ``u_j u_j*``."""
    vecs = np.array([np.outer(u, u.conj()).reshape(-1) for u in U])
    return numerical_rank(vecs @ vecs.conj().T, tol) == len(U)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_rank_one_independence_matches_the_outer_product_gram(field):
    rng = np.random.default_rng([27, field == REAL])
    checked = {True: 0, False: 0}
    for n in (2, 3, 4):
        dim = n * (n + 1) // 2 if field == REAL else n * n
        for N in range(1, dim + 3):
            U = rand_matrix(rng, N, n, field)
            families = [U]
            if N >= 2:
                # A scaled copy, a sign or phase flip, and a vector whose
                # projection lies in the span of the others' (e1, e2, e1 +- e2).
                families.append(np.vstack((U, 3.0 * U[:1])))
                families.append(np.vstack((U[1:], -1j * U[:1] if field == COMPLEX else -U[:1], U[:1])))
                e = np.eye(n)[:2].astype(complex)
                families.append(np.vstack((e, e.sum(axis=0), e[0] - e[1], U[: N - 2])))
            for F in families:
                expected = _outer_product_independent(F)
                assert _rank_one_independent(F, DEFAULT_TOL) == expected, (n, N, len(F))
                checked[expected] += 1
    assert checked[True] and checked[False]
