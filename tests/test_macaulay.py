"""The Macaulay step of the kernel stage and the gate in front of it.

``_macaulay_degree`` proves that the span of ``H_1..H_d``, even over C, holds
no nonzero matrix of rank at most 2, by a Macaulay matrix of the 3x3 minors
of ``H(c)`` of full column rank.  A span through some ``xx* - yy*`` has such
a matrix, so it must never be proved; generic spans of dimension up to the
codimension of the rank-2 locus, ``(n - 2)^2`` (complex) and ``C(n - 1, 2)``
(real), are.  The test reads the kernel alone, so neither an orthogonal
change of basis nor a unitary conjugation moves its singular values.  Where
no Macaulay matrix fits under the size cap, it runs on a seeded compression
``V* H_k V`` of the span, which can only lower ranks.
"""

from itertools import combinations

import numpy as np
import pytest

from prchannels import COMPLEX, DEFAULT_TOL, NOT_PR, PR, REAL, decide, decide_method, random_generic_frame
from prchannels import deciders, linalg
from prchannels.constructors import projector_channel_from_frame
from prchannels.deciders import MACAULAY, _ChannelRecord, _rank_one_points
from prchannels.linalg import _macaulay_degree, _monomials

from helpers import (
    orthonormal_family,
    pinching,
    planted_basis,
    random_cptp,
    random_unitary,
    signature_gap,
    sphere_sample,
)


def _codim(n, field):
    return (n - 1) * (n - 2) // 2 if field == REAL else (n - 2) ** 2


def _family(n, d, field, rng):
    """``d`` random Frobenius-orthonormal Hermitian (real: symmetric) matrices."""
    H = orthonormal_family(rng, d, n, field)
    return H.real if field == REAL else H


def _minors_brute(H, c):
    """Every 3x3 minor of ``H(c)`` by determinants: rows I and columns J for
    ``I <= J``, then J and I for ``I < J``."""
    M = np.tensordot(c, H, 1)
    idx = list(enumerate(combinations(range(len(M)), 3)))
    pairs = [(I, J) for a, I in idx for b, J in idx if a <= b] + [(J, I) for a, I in idx for b, J in idx if a < b]
    return np.array([np.linalg.det(M[np.ix_(I, J)]) for I, J in pairs])


@pytest.mark.parametrize("field,n", [(REAL, 4), (REAL, 5), (COMPLEX, 4), (COMPLEX, 5)])
def test_planted_kernels_are_never_certified(field, n):
    # Every span through a real xx* - yy* (complex x, y on the complex field)
    # with 2 <= d <= codim, 14 per dimension: 252 kernels over the four
    # shapes, none proved.
    for d in range(2, _codim(n, field) + 1):
        for seed in range(14):
            H = planted_basis(n, d, field, np.random.default_rng([n, d, seed, field == REAL]))
            assert _macaulay_degree(H, DEFAULT_TOL) is None, (d, seed)


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("n", (4, 5))
def test_step_agrees_with_the_sphere_search(field, n):
    # Random spans of dimension 2 and 3: wherever a dense sample of the unit
    # sphere keeps g = max(l2, -l_{n-1}) well above the margin, so that no
    # element comes near the colliding signature, the step proves it.
    both = 0
    for d in (2, 3):
        for seed in range(4):
            H = _family(n, d, field, np.random.default_rng([7, n, d, seed]))
            if signature_gap(H, sphere_sample(d)).min() > 1e3 * DEFAULT_TOL.residual_abs:
                assert _macaulay_degree(H, DEFAULT_TOL) is not None, (d, seed)
                both += 1
    assert both >= 4


@pytest.mark.parametrize("field,n,d", [(COMPLEX, 4, 4), (COMPLEX, 5, 6), (REAL, 4, 3), (REAL, 5, 5)])
def test_sigma_ratio_is_basis_free(field, n, d):
    # Bombieri weights in rows and columns: an orthogonal change of the
    # kernel basis, and a unitary conjugation of every H_k, keep the degree
    # and the singular values.
    rng = np.random.default_rng([n, d])
    H = _family(n, d, field, rng)
    D, ratio = _macaulay_degree(H, DEFAULT_TOL)
    O = np.linalg.qr(rng.normal(size=(d, d)))[0]
    U = random_unitary(n, field, rng)
    U = U.real if field == REAL else U
    for moved in (np.tensordot(O, H, 1), U @ H @ U.conj().T):
        D2, ratio2 = _macaulay_degree(moved, DEFAULT_TOL)
        assert D2 == D and ratio2 == pytest.approx(ratio, rel=1e-8)


@pytest.mark.parametrize("field,n", [(COMPLEX, 9), (COMPLEX, 11), (REAL, 10), (REAL, 12), (COMPLEX, 16), (REAL, 16)])
def test_planted_kernels_past_the_cap_are_never_certified(field, n):
    # No Macaulay matrix of these sizes fits under the cap at d = 2 or 3, so
    # the step compresses the span; the compression of a planted xx* - yy*
    # still has rank at most 2, and nothing may be proved.
    for d in (2, 3):
        for seed in range(4):
            H = planted_basis(n, d, field, np.random.default_rng([n, d, seed, 9]))
            assert _macaulay_degree(H, DEFAULT_TOL) is None, (d, seed)


def test_minor_coefficients_match_determinants(monkeypatch):
    # The Macaulay rows at degree 3 are the minors' coefficients: evaluated
    # at a point, each row times the weighted monomials is that minor.
    H = _family(4, 3, COMPLEX, np.random.default_rng(3))
    svd, seen = np.linalg.svd, []

    def keep(a, *args, **kwargs):
        seen.append(a.copy())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", keep)
    assert _macaulay_degree(H, DEFAULT_TOL)[0] == 3
    E, w = _monomials(3, 3)
    c = np.random.default_rng(4).normal(size=3) + 1j * np.random.default_rng(5).normal(size=3)
    values = seen[0] @ (w * np.prod(c ** E, axis=1))
    assert np.allclose(values, _minors_brute(H, c), atol=1e-12)


def test_nothing_is_built_when_no_degree_fits(monkeypatch):
    # C^5 with a nine-dimensional kernel: degree 3 has 100 rows for 165
    # columns, and degree 4 passes the cap.
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(linalg, "_monomials", refuse)
    H = _family(5, 9, COMPLEX, np.random.default_rng(0))
    assert _macaulay_degree(H, DEFAULT_TOL) is None


def test_generic_wide_kernels_are_proved_before_the_witness_search(monkeypatch):
    # Generic complex frames of 4n - 4 or more vectors in C^4 and C^5 with
    # d <= (n - 2)^2, the benchmark's former LIKELY_PR items among them.
    # Past them, frames with kernels of dimension 3 (C^9, R^10) and 2 (C^11,
    # R^12), the first sizes at which no degree fits under the cap: the
    # span compressed to C^8, R^9, C^10 or R^11 is proved at degree 3.
    def refuse(*args, **kwargs):
        raise AssertionError("the witness search ran")

    monkeypatch.setattr(deciders, "_kernel_search", refuse)
    shapes = [(4, 12, COMPLEX, 5), (4, 13, COMPLEX, 3), (5, 19, COMPLEX, 3), (5, 22, COMPLEX, 3)]
    shapes += [(9, 78, COMPLEX, 3), (10, 52, REAL, 3), (11, 119, COMPLEX, 3), (12, 76, REAL, 3)]
    for n, N, field, D in shapes:
        verdict = decide(projector_channel_from_frame(random_generic_frame(n, N, field, 1)))
        assert (verdict.status, verdict.method, verdict.floor) == (PR, MACAULAY, None)
        assert verdict.certificate.degree == D and 1e-10 < verdict.certificate.ratio <= 1.0


@pytest.mark.parametrize(
    "label,ch",
    [
        ("pinching (1, 1, 1, 1)", pinching((1, 1, 1, 1), COMPLEX)),
        ("pinching (2, 1, 2)", pinching((2, 1, 2), REAL)),
        ("short frame C^4", projector_channel_from_frame(random_generic_frame(4, 8, COMPLEX, 2))),
        ("short frame R^5", projector_channel_from_frame(random_generic_frame(5, 8, REAL, 2))),
    ],
)
def test_not_pr_kernels_past_the_codimension_skip_the_step(monkeypatch, label, ch):
    # Their kernel dimension exceeds the codimension, so the Macaulay step
    # builds no matrix: the rank-one step or the witness search settles them.
    def refuse(*args, **kwargs):
        raise AssertionError("the Macaulay step ran")

    monkeypatch.setattr(deciders, "_macaulay_degree", refuse)
    assert _ChannelRecord(ch, DEFAULT_TOL).kernel_dim > _codim(ch.dim_in, ch.field)
    assert decide_method(ch, "oracle").status == NOT_PR, label


def test_rank_one_step_declines_a_wide_null_space_without_an_svd(monkeypatch):
    # A real channel from R^7 to R^6 with 4 Kraus operators: a kernel of
    # dimension 7 and a complement of 21 in Sym(7).  The quadrics vanishing
    # on the rank-one matrices leave the linearized minors a null space of at
    # least 231 - 196 = 35 dimensions, past m = 21, and the second system it
    # forces passes the cap: the step declines before any SVD.
    ch = random_cptp(7, 6, 4, REAL, np.random.default_rng(24))
    rec = _ChannelRecord(ch, DEFAULT_TOL)
    S = rec.complement_basis
    assert (len(S), rec.kernel_dim) == (21, 7)
    # The Kraus ranks come from the record's one values-only SVD of the
    # stack, which the rank split reads ahead of the kernel steps.
    assert rec.kraus_ranks.max() > 1
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert _rank_one_points(S, DEFAULT_TOL) is None
    assert deciders._rank_one_verdict(rec) is None
    assert calls == []
