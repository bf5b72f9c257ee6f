"""The kernel-sphere branch and bound behind PR at kernel dimensions 1 to 3.

``_sphere_gamma`` proves ``g(c) = max(l2, -l_{n-1}) >= gamma`` for the
eigenvalues ``l1 >= ... >= ln`` of ``H(c) = sum_k c_k H_k``, over every unit
``c``, where ``H_1..H_d`` are Frobenius-orthonormal Hermitian (real field:
symmetric) matrices.  ``g <= 0`` exactly where ``H(c)`` is a multiple of some
``xx* - yy*``, so a family through such a matrix must never be proved.
"""

import numpy as np
import pytest

from prchannels import COMPLEX, DEFAULT_TOL, REAL
from prchannels import deciders
from prchannels.deciders import _sphere_gamma

from helpers import orthonormal_family, rand_matrix

MARGIN = DEFAULT_TOL.residual_abs


def _g(H, c):
    w = np.linalg.eigvalsh(np.tensordot(c, H, axes=1))
    return np.maximum(w[:, -2], -w[:, 1])


def _sphere_sample(d):
    """Dense unit vectors of R^d: both points of R^1, a fine half circle, or a Fibonacci sphere."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        t = np.linspace(0.0, np.pi, 5001)
        return np.column_stack((np.cos(t), np.sin(t)))
    k = np.arange(20000) + 0.5
    z = 1.0 - 2.0 * k / len(k)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))


def _random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_proved_gamma_never_exceeds_the_sampled_minimum(field, n, d):
    rng = np.random.default_rng([n, d, field == COMPLEX])
    sample = _sphere_sample(d)
    proved = 0
    for _ in range(8):
        H = orthonormal_family(rng, d, n, field)
        gamma = _sphere_gamma(H, MARGIN)
        if gamma is None:
            continue
        proved += 1
        assert MARGIN < gamma <= _g(H, sample).min()
    # In Herm(4) and Sym(4) the bad matrices have codimension 4 and 3, so a
    # random kernel of dimension 1 to 3 generically misses them.
    if n == 4:
        assert proved >= 4


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_a_family_through_a_pure_state_difference_is_never_proved(field, n, d, monkeypatch):
    # A generous budget, so that a search that wrongly clears the cells
    # around the bad point would go on to prove the rest of the sphere.
    monkeypatch.setattr(deciders, "_SPHERE_CELLS", 40_000)
    rng = np.random.default_rng([7, n, d, field == COMPLEX])
    for _ in range(6):
        x, y = rand_matrix(rng, 2, n, field)
        H = orthonormal_family(rng, d, n, field, first=np.outer(x, x.conj()) - np.outer(y, y.conj()))
        # Rotating the family moves the bad point off the face centres.
        H = np.tensordot(_random_rotation(rng, d), H, axes=1)
        assert _sphere_gamma(H, MARGIN) is None


def test_a_steep_bad_point_at_a_cell_corner_is_never_proved(monkeypatch):
    # The bad point c* sits on the face z_3 = 1 at (1/8, 0), a corner of every
    # cell of half-side 1/16 or less and the centre of none, close enough to
    # the face centre that the cells there are nearly flat.  Along each
    # diagonal of the face, g rises from c* at rate alpha, so the centre of
    # a cell cornered at c* lies near alpha h sqrt(2) above it: a radius that
    # dropped the sqrt(d - 1) would clear the cells around c*.
    # H(c) sends the orthonormal frame (c*, t1, t2) of R^3, t1 and t2 the
    # images of the face axes at c*, to (bad, g1, g2): (g1 +- g2)/sqrt(2) lie
    # mostly on e3e3* or e4e4*, in the null space of bad, and their beta
    # parts keep the kernel elements far from c* off the colliding signature.
    monkeypatch.setattr(deciders, "_SPHERE_CELLS", 40_000)
    alpha = 0.95
    beta = np.sqrt(1.0 - alpha**2)
    swap = np.zeros((4, 4))
    swap[0, 1] = swap[1, 0] = 1.0
    bad = np.diag([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    g1 = (alpha * np.diag([0.0, 0.0, 1.0, 1.0]) + beta * np.diag([1.0, 1.0, 0.0, 0.0])) / np.sqrt(2.0)
    g2 = (alpha * np.diag([0.0, 0.0, 1.0, -1.0]) + beta * swap) / np.sqrt(2.0)
    c = np.array([1.0 / 8.0, 0.0, 1.0])
    c /= np.linalg.norm(c)
    t1 = np.array([1.0, 0.0, 0.0]) - c[0] * c
    t1 /= np.linalg.norm(t1)
    frame = np.array([c, t1, [0.0, 1.0, 0.0]])
    H = np.tensordot(frame.T, np.array([bad, g1, g2]), axes=1).astype(complex)
    assert _g(H, c[None, :])[0] <= MARGIN
    assert _sphere_gamma(H, MARGIN) is None
