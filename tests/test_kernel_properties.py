"""Property test: the kernel stage's PR survives the symmetries of phase retrieval.

Scaling the Kraus family by ``10**k`` with ``|k| <= 6``, unitary pre- and
post-conjugation, unitary mixing of the Kraus operators and splitting one
operator into two scaled copies all leave the channel's phase retrievability
unchanged, so a proof by a trivial Hermitian kernel must survive them on both
fields.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from prchannels import COMPLEX, PR, REAL, QuantumChannel, decide_method
from prchannels.deciders import ORACLE_NO_WITNESS

from helpers import rand_matrix, random_unitary


def _kernel_verdict(ch):
    # The "oracle" sub-list is the kernel stage followed by the oracle, and
    # only the kernel stage can give PR.
    return decide_method(ch, "oracle")


def _mix(kraus, W):
    return [sum(W[i, j] * kraus[j] for j in range(len(kraus))) for i in range(len(kraus))]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from((REAL, COMPLEX)),
    n=st.integers(1, 4),
    extra_out=st.integers(0, 2),
    r=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
)
def test_kernel_stage_pr_is_invariant(field, n, extra_out, r, seed, k):
    rng = np.random.default_rng(seed)
    m = n + extra_out
    kraus = [rand_matrix(rng, m, n, field) for _ in range(r)]
    before = _kernel_verdict(QuantumChannel(n, m, kraus, field))
    assume(before.status == PR)
    assert before.method == ORACLE_NO_WITNESS

    V, U = random_unitary(m, field, rng), random_unitary(n, field, rng)
    moves = {
        "scale down": [10.0**-k * A for A in kraus],
        "scale up": [10.0**k * A for A in kraus],
        "conjugate": [V @ A @ U for A in kraus],
        "mix": _mix(kraus, random_unitary(r, field, rng)),
        "split": [kraus[0] / np.sqrt(2.0), kraus[0] / np.sqrt(2.0), *kraus[1:]],
    }
    for name, moved in moves.items():
        if field == REAL:
            moved = [A.real.astype(complex) for A in moved]
        after = _kernel_verdict(QuantumChannel(n, m, moved, field))
        assert (after.status, after.method) == (PR, ORACLE_NO_WITNESS), name
