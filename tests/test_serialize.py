import json

import numpy as np
import pytest

from prchannels import COMPLEX, REAL, Frame, OracleConfig, decide_method, fixture
from prchannels.serialize import (
    channel_from_json,
    channel_to_json,
    dumps,
    frame_from_json,
    frame_to_json,
    matrix_from_json,
    matrix_to_json,
    verdict_to_json,
)

from helpers import random_cptp


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    text = json.dumps(matrix_to_json(M))
    back = matrix_from_json(json.loads(text))
    assert np.array_equal(back, M)  # bit exact, not approx


def test_channel_round_trip():
    rng = np.random.default_rng(5)
    for field in (REAL, COMPLEX):
        ch = random_cptp(3, 2, 2, field, rng)
        obj = channel_to_json(ch)
        back = channel_from_json(json.loads(json.dumps(obj)))
        assert back.field == ch.field
        assert back.dim_in == ch.dim_in and back.dim_out == ch.dim_out
        for A, B in zip(ch.kraus, back.kraus):
            assert np.array_equal(A, B)


def test_frame_round_trip():
    f = Frame(dim=2, vectors=np.array([[1, 0], [0, 1], [1, 1]], dtype=complex), field=COMPLEX)
    back = frame_from_json(json.loads(json.dumps(frame_to_json(f))))
    assert np.array_equal(back.vectors, f.vectors)
    assert back.field == f.field


def test_schema_errors():
    with pytest.raises(ValueError):
        channel_from_json({"dim_in": 2})
    with pytest.raises(ValueError):
        channel_from_json({"dim_in": 2, "dim_out": 2, "field": "quaternion", "kraus": []})
    with pytest.raises(ValueError):
        frame_from_json({"dim": 2, "field": "real", "vectors": [[["x", 0]]]})
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0]]])


def test_verdict_serialization_stable():
    # The screen alone: decide settles example 2.11 by its exact Choi-rank-2 stage.
    verdict = decide_method(fixture("example_2_11"), "necessary", OracleConfig(seed=9))
    a = dumps(verdict_to_json(verdict))
    b = dumps(verdict_to_json(decide_method(fixture("example_2_11"), "necessary", OracleConfig(seed=9))))
    assert a == b
    payload = json.loads(a)
    assert payload["status"] == "NOT_PR"
    assert payload["certificate"]["kind"] == "inner_product_violation"
