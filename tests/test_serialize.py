import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from prchannels import COMPLEX, REAL, Frame, OracleConfig, cli, decide_method, fixture
from prchannels.serialize import (
    channel_from_json,
    channel_to_json,
    dumps,
    frame_from_json,
    frame_to_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
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


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# Leaves json writes by its own rules: NaN and the infinities, -0.0,
# subnormals, floats from 1e16 up (exponent form), big ints, bools, None, and
# strings with non-ASCII and control characters.
_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e22, 1.7976931348623157e308]),
    st.floats(min_value=1e16, max_value=1e300),
    st.floats().map(np.float64),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=10**40), _floats, st.text()
)
# Regular float blocks take the emitter's one-format path; the non-finite
# ones and those with a non-float entry must fall back to the general rules.
_blocks = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=3),
    elements=st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16])),
).map(lambda a: a.tolist())
_trees = st.recursive(
    st.one_of(_leaves, _blocks),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=30,
)


def _canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_trees)
def test_dumps_is_byte_identical_to_json(obj):
    try:
        expected = _canonical(obj)
    except Exception as exc:  # a key order json cannot sort raises in both
        with pytest.raises(type(exc)):
            dumps(obj)
        return
    assert dumps(obj) == expected


def test_dumps_matches_json_on_shaped_corners():
    deep = [1.0]
    for _ in range(40):
        deep = [deep]
    cases = [
        [],
        {},
        [[]],
        [{}, [], ()],
        (1.0, 2.0),
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], [3, 4.0]],
        [[1.0, float("nan")], [float("-inf"), 0.0]],
        [1e308, 1e308],  # finite entries whose sum overflows
        [np.float64(0.1), 0.2],
        {"b": [[[0.5, -0.0]]], "a": {2: None, 1.5: True, False: "x"}},
        deep,
    ]
    for obj in cases:
        assert dumps(obj) == _canonical(obj)


def test_dumps_rejects_what_json_rejects():
    for bad in (object(), [np.int64(1)], {"a": {1, 2}}, {(1, 2): 0}, {1: 0, "a": 1}):
        with pytest.raises(TypeError):
            _canonical(bad)
        with pytest.raises(TypeError):
            dumps(bad)
    cyclic = [1.0]
    cyclic.append(cyclic)
    nested = {"x": []}
    nested["x"].append(nested)
    for bad in (cyclic, nested):
        with pytest.raises(ValueError):
            _canonical(bad)
        with pytest.raises(ValueError):
            dumps(bad)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_decoding_keeps_every_bit():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    M[0, 0] = complex(1.5, -0.0)
    M[1, 2] = complex(-0.0, 5e-324)
    M[2, 3] = complex(-2.2250738585072014e-308, float("inf"))
    M[0, 1] = complex(float("-inf"), -0.0)
    back = matrix_from_json(json.loads(dumps(matrix_to_json(M))))
    assert back.shape == M.shape and np.array_equal(_bits(back), _bits(M))
    v = M[1]
    back = vector_from_json(json.loads(dumps(vector_to_json(v))))
    assert np.array_equal(_bits(back), _bits(v))


def test_bool_and_int_entries_decode_as_numbers():
    assert np.array_equal(matrix_from_json([[[True, False], [0, 1]]]), np.array([[1.0, 1j]]))
    assert np.array_equal(vector_from_json([[2, 0.5], [False, True]]), np.array([2 + 0.5j, 1j]))


@pytest.mark.parametrize(
    "entry",
    [["1.0", 0.0], [None, 1.0], [1.0, None], [1.0], [1.0, 2.0, 3.0], [], "x", 1.0, None, {"re": 1.0}, [[1.0, 0.0]]],
)
def test_malformed_entries_name_themselves(entry):
    for decode, obj in ((vector_from_json, [[1.0, 0.0], entry]), (matrix_from_json, [[[1.0, 0.0], entry]])):
        with pytest.raises(ValueError, match="entry") as info:
            decode(obj)
        assert repr(entry) in str(info.value)


def test_malformed_shapes_raise_value_error():
    bad_matrices = [
        [],
        None,
        [[]],
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]],  # ragged rows
        [[[[1.0, 0.0]]]],  # nested too deep
        [[1.0, 0.0]],  # a vector where a matrix belongs
        [[[10**30, 0.0]]],  # past int64 and mixed: numpy keeps objects
        [[[2**70, 1]]],
    ]
    for obj in bad_matrices:
        with pytest.raises(ValueError):
            matrix_from_json(obj)
    for obj in ([], "ab", [[[1.0, 0.0]]], [[1.0, 0.0], [[1.0, 0.0]]]):
        with pytest.raises(ValueError):
            vector_from_json(obj)
    with pytest.raises(ValueError, match="inconsistent"):
        matrix_from_json(bad_matrices[3])


def test_fixtures_round_trip_to_their_own_bytes():
    files = sorted(FIXTURES.glob("*.json"))
    assert files
    for path in files:
        text = path.read_text()
        obj = json.loads(text)
        if "kraus" in obj:
            again = channel_to_json(channel_from_json(obj))
        else:
            again = frame_to_json(frame_from_json(obj))
        assert dumps(again) == text, path.name


def _channel_obj(**dims):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return {"dim_in": 2, "dim_out": 2, "field": "real", "kraus": [eye], **dims}


@pytest.mark.parametrize(
    "dims", [{"dim_in": 2.9}, {"dim_out": "2"}, {"dim_in": True}, {"dim_in": 2.0}, {"dim_out": 0}, {"dim_in": None}]
)
def test_channel_dimensions_must_be_json_integers(dims, tmp_path, capsys):
    assert channel_from_json(_channel_obj()).dim_in == 2
    with pytest.raises(ValueError, match="dim_"):
        channel_from_json(_channel_obj(**dims))
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(_channel_obj(**dims)))
    assert cli.main(["check", str(path)]) == cli.EXIT_INPUT
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2.5, 2.0, "2", False, -1])
def test_frame_dimension_must_be_a_json_integer(dim):
    obj = {"dim": 2, "field": "real", "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    assert frame_from_json(obj).dim == 2
    with pytest.raises(ValueError, match="dim"):
        frame_from_json({**obj, "dim": dim})
