"""JSON encodings for channels, frames, POVMs and verdicts.

Matrix entries are ``[re, im]`` pairs of binary64 values.  Python's float
parsing and repr are both correctly rounded, so loading and dumping round
trips bit exactly.  A matrix is decoded by one ``np.array`` call on the
nested list and read as ``.view(complex)`` of the float array, which keeps
every bit of every value, signed zeros and infinities included.

:func:`dumps` writes the canonical text, the bytes of
``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, through its own emitter:
``json`` falls back to its pure-Python encoder whenever ``indent`` is set.
The emitter follows that encoder rule for rule (the key coercion and sort
order, ``NaN``/``Infinity``, ``int.__repr__`` and ``float.__repr__`` for
subclasses, tuples as lists, ``[]`` and ``{}``, ``TypeError`` for an
unsupported type, ``ValueError`` for a cycle) and escapes strings with the C
``encode_basestring_ascii`` of ``json``.  A regular nested list of finite
floats, such as a matrix of ``[re, im]`` pairs, is written by one ``%``
format, whose ``%r`` is ``float.__repr__`` on exact floats; the format string
is cached per (depth, shape).  ``tests/test_serialize.py`` checks the bytes
against ``json.dumps`` on generated trees.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .channels import QuantumChannel
from .constructors import POVM, ConstructionResult
from .deciders import (
    EmptyCertificate,
    InnerProductViolation,
    MacaulayCertificate,
    PencilClash,
    PRVerdict,
    StateWitness,
    TensorWitness,
)
from .frames import Frame
from .linalg import COMPLEX, REAL

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "channel_to_json",
    "channel_from_json",
    "frame_to_json",
    "frame_from_json",
    "povm_to_json",
    "verdict_to_json",
    "construction_to_json",
    "dumps",
]


def _complex_array(obj, ndim: int, what: str) -> np.ndarray:
    """The ``ndim``-dimensional complex array of a nested list of ``[re, im]`` pairs.

    One ``np.array`` call reads the whole list; only bool, int and float
    arrays of shape ``(..., 2)`` pass.  Anything else is walked entry by entry
    for an error that names the offending entry.
    """
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{what} must be a nonempty list")
    try:
        arr = np.array(obj)
    except ValueError:  # ragged
        arr = None
    if arr is not None and arr.dtype.kind in "biuf" and arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return np.ascontiguousarray(arr, dtype=float).view(complex).reshape(arr.shape[:-1])
    rows = obj if ndim == 2 else [obj]
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ValueError(f"{what} row must be a nonempty list of [re, im] pairs, got {row!r}")
        for pair in row:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"{what} entry must be a [re, im] pair, got {pair!r}")
            if not all(isinstance(c, (int, float)) for c in pair):
                raise ValueError(f"{what} entry components must be numbers, got {pair!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{what} rows have inconsistent lengths")
    raise ValueError(f"{what} entries must be [re, im] pairs of binary64 numbers")


def matrix_to_json(M) -> list:
    """``[re, im]`` pairs nested as ``M``: rows of pairs, or one pair for a scalar."""
    A = np.asarray(M, dtype=complex)
    return np.ascontiguousarray(A).view(float).reshape(A.shape + (2,)).tolist()


def matrix_from_json(rows) -> np.ndarray:
    return _complex_array(rows, 2, "matrix")


def vector_to_json(v) -> list:
    return matrix_to_json(v)


def vector_from_json(entries) -> np.ndarray:
    return _complex_array(entries, 1, "vector")


def _dimension(obj: dict, key: str) -> int:
    """A JSON integer of at least 1; a bool, a float or a string is refused."""
    value = obj[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
    return value


def channel_to_json(ch: QuantumChannel) -> dict:
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "field": ch.field,
        "kraus": [matrix_to_json(A) for A in ch.kraus],
    }


def channel_from_json(obj) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise ValueError("channel JSON must be an object")
    for key in ("dim_in", "dim_out", "field", "kraus"):
        if key not in obj:
            raise ValueError(f"channel JSON misses key {key!r}")
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    kraus = obj["kraus"]
    if not isinstance(kraus, list) or not kraus:
        raise ValueError("channel JSON needs a nonempty kraus list")
    return QuantumChannel(
        dim_in=_dimension(obj, "dim_in"),
        dim_out=_dimension(obj, "dim_out"),
        kraus=[matrix_from_json(M) for M in kraus],
        field=field,
    )


def frame_to_json(f: Frame) -> dict:
    return {
        "dim": f.dim,
        "field": f.field,
        "vectors": [vector_to_json(v) for v in f.vectors],
    }


def frame_from_json(obj) -> Frame:
    if not isinstance(obj, dict):
        raise ValueError("frame JSON must be an object")
    for key in ("dim", "field", "vectors"):
        if key not in obj:
            raise ValueError(f"frame JSON misses key {key!r}")
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    vectors = obj["vectors"]
    return Frame(
        dim=_dimension(obj, "dim"),
        vectors=_complex_array(vectors, 2, "frame vectors"),
        field=field,
    )


def povm_to_json(p: POVM) -> dict:
    return {
        "dim": p.dim,
        "rank_one_count": p.rank_one_count,
        "elements": [matrix_to_json(E) for E in p.elements],
    }


def _certificate_to_json(cert) -> dict:
    if isinstance(cert, PencilClash):
        return {
            "kind": "pencil_clash",
            "lambda": matrix_to_json(cert.lam),
            "x": vector_to_json(cert.x),
            "y": vector_to_json(cert.y),
        }
    if isinstance(cert, InnerProductViolation):
        return {
            "kind": "inner_product_violation",
            "j": cert.j,
            "lambda": vector_to_json(cert.lam),
            "mu": vector_to_json(cert.mu),
            "x": vector_to_json(cert.x),
            "y": vector_to_json(cert.y),
        }
    if isinstance(cert, TensorWitness):
        return {
            "kind": "tensor_witness",
            "tensor_kind": cert.kind,
            "x": vector_to_json(cert.x),
            "y": vector_to_json(cert.y),
        }
    if isinstance(cert, StateWitness):
        return {
            "kind": "state_witness",
            "x": vector_to_json(cert.x),
            "y": vector_to_json(cert.y),
        }
    if isinstance(cert, EmptyCertificate):
        return {"kind": "empty", "floor": cert.floor}
    if isinstance(cert, MacaulayCertificate):
        return {"kind": "macaulay", "degree": cert.degree, "sigma_ratio": cert.ratio}
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def verdict_to_json(v: PRVerdict) -> dict:
    return {
        "status": v.status,
        "method": v.method,
        "certificate": _certificate_to_json(v.certificate),
        "state_witness": _certificate_to_json(v.state_witness) if v.state_witness else None,
        "floor": v.floor,
        "residuals": v.residuals or {},
    }


def construction_to_json(result: ConstructionResult, verdict: PRVerdict | None = None) -> dict:
    out = {
        "channel": channel_to_json(result.channel),
        "povm": povm_to_json(result.observables),
        "claimed_status": result.claimed_status,
        "witness": _certificate_to_json(result.witness) if result.witness else None,
    }
    if verdict is not None:
        out["verdict"] = verdict_to_json(verdict)
    return out


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")
_BLOCK_DEPTH = 8  # deeper nests take the general path, which also finds cycles


def _float_text(o) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _float_block(lst: list):
    """Shape and flat entries of a regular nested list of finite exact floats, or None."""
    shape = []
    x = lst
    while type(x) is list and x and len(shape) < _BLOCK_DEPTH:
        shape.append(len(x))
        x = x[0]
    if type(x) is not float:
        return None
    flat = lst
    for n in shape[1:]:
        if set(map(type, flat)) != {list} or set(map(len, flat)) != {n}:
            return None
        flat = list(itertools.chain.from_iterable(flat))
    # A finite sum means no NaN or infinity; an overflowing one takes the general path.
    if set(map(type, flat)) != {float} or not math.isfinite(sum(flat)):
        return None
    return tuple(shape), tuple(flat)


@functools.lru_cache(maxsize=256)
def _block_format(level: int, shape: tuple) -> str:
    if not shape:
        return "%r"
    inner = _block_format(level + 1, shape[1:])
    newline = "\n" + "  " * (level + 1)
    return "[" + newline + ("," + newline).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _emit(o, level: int, out: list, markers: set) -> None:
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        block = _float_block(o) if type(o) is list else None
        if block is not None:
            out.append(_block_format(level, block[0]) % block[1])
            return
        if id(o) in markers:
            raise ValueError("Circular reference detected")
        markers.add(id(o))
        newline = "\n" + "  " * (level + 1)
        if isinstance(o, dict):
            out.append("{")
            for i, (key, value) in enumerate(sorted(o.items())):
                out.append(("," if i else "") + newline + _encode_str(_key_text(key)) + ": ")
                _emit(value, level + 1, out, markers)
            out.append("\n" + "  " * level + "}")
        else:
            out.append("[")
            for i, value in enumerate(o):
                out.append("," + newline if i else newline)
                _emit(value, level + 1, out, markers)
            out.append("\n" + "  " * level + "]")
        markers.remove(id(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(obj) -> str:
    """Canonical JSON text: the bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``."""
    out: list[str] = []
    _emit(obj, 0, out, set())
    out.append("\n")
    return "".join(out)
