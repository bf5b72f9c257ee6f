"""JSON encodings for channels, frames, POVMs and verdicts.

Matrix entries are ``[re, im]`` pairs of binary64 values.  Python's float
parsing and repr are both correctly rounded, so loading and dumping round
trips bit exactly, and dict key order is fixed at construction time so equal
inputs serialize to identical bytes.
"""

from __future__ import annotations

import json

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


def _entry_back(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"matrix entry must be a [re, im] pair, got {pair!r}")
    re, im = pair
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise ValueError(f"matrix entry components must be numbers, got {pair!r}")
    return complex(re, im)


def matrix_to_json(M) -> list:
    """``[re, im]`` pairs nested as ``M``: rows of pairs, or one pair for a scalar."""
    A = np.asarray(M, dtype=complex)
    return np.stack((A.real, A.imag), axis=-1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix must be a nonempty list of rows")
    data = [[_entry_back(e) for e in row] for row in rows]
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.array(data, dtype=complex)


def vector_to_json(v) -> list:
    return matrix_to_json(v)


def vector_from_json(entries) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ValueError("vector must be a nonempty list of [re, im] pairs")
    return np.array([_entry_back(e) for e in entries], dtype=complex)


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
        dim_in=int(obj["dim_in"]),
        dim_out=int(obj["dim_out"]),
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
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("frame JSON needs a nonempty vector list")
    return Frame(
        dim=int(obj["dim"]),
        vectors=np.array([vector_from_json(v) for v in vectors]),
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


def dumps(obj) -> str:
    """Canonical JSON text: two-space indent, stable key order, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
