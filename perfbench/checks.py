"""Execution of one top-level call and the output checker behind ``fail_frac``.

Residuals are judged relative to the channel's scale: ``sum ||A_i||_F^2``
times the norm of the certified tensor (or of the two states).  Since
``||Phi(T)||_F <= sum ||A_i||_F^2 ||T||_F``, a relative residual is at most 1
for any input, and a certificate passes only when it is below ``REL_RESIDUAL``.
A failure is recorded with its reason; the run never stops on one.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

REL_RESIDUAL = 1e-6
MIN_SEPARATION = 1e-3
PROVED = frozenset(("PR", "NOT_PR", "YES", "NO"))


class Raised:
    """Output of a call that raised; its type and message go into the report."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"{self.kind}: {self.message}"


class Package:
    """The imported package and the submodules the workloads call through."""

    def __init__(self, pc, serialize, cli):
        self.pc = pc
        self.serialize = serialize
        self.cli = cli


def _recipe(pc, name, args, seed):
    if name == "rank2":
        return pc.rank2_injective_plus_rankone(*args, seed=seed)
    if name == "rankr":
        return pc.rankr_positive_construction(*args, seed=seed)
    if name == "from-observables":
        return pc.channel_from_observables(*args, seed=seed)
    if name == "projection":
        return pc.orthogonal_projection_channel(*args)
    raise ValueError(f"unknown recipe {name!r}")


def run_cli(P: Package, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = P.cli.main(argv)
        except SystemExit as exc:  # argparse reports bad usage this way
            code = exc.code
    return code, out.getvalue()


def execute(P: Package, item):
    """The top-level call of ``item``: everything inside is timed."""
    op, payload = item.op, item.payload
    if op == "decide":
        return P.pc.decide(payload)
    if op == "decide_verify":
        verdict = P.pc.decide(payload)
        return verdict, P.pc.verify_certificate(payload, verdict)
    if op == "recipe":
        name, args, seed = payload
        result = _recipe(P.pc, name, args, seed)
        verdict = P.pc.decide(result.channel)
        text = P.serialize.dumps(P.serialize.construction_to_json(result, verdict))
        back = P.serialize.channel_from_json(json.loads(text)["channel"])
        return result, verdict, text, back
    if op == "frame":
        return P.pc.is_phase_retrievable_frame(payload)
    if op == "cli":
        return run_cli(P, payload)
    raise ValueError(f"unknown op {op!r}")


def guarded(P: Package, item):
    try:
        return execute(P, item)
    except Exception as exc:  # the benchmark boundary: record and go on
        return Raised(exc)


def _bits(x) -> str:
    return float(x).hex() if isinstance(x, (float, np.floating)) else repr(x)


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def _out_dir(argv):
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def _files_digest(argv) -> str:
    out = _out_dir(argv)
    if out is None:
        return ""
    return _digest(*(p.name.encode() + p.read_bytes() for p in sorted(out.glob("*.json"))))


def verdict_of(item, out):
    """The decide verdict inside an output, or None."""
    if item.op == "decide":
        return out
    if item.op == "decide_verify":
        return out[0]
    if item.op == "recipe":
        return out[1]
    return None


def fingerprint(item, out) -> tuple:
    """What must repeat exactly between calls: status, method and floor bits."""
    if isinstance(out, Raised):
        return ("raised", out.kind, out.message)
    if item.op == "frame":
        w = out.witness
        wd = "" if w is None else _digest(np.asarray(w[0]).tobytes(), np.asarray(w[1]).tobytes())
        return (out.phase_retrievable, out.complement_property, wd)
    if item.op == "cli":
        code, stdout = out
        return (code, _digest(stdout), _files_digest(item.payload))
    v = verdict_of(item, out)
    fp = (v.status, v.method, _bits(v.floor))
    if item.op == "decide_verify":
        fp += tuple((k, _bits(r)) for k, r in sorted(out[1].items()))
    if item.op == "recipe":
        fp += (_digest(out[2]),)
    return fp


def proved(item, out) -> bool:
    """Whether the output is an exact verdict (PR, NOT_PR, frame YES/NO, exit 0/1)."""
    if isinstance(out, Raised):
        return False
    if item.op == "frame":
        return out.phase_retrievable in PROVED
    if item.op == "cli":
        return out[0] in (0, 1)
    return verdict_of(item, out).status in PROVED


def channel_scale(ch) -> float:
    s = float(sum(np.linalg.norm(A) ** 2 for A in ch.kraus))
    return s if s > 0.0 else 1.0


def _state_reasons(prefix, x, y, state_res, separation, scale):
    reasons = []
    nx, ny = np.linalg.norm(x) ** 2, np.linalg.norm(y) ** 2
    if not separation > MIN_SEPARATION * max(nx, ny, 1e-300):
        reasons.append(f"{prefix} does not separate states (separation {separation:.3g})")
    rel = state_res / (scale * (nx + ny)) if nx + ny > 0 else float("inf")
    if not rel <= REL_RESIDUAL:
        reasons.append(f"{prefix} images differ (relative residual {rel:.3g})")
    return reasons


def certificate_reasons(ch, verdict, residuals) -> list[str]:
    """Why the NOT_PR certificate of ``verdict`` does not re-verify, if it does not."""
    reasons = []
    scale = channel_scale(ch)
    cert = verdict.certificate
    kind = type(cert).__name__
    if kind in ("PencilClash", "InnerProductViolation", "TensorWitness"):
        x, y = np.asarray(cert.x), np.asarray(cert.y)
        if kind == "TensorWitness" and cert.kind == "symmetric":
            tnorm = np.linalg.norm(np.outer(x, y.conj()) + np.outer(y, x.conj()))
        else:
            tnorm = np.linalg.norm(x) * np.linalg.norm(y)
        rel = residuals.get("tensor", float("inf")) / (scale * tnorm) if tnorm > 0 else float("inf")
        if not rel <= REL_RESIDUAL:
            reasons.append(f"{kind} tensor residual {rel:.3g} relative to the channel scale")
        if kind == "InnerProductViolation" and not residuals.get("inner_product", 1.0) <= REL_RESIDUAL:
            reasons.append(f"inner product residual {residuals.get('inner_product')}")
    elif kind != "StateWitness":
        reasons.append(f"NOT_PR carries certificate {kind}")
    sw = verdict.state_witness if verdict.state_witness is not None else (cert if kind == "StateWitness" else None)
    if sw is not None:
        reasons += _state_reasons("state witness", np.asarray(sw.x), np.asarray(sw.y),
                                  residuals.get("state", float("inf")),
                                  residuals.get("separation", 0.0), scale)
    return reasons


class Checker:
    """Checks each item's first output in full and later outputs against it."""

    def __init__(self, P: Package):
        self.P = P
        self.status: dict[str, str] = {}
        self.reference: dict[str, tuple] = {}
        self.reasons: dict[str, list[str]] = {}

    def first(self, item, out) -> list[str]:
        reasons = self._check(item, out)
        self.reference[item.key] = fingerprint(item, out)
        self.reasons[item.key] = reasons
        return reasons

    def again(self, item, out) -> list[str]:
        """Reasons for a repeated call: the first call's, plus any change of output."""
        reasons = list(self.reasons[item.key])
        if fingerprint(item, out) != self.reference[item.key]:
            reasons.append("output differs from the first call of the same input")
        return reasons

    def _check(self, item, out) -> list[str]:
        if isinstance(out, Raised):
            return [f"raised {out!r}"]
        return getattr(self, "_check_" + item.op)(item, out)

    def _status_reasons(self, item, status):
        reasons = []
        if item.allowed is not None and status not in item.allowed:
            reasons.append(f"status {status}, construction allows {'/'.join(item.allowed)}")
        if item.scaled_from is not None:
            original = self._original_status(item)
            if status != original:
                reasons.append(f"scaling by 1e{item.meta['k']} turned {original} into {status}")
        return reasons

    def _original_status(self, item):
        """Status of the unscaled original, decided once outside the timed calls."""
        key = "original:" + item.scaled_from
        if key not in self.status:
            self.status[key] = self.P.pc.decide(item.meta["original"]).status
        return self.status[key]

    def _check_decide(self, item, verdict, residuals=None):
        reasons = self._status_reasons(item, verdict.status)
        if verdict.status == "NOT_PR":
            if residuals is None:
                residuals = self.P.pc.verify_certificate(item.payload, verdict)
            reasons += certificate_reasons(item.payload, verdict, residuals)
        return reasons

    def _check_decide_verify(self, item, out):
        verdict, residuals = out
        return self._check_decide(item, verdict, residuals)

    def _check_recipe(self, item, out):
        result, verdict, text, back = out
        pc, ser = self.P.pc, self.P.serialize
        reasons = []
        if item.allowed is not None and result.claimed_status not in item.allowed:
            reasons.append(f"recipe claims {result.claimed_status}")
        if result.claimed_status == "PR":
            floor_ok = verdict.floor is not None and verdict.floor > pc.OracleConfig().decision_floor
            if not (verdict.status == "PR" or (verdict.status == "LIKELY_PR" and floor_ok)):
                reasons.append(f"claimed PR, decided {verdict.status} (floor {verdict.floor})")
        else:
            if verdict.status != "NOT_PR":
                reasons.append(f"claimed NOT_PR, decided {verdict.status}")
            else:
                reasons += certificate_reasons(result.channel, verdict, pc.verify_certificate(result.channel, verdict))
            w = result.witness
            if w is not None:
                ch = result.channel
                x, y = np.asarray(w.x), np.asarray(w.y)
                diff = pc.apply(ch, np.outer(x, x.conj())) - pc.apply(ch, np.outer(y, y.conj()))
                sep = np.linalg.norm(np.outer(x, x.conj()) - np.outer(y, y.conj()))
                reasons += _state_reasons("recipe witness", x, y, float(np.linalg.norm(diff)), float(sep),
                                          channel_scale(ch))
        ch = result.channel
        same = (
            (back.dim_in, back.dim_out, back.field) == (ch.dim_in, ch.dim_out, ch.field)
            and len(back.kraus) == len(ch.kraus)
            and all(np.array_equal(a, b) for a, b in zip(back.kraus, ch.kraus))
        )
        if not same:
            reasons.append("channel JSON round trip is not bit exact")
        if ser.dumps(ser.construction_to_json(result, verdict)) != text:
            reasons.append("construction JSON differs between two dumps")
        return reasons

    def _check_frame(self, item, report):
        reasons = []
        if item.allowed is not None and report.phase_retrievable not in item.allowed:
            reasons.append(f"frame verdict {report.phase_retrievable}, construction allows {'/'.join(item.allowed)}")
        if report.phase_retrievable == "NO":
            if report.witness is None:
                reasons.append("frame NO without a witness")
            else:
                V = np.asarray(item.payload.vectors)
                x, y = np.asarray(report.witness[0]), np.asarray(report.witness[1])
                gap = np.abs(V.conj() @ x) ** 2 - np.abs(V.conj() @ y) ** 2
                sep = np.linalg.norm(np.outer(x, x.conj()) - np.outer(y, y.conj()))
                scale = float(np.sum(np.abs(V) ** 2))
                reasons += _state_reasons("frame witness", x, y, float(np.linalg.norm(gap)), float(sep), scale)
        return reasons

    def _check_cli(self, item, out):
        code, stdout = out
        argv = item.payload
        reasons = []
        if code != item.expect_exit:
            reasons.append(f"exit code {code}, expected {item.expect_exit}")
        files = _files_digest(argv)
        again = run_cli(self.P, argv)
        if again != out or _files_digest(argv) != files:
            reasons.append("CLI output differs between two repetitions")
        if "json" in argv:
            try:
                payload = json.loads(stdout)
            except ValueError:
                return reasons + ["CLI JSON output does not parse"]
            status = payload.get("verdict", {}).get("status") if argv[0] == "check" else None
            expected = {0: "PR", 1: "NOT_PR", 2: "LIKELY_PR"}.get(code)
            if status is not None and status != expected:
                reasons.append(f"JSON status {status} disagrees with exit code {code}")
        if argv[0] == "construct":
            verdict_file = _out_dir(argv) / "verdict.json"
            if not verdict_file.is_file():
                reasons.append("construct wrote no verdict.json")
        return reasons
