"""Command-line interface: check / construct / frame / spectrum / fixtures.

Exit codes encode the verdict so scripts cannot confuse a one-sided oracle
answer with a proof: 0 means proven retrievable, 1 means certified not
retrievable, 2 means likely-but-unproven (or an inconclusive necessary
check), 3 means unusable input, 4 means a construction failed its own
verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import serialize
from .bilinear import OracleConfig
from .channels import validate
from .constructors import (
    FIXTURE_NAMES,
    channel_from_observables,
    fixture,
    orthogonal_projection_channel,
    rank2_injective_plus_rankone,
    rankr_positive_construction,
)
from .deciders import LIKELY_PR, METHODS, NOT_FINITE, NOT_PR, PR, decide, decide_method, scalar_relative_spectrum
from .deciders import _inner_product_test
from .errors import ChannelAnalysisError
from .frames import LIKELY_YES, NO, YES, is_phase_retrievable_frame, parseval_normalize, Frame
from .linalg import REAL, Tolerance

EXIT_PR = 0
EXIT_NOT_PR = 1
EXIT_LIKELY = 2
EXIT_INPUT = 3
EXIT_UNVERIFIED = 4

_STATUS_EXIT = {PR: EXIT_PR, NOT_PR: EXIT_NOT_PR, LIKELY_PR: EXIT_LIKELY}
_FRAME_EXIT = {YES: EXIT_PR, NO: EXIT_NOT_PR, LIKELY_YES: EXIT_LIKELY}


def _fail_input(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _tolerance(args) -> Tolerance:
    return Tolerance() if args.tol is None else Tolerance(residual_abs=args.tol)


def _oracle_config(args) -> OracleConfig:
    restarts = {} if args.restarts is None else {"restarts": args.restarts}
    return OracleConfig(seed=args.seed, **restarts)


def _fmt_complex(z: complex) -> str:
    return f"({z.real:.12g}{z.imag:+.12g}j)"


def _print_validation(report) -> None:
    print(
        f"trace-preserving: {'yes' if report.is_trace_preserving else 'no'}"
        f" (residual {report.tp_residual:.6g})"
    )
    print(f"unital: {'yes' if report.is_unital else 'no'} (residual {report.unital_residual:.6g})")
    print(f"choi rank: {report.choi_rank}")


def run_check(args) -> int:
    try:
        ch = serialize.channel_from_json(_load_json(args.input))
    except ValueError as exc:
        return _fail_input(str(exc))
    tol = _tolerance(args)
    cfg = _oracle_config(args)
    try:
        verdict = decide_method(ch, args.method, cfg, tol)
    except (ChannelAnalysisError, ValueError) as exc:
        return _fail_input(str(exc))
    report = validate(ch, tol)
    if args.output == "json":
        payload = {"validation": asdict(report), "verdict": serialize.verdict_to_json(verdict)}
        sys.stdout.write(serialize.dumps(payload))
    else:
        _print_validation(report)
        print(f"verdict: {verdict.status} (method {verdict.method})")
        if verdict.floor is not None:
            # A PR floor is a proved lower bound; a LIKELY_PR floor is what the witness search saw.
            label = "proved floor" if verdict.status == PR else "oracle floor"
            print(f"{label}: {verdict.floor:.6g}")
        if verdict.state_witness is not None:
            sw = verdict.state_witness
            print(f"state witness x: {[ _fmt_complex(z) for z in sw.x ]}")
            print(f"state witness y: {[ _fmt_complex(z) for z in sw.y ]}")
    return _STATUS_EXIT[verdict.status]


def _verify_claim(result, cfg, tol):
    verdict = decide(result.channel, cfg, tol)
    if result.claimed_status == PR:
        ok = verdict.status == PR or (
            verdict.status == LIKELY_PR
            and verdict.floor is not None
            and verdict.floor > cfg.decision_floor
        )
    else:
        ok = verdict.status == NOT_PR
    return verdict, ok


def run_construct(args) -> int:
    tol = _tolerance(args)
    cfg = _oracle_config(args)
    try:
        if args.recipe == "rank2":
            if args.n is None:
                raise ValueError("--recipe rank2 needs --n")
            result = rank2_injective_plus_rankone(args.n, seed=args.seed, tol=tol)
        elif args.recipe == "rankr":
            if args.n is None or args.r is None:
                raise ValueError("--recipe rankr needs --n and --r")
            result = rankr_positive_construction(args.n, args.r, seed=args.seed, tol=tol)
        elif args.recipe == "from-observables":
            if args.frame is None or args.r is None:
                raise ValueError("--recipe from-observables needs --frame and --r")
            frame = serialize.frame_from_json(_load_json(args.frame))
            result = channel_from_observables(frame, args.r, seed=args.seed, tol=tol)
        elif args.recipe == "projection":
            if args.dims is None:
                raise ValueError("--recipe projection needs --dims")
            dims = [int(part) for part in args.dims.split(",") if part]
            if args.n is not None and sum(dims) != args.n:
                raise ValueError(f"--dims {args.dims} does not sum to --n {args.n}")
            result = orthogonal_projection_channel(dims, tol=tol)
        else:
            raise ValueError(f"unknown recipe {args.recipe!r}")
    except (ChannelAnalysisError, ValueError) as exc:
        return _fail_input(f"{type(exc).__name__}: {exc}")

    verdict, ok = _verify_claim(result, cfg, tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "channel.json").write_text(serialize.dumps(serialize.channel_to_json(result.channel)))
    (out_dir / "povm.json").write_text(serialize.dumps(serialize.povm_to_json(result.observables)))
    (out_dir / "verdict.json").write_text(
        serialize.dumps(serialize.construction_to_json(result, verdict))
    )
    print(
        f"recipe {args.recipe}: claimed {result.claimed_status}, decided {verdict.status}"
        f" ({'verified' if ok else 'NOT VERIFIED'}); wrote {out_dir}"
    )
    return EXIT_PR if ok else EXIT_UNVERIFIED


def run_frame(args) -> int:
    try:
        frame = serialize.frame_from_json(_load_json(args.input))
    except ValueError as exc:
        return _fail_input(str(exc))
    tol = _tolerance(args)
    cfg = _oracle_config(args)
    try:
        report = is_phase_retrievable_frame(frame, cfg, tol)
    except (ChannelAnalysisError, ValueError) as exc:
        return _fail_input(str(exc))
    if args.output == "json":
        payload = {
            **asdict(report),
            "witness": None
            if report.witness is None
            else {
                "x": serialize.vector_to_json(report.witness[0]),
                "y": serialize.vector_to_json(report.witness[1]),
            },
        }
        sys.stdout.write(serialize.dumps(payload))
    else:
        print(f"frame: dim {frame.dim}, {len(frame)} vectors, field {frame.field}")
        print(f"bounds: ({report.lower_bound:.6g}, {report.upper_bound:.6g})")
        print(f"is frame: {report.is_frame}; parseval: {report.is_parseval}")
        cp = report.complement_property
        print(f"complement property: {'unknown' if cp is None else cp}")
        print(f"phase retrievable: {report.phase_retrievable}")
        if report.witness is not None:
            print(f"witness x: {[_fmt_complex(z) for z in report.witness[0]]}")
            print(f"witness y: {[_fmt_complex(z) for z in report.witness[1]]}")
    return _FRAME_EXIT[report.phase_retrievable]


def run_spectrum(args) -> int:
    try:
        ch = serialize.channel_from_json(_load_json(args.input))
    except ValueError as exc:
        return _fail_input(str(exc))
    tol = _tolerance(args)
    j = args.j - 1  # flag is 1-based
    if not 0 <= j < len(ch.kraus):
        return _fail_input(f"--j must lie in [1, {len(ch.kraus)}]")
    try:
        points = scalar_relative_spectrum(ch, j, tol)
    except ChannelAnalysisError as exc:
        return _fail_input(str(exc))
    if points is NOT_FINITE:
        print("spectrum: not a finite set (continuum detected)")
        return EXIT_LIKELY
    pairs = []
    violation = False
    for p in points:
        for q in points:
            val, flagged = _inner_product_test(p.lam, q.lam, tol)
            violation = violation or flagged
            pairs.append((p, q, val, flagged))
    if args.output == "json":
        payload = {
            "points": [
                {
                    "lambda": serialize.vector_to_json(p.lam),
                    "witness": serialize.vector_to_json(p.witness),
                }
                for p in points
            ],
            "pairs": [
                {
                    "lambda": serialize.vector_to_json(p.lam),
                    "mu": serialize.vector_to_json(q.lam),
                    "one_plus_inner": [val.real, val.imag],
                    "violation": flagged,
                }
                for p, q, val, flagged in pairs
            ],
        }
        sys.stdout.write(serialize.dumps(payload))
    else:
        print(f"spectrum relative to operator {args.j}: {len(points)} point(s)")
        for p in points:
            print(f"  lambda = {[_fmt_complex(z) for z in p.lam]}")
        for p, q, val, flagged in pairs:
            tag = "  VIOLATION" if flagged else ""
            print(
                f"  1 + <{[_fmt_complex(z) for z in p.lam]}, {[_fmt_complex(z) for z in q.lam]}>"
                f" = {_fmt_complex(val)}{tag}"
            )
    return EXIT_NOT_PR if violation else EXIT_PR


def run_fixtures(args) -> int:
    if args.out is None:
        for name in FIXTURE_NAMES:
            print(name)
        print("f3_real (frame)")
        print("parseval3 (frame)")
        return EXIT_PR
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    named = {
        "example_2_11": fixture("example_2_11"),
        "dephasing": fixture("dephasing"),
        "example_2_6": fixture("example_2_6"),
        "identity2": fixture("identity", 2),
    }
    for name, ch in named.items():
        (out_dir / f"{name}.json").write_text(serialize.dumps(serialize.channel_to_json(ch)))
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
    f3 = Frame(dim=2, vectors=vectors, field=REAL)
    (out_dir / "f3_real.json").write_text(serialize.dumps(serialize.frame_to_json(f3)))
    parseval = parseval_normalize(f3)
    (out_dir / "parseval3.json").write_text(serialize.dumps(serialize.frame_to_json(parseval)))
    print(f"wrote {len(named) + 2} fixture files to {out_dir}")
    return EXIT_PR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prchannels",
        description="Phase-retrievability analysis and synthesis for quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
        p.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="decide phase retrievability of a channel JSON file")
    p_check.add_argument("input")
    p_check.add_argument(
        "--method",
        choices=tuple(METHODS),
        default="full",
        help="restrict the decision pipeline",
    )
    p_check.add_argument("--restarts", type=int, default=None, help="witness-search starts")
    common(p_check)
    p_check.set_defaults(func=run_check)

    p_con = sub.add_parser("construct", help="synthesize a channel and its observables")
    p_con.add_argument("--recipe", required=True, choices=("rank2", "rankr", "from-observables", "projection"))
    p_con.add_argument("--n", type=int, default=None)
    p_con.add_argument("--r", type=int, default=None)
    p_con.add_argument("--dims", default=None, help="comma-separated block sizes for projection")
    p_con.add_argument("--frame", default=None, help="frame JSON path for from-observables")
    p_con.add_argument("--out", required=True, help="output directory")
    p_con.add_argument("--restarts", type=int, default=None)
    common(p_con)
    p_con.set_defaults(func=run_construct)

    p_frame = sub.add_parser("frame", help="report on a frame JSON file")
    p_frame.add_argument("input")
    p_frame.add_argument("--restarts", type=int, default=None)
    common(p_frame)
    p_frame.set_defaults(func=run_frame)

    p_spec = sub.add_parser("spectrum", help="scalar relative joint spectrum of a channel")
    p_spec.add_argument("input")
    p_spec.add_argument("--j", type=int, required=True, help="1-based index of the base operator")
    common(p_spec)
    p_spec.set_defaults(func=run_spectrum)

    p_fix = sub.add_parser("fixtures", help="list the shipped fixtures or write them to a directory")
    p_fix.add_argument("--out", default=None)
    p_fix.set_defaults(func=run_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
