"""Command-line interface.

Subcommands: concurrence, separability, factorize, fullsep, sample.
Results are printed as JSON documents with a fixed key order, so repeated
runs on the same inputs are byte-identical.  Each carries the tool version
and ``parameters``: the subcommand's flags in declaration order, on success
and on domain errors alike.  Exit codes: 0 success, 1 domain errors
(e.g. factorizing a non-separable cut), 2 usage or input-format errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .concurrence import (
    DEFAULT_NORMALIZATION,
    DEFAULT_TOLERANCE,
    concurrence,
    factorize_cut,
    full_separability,
    is_separable_cut,
)
from .errors import ArityError, CertificateError, QconcError
from .stateio import SAMPLER_KINDS, SamplerSpec, emit_state, parse_state, sample_state
from .states import PureState


def _dump(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:  # JSON has no inf or NaN
        raise ValueError("a result is not finite and cannot be written as JSON") from None


def _doc(command: str, parameters: dict, **fields) -> dict:
    doc = {
        "tool": "qconc",
        "version": __version__,
        "command": command,
        "parameters": parameters,
    }
    doc.update(fields)
    return doc


def _state_doc(state: PureState) -> dict:
    return {
        "dims": list(state.dims),
        "amps": [[z.real, z.imag] for z in state.amps.tolist()],
    }


def _cert_doc(cert) -> dict:
    return {
        "cut": cert.cut,
        "max_abs_minor": cert.max_abs_minor,
        "tolerance": cert.tolerance,
        "separable": cert.separable,
        "factors": [_state_doc(f) for f in cert.factors] if cert.factors is not None else None,
    }


def _read_state(path: str) -> PureState:
    return parse_state(Path(path).read_text(encoding="utf-8"))


def _concurrence_fields(args, state: PureState) -> dict:
    report = concurrence(state, normalization=args.normalization)
    return {
        "subsystems": state.subsystem_count,
        "value": report.value,
        "per_cut_sums": [[cut, s] for cut, s in report.per_cut_sums],
        "normalization": report.normalization,
    }


def _separability_fields(args, state: PureState) -> dict:
    cuts = [args.cut] if args.cut is not None else list(range(1, state.subsystem_count + 1))
    certs = [is_separable_cut(state, j, tolerance=args.tol) for j in cuts]
    return {
        "certificates": [_cert_doc(c) for c in certs],
        "all_separable": all(c.separable for c in certs),
    }


def _factorize_fields(args, state: PureState) -> dict:
    u, rest = factorize_cut(state, args.cut, tolerance=args.tol)
    return {"cut": args.cut, "factors": [_state_doc(u), _state_doc(rest)]}


def _fullsep_fields(args, state: PureState) -> dict:
    result = full_separability(state, tolerance=args.tol)
    return {
        "verdict": result.verdict,
        "fully_separable": result.fully_separable,
        "factors": [{"subsystem": idx, **_state_doc(s)} for idx, s in result.factors],
        "failed_cuts": [_cert_doc(c) for c in result.failed],
        "remainder": _state_doc(result.remainder) if result.remainder is not None else None,
        "remainder_subsystems": list(result.remainder_subsystems),
    }


def _run_state_command(args) -> tuple[int, str]:
    """Exit code and document of a state command; ``parameters`` echo its flags."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    try:
        code, fields = 0, args.handler(args, _read_state(args.state))
    except (ArityError, CertificateError) as exc:
        code, fields = 1, {"error": {"type": type(exc).__name__, "message": str(exc)}}
    return code, _dump(_doc(args.command, parameters, **fields))


def _cmd_sample(args) -> str:
    dims = tuple(int(part) for part in args.dims.split(","))
    spec = SamplerSpec(dims=dims, kind=args.kind, seed=args.seed)
    state = sample_state(spec)
    label = f"{spec.kind}[{'x'.join(str(d) for d in spec.dims)}] seed={spec.seed}"
    text = emit_state(state, label=label)
    if args.out is None:
        return text
    Path(args.out).write_text(text, encoding="utf-8")
    return _dump(
        _doc(
            "sample",
            {"dims": list(dims), "kind": args.kind, "seed": args.seed, "out": args.out},
            written=args.out,
            label=label,
        )
    )


def finite(text: str) -> float:
    """argparse type of --tol and --normalization: JSON has no inf or NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconc",
        description="Concurrence and Schwarz-equality separability for pure states.",
    )
    parser.add_argument("--version", action="version", version=f"qconc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concurrence", help="concurrence of a bipartite or tripartite state")
    p.add_argument("--state", required=True, help="path to a state JSON file")
    p.add_argument("--normalization", type=finite, default=DEFAULT_NORMALIZATION)
    p.set_defaults(handler=_concurrence_fields)

    p = sub.add_parser("separability", help="separability certificates per cut")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", type=int, default=None, help="test one cut (default: all cuts)")
    p.add_argument("--tol", type=finite, default=DEFAULT_TOLERANCE)
    p.set_defaults(handler=_separability_fields)

    p = sub.add_parser("factorize", help="split a separable cut into factors")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--tol", type=finite, default=DEFAULT_TOLERANCE)
    p.set_defaults(handler=_factorize_fields)

    p = sub.add_parser("fullsep", help="greedy full-separability test")
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=finite, default=DEFAULT_TOLERANCE)
    p.set_defaults(handler=_fullsep_fields)

    p = sub.add_parser("sample", help="draw a seeded random state")
    p.add_argument("--dims", required=True, help="comma-separated subsystem dimensions")
    p.add_argument("--kind", required=True, choices=SAMPLER_KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="write the state here instead of stdout")
    return parser


def cli_main(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles usage/help itself
        return int(exc.code or 0)
    try:
        if args.command == "sample":
            code, output = 0, _cmd_sample(args)
        else:
            code, output = _run_state_command(args)
    except (QconcError, ValueError, IndexError, OSError) as exc:
        print(f"qconc {args.command}: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return code


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
