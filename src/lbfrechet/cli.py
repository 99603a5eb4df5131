"""Command-line front end.

Exit codes: 0 on successful evaluation (decisions report true/false on
stdout either way), 2 for usage errors, 3 for unreadable or malformed
inputs, 4 when an enumeration or state cap is exceeded.  All numeric
output is exact (decimal or p/q); --output json-lines switches stdout to
one self-contained JSON record per invocation, carrying the subcommand,
content hashes of the inputs, and the result string.  Usage errors and
each distinct library warning print as one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import warnings
from fractions import Fraction
from typing import Optional, Sequence

from .lower_bound import compute_lb, decide_lb, extract_witness
from .model import (
    CurveFormatError,
    curve_to_json,
    format_scalar,
    load_curve,
    parse_scalar,
)
from .oracle import DEFAULT_ENUMERATION_CAP, VARIANTS, CapExceeded, EnumerationSpec, bound_oracle
from .reductions import (
    MODELS,
    CnfFormula,
    ReductionInstance,
    build_ub_sat,
    build_weak_discrete_imprecise,
    build_weak_discrete_indecisive,
    check_brute_force_size,
    check_instance_size,
    lift_to_2d,
    parse_dimacs,
    verify_reduction,
)
from .weak_uncertain import DEFAULT_STATE_CAP, wfr_min_decide, wfr_min_value


def _scalar_arg(text: str) -> Fraction:
    try:
        return parse_scalar(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_scalar_arg(text: str) -> Fraction:
    value = _scalar_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {text}")
    return value


def _nonnegative_scalar_arg(text: str) -> Fraction:
    value = _scalar_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative value, got {text}")
    return value


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


_positive_int_arg = _int_at_least(1)


def _cap(args: argparse.Namespace, default: int) -> int:
    """--cap if given, else LBF_CAP if set, else default."""
    if args.cap is not None:
        return args.cap
    raw = os.environ.get("LBF_CAP")
    if raw is None:
        return default
    try:
        return _positive_int_arg(raw)
    except argparse.ArgumentTypeError as exc:
        raise CliUsageError(f"LBF_CAP: {exc}")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _emit(
    args: argparse.Namespace,
    inputs: Sequence[str],
    result: str,
    extra_fields: Optional[dict] = None,
    extra_lines: Optional[Sequence[str]] = None,
) -> None:
    if args.output == "json-lines":
        record = {
            "command": args.command,
            "inputs": {path: _sha256(path) for path in inputs},
            "result": result,
        }
        if extra_fields:
            record.update(extra_fields)
        print(json.dumps(record, sort_keys=True))
    else:
        print(result)
        for line in extra_lines or ():
            print(line)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lbf",
        description="Frechet-type distances for uncertain 1D polygonal curves.",
    )
    parser.add_argument(
        "--output",
        choices=("human", "json-lines"),
        default="human",
        help="output mode (default: human)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser(
        "decide", help="lower-bound Frechet decision at a threshold"
    )
    p_decide.add_argument("--delta", type=_positive_scalar_arg, required=True)
    p_decide.add_argument(
        "--strict",
        action="store_true",
        help="reject finite-set vertices instead of hulling them to intervals",
    )
    p_decide.add_argument(
        "--dump-regions",
        metavar="DIR",
        help="write the propagated boundary regions as plain text into DIR",
    )
    p_decide.add_argument(
        "--witness",
        action="store_true",
        help="also output a realisation pair within delta when feasible",
    )
    p_decide.add_argument("curve_a")
    p_decide.add_argument("curve_b")

    p_value = sub.add_parser(
        "value",
        help="lower-bound Frechet value to a tolerance: probes endpoint-difference "
        "candidates, then bisects the tolerance grid",
    )
    p_value.add_argument(
        "--tol", type=_positive_scalar_arg, default=Fraction(1, 1_000_000)
    )
    p_value.add_argument("--strict", action="store_true")
    p_value.add_argument("curve_a")
    p_value.add_argument("curve_b")

    p_precise = sub.add_parser(
        "precise", help="distances between two precise curves"
    )
    p_precise.add_argument(
        "--variant", choices=VARIANTS, required=True
    )
    p_precise.add_argument("--adjacency", type=int, choices=(4, 8), default=8)
    p_precise.add_argument("curve_a")
    p_precise.add_argument("curve_b")

    p_weak = sub.add_parser(
        "weak-lb", help="minimum weak Frechet distance over realisations"
    )
    p_weak.add_argument("mode", choices=("decide", "value"))
    p_weak.add_argument("--delta", type=_nonnegative_scalar_arg)
    p_weak.add_argument(
        "--cap",
        type=_positive_int_arg,
        help="most states one decision may reach, summed over all its "
        f"dynamic-program runs, before exit 4 (default {DEFAULT_STATE_CAP} "
        "or LBF_CAP); it bounds each decision's time and memory.  value "
        "decides at the reach bound first and lists the candidates only if "
        "that fails, then makes about log2 of their count decisions",
    )
    p_weak.add_argument("curve_a")
    p_weak.add_argument("curve_b")

    p_oracle = sub.add_parser(
        "oracle", help="brute-force bound over enumerated realisations"
    )
    p_oracle.add_argument("--variant", choices=VARIANTS, required=True)
    p_oracle.add_argument("--side", choices=("lower", "upper"), required=True)
    p_oracle.add_argument("--resolution", type=_int_at_least(2), default=2)
    p_oracle.add_argument("--cap", type=_positive_int_arg)
    p_oracle.add_argument("--adjacency", type=int, choices=(4, 8), default=8)
    p_oracle.add_argument(
        "--include-position",
        type=_scalar_arg,
        action="append",
        default=[],
        metavar="X",
        help="extra sample position injected into every interval vertex",
    )
    p_oracle.add_argument("--stop-at", type=_scalar_arg)
    p_oracle.add_argument("curve_a")
    p_oracle.add_argument("curve_b")

    p_reduce = sub.add_parser(
        "reduce", help="generate hardness instances from a CNF formula"
    )
    sub_reduce = p_reduce.add_subparsers(dest="what", required=True)

    for what, text in (
        ("ub-sat", "upper-bound Frechet instance"),
        ("weak-discrete", "discrete weak Frechet instance"),
    ):
        p_cnf = sub_reduce.add_parser(what, help=text)
        p_cnf.add_argument("cnf")
        p_cnf.add_argument("--model", choices=MODELS, default="indecisive")
        p_cnf.add_argument("-o", "--out", nargs=2, required=True, metavar=("U_JSON", "V_JSON"))

    p_lift = sub_reduce.add_parser(
        "lift2d", help="re-emit a curve pair in 2D with sentinel vertices"
    )
    p_lift.add_argument("curve_a")
    p_lift.add_argument("curve_b")
    p_lift.add_argument("-M", "--sentinel", type=_positive_scalar_arg, required=True)
    p_lift.add_argument("-o", "--out", nargs=2, required=True, metavar=("A_JSON", "B_JSON"))

    p_verify = sub.add_parser(
        "verify", help="build and brute-force check a reduction instance"
    )
    p_verify.add_argument("cnf")
    p_verify.add_argument("--kind", choices=("ub", "weak"), required=True)
    p_verify.add_argument("--model", choices=MODELS, default="indecisive")
    p_verify.add_argument("--resolution", type=_int_at_least(2), default=2)
    p_verify.add_argument("--cap", type=_positive_int_arg)

    return parser


def _cmd_decide(args: argparse.Namespace) -> int:
    u = load_curve(args.curve_a)
    v = load_curve(args.curve_b)
    need_trace = bool(args.dump_regions or args.witness)
    decision = decide_lb(u, v, args.delta, strict=args.strict, trace=need_trace)
    if args.dump_regions:
        decision.trace.dump_to(args.dump_regions)
    extra_fields: dict = {}
    extra_lines: list[str] = []
    if args.witness and decision.feasible:
        for side, w in zip("uv", extract_witness(decision.trace)):
            extra_fields[f"witness_{side}"] = texts = [format_scalar(x) for x in w]
            extra_lines.append(f"witness {side}: " + " ".join(texts))
    _emit(
        args,
        (args.curve_a, args.curve_b),
        "true" if decision.feasible else "false",
        extra_fields,
        extra_lines,
    )
    return 0


def _cmd_value(args: argparse.Namespace) -> int:
    u = load_curve(args.curve_a)
    v = load_curve(args.curve_b)
    value = compute_lb(u, v, args.tol, strict=args.strict)
    _emit(args, (args.curve_a, args.curve_b), format_scalar(value))
    return 0


def _cmd_precise(args: argparse.Namespace) -> int:
    u = load_curve(args.curve_a)
    v = load_curve(args.curve_b)
    for path, curve in ((args.curve_a, u), (args.curve_b, v)):
        if not curve.is_precise:
            raise CurveFormatError(
                f"{path}: the precise command needs fully precise curves"
            )
    # the one realisation pair's bound is the distance between the curves
    value = bound_oracle(u, v, args.variant, "lower", adjacency=args.adjacency)
    _emit(args, (args.curve_a, args.curve_b), format_scalar(value))
    return 0


def _cmd_weak_lb(args: argparse.Namespace) -> int:
    u = load_curve(args.curve_a)
    v = load_curve(args.curve_b)
    cap = _cap(args, DEFAULT_STATE_CAP)
    if args.mode == "decide":
        if args.delta is None:
            raise CliUsageError("weak-lb decide requires --delta")
        answer = wfr_min_decide(u, v, args.delta, cap=cap)
        result = "true" if answer else "false"
    else:
        if args.delta is not None:
            raise CliUsageError("weak-lb value takes no --delta")
        value = wfr_min_value(u, v, cap=cap)
        result = format_scalar(value)
    _emit(args, (args.curve_a, args.curve_b), result)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    u = load_curve(args.curve_a)
    v = load_curve(args.curve_b)
    spec = EnumerationSpec(
        resolution=args.resolution,
        include_positions=tuple(args.include_position),
        cap=_cap(args, DEFAULT_ENUMERATION_CAP),
    )
    value = bound_oracle(
        u,
        v,
        args.variant,
        args.side,
        spec,
        adjacency=args.adjacency,
        stop_at=args.stop_at,
    )
    _emit(args, (args.curve_a, args.curve_b), format_scalar(value))
    return 0


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _read_formula(cnf_path: str) -> CnfFormula:
    with open(cnf_path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def _build_instance(formula: CnfFormula, kind: str, model: str) -> ReductionInstance:
    """The reduction instance of kind ("ub-sat" or "weak-discrete") and
    model for formula, once its size is checked."""
    check_instance_size(formula, kind, model)
    if kind == "ub-sat":
        return build_ub_sat(formula, model=model)
    if model == "indecisive":
        return build_weak_discrete_indecisive(formula)
    return build_weak_discrete_imprecise(formula)


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.what == "lift2d":
        u = load_curve(args.curve_a)
        v = load_curve(args.curve_b)
        for path, doc in zip(args.out, lift_to_2d(u, v, args.sentinel)):
            _write_json(path, doc)
        result = f"wrote {args.out[0]} and {args.out[1]}"
        _emit(args, (args.curve_a, args.curve_b), result)
        return 0

    formula = _read_formula(args.cnf)
    inst = _build_instance(formula, args.what, args.model)
    _write_json(args.out[0], curve_to_json(inst.u))
    _write_json(args.out[1], curve_to_json(inst.v))
    result = (
        f"wrote {args.out[0]} ({len(inst.u)} vertices) and "
        f"{args.out[1]} ({len(inst.v)} vertices)"
    )
    extra_fields = {
        "delta": format_scalar(inst.delta),
        "gap_value": format_scalar(inst.gap_value),
        "lengths": list(inst.expected_lengths),
        "notes": list(inst.notes),
    }
    extra_lines = [
        f"delta {format_scalar(inst.delta)}, gap {format_scalar(inst.gap_value)}"
    ] + [f"note: {note}" for note in inst.notes]
    _emit(args, (args.cnf,), result, extra_fields, extra_lines)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    formula = _read_formula(args.cnf)
    # before building: the instances grow with the variable count
    check_brute_force_size(formula)
    inst = _build_instance(formula, "ub-sat" if args.kind == "ub" else "weak-discrete", args.model)
    spec = EnumerationSpec(resolution=args.resolution, cap=_cap(args, DEFAULT_ENUMERATION_CAP))
    report = verify_reduction(inst, spec)
    extra_fields = {
        "ok": report.ok,
        "sat": report.sat,
        "equivalence_ok": report.equivalence_ok,
        "threshold_ok": report.threshold_ok,
        "lengths_ok": report.lengths_ok,
        "distances": {k: format_scalar(d) for k, d in report.distances.items()},
        "notes": list(report.notes),
    }
    _emit(args, (args.cnf,), f"ok={str(report.ok).lower()}", extra_fields, report.summary_lines())
    return 0


class CliUsageError(Exception):
    """Usage problem detectable only after argparse (exit code 2)."""


_DISPATCH = {
    "decide": _cmd_decide,
    "value": _cmd_value,
    "precise": _cmd_precise,
    "weak-lb": _cmd_weak_lb,
    "oracle": _cmd_oracle,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


# One parser per process: parsing keeps no state in it, and LBF_CAP is
# read when a command runs.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    shown: set = set()

    def show(message, *_):
        # each distinct library warning, once per invocation, on one line
        if str(message) not in shown:
            shown.add(str(message))
            print(f"lbf: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            return _DISPATCH[args.command](args)
        except CliUsageError as exc:
            print(f"lbf: {exc}", file=sys.stderr)
            return 2
        except CapExceeded as exc:
            print(f"lbf: {exc}", file=sys.stderr)
            return 4
        except (CurveFormatError, json.JSONDecodeError, OSError, ValueError) as exc:
            print(f"lbf: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
