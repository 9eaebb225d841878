"""Command-line front end.

The commands print what the library returns and make no check of their own:
every algorithm verifies its result (an exact substitution or membership
identity) once, before it returns, and raises ``VerificationError``
otherwise, which exits 1 with one ``verification failed: <stage>: ...`` line
on stderr.  ``verified`` therefore reports the library's check.  ``verify``
is the exception: it re-checks a split result read from a file, and
refuses a ``--field`` or ``--precision`` other than the file's.  ``norm``
is a direct exact evaluation with no certificate behind its flag.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .expr import parse_jet, serialize_jet
from .field import FieldError, parse_field_spec, parse_valuation_spec
from .ift import ImplicitSystem, ift_solve
from .jacobian import DEFAULT_MAX_DEGREE, determinacy_certificate, milnor_number
from .jet import CoordinateChange, VerificationError
from .quadform import (QuadraticForm, arf_reduce_solvable, diagonal_signs, normal_form,
                       normalize_squares)
from .split import SplitResult, split, verify_split
from .transport import TransportProblem, split_shape, transport

# polynomial mode: a precision no term will ever reach
POLYNOMIAL_PRECISION = 10 ** 9


def _parse_vars(text: str):
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise FieldError("empty variable list")
    if len(set(names)) != len(names):
        raise FieldError("repeated variable name")
    return names


def _emit(args, payload: dict, lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _emit_checked(args, payload: dict, lines):
    """Print a result the library checked, ``verified: true`` last.

    A failed library check has already raised ``VerificationError``.
    """
    payload["verified"] = True
    _emit(args, payload, lines + ["verified: true"])
    return 0


def _cmd_split(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = parse_jet(args.expr, field, names, args.precision)
    result = split(f, args.precision)
    payload = {"schema": 1, "command": "split"}
    payload.update(result.to_json(names))
    lines = [
        f"field: {field.spec()}",
        f"precision: {args.precision}",
        f"rank: {result.rank}",
        f"quad: {json.dumps(result.quad.to_json())}",
        f"residual: {payload['residual']}",
    ]
    for name, text in zip(names, payload["change"]):
        lines.append(f"change[{name}]: {text}")
    return _emit_checked(args, payload, lines)


def _cmd_quadform(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = parse_jet(args.expr, field, names, max(2, args.precision))
    q = QuadraticForm.from_jet(f)
    nf = normal_form(q)
    nf_text = serialize_jet(nf.normal_jet(2), names)
    payload = {"schema": 1, "command": "quadform", "field": field.spec(),
               "normal_form_text": nf_text, "normal_form": nf.to_json()}
    lines = [f"field: {field.spec()}", f"rank: {nf.rank}",
             f"normal_form: {nf_text}",
             f"descriptor: {json.dumps(nf.to_json())}"]
    if field.char == 2:
        key, reduction = "solvable_reduction", arf_reduce_solvable(nf)
    else:
        key, reduction = "unit_diagonal", normalize_squares(nf)
    data = None if reduction is None else reduction.to_json()
    payload[key] = data
    lines.append(f"{key}: {'absent' if data is None else json.dumps(data)}")
    if data is None and field.spec() == "q":
        signs = "".join(diagonal_signs(nf))
        payload["signs"] = signs
        lines.append(f"signs: {signs}")
    return _emit_checked(args, payload, lines)


def _polynomial_input(args, field, names):
    """The expression as a jet at --precision, or as a polynomial without it."""
    prec = POLYNOMIAL_PRECISION if args.precision is None else args.precision
    return parse_jet(args.expr, field, names, prec)


def _cmd_milnor(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = _polynomial_input(args, field, names)
    payload = {"schema": 1, "command": "milnor", "field": field.spec(),
               "max_degree_searched": args.max_degree}
    if args.precision is not None or f.prec != POLYNOMIAL_PRECISION:
        # a jet, from --precision or an O(deg N) marker, is only meaningful
        # once a determinacy bound fits inside its own precision
        det = determinacy_certificate(f, args.max_degree)
        if det.bound is None or det.bound > f.prec:
            note = ("no determinacy bound within the jet precision; "
                    "mu of the truncation is not certified")
            payload.update({"mu": None, "stabilization_degree": None, "bound": None,
                            "order": det.order, "note": note})
            return _emit_checked(args, payload, ["mu: unknown", f"note: {note}"])
    report = milnor_number(f, args.max_degree)
    payload.update({
        "mu": report.mu,
        "stabilization_degree": report.stabilization_degree,
        "bound": report.determinacy_bound,
        "order": report.order,
    })
    mu_text = "infinite-or-unknown" if report.mu is None else str(report.mu)
    lines = [
        f"mu: {mu_text}",
        f"stabilization_degree: {report.stabilization_degree}",
        f"bound: {report.determinacy_bound}",
        f"order: {report.order}",
        f"max_degree_searched: {args.max_degree}",
    ]
    return _emit_checked(args, payload, lines)


def _cmd_determinacy(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = _polynomial_input(args, field, names)
    report = determinacy_certificate(f, args.max_degree)
    payload = {"schema": 1, "command": "determinacy", "field": field.spec(),
               "stabilization_degree": report.stabilization_degree, "bound": report.bound,
               "order": report.order, "max_degree_searched": report.max_degree}
    lines = [
        f"stabilization_degree: {report.stabilization_degree}",
        f"bound: {'absent' if report.bound is None else report.bound}",
        f"order: {report.order}",
        f"max_degree_searched: {report.max_degree}",
    ]
    return _emit_checked(args, payload, lines)


def _radius(entry):
    try:
        return Fraction(entry)
    except (ValueError, ZeroDivisionError):
        raise FieldError(f"--epsilon entry {entry!r} is not a rational number") from None


def _cmd_norm(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = _polynomial_input(args, field, names)
    valuation = parse_valuation_spec(args.valuation)
    if args.epsilon:
        eps = [_radius(e.strip()) for e in args.epsilon.split(",")]
    else:
        eps = [Fraction(1)] * f.nvars
    value = f.norm(valuation, eps)
    if isinstance(value, Fraction):
        rendered = str(value)
    else:
        rendered = repr(value)
    payload = {"schema": 1, "command": "norm", "field": field.spec(),
               "valuation": valuation.kind, "value": rendered}
    return _emit_checked(args, payload, [f"value: {rendered}"])


def _cmd_ift(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    unknowns = _parse_vars(args.split_vars)
    for u in unknowns:
        if u not in names:
            raise FieldError(f"unknown variable {u!r} in --split-vars")
    y_idx = [names.index(u) for u in unknowns]
    eqs = [parse_jet(e, field, names, args.precision) for e in args.equation]
    system = ImplicitSystem(eqs, y_idx)
    ys = ift_solve(system, args.precision)
    x_names = [names[i] for i in system.x_indices]
    solution = {u: serialize_jet(y, x_names) for u, y in zip(unknowns, ys)}
    payload = {"schema": 1, "command": "ift", "field": field.spec(),
               "precision": args.precision, "solution": solution}
    lines = [f"{u}: {text}" for u, text in solution.items()]
    return _emit_checked(args, payload, lines)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_transport(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    N = args.precision
    f0 = parse_jet(_read_text(args.f0), field, names, N)
    f1 = parse_jet(_read_text(args.f1), field, names, N)
    comp_lines = [line for line in _read_text(args.phi).splitlines() if line.strip()]
    phi = CoordinateChange([parse_jet(line, field, names, N) for line in comp_lines])
    quad0, g0 = split_shape(f0)
    quad1, g1 = split_shape(f1)
    if quad0 != quad1:
        raise FieldError("f0 and f1 do not share one quadratic normal form")
    problem = TransportProblem(quad0, g0, g1, phi, N)
    phi_prime = transport(problem)
    tail_names = names[problem.rank:]
    change = [serialize_jet(c, tail_names) for c in phi_prime.components]
    payload = {"schema": 1, "command": "transport", "field": field.spec(),
               "precision": N, "rank": problem.rank}
    if args.format == "json":   # the text form prints the change alone
        payload["g0"] = serialize_jet(problem.g0, tail_names)
        payload["g1"] = serialize_jet(problem.g1, tail_names)
    payload["change"] = change
    lines = [f"rank: {problem.rank}"]
    for name, text in zip(tail_names, change):
        lines.append(f"change[{name}]: {text}")
    return _emit_checked(args, payload, lines)


def _cmd_verify(args):
    names = _parse_vars(args.vars)
    try:
        data = json.loads(_read_text(args.result))
    except json.JSONDecodeError as exc:
        raise FieldError(f"result file is not JSON: {exc}") from None
    result = SplitResult.from_json(data, names)
    field = parse_field_spec(args.field)
    if field != result.field:
        raise FieldError(f"--field {field.spec()} is not the result file's field "
                         f"{result.field.spec()}")
    if args.precision is not None and args.precision != result.precision:
        raise FieldError(f"--precision {args.precision} is not the result file's precision "
                         f"{result.precision}")
    f = parse_jet(args.expr, result.field, names, result.precision)
    try:
        check = verify_split(f, result)
    except VerificationError as exc:
        payload = {"schema": 1, "command": "verify", "verified": False, "reason": str(exc)}
        _emit(args, payload, [f"reason: {exc}", "verified: false"])
        return 1
    verified = check.is_zero()
    difference = serialize_jet(check, names)
    payload = {"schema": 1, "command": "verify", "verified": verified,
               "difference": difference}
    lines = [f"difference: {difference}",
             f"verified: {'true' if verified else 'false'}"]
    _emit(args, payload, lines)
    return 0 if verified else 1


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged.

    A ``jetsplit`` run calls ``main`` once either way; callers that run
    ``main`` many times in one process reuse the parser.
    """
    parser = argparse.ArgumentParser(
        prog="jetsplit",
        description="Exact splitting-lemma toolkit for truncated power series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, precision_default=None, precision_required=False):
        p.add_argument("--field", required=True,
                       help="coefficient field: q | fp:P | f2k:K[:modulus=t..]")
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--precision", type=int, default=precision_default,
                       required=precision_required)

    p = sub.add_parser("split", help="split off the quadratic part")
    common(p, precision_required=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("quadform", help="classify the quadratic part")
    common(p, precision_default=2)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_quadform)

    p = sub.add_parser("milnor", help="Milnor number with Nakayama certificate")
    common(p)
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_milnor)

    p = sub.add_parser("determinacy", help="finite determinacy bound")
    common(p)
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_determinacy)

    p = sub.add_parser("norm", help="weighted coefficient norm")
    common(p)
    p.add_argument("--valuation", default="trivial",
                   help="trivial | abs | padic:P")
    p.add_argument("--epsilon", default="", help="comma-separated positive radii")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("ift", help="implicit function theorem solver")
    common(p, precision_required=True)
    p.add_argument("--split-vars", required=True,
                   help="comma-separated names of the unknowns")
    p.add_argument("equation", nargs="+")
    p.set_defaults(func=_cmd_ift)

    p = sub.add_parser("transport", help="move the residual part along an equivalence")
    common(p, precision_required=True)
    p.add_argument("f0", help="file with the source split form")
    p.add_argument("f1", help="file with the target split form")
    p.add_argument("phi", help="file with one change component per line")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("verify", help="re-check a split result file")
    common(p)
    p.add_argument("expr")
    p.add_argument("result", help="JSON file produced by the split command")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact results print integers of any length: lift the int-to-str digit limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
