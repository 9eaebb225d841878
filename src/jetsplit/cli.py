"""Command-line front end.

The commands print what the library returns and make no check of their own:
every algorithm verifies its result (an exact substitution or membership
identity) once, before it returns, and raises ``VerificationError``
otherwise, which exits 1 with one ``verification failed: <stage>: ...`` line
on stderr.  ``verified`` therefore reports the library's check.  ``verify``
is the exception: it re-checks a split result read from a file, and
refuses a ``--field`` or ``--precision`` other than the file's.  ``norm``
is a direct exact evaluation with no certificate behind its flag.
Exit codes: 0 success, 1 verification failure, 2 input error, and 141
(128 + SIGPIPE) with no message when stdout's reader closes it early.

Each command states its output once, as fields: (JSON key, value, text
lines) triples, where a field without a key is text only and one without
lines is JSON only.  ``_emit`` alone prints them, as JSON after ``schema``
and ``command`` or as text lines, appends ``verified`` and returns the exit
code.  JSON keys follow the fields, except those a command lists first.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .expr import parse_jet, serialize_jet
from .field import FieldError, parse_field_spec, parse_valuation_spec
from .ift import ImplicitSystem, ift_solve
from .jacobian import DEFAULT_MAX_DEGREE, determinacy_certificate, milnor_number
from .jet import CoordinateChange, VerificationError
from .quadform import arf_reduce_solvable, diagonal_signs, normal_form, normalize_squares
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


def _field(key, value, text=None):
    """A field printed as JSON ``key`` and as the line ``key: text`` (the value by default)."""
    return key, value, [f"{key}: {value if text is None else text}"]


def _emit(args, command, fields, verified=True, json_order=()):
    """Print the fields and ``verified``, the keys of ``json_order`` first in JSON."""
    fields = [*fields, ("verified", verified, [f"verified: {'true' if verified else 'false'}"])]
    if args.format == "json":
        values = {key: value for key, value, _ in fields if key is not None}
        payload = {"schema": 1, "command": command}
        payload.update((key, values[key]) for key in json_order)
        payload.update(values)
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(line for _, _, lines in fields for line in lines))
    return 0 if verified else 1


def _cmd_split(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = parse_jet(args.expr, field, names, args.precision)
    data = split(f, args.precision).to_json(names)
    return _emit(args, "split", [
        _field("field", data["field"]), _field("precision", data["precision"]),
        _field("rank", data["rank"]), _field("quad", data["quad"], json.dumps(data["quad"])),
        _field("residual", data["residual"]),
        ("change", data["change"], [f"change[{x}]: {c}" for x, c in zip(names, data["change"])]),
    ], json_order=("rank",))


def _cmd_quadform(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = parse_jet(args.expr, field, names, max(2, args.precision))
    nf = normal_form(f)
    nf_text = serialize_jet(nf.normal_jet(2), names)
    if field.char == 2:
        key, reduction = "solvable_reduction", arf_reduce_solvable(nf)
    else:
        key, reduction = "unit_diagonal", normalize_squares(nf)
    data = None if reduction is None else reduction.to_json()
    fields = [_field("field", field.spec()), (None, None, [f"rank: {nf.rank}"]),
              ("normal_form_text", nf_text, [f"normal_form: {nf_text}"]),
              ("normal_form", nf.to_json(), [f"descriptor: {json.dumps(nf.to_json())}"]),
              _field(key, data, "absent" if data is None else json.dumps(data))]
    if data is None and field.spec() == "q":
        fields.append(_field("signs", "".join(diagonal_signs(nf))))
    return _emit(args, "quadform", fields)


def _polynomial_input(args, field, names):
    """The expression as a jet at --precision, or as a polynomial without it."""
    prec = POLYNOMIAL_PRECISION if args.precision is None else args.precision
    return parse_jet(args.expr, field, names, prec)


def _cmd_milnor(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = _polynomial_input(args, field, names)
    if args.precision is not None or f.prec != POLYNOMIAL_PRECISION:
        # a jet, from --precision or an O(deg N) marker, is only meaningful
        # once a determinacy bound fits inside its own precision
        det = determinacy_certificate(f, args.max_degree)
        if det.bound is None or det.bound > f.prec:
            note = ("no determinacy bound within the jet precision; "
                    "mu of the truncation is not certified")
            return _emit(args, "milnor", [
                ("field", field.spec(), []), ("max_degree_searched", args.max_degree, []),
                _field("mu", None, "unknown"), ("stabilization_degree", None, []),
                ("bound", None, []), ("order", det.order, []), _field("note", note)])
    report = milnor_number(f, args.max_degree)
    return _emit(args, "milnor", [
        ("field", field.spec(), []),
        _field("mu", report.mu, "infinite-or-unknown" if report.mu is None else None),
        _field("stabilization_degree", report.stabilization_degree),
        _field("bound", report.determinacy_bound), _field("order", report.order),
        _field("max_degree_searched", args.max_degree),
    ], json_order=("field", "max_degree_searched"))


def _cmd_determinacy(args):
    field = parse_field_spec(args.field)
    names = _parse_vars(args.vars)
    f = _polynomial_input(args, field, names)
    report = determinacy_certificate(f, args.max_degree)
    return _emit(args, "determinacy", [
        ("field", field.spec(), []), _field("stabilization_degree", report.stabilization_degree),
        _field("bound", report.bound, "absent" if report.bound is None else None),
        _field("order", report.order), _field("max_degree_searched", report.max_degree)])


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
    return _emit(args, "norm", [("field", field.spec(), []), ("valuation", valuation.kind, []),
                                _field("value", rendered)])


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
    return _emit(args, "ift", [("field", field.spec(), []), ("precision", args.precision, []),
                               ("solution", solution, [f"{u}: {y}" for u, y in solution.items()])])


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
    fields = [("field", field.spec(), []), ("precision", N, []), _field("rank", problem.rank)]
    if args.format == "json":   # the text form prints the change alone
        fields += [("g0", serialize_jet(problem.g0, tail_names), []),
                   ("g1", serialize_jet(problem.g1, tail_names), [])]
    fields.append(("change", change,
                   [f"change[{name}]: {text}" for name, text in zip(tail_names, change)]))
    return _emit(args, "transport", fields)


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
        return _emit(args, "verify", [_field("reason", str(exc))], verified=False,
                     json_order=("verified",))
    return _emit(args, "verify", [_field("difference", serialize_jet(check, names))],
                 verified=check.is_zero(), json_order=("verified",))


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
    except BrokenPipeError:  # not bad input; /dev/null takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
