"""``parse_jet`` against the recursive jet-arithmetic parser in ``reference_parser``.

Random expression trees (nested parentheses, powers of sums, chained powers,
negation, literals, ``t`` over GF(2^k), terms above the precision and sums
that cancel) must give equal jets; damaged or semantically wrong inputs must
raise the same exception type, message and position.
"""

import random

import pytest

from jetsplit import parse_field_spec, parse_jet
from reference_parser import parse_jet_reference

SPECS = ["q", "fp:7", "fp:2", "f2k:4"]


def literal(spec, rng):
    if spec == "q":
        return rng.choice(["0", "1", "2", "3", "7", "1/2", "2/3", "5/4", "10/4", "12"])
    if spec.startswith("fp"):
        return str(rng.choice([0, 1, 3, 5, 9, 13, 15, 23, 24, 37]))
    return rng.choice(["0", "1", "t", "(t+1)", "t^2", "(t^3+t)", "t^5", "t^15", "(1+t)^3"])


def expression(spec, names, rng, depth):
    """A random expression with nesting at most depth."""
    kind = rng.random()
    if depth == 0 or kind < 0.2:
        if rng.random() < 0.25:
            return literal(spec, rng)
        return rng.choice(names)
    if kind < 0.6:
        parts = [expression(spec, names, rng, depth - 1) for _ in range(rng.randint(2, 5))]
        text = parts[0]
        for p in parts[1:]:
            text += rng.choice([" + ", " - ", "+", "-"]) + p
        return "(" + rng.choice(["", "-", "+"]) + text + ")"
    if kind < 0.8:
        return "*".join(expression(spec, names, rng, depth - 1) for _ in range(rng.randint(2, 3)))
    if kind < 0.95:
        base = expression(spec, names, rng, depth - 1)
        if not (base.startswith("(") and base.endswith(")")) or "^" in base:
            base = f"({base})"
        chain = "".join(f"^{rng.randint(0, 3)}" for _ in range(rng.randint(1, 2)))
        return base + chain
    inner = expression(spec, names, rng, depth - 1)
    return f"({inner} - ({inner}))" if rng.random() < 0.5 else f"(-({inner}) + {inner})"


def top_level(spec, names, rng):
    """A signed sum of random expressions, without outer parentheses."""
    text = rng.choice(["", "-", "+"]) + expression(spec, names, rng, rng.randint(1, 4))
    for _ in range(rng.randint(0, 4)):
        text += rng.choice([" + ", " - "]) + expression(spec, names, rng, rng.randint(0, 3))
    return text


def flat_sum(spec, names, rng):
    """A sum of monomials with literal coefficients, in the two text styles
    of the program's own output: ``c*x^a`` and ``- 3/7*x*y`` as serialization
    writes them, or every coefficient in parentheses, ``(c)*x^a``, as the
    benchmark writes them.  Some monomials repeat, so sums cancel, and some
    exceed the precision."""
    bare = rng.random() < 0.5
    terms = []
    for _ in range(rng.randint(1, 8)):
        mono = "*".join(rng.choice(names) + rng.choice(["", "", "^2", "^3", "^2^2", " ^ 5"])
                        for _ in range(rng.randint(0, 3)))
        lit = literal(spec, rng)
        if not bare:
            if lit.startswith("(") and lit.endswith(")"):
                lit = lit[1:-1].replace("+", " + ")
            lit = "(" + rng.choice(["", "", "-", " - "]) + lit + rng.choice(["", " "]) + ")"
        if not mono:
            terms.append(lit)
        elif lit in ("1", "(1)") and bare:
            terms.append(mono)
        else:
            terms.append(lit + rng.choice(["*", "*", " * "]) + mono)
        if rng.random() < 0.2:
            terms.append(terms[-1])
    text = rng.choice(["", "-", "- "]) + terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + term
    return text


def damage(text, rng):
    """The text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice(list("+-*^()#/ x1zwt") + ["x2", "1/2", "^y", "  "])
    action = rng.randrange(3)
    if action == 0 or not text:
        return text[:i] + ch + text[i:]
    if action == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + ch + text[i + 1:]


def outcome(parse, text, field, names, prec):
    try:
        return ("jet", parse(text, field, names, prec))
    except Exception as exc:  # compared below: type, message and position
        return ("error", type(exc), str(exc), getattr(exc, "pos", None))


@pytest.mark.parametrize("spec", SPECS)
def test_parse_jet_matches_reference(spec):
    rng = random.Random(4242 + SPECS.index(spec))
    field = parse_field_spec(spec)
    checked = errors = 0
    for prec in range(9):
        for _ in range(40):
            n = rng.randint(1, 3)
            names = [f"x{i + 1}" for i in range(n)]
            text = top_level(spec, names, rng)
            if rng.random() < 0.15:
                text += f" + O(deg {rng.randint(0, 8)})"
            candidates = [text, damage(text, rng), damage(damage(text, rng), rng)]
            for candidate in candidates:
                expected = outcome(parse_jet_reference, candidate, field, names, prec)
                got = outcome(parse_jet, candidate, field, names, prec)
                assert got == expected, candidate
                checked += 1
                errors += expected[0] == "error"
    assert errors > checked // 10 and checked - errors > checked // 3


@pytest.mark.parametrize("spec", SPECS)
def test_parse_jet_matches_reference_on_flat_sums(spec):
    rng = random.Random(5151 + SPECS.index(spec))
    field = parse_field_spec(spec)
    checked = errors = 0
    for prec in range(7):
        for _ in range(40):
            names = [f"x{i + 1}" for i in range(rng.randint(1, 3))]
            text = flat_sum(spec, names, rng)
            for candidate in [text, damage(text, rng), damage(damage(text, rng), rng)]:
                expected = outcome(parse_jet_reference, candidate, field, names, prec)
                got = outcome(parse_jet, candidate, field, names, prec)
                assert got == expected, candidate
                checked += 1
                errors += expected[0] == "error"
    assert errors > checked // 10 and checked - errors > checked // 3


EDGE_INPUTS = [
    "", "   ", "x #", "# x + * y", "x + * y # z", "(x", "x)", "((x)", "x y", "x^y", "x^",
    "x^1/2", "x^-1", "--x", "+-x", "x**y", "x + ", "()", "(+)", "z + * y", "z + w",
    "x + z*1/2", "1/0*x", "1/2*z", "x^2^3", "(x + y)^0", "(x - x)^0", "0^0", "0^2",
    "x^0*z", "- x - -y", "x + O(deg 3", "x + O(deg 3)", " + O(deg 2)", "x\u00b2",
    "\u0663*x", "x^\u0662", "x\t+\ny",
    "(-3/7)*x", "(0)*x^2 + (9)*y", "(9)*x^2 - (2)*x^2", "( 3 ) * x ^ 2", "(t^3 + t)*x",
    "(t^2 + 2)*x", "(1/2)*x", "2*x*z", "0*z", "(0)*x*z", "x^9 + (2)*x*z", "x*y - y*x",
    "x^2^3*y + 3^2*x", "- 3/7*x*y + x^2", "(-t)*x + (t + 1)*y", "(3)^2*x", "(x)*y",
    "(x + y)*x", "(x - x)*z", "(2*x)*y", "x*(y)", "(t)*t", "x*x*x*x", "3/", "x^2 + ",
    # literal powers: a nonzero literal to the power 0, and powers of 256 or more
    "3^0*x", "2^0", "x*3^0", "3^2^0*y", "-3^0*x^0", "t^0*x", "0*3^300*x", "3^256*x - 3^256*x",
]


@pytest.mark.parametrize("spec", SPECS)
def test_parse_jet_matches_reference_on_edge_inputs(spec):
    field = parse_field_spec(spec)
    for text in EDGE_INPUTS:
        for prec in (-1, 0, 1, 3):
            for names in (["x", "y"], ["t", "x", "y"], []):
                assert (outcome(parse_jet, text, field, names, prec)
                        == outcome(parse_jet_reference, text, field, names, prec)), text
