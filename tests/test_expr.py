import random
import time
from fractions import Fraction

import pytest

from gen import FIELDS, rand_jet
from jetsplit import (BinaryField, Jet, ParseError, PrimeField, RationalField,
                      parse_jet, serialize_jet)

Q = RationalField()


def test_parse_rational_polynomial():
    f = parse_jet("x1^2 + 1/2*x2^3", Q, ["x1", "x2"], 4)
    assert f.coeffs == {(2, 0): Fraction(1), (0, 3): Fraction(1, 2)}


def test_parse_char2_two_terms():
    f2 = PrimeField(2)
    f = parse_jet("x1*x2 + x1*x3^2", f2, ["x1", "x2", "x3"], 3)
    assert f.coeffs == {(1, 1, 0): 1, (1, 0, 2): 1}


def test_parse_binary_field_literal():
    f4 = BinaryField(2)
    f = parse_jet("(t+1)*x1^2", f4, ["x1"], 2)
    assert f.coeffs == {(2,): 0b11}
    g = parse_jet("t*x1 + x1", f4, ["x1"], 2)
    assert g.coeffs == {(1,): 0b11}


def test_parse_negative_and_parentheses():
    f = parse_jet("-1/4*y^4 + (x - y)^2", Q, ["x", "y"], 4)
    expected = parse_jet("x^2 - 2*x*y + y^2 - 1/4*y^4", Q, ["x", "y"], 4)
    assert f == expected


def test_parse_power_of_parenthesized():
    f = parse_jet("(x + y)^3", Q, ["x", "y"], 3)
    assert f.coeffs[(2, 1)] == Fraction(3)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_jet("x + * y", Q, ["x", "y"], 2)
    assert err.value.pos == 4


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_jet("x + z", Q, ["x", "y"], 2)


def test_parse_literal_not_in_field():
    with pytest.raises(ParseError):
        parse_jet("1/2*x", PrimeField(7), ["x"], 2)
    with pytest.raises(ParseError):
        parse_jet("2*x", BinaryField(2), ["x"], 2)


def test_parse_reserved_t_over_binary_fields():
    with pytest.raises(Exception):
        parse_jet("t + x", BinaryField(2), ["t", "x"], 2)


def test_precision_suffix_overrides():
    f = parse_jet("x + O(deg 7)", Q, ["x"], 3)
    assert f.prec == 7


def test_terms_above_precision_are_dropped():
    f = parse_jet("x + x^5", Q, ["x"], 3)
    assert f == parse_jet("x", Q, ["x"], 3)


def test_serialize_ordering_and_signs():
    f = parse_jet("x^2 - 1/4*y^4 + y^2", Q, ["x", "y"], 4)
    assert serialize_jet(f, ["x", "y"]) == "x^2 + y^2 - 1/4*y^4 + O(deg 4)"
    assert serialize_jet(Jet.zero(Q, 2, 5)) == "0 + O(deg 5)"


def test_serialize_leading_negative():
    f = parse_jet("-1/4*y^4", Q, ["x", "y"], 4)
    assert serialize_jet(f, ["x", "y"]) == "-1/4*y^4 + O(deg 4)"


def test_serialize_binary_coefficients_parenthesized():
    f4 = BinaryField(2)
    f = parse_jet("(t+1)*x^2 + t*x", f4, ["x"], 2)
    assert serialize_jet(f, ["x"]) == "t*x + (t+1)*x^2 + O(deg 2)"


def test_graded_lex_order_within_degree():
    f = parse_jet("x2^2 + x1*x2 + x1^2", Q, ["x1", "x2"], 2)
    assert serialize_jet(f) == "x1^2 + x1*x2 + x2^2 + O(deg 2)"


def test_roundtrip_random_jets():
    rng = random.Random(10)
    for field in FIELDS:
        for _ in range(100):
            n = rng.randint(1, 4)
            prec = rng.randint(0, 7)
            f = rand_jet(field, n, prec, rng, terms=rng.randint(0, 8))
            names = [f"x{i + 1}" for i in range(n)]
            text = serialize_jet(f, names)
            assert parse_jet(text, field, names, 99) == f


def parse_timed(text, field, names, prec):
    """parse_jet, required to finish within a few seconds."""
    start = time.perf_counter()
    f = parse_jet(text, field, names, prec)
    assert time.perf_counter() - start < 3.0
    return f


def test_long_sum_parses():
    f = parse_timed(" - ".join(["x"] * 1500), Q, ["x"], 2)
    assert f.coeffs == {(1,): Fraction(-1498)}


def test_long_product_parses():
    text = "*".join(["x"] * 1500)
    assert parse_timed(text, Q, ["x"], 1500).coeffs == {(1500,): Fraction(1)}
    assert parse_timed(text, Q, ["x"], 1499).is_zero()


def test_long_power_chain_parses():
    assert parse_timed("x" + "^1" * 1500, Q, ["x"], 3) == parse_jet("x", Q, ["x"], 3)
    # (x + 1)^(2^1500) = x^(2^1500) + 1 over GF(2)
    assert parse_timed("(x + 1)" + "^2^1" * 1500, PrimeField(2), ["x"], 4).coeffs == {(0,): 1}


def test_deep_parentheses_parse():
    assert parse_timed("(" * 600 + "x" + ")" * 600, Q, ["x"], 2) == parse_jet("x", Q, ["x"], 2)
    f = parse_timed("(-" * 601 + "x" + ")" * 601, Q, ["x"], 2)
    assert f.coeffs == {(1,): Fraction(-1)}


def test_deep_unclosed_parentheses_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_timed("(" * 600 + "x", Q, ["x"], 2)
    assert str(err.value) == "expected ')', found '' (at position 601)"
