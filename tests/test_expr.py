import json
import os
import random
import time
from fractions import Fraction

import pytest

from gen import FIELDS, rand_jet
from jetsplit import (BinaryField, Jet, ParseError, PrimeField, RationalField,
                      parse_field_spec, parse_jet, serialize_jet)

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


def bench_text(field, f, names):
    """f as the benchmark writes it: graded terms, every coefficient in parentheses."""
    terms = []
    for alpha, c in sorted(f.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, alpha) if e)
        lit = f"({field.format_scalar(c)})"
        terms.append(f"{lit}*{mono}" if mono else lit)
    return " + ".join(terms) or "0"


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_flat_sums_never_enter_the_token_loop(spec, token_loop):
    # the texts the benchmark writes and the ones serialize_jet writes are
    # flat sums; a silent hand-back to the token loop would cost its speed
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    loop = token_loop()
    for _ in range(80):
        n = rng.randint(1, 4)
        prec = rng.randint(1, 7)
        f = rand_jet(field, n, prec, rng, terms=rng.randint(1, 20))
        names = [f"x{i + 1}" for i in range(n)]
        for text in (bench_text(field, f, names), serialize_jet(f, names)):
            assert parse_jet(text, field, names, prec) == f, text
    assert loop["entries"] == 0


with open(os.path.join(os.path.dirname(__file__), "golden", "corpus.json"),
          encoding="utf-8") as _handle:
    # (field, variables, precision, expression) of the rejected golden parser inputs
    REJECTED = [case["argv"][2:8:2] + case["argv"][7:] for case in json.load(_handle)
                if case["name"].startswith("parse-error-")]


def test_nested_and_rejected_texts_enter_the_token_loop_once(token_loop):
    nested = ["(x + y)^2", "x*(y - (x + 1))", "((x))", "(x)^2", "(x + y)*x", "x*(y)^0"]
    for text in nested:
        loop = token_loop()
        parse_jet(text, Q, ["x", "y"], 4)
        assert loop["entries"] == 1, text
    assert len(REJECTED) == 20
    for spec, names, prec, text in REJECTED:
        loop = token_loop()
        with pytest.raises(ValueError):
            parse_jet(text, parse_field_spec(spec), names.split(","), int(prec))
        # an empty text is refused before either reader runs
        assert loop["entries"] == (0 if text.strip() in ("", "+ O(deg 3)") else 1), text


def test_flat_texts_of_10_5_characters_parse_in_linear_time(token_loop):
    # the pieces' regex matches each piece once: no backtracking over the text
    terms = [f"(-{i % 7 + 1}/7)*x^{i % 5}*y^{i % 3}" for i in range(6000)]
    flat = " + ".join(terms)
    product = "*".join(["x"] * 50000)
    assert len(flat) > 10 ** 5 and len(product) > 10 ** 5 - 2
    loop = token_loop()
    f = parse_timed(flat, Q, ["x", "y"], 10 ** 9)
    assert f.coeffs[(2, 1)] == sum(-Fraction(i % 7 + 1, 7) for i in range(6000)
                                   if i % 5 == 2 and i % 3 == 1)
    assert parse_timed(product, Q, ["x"], 10 ** 9).coeffs == {(50000,): 1}
    assert loop["entries"] == 0
