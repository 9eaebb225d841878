import random
import time
from fractions import Fraction

import pytest

from gen import elements, random_element
from jetsplit import (ArchimedeanValuation, BinaryField, CharacteristicError,
                      FieldError, PAdicValuation, PrimeField, RationalField,
                      TrivialValuation, parse_field_spec, parse_valuation_spec)
from jetsplit.cli import main
from jetsplit.field import (_is_prime, default_modulus, format_t_poly,
                            gf2_poly_irreducible, parse_t_poly)

FIELDS = [RationalField(), PrimeField(7), PrimeField(2), BinaryField(2), BinaryField(4)]


def test_gf7_product():
    f = PrimeField(7)
    assert f.mul(3, 5) == 1


def test_rational_sum():
    q = RationalField()
    assert q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_gf4_generator_square():
    # modulus t^2+t+1: t*t reduces to t+1
    f = BinaryField(2)
    omega = 0b10
    assert f.mul(omega, omega) == 0b11


def test_field_axioms_random():
    rng = random.Random(1)
    for field in FIELDS:
        for _ in range(1000):
            a = random_element(field, rng)
            b = random_element(field, rng)
            c = random_element(field, rng)
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.add(a, field.neg(a)) == field.zero
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one
            assert field.sub(a, b) == field.add(a, field.neg(b))


def test_sqrt_gf7_tie_break():
    f = PrimeField(7)
    r = f.sqrt(2)
    assert r == 3  # both 3 and 4 square to 2; the smaller residue wins
    assert f.mul(r, r) == 2


def test_sqrt_gf4():
    f = BinaryField(2)
    omega = 0b10
    r = f.sqrt(omega)
    assert r == 0b11
    assert f.mul(r, r) == omega


def test_sqrt_rationals():
    q = RationalField()
    assert q.sqrt(Fraction(2)) is None
    assert q.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert q.sqrt(Fraction(-4)) is None
    assert q.sqrt(Fraction(0)) == 0


def test_sqrt_prime_fields_match_bruteforce():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        f = PrimeField(p)
        for a in elements(f):
            roots = [r for r in range(p) if r * r % p == a]
            expected = min(roots) if roots else None
            assert f.sqrt(a) == expected


def test_sqrt_binary_exhaustive():
    for k in range(1, 9):
        f = BinaryField(k)
        for a in elements(f):
            s = f.sqrt(a)
            assert f.mul(s, s) == a
        # Frobenius is injective, so roots are unique
        squares = {f.mul(a, a) for a in elements(f)}
        assert len(squares) == f.order


def test_solve_affine_quadratic_examples():
    assert PrimeField(2).solve_affine_quadratic(1, 1) is None
    f4 = BinaryField(2)
    assert f4.solve_affine_quadratic(1, 1) == 0b10
    for field in (PrimeField(2), BinaryField(2), BinaryField(3)):
        assert field.solve_affine_quadratic(field.one, field.zero) == field.zero


def test_solve_affine_quadratic_wrong_characteristic():
    with pytest.raises(CharacteristicError):
        PrimeField(7).solve_affine_quadratic(1, 1)
    with pytest.raises(CharacteristicError):
        RationalField().solve_affine_quadratic(Fraction(1), Fraction(1))


def test_solve_affine_quadratic_small_fields_bruteforce():
    for k in range(1, 5):
        f = BinaryField(k)
        for a in elements(f):
            for c in elements(f):
                roots = [u for u in elements(f)
                         if f.add(f.add(f.mul(a, f.mul(u, u)), u), c) == f.zero]
                expected = min(roots) if roots else None
                assert f.solve_affine_quadratic(a, c) == expected, (k, a, c)


@pytest.mark.parametrize("spec", ["f2k:32:modulus=t32+t22+t2+t+1",
                                  "f2k:64:modulus=t64+t4+t3+t+1"])
def test_solve_affine_quadratic_large_fields(spec):
    start = time.perf_counter()
    f = parse_field_spec(spec)
    rng = random.Random(96)
    solved = 0
    for _ in range(40):
        a, c = random_element(f, rng, nonzero=True), random_element(f, rng)
        u = f.solve_affine_quadratic(a, c)
        if u is None:
            assert f.trace(f.mul(a, c)) == 1
            continue
        solved += 1
        assert f.add(f.add(f.mul(a, f.mul(u, u)), u), c) == f.zero
        assert u < u ^ f.inv(a)  # the smaller of the two roots
    assert solved >= 10
    assert time.perf_counter() - start < 1.0


def test_solve_affine_quadratic_exhaustive_upto_gf256():
    # root-table oracle: roots of a u^2 + u + c = 0 are u = v/a with v^2 + v = a c
    for k in range(5, 9):
        f = BinaryField(k)
        table = {}
        for v in elements(f):
            key = f.add(f.mul(v, v), v)
            table[key] = min(table.get(key, v), v)
        for a in elements(f):
            for c in elements(f):
                got = f.solve_affine_quadratic(a, c)
                if a == f.zero:
                    assert got == c
                    continue
                d = f.mul(a, c)
                if d not in table:
                    assert got is None
                    continue
                v = table[d]
                ai = f.inv(a)
                expected = min(f.mul(v, ai), f.add(f.mul(v, ai), ai))
                assert got == expected, (k, a, c)
                assert f.add(f.add(f.mul(a, f.mul(got, got)), got), c) == f.zero


def test_padic_valuation_example():
    v = PAdicValuation(2)
    q = RationalField()
    assert v.value(q, Fraction(12)) == Fraction(1, 4)
    assert v.value(q, Fraction(0)) == 0
    assert v.value(q, Fraction(3, 8)) == Fraction(8)


def test_padic_valuation_of_large_and_mixed_powers():
    q = RationalField()
    rng = random.Random(3)
    for p in (2, 3, 7):
        v = PAdicValuation(p)
        for m in [0, 1, 2, 3, 7, 8, 15, 16, 17, 1000] + [rng.randrange(3000) for _ in range(30)]:
            unit = rng.randrange(1, 10 ** 6) * p + rng.randrange(1, p)
            assert v.value(q, Fraction(p ** m * unit, 5 * unit + p)) == Fraction(1, p ** m)
            assert v.value(q, Fraction(-unit, p ** m)) == p ** m


def test_trivial_valuation_any_field():
    v = TrivialValuation()
    assert v.value(PrimeField(7), 5) == 1
    assert v.value(PrimeField(7), 0) == 0
    assert v.value(BinaryField(2), 0b10) == 1


def test_archimedean_valuation():
    v = ArchimedeanValuation()
    q = RationalField()
    assert v.value(q, Fraction(-3, 2)) == Fraction(3, 2)
    with pytest.raises(FieldError):
        v.value(PrimeField(7), 3)


def test_valuation_axioms_random():
    rng = random.Random(2)
    q = RationalField()
    exact = [PAdicValuation(2), PAdicValuation(5), TrivialValuation()]
    for v in exact:
        for _ in range(300):
            a = random_element(q, rng)
            b = random_element(q, rng)
            assert (v.value(q, a) == 0) == (a == 0)
            assert v.value(q, q.mul(a, b)) == v.value(q, a) * v.value(q, b)
            assert v.value(q, q.add(a, b)) <= v.value(q, a) + v.value(q, b)
    arch = ArchimedeanValuation()
    for _ in range(300):
        a = random_element(q, rng)
        b = random_element(q, rng)
        assert arch.value(q, a * b) == arch.value(q, a) * arch.value(q, b)
        assert arch.value(q, a + b) <= arch.value(q, a) + arch.value(q, b)


def test_builtin_moduli_are_irreducible():
    for k in range(1, 17):
        m = default_modulus(k)
        assert m.bit_length() - 1 == k
        assert gf2_poly_irreducible(m)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        BinaryField(2, parse_t_poly("t^2+1"))  # (t+1)^2


def test_t_poly_roundtrip():
    for mask in range(1, 64):
        assert parse_t_poly(format_t_poly(mask)) == mask
    assert parse_t_poly("t4+t+1") == 0b10011


def test_parse_field_spec():
    assert parse_field_spec("q").spec() == "q"
    assert parse_field_spec("fp:7").spec() == "fp:7"
    assert parse_field_spec("f2k:4").spec() == "f2k:4"
    custom = parse_field_spec("f2k:4:modulus=t4+t3+1")
    assert custom.spec() == "f2k:4:modulus=t^4+t^3+1"
    assert parse_field_spec("f2k:4") == BinaryField(4)
    for bad in ("z", "fp:6", "fp:x", "f2k:4:mod=t4", "q:1"):
        with pytest.raises(FieldError):
            parse_field_spec(bad)


def test_parse_valuation_spec():
    assert parse_valuation_spec("trivial").kind == "trivial"
    assert parse_valuation_spec("abs").kind == "archimedean"
    assert parse_valuation_spec("padic:3").kind == "p-adic(3)"
    with pytest.raises(FieldError):
        parse_valuation_spec("padic:4")


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_division_by_zero():
    for field in FIELDS:
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)
        with pytest.raises(ZeroDivisionError):
            field.div(field.one, field.zero)


def test_scalar_text_roundtrip():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(50):
            a = random_element(field, rng)
            assert field.parse_scalar(field.format_scalar(a)) == a


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == _trial_division_is_prime(n) for n in range(-3, 5000))


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1)
    assert _is_prime(2 ** 31 - 1)


def test_large_prime_field_parses_fast(capsys):
    start = time.perf_counter()
    code = main(["quadform", "--field", "fp:2305843009213693951", "--vars", "x,y",
                 "x^2 + 3*x*y"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "field: fp:2305843009213693951" in capsys.readouterr().out


def test_prime_above_certified_range_is_input_error(capsys):
    with pytest.raises(FieldError):
        PrimeField(2 ** 89 - 1)
    code = main(["quadform", "--field", f"fp:{2 ** 89 - 1}", "--vars", "x", "x^2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_zero_and_one_are_computed_once_per_field():
    for field in FIELDS:
        assert field.zero == field.from_int(0) and field.one == field.from_int(1)
        assert field.zero is field.zero and field.one is field.one

    class CountingRationals(RationalField):
        made = 0

        def from_int(self, n):
            CountingRationals.made += 1
            return super().from_int(n)

    field = CountingRationals()
    for _ in range(3):
        assert (field.zero, field.one) == (0, 1)
    assert CountingRationals.made == 2


def test_table_multiplication_matches_carry_less_product():
    # the exp table is doubled, so a product is one lookup with no reduction mod 2^k - 1
    for k in range(1, 7):
        field = BinaryField(k)
        for a in range(field.order):
            for b in range(field.order):
                assert field.mul(a, b) == field._raw_mul(a, b)
