import random
import re
from fractions import Fraction
from functools import reduce
from math import isqrt

import pytest

from gen import (FIELDS, arf_reference, bilinear, evaluate, gram_jet, rand_invertible,
                 rand_m2_jet, rand_split_form, random_element, transition_change)
from jetsplit import (BinaryField, CharacteristicError, CoordinateChange, FieldError, Jet,
                      PrimeField, QuadNormalForm, RationalField,
                      SplitShapeError, arf_normal_form,
                      arf_reduce_solvable, diagonal_signs,
                      diagonalize, normal_form, normalize_squares, parse_field_spec,
                      parse_jet)
import linalg_oracle
from jetsplit import linalg, quadform
from jetsplit.quadform import QuadraticShapeError, _square_free_split

Q = RationalField()
F2 = PrimeField(2)
F4 = BinaryField(2)
F7 = PrimeField(7)


def qf(text, field, names, prec=2):
    return parse_jet(text, field, names, prec)


def test_extract_degree_two_part():
    q = qf("x^2 + y^3", Q, ["x", "y"], 3)
    assert q.gram() == {(0, 0): Fraction(1)}
    q2 = qf("x*y + x^3", F2, ["x", "y"], 3)
    assert q2.gram() == {(0, 1): 1}
    q3 = qf("y^3", Q, ["x", "y"], 3)
    assert q3.gram() == {}
    assert Jet.variable(Q, 2, 0, 1).gram() == {}


def test_extract_rejects_low_degree_terms():
    # each classifier checks the shape before the characteristic
    for classify in (normal_form, diagonalize, arf_normal_form):
        for field in (Q, F2):
            for text in ("x + x^2", "1 + x^2"):
                with pytest.raises(QuadraticShapeError,
                                   match="^series has terms of degree < 2$"):
                    classify(qf(text, field, ["x"], 2))
            with pytest.raises(QuadraticShapeError,
                               match="^need precision >= 2 to extract a quadratic form$"):
                classify(Jet.zero(field, 1, 1))


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_normal_form_classifies_the_2_jet(spec):
    field = parse_field_spec(spec)
    rng = random.Random(30)
    higher = 0
    for _ in range(40):
        n, prec = rng.randint(1, 4), rng.randint(3, 5)
        f = rand_m2_jet(field, n, prec, rng, terms=8)
        higher += f != f.truncate(2)
        assert normal_form(f) == normal_form(f.truncate(2))
    assert higher > 30


def test_square_free_split():
    for fr, s, t in [(Fraction(4), Fraction(1), Fraction(2)),
                     (Fraction(-18), Fraction(-2), Fraction(3)),
                     (Fraction(1, 4), Fraction(1), Fraction(1, 2)),
                     (Fraction(3, 2), Fraction(6), Fraction(1, 2))]:
        got_s, got_t = _square_free_split(fr)
        assert (got_s, got_t) == (s, t)
        assert got_s * got_t ** 2 == fr


def square_free_by_trial_division(m):
    """(s, u) with |m| = |s| * u^2, s squarefree with the sign of m."""
    s, u, rest, d = 1, 1, abs(m), 2
    while rest > 1:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        u *= d ** (e // 2)
        s *= d ** (e % 2)
        d += 1
    return (s if m > 0 else -s), u


def is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_square_free_split_matches_trial_division(monkeypatch):
    # with B = 6, cofactors free of 2, 3 and 5 are decided below 216, and
    # above it when they are a prime or the square of a prime
    monkeypatch.setattr(quadform, "TRIAL_BOUND", 6)
    decided = rejected = large_primes = large_squares = 0
    for num in range(-300, 301):
        for den in (1, 2, 3, 5, 7, 12, 49):
            fr = Fraction(num, den)
            if fr == 0:
                continue
            m = fr.numerator * fr.denominator
            cofactor = abs(m)
            for d in (2, 3, 5):
                while cofactor % d == 0:
                    cofactor //= d
            root = isqrt(cofactor)
            prime = is_prime_by_trial_division(cofactor)
            prime_square = root * root == cofactor and is_prime_by_trial_division(root)
            if cofactor >= 216 and not (prime or prime_square):
                with pytest.raises(ValueError, match=re.escape(str(fr))):
                    _square_free_split(fr)
                rejected += 1
                continue
            s, u = square_free_by_trial_division(m)
            assert _square_free_split(fr) == (Fraction(s), Fraction(u, fr.denominator))
            decided += 1
            large_primes += cofactor >= 216 and prime
            large_squares += cofactor >= 216 and prime_square
    assert decided > 1000 and rejected > 500 and large_primes > 100 and large_squares > 5


def test_square_free_split_past_the_trial_bound():
    p, q = 1000000007, 1000000009
    assert _square_free_split(Fraction(12 * p * p, 5)) == (Fraction(15), Fraction(2 * p, 5))
    assert _square_free_split(Fraction(-p * q)) == (Fraction(-p * q), Fraction(1))
    with pytest.raises(ValueError, match=str(p * q * 998244353)):
        _square_free_split(Fraction(p * q * 998244353))


def test_square_free_split_decides_large_primes_and_their_squares():
    big = 9223372036854775837  # prime, above 2^63
    assert _square_free_split(Fraction(big)) == (Fraction(big), Fraction(1))
    assert _square_free_split(Fraction(-3 * big, 4)) == (Fraction(-3 * big), Fraction(1, 2))
    assert _square_free_split(Fraction(2 * big * big)) == (Fraction(2), Fraction(big))
    top = 3317044064679887385961813  # the largest prime below field._MR_LIMIT
    assert _square_free_split(Fraction(top * top, 3)) == (Fraction(3), Fraction(top, 3))
    for composite in (big * 1000000007 * 1000000009, big * big * 1000000007,
                      620359215642592015573):
        with pytest.raises(ValueError, match=str(composite)):
            _square_free_split(Fraction(composite))
    above = 3317044064679887385962123  # prime, above field._MR_LIMIT: not decided
    with pytest.raises(ValueError, match=str(above)):
        _square_free_split(Fraction(above))


def test_read_split_shape_inverts_normal_jet():
    rng = random.Random(61)
    for field in FIELDS:
        for n in range(1, 5):
            for _ in range(6):
                quad, _, f = rand_split_form(field, n, 5, rng)
                assert QuadNormalForm.read_split_shape(f) == quad
                for prec in (2, 5):
                    assert QuadNormalForm.read_split_shape(quad.normal_jet(prec)) == quad


def test_read_split_shape_below_precision_2():
    f = parse_jet("x^2 + y^3", Q, ["x", "y"], 1)
    quad = QuadNormalForm.read_split_shape(f)
    assert (quad.variant, quad.rank, quad.diagonal) == ("diagonal", 0, ())


@pytest.mark.parametrize("field, names, text, message", [
    (Q, "x,y", "x*y + y^3", "2-jet is not diagonal"),
    (F7, "x,y", "y^2 + x^3", "diagonal entries are not in leading position"),
    (Q, "x,y", "x + y^2", "series has terms of degree < 2"),
    (F2, "x1,x2,x3", "x1*x3 + x2^3", "2-jet cross terms do not pair consecutive variables"),
    (F4, "x1,x2,x3", "x2*x3 + x1^2", "2-jet cross terms do not pair consecutive variables"),
    (F4, "x1,x2,x3", "t*x1*x2 + x3^3", "2-jet pair middle coefficients are not 1"),
    (F2, "x1,x2", "1 + x1*x2", "series has terms of degree < 2"),
], ids=["not-diagonal", "not-leading", "linear", "not-consecutive", "not-from-x1",
        "middle-not-1", "constant"])
def test_read_split_shape_rejections(field, names, text, message):
    f = parse_jet(text, field, names.split(","), 4)
    with pytest.raises(SplitShapeError, match=f"^{re.escape(message)}$"):
        QuadNormalForm.read_split_shape(f)


def test_diagonalize_hyperbolic_rational():
    q = qf("x1*x2", Q, ["x1", "x2"])
    nf = diagonalize(q)
    assert nf.diagonal == (Fraction(1), Fraction(-1))
    assert nf.rank == 2
    assert transition_change(nf).apply(q) == nf.normal_jet(2)


def test_diagonalize_already_diagonal():
    q = qf("3*x^2", F7, ["x", "y"])
    nf = diagonalize(q)
    assert nf.diagonal == (3,)
    assert nf.rank == 1


def test_diagonalize_zero_form():
    nf = diagonalize(Jet.zero(Q, 2, 2))
    assert nf.diagonal == ()
    assert nf.rank == 0


def test_diagonalize_rejects_char2():
    with pytest.raises(CharacteristicError):
        diagonalize(qf("x*y", F2, ["x", "y"]))


def test_diagonalize_reduces_square_factors():
    q = qf("4*x^2 + 18*y^2", Q, ["x", "y"])
    nf = diagonalize(q)
    assert nf.diagonal == (Fraction(1), Fraction(2))


def test_normalize_squares_rational():
    nf = QuadNormalForm("diagonal", Q, linalg.identity(Q, 2),
                        diagonal=(Fraction(4), Fraction(9)))
    unit = normalize_squares(nf)
    assert unit is not None
    assert unit.diagonal == (Fraction(1), Fraction(1))
    q = qf("4*x^2 + 9*y^2", Q, ["x", "y"])
    assert transition_change(unit).apply(q) == unit.normal_jet(2)


def test_normalize_squares_absent_reports_signs():
    nf = diagonalize(qf("2*x^2", Q, ["x", "y"]))
    assert normalize_squares(nf) is None
    assert diagonal_signs(nf) == ("+",)
    neg = diagonalize(qf("-3*x^2 + 2*y^2", Q, ["x", "y"]))
    assert diagonal_signs(neg) == ("-", "+")


def test_normalize_squares_gf7_quadratic_residues():
    # squares mod 7 are {1, 2, 4}: 2 normalizes, 3 does not
    good = QuadNormalForm("diagonal", F7, linalg.identity(F7, 1), diagonal=(2,))
    unit = normalize_squares(good)
    assert unit is not None and unit.diagonal == (1,)
    q = qf("2*x^2", F7, ["x"])
    assert transition_change(unit).apply(q) == unit.normal_jet(2)
    bad = QuadNormalForm("diagonal", F7, linalg.identity(F7, 1), diagonal=(3,))
    assert normalize_squares(bad) is None


def columns(matrix):
    return [list(col) for col in zip(*matrix)]


def test_arf_decompose_pair_and_radical():
    q = qf("x1*x2 + x3^2", F2, ["x1", "x2", "x3"])
    nf = arf_normal_form(q)
    assert len(nf.pairs) == 1
    assert len(nf.tail) == 1
    u, w, radical = columns(nf.matrix)
    assert radical == [0, 0, 1]
    assert bilinear(q, u, w) == 1


def test_bilinear_is_the_polar_form_of_x2_plus_3xy():
    q = qf("x^2 + 3*x*y", Q, ["x", "y"])
    assert bilinear(q, [1, 0], [1, 0]) == 2
    assert bilinear(q, [1, 0], [1, 1]) == 5


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_bilinear_is_q_of_sum_minus_q_of_parts(spec):
    # gram() reads back the written entries, and hessian() is U + U^T from them
    field = parse_field_spec(spec)
    zero, two = field.zero, field.from_int(2)
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(10):
            gram = {(i, j): random_element(field, rng) for i in range(n) for j in range(i, n)}
            q = gram_jet(field, n, gram, rng.randint(2, 4))
            assert q.gram() == {ij: c for ij, c in gram.items() if c != zero}
            p = q.hessian()
            assert all(p[i].get(j, zero) == p[j].get(i, zero)
                       == (field.mul(two, c) if i == j else c) for (i, j), c in gram.items())
            assert all(c != zero for row in p for c in row.values())
            v = [random_element(field, rng) for _ in range(n)]
            w = [random_element(field, rng) for _ in range(n)]
            vw = [field.add(a, b) for a, b in zip(v, w)]
            polar = field.sub(evaluate(q, vw), field.add(evaluate(q, v), evaluate(q, w)))
            assert bilinear(q, v, w) == polar
            assert polar == reduce(field.add, [field.mul(v[i], field.mul(c, w[j]))
                                               for i, row in enumerate(p)
                                               for j, c in row.items()], zero)


def test_arf_decompose_pure_square():
    q = qf("x1^2", F2, ["x1"])
    nf = arf_normal_form(q)
    assert nf.pairs == ()
    assert columns(nf.matrix) == [[1]]


def test_arf_decompose_zero_form():
    nf = arf_normal_form(Jet.zero(F2, 2, 2))
    assert len(nf.tail) == 2


def char2_quadratic(field, n, shape, rng):
    """A random form: shape 0 is zero, 1 all squares, and 2, 3 and 4 keep each
    coefficient with probability 1/3, 2/3 and 1."""
    density = (0, 0, 1 / 3, 2 / 3, 1)[shape]
    return gram_jet(field, n, {(i, j): random_element(field, rng, nonzero=True)
                               for i in range(n) for j in range(i, n)
                               if (shape == 1 and i == j) or rng.random() < density})


@pytest.mark.parametrize("spec", ["fp:2", "f2k:4", "f2k:8", "f2k:13"])
def test_arf_normal_form_matches_the_vector_pair_reference(spec):
    # 260 forms per field in 1-12 variables, 52 of each shape; f2k:13
    # multiplies carry-less, the others through tables
    field = parse_field_spec(spec)
    rng = random.Random(2021)
    for k in range(260):
        q = char2_quadratic(field, k // 5 % 12 + 1, k % 5, rng)
        nf = arf_normal_form(q)
        assert (nf.matrix, nf.pairs, nf.tail) == arf_reference(q), (spec, q)


def test_arf_normal_form_examples():
    nf = arf_normal_form(qf("x1^2 + x1*x2 + x2^2 + x3^2", F2, ["x1", "x2", "x3"]))
    assert nf.pairs == ((1, 1),)
    assert nf.tail == (1,)
    assert nf.half_rank == 1

    nf2 = arf_normal_form(qf("x1*x2", F2, ["x1", "x2"]))
    assert nf2.pairs == ((0, 0),)
    assert nf2.tail == ()

    nf3 = arf_normal_form(qf("x1^2 + x2^2", F2, ["x1", "x2"]))
    assert nf3.half_rank == 0
    assert nf3.tail == (1, 1)


def test_arf_normal_form_rank_matches_hessian():
    rng = random.Random(12)
    for field in (F2, F4):
        for _ in range(50):
            n = rng.randint(1, 4)
            f = rand_m2_jet(field, n, 2, rng)
            nf = arf_normal_form(f)
            assert 2 * nf.half_rank == f.hessian_rank()


def test_arf_reduce_solvable_examples():
    unsolvable = QuadNormalForm("arf", F2, linalg.identity(F2, 2), pairs=((1, 1),))
    assert arf_reduce_solvable(unsolvable) is None

    over_gf4 = QuadNormalForm("arf", F4, linalg.identity(F4, 2), pairs=((1, 1),))
    red = arf_reduce_solvable(over_gf4)
    assert red is not None
    assert red.variant == "char2_solvable_b"
    assert red.half_rank == 1

    squares = QuadNormalForm("arf", F2, linalg.identity(F2, 4),
                             pairs=((0, 0),), tail=(1, 1))
    red2 = arf_reduce_solvable(squares)
    assert red2 is not None
    assert red2.variant == "char2_solvable_a"
    q = qf("x1*x2 + x3^2 + x4^2", F2, ["x1", "x2", "x3", "x4"])
    assert transition_change(red2).apply(q) == red2.normal_jet(2)
    assert red2.normal_jet(2) == parse_jet("x1*x2 + x3^2", F2,
                                           ["x1", "x2", "x3", "x4"], 2)
    # the square is the tail, and the head leaves it out
    assert red2.tail == (1,)
    assert red2.head_jet(2) == parse_jet("x1*x2", F2, ["x1", "x2", "x3", "x4"], 2)
    # split writes no solvable variant, so a result file may not hold one
    for field, nf in ((F2, red2), (F4, red)):
        with pytest.raises(FieldError, match=f"^variant '{nf.variant}' is not the one split "
                                             "writes in characteristic 2$"):
            QuadNormalForm.from_json(field, nf.to_json())


def test_arf_reduce_full_pipeline_over_gf4():
    q = qf("x1^2 + x1*x2 + x2^2", F4, ["x1", "x2"])
    red = arf_reduce_solvable(arf_normal_form(q))
    assert red is not None
    assert red.variant == "char2_solvable_b"
    assert transition_change(red).apply(q) == parse_jet("x1*x2", F4, ["x1", "x2"], 2)


def test_normal_form_dispatch():
    assert normal_form(qf("x*y", Q, ["x", "y"])).variant == "diagonal"
    assert normal_form(qf("x*y", F2, ["x", "y"])).variant == "arf"


def test_random_normal_forms_verify_and_rank_is_invariant():
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(1, 4)
            f = rand_m2_jet(field, n, 2, rng)
            nf = normal_form(f)
            assert transition_change(nf).apply(f) == nf.normal_jet(2)
            assert linalg_oracle.rank(field, nf.matrix) == n
            # rank is invariant under a random linear change of the form
            m = rand_invertible(field, n, rng)
            change = CoordinateChange.from_linear(field, m, 2)
            assert normal_form(change.apply(f)).rank == nf.rank


def test_json_roundtrip():
    for q, field in [(qf("x1*x2 + x3^2", F2, ["x1", "x2", "x3"]), F2),
                     (qf("x1*x2", Q, ["x1", "x2"]), Q)]:
        nf = normal_form(q)
        data = nf.to_json()
        back = QuadNormalForm.from_json(field, data)
        assert back.variant == nf.variant
        assert back.matrix == nf.matrix
        assert back.diagonal == nf.diagonal
        assert back.pairs == nf.pairs
        assert back.tail == nf.tail
