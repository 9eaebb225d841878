import gc
import importlib
import inspect
import itertools
import operator
import random
import sys
import time
from fractions import Fraction

import pytest

import jetsplit.jet
from gen import (FIELDS, constant_jet, identity_change, jet_power, monomials_of_degree,
                 naive_substitute, naive_times, rand_automorphism, rand_jet, rand_m2_jet,
                 rand_monomial, random_element, same_error)
from jetsplit import (ABOVE_PRECISION, ArchimedeanValuation,
                      CoordinateChange, Field, ImplicitSystem, Jet, PAdicValuation,
                      PrecisionError, PrimeField, RationalField, ift_solve, linalg,
                      milnor_number, parse_field_spec, parse_jet, split)
from jetsplit.expr import serialize_jet
from jetsplit.jet import (_kronecker_into, _kronecker_pays, _next_power, _Packing,
                          _packed_product, _product_into, _route, _square_into,
                          _substitute_batch, _substitute_packed)
from jetsplit.split import _cofactors

# the package re-exports a function named like this module
split_module = importlib.import_module("jetsplit.split")

Q = RationalField()
F2 = PrimeField(2)


def jq(text, names, prec):
    return parse_jet(text, Q, names, prec)


def test_product_difference_of_squares():
    f = jq("x + y", ["x", "y"], 2)
    g = jq("x - y", ["x", "y"], 2)
    assert f * g == jq("x^2 - y^2", ["x", "y"], 2)


def test_product_truncates():
    f = jq("1 + x", ["x"], 1)
    assert f * f == jq("1 + 2*x", ["x"], 1)


def test_char2_square_drops_cross_term():
    f = parse_jet("x + y", F2, ["x", "y"], 2)
    assert f * f == parse_jet("x^2 + y^2", F2, ["x", "y"], 2)


def test_substitute_square():
    f = jq("x^2", ["x", "y"], 4)
    phi = CoordinateChange([jq("x - 1/2*y^2", ["x", "y"], 4), jq("y", ["x", "y"], 4)])
    assert phi.apply(f) == jq("x^2 - x*y^2 + 1/4*y^4", ["x", "y"], 4)


def test_substitute_identity():
    rng = random.Random(4)
    for field in FIELDS:
        f = rand_jet(field, 3, 5, rng, min_degree=0, terms=6)
        ident = identity_change(field, 3, 5)
        assert ident.apply(f) == f


def test_substitute_char2_example():
    names = ["x1", "x2", "x3"]
    f = parse_jet("x1*x2", F2, names, 3)
    phi = CoordinateChange([parse_jet("x1", F2, names, 3),
                            parse_jet("x2 + x3^2", F2, names, 3),
                            parse_jet("x3", F2, names, 3)])
    assert phi.apply(f) == parse_jet("x1*x2 + x1*x3^2", F2, names, 3)


def test_substitute_requires_zero_constant():
    f = jq("x", ["x"], 3)
    with pytest.raises(ValueError):
        f.substitute([jq("1 + x", ["x"], 3)])


def test_substitute_requires_precision():
    f = jq("x", ["x"], 3)
    with pytest.raises(PrecisionError):
        f.substitute([jq("x", ["x"], 2)])


def test_partial_power_rule():
    assert jq("x^3", ["x"], 3).partial(0) == jq("3*x^2", ["x"], 2)


def test_partial_char2_kills_squares():
    f = parse_jet("x^2", F2, ["x"], 2)
    assert f.partial(0).is_zero()


def test_partial_char3():
    f3 = PrimeField(3)
    f = parse_jet("x*y + y^3", f3, ["x", "y"], 3)
    assert f.partial(1) == parse_jet("x", f3, ["x", "y"], 2)


def test_order():
    assert jq("x^2 + y^3", ["x", "y"], 3).order() == 2
    assert Jet.zero(Q, 2, 3).order() == ABOVE_PRECISION
    f = jq("x*y", ["x", "y"], 3)
    assert (f - f).order() == ABOVE_PRECISION


def test_truncate():
    f = jq("x + x^3", ["x"], 3)
    assert f.truncate(2) == jq("x", ["x"], 2)
    assert f.truncate(3) == f
    assert jq("1 + x + x^2", ["x"], 2).truncate(0) == jq("1", ["x"], 0)
    with pytest.raises(PrecisionError):
        f.truncate(4)


def test_hessian_char2_hyperbolic():
    f = parse_jet("x1*x2", F2, ["x1", "x2"], 2)
    assert f.hessian() == [[0, 1], [1, 0]]
    assert f.hessian_rank() == 2


def test_hessian_char2_square_vanishes():
    f = parse_jet("x^2", F2, ["x"], 2)
    assert f.hessian() == [[0]]
    assert f.hessian_rank() == 0


def test_hessian_rational():
    f = jq("5*x^2", ["x"], 2)
    assert f.hessian() == [[Fraction(10)]]


def test_hessian_rank_diagonal():
    for k in range(1, 5):
        text = " + ".join(f"x{i + 1}^2" for i in range(k))
        names = [f"x{i + 1}" for i in range(4)]
        assert jq(text, names, 2).hessian_rank() == k
    assert parse_jet("x1*x2 + x3^2", F2, ["x1", "x2", "x3"], 2).hessian_rank() == 2
    assert Jet.zero(Q, 3, 2).hessian_rank() == 0


def test_norm_examples():
    f = jq("1 + 2*x", ["x"], 1)
    assert f.norm(ArchimedeanValuation(), [Fraction(1, 2)]) == 2.0
    g = jq("12*x", ["x"], 1)
    assert g.norm(PAdicValuation(2), [Fraction(1)]) == Fraction(1, 4)
    assert Jet.zero(Q, 1, 1).norm(PAdicValuation(2), [Fraction(1)]) == 0


def test_norm_rejects_wrong_field():
    f = parse_jet("x", F2, ["x"], 1)
    with pytest.raises(Exception):
        f.norm(PAdicValuation(2), [Fraction(1)])


def test_min_precision_semantics():
    f = jq("x", ["x"], 5)
    g = jq("x^2", ["x"], 3)
    assert (f + g).prec == 3
    assert (f * g).prec == 3


def test_mismatch_errors():
    f = jq("x", ["x"], 2)
    g = parse_jet("x", F2, ["x"], 2)
    with pytest.raises(ValueError):
        f + g
    h = jq("x", ["x", "y"], 2)
    with pytest.raises(ValueError):
        f * h


def test_substitution_is_ring_homomorphism():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 3)
            prec = rng.randint(2, 6)
            f = rand_jet(field, n, prec, rng, terms=5)
            g = rand_jet(field, n, prec, rng, terms=5)
            phi = rand_automorphism(field, n, prec, rng)
            assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)
            assert phi.apply(f * g) == phi.apply(f) * phi.apply(g)


def test_change_composition_matches_sequential_application():
    rng = random.Random(6)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(1, 3)
            prec = rng.randint(2, 5)
            f = rand_jet(field, n, prec, rng, terms=5)
            phi = rand_automorphism(field, n, prec, rng)
            psi = rand_automorphism(field, n, prec, rng)
            assert psi.apply(phi.apply(f)) == phi.compose(psi).apply(f)


def test_hessian_rank_invariant_under_automorphisms():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(30):
            n = rng.randint(2, 4)
            f = rand_m2_jet(field, n, 4, rng)
            phi = rand_automorphism(field, n, 4, rng)
            assert phi.apply(f).hessian_rank() == f.hessian_rank()


def test_char2_hessian_rank_always_even_exhaustive():
    # every quadratic form in up to 3 variables over GF(2)
    for n in range(1, 4):
        positions = [(i, j) for i in range(n) for j in range(i, n)]
        for mask in range(1 << len(positions)):
            coeffs = {}
            for bit, (i, j) in enumerate(positions):
                if mask >> bit & 1:
                    alpha = [0] * n
                    alpha[i] += 1
                    alpha[j] += 1
                    coeffs[tuple(alpha)] = 1
            f = Jet(F2, n, 2, coeffs)
            assert f.hessian_rank() % 2 == 0


def test_chain_rule():
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(20):
            n = rng.randint(1, 3)
            prec = rng.randint(2, 5)
            f = rand_jet(field, n, prec, rng, terms=5)
            phi = rand_automorphism(field, n, prec, rng)
            lowered = [c.truncate(prec - 1) for c in phi.components]
            for j in range(n):
                lhs = phi.apply(f).partial(j)
                rhs = Jet.zero(field, n, prec - 1)
                for i in range(n):
                    rhs = rhs + f.partial(i).substitute(lowered) * phi.components[i].partial(j)
                assert lhs == rhs


def test_automorphism_flag_matches_linear_rank():
    names = ["x", "y"]
    phi = CoordinateChange([jq("x + y", names, 3), jq("x - y", names, 3)])
    assert phi.is_automorphism()
    psi = CoordinateChange([jq("x + y", names, 3), jq("x + y + x^2", names, 3)])
    assert not psi.is_automorphism()


def test_power_matches_repeated_product():
    rng = random.Random(9)
    f = rand_jet(Q, 2, 6, rng, terms=4)
    acc = constant_jet(Q, 2, 6, Fraction(1))
    for e in range(5):
        assert jet_power(f, e) == acc
        acc = acc * f


# -- substitution against a naive tuple-exponent expansion --------------------

# fp:1000000007 has residues whose products exceed a machine word, and f2k:13
# is above BinaryField._TABLE_LIMIT, so it multiplies without log tables
ORACLE_FIELDS = [parse_field_spec(s)
                 for s in ("q", "fp:7", "fp:2", "f2k:4", "fp:1000000007", "f2k:13")]


def test_substitute_matches_naive_expansion():
    rng = random.Random(11)
    # precisions on both sides of the bit-width steps 2^B - 1 -> 2^B
    for field in ORACLE_FIELDS:
        for _ in range(120):
            n = rng.randint(0, 3)
            m = rng.randint(0, 3)
            prec = rng.choice((0, 1, 2, 3, 4, 7, 8))
            f = rand_jet(field, n, prec, rng, terms=rng.randint(0, 6))
            parts = [rand_jet(field, m, prec + rng.choice((0, 0, 2)), rng, min_degree=1,
                              terms=rng.randint(0, 4)) for _ in range(n)]
            got = f.substitute(parts)
            if n:
                assert got == naive_substitute(f, parts, m)
            else:
                assert got == f


def rand_large_fraction_jet(nvars, prec, rng, min_degree=0, terms=4):
    """A jet over Q with numerators and denominators up to 10^6."""
    coeffs = {}
    for _ in range(terms):
        alpha = rand_monomial(nvars, rng.randint(min_degree, prec), rng)
        coeffs[alpha] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                                 rng.randint(1, 10 ** 6))
    return Jet(Q, nvars, prec, coeffs)


def test_substitute_with_large_denominators_matches_naive_expansion():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        prec = rng.choice((1, 2, 3, 4, 7, 8))
        f = rand_large_fraction_jet(n, prec, rng, terms=rng.randint(0, 6))
        parts = [rand_large_fraction_jet(m, prec + rng.choice((0, 0, 2)), rng, min_degree=1,
                                         terms=rng.randint(0, 4)) for _ in range(n)]
        got = f.substitute(parts)
        assert got == naive_substitute(f, parts, m)
        assert all(type(c) is Fraction for c in got.coeffs.values())


def test_fractional_substitute_at_polynomial_precision_is_fast(kernel_work):
    # the scale of the integer route grows with the source's degree, not the precision
    prec = 10 ** 9
    names, targets = ["x", "y"], ["u", "v"]
    f = jq("2/3*x^3*y - 5/999983*x*y^5 + 7/11*y^7 + 1/1000003*x^40", names, prec)
    parts = [jq("3/7*u + 1/999979*v^2", targets, prec),
             jq("-5/13*u*v + 2/1000033*v^3", targets, prec)]
    work = kernel_work()
    start = time.perf_counter()
    got = f.substitute(parts)
    assert time.perf_counter() - start < 2.0
    # the work is set by the source's terms, never by the precision
    assert work["calls"] <= 60 and work["pairs"] <= 2000, work
    assert got.prec == prec
    assert got == naive_substitute(f, parts, 2)


def test_product_matches_naive_product():
    rng = random.Random(12)
    # operands at different precisions, on both sides of the bit-width steps
    for field in ORACLE_FIELDS:
        for _ in range(120):
            n = rng.randint(0, 3)
            pa = rng.choice((0, 1, 2, 3, 4, 7, 8))
            pb = pa + rng.choice((0, 0, 1, 3))
            a = rand_jet(field, n, pa, rng, terms=rng.randint(0, 6))
            b = rand_jet(field, n, pb, rng, terms=rng.randint(0, 6))
            want = Jet(field, n, pa, naive_times(field, a.coeffs, b.coeffs, pa))
            assert a * b == want and b * a == want
        f = parse_jet("x^3*y + x*y^5 + y^7 + x^40 + 1", field, ["x", "y"], 10 ** 9)
        assert f * f == Jet(field, 2, 10 ** 9, naive_times(field, f.coeffs, f.coeffs, 10 ** 9))


def test_substitute_in_1200_variables():
    n = 1200
    for field in ORACLE_FIELDS:
        f = Jet(field, n, 3, {(2,) + (0,) * (n - 1): field.one,
                              (0,) * (n - 1) + (3,): field.one})
        parts = [Jet.variable(field, 2, i % 2, 3) for i in range(n)]
        assert f.substitute(parts) == parse_jet("x^2 + y^3", field, ["x", "y"], 3)


def test_substitution_in_240_multi_term_parts_needs_no_recursion():
    # each part of two or three terms is one Horner level; the levels are
    # walked on a work list, so a stack 50 frames above the caller suffices
    rng = random.Random(3501)
    n, prec = 240, 4
    support = [beta for d in range(1, prec + 1) for beta in monomials_of_degree(2, d)]
    for field in ORACLE_FIELDS[:4]:
        parts = [Jet(field, 2, prec, {beta: random_element(field, rng, nonzero=True)
                                      for beta in rng.sample(support, rng.randint(2, 3))})
                 for _ in range(n)]
        f = Jet(field, n, prec, {rand_monomial(n, rng.randint(2, prec), rng):
                                 random_element(field, rng, nonzero=True) for _ in range(20)})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            got = f.substitute(parts)
        finally:
            sys.setrecursionlimit(limit)
        assert got == naive_substitute(f, parts, 2)


def test_substitution_leaves_no_reference_cycle():
    # no Horner closure refers to itself, so the power tables are freed on
    # return, without the cycle collector
    f = jq("x^3 + x*y^2 + y^4 + x^2*y", ["x", "y"], 6)
    parts = [jq("x + y^2", ["x", "y"], 6), jq("y + x*y + x^2", ["x", "y"], 6)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            f.substitute(parts)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_linear_part_is_read_from_the_degree_1_terms():
    rng = random.Random(3502)
    for field in ORACLE_FIELDS:
        for _ in range(20):
            n = rng.randint(1, 5)
            phi = CoordinateChange([rand_jet(field, n, 3, rng, min_degree=1, terms=6)
                                    for _ in range(n)])
            units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
            want = [[c.coeffs.get(u, field.zero) for u in units] for c in phi.components]
            assert phi.linear_matrix() == want
            assert [c.linear() for c in phi.components] == [
                {j: v for j, v in enumerate(row) if v != field.zero} for row in want]
            y = rng.sample(range(n), rng.randint(1, n))
            block = [[row[v] for v in y] for row in want[:len(y)]]
            if linalg.rank(field, block) == len(y):
                assert ImplicitSystem(phi.components[:len(y)], y).j0 == block


def test_substitute_zero_jet_and_zero_parts():
    for field in ORACLE_FIELDS:
        zero = Jet.zero(field, 2, 5)
        parts = [Jet.variable(field, 3, 0, 5), Jet.variable(field, 3, 2, 6)]
        assert zero.substitute(parts) == Jet.zero(field, 3, 5)
        f = parse_jet("1 + x + x*y^2", field, ["x", "y"], 5)
        assert f.substitute([Jet.zero(field, 1, 5)] * 2) == constant_jet(field, 1, 5, field.one)


def test_substitute_cancels_to_zero_over_gf2():
    names = ["x", "y"]
    f = parse_jet("x^2 + y^2", F2, names, 4)
    s = parse_jet("x + y", F2, names, 4)
    got = f.substitute([s, s])
    assert got.is_zero() and got == naive_substitute(f, [s, s], 2)
    g = parse_jet("x^2 + y^2", Q, names, 4)
    sq = jq("x + y", names, 4)
    assert g.substitute([sq, sq]) == jq("2*x^2 + 4*x*y + 2*y^2", names, 4)


def test_substitute_refuses_a_field_without_a_route():
    class OtherRationals(Field):
        """Q's arithmetic under a field type that substitution has no route for."""
        char = 0
        add = staticmethod(operator.add)
        mul = staticmethod(operator.mul)

        def from_int(self, n):
            return Fraction(n)

        def _key(self):
            return ("other-rationals",)

    field = OtherRationals()
    x = Jet(field, 1, 3, {(1,): Fraction(1, 2)})
    cube = Jet(field, 1, 3, {(3,): Fraction(1)})
    # every product and elimination loop takes its arithmetic from
    # jet._route: products, the parser, substitution and the echelon
    for loop in (lambda: x * x, lambda: parse_jet("x^2", field, ["x"], 3),
                 lambda: x.substitute([x]), lambda: milnor_number(cube)):
        with pytest.raises(TypeError, match="no route for OtherRationals"):
            loop()


def test_substitute_at_polynomial_precision():
    prec = 10 ** 9
    for field in ORACLE_FIELDS:
        names = ["x", "y"]
        f = parse_jet("x^3*y + x*y^5 + y^7 + x^40", field, names, prec)
        parts = [parse_jet("u + v^2", field, ["u", "v"], prec),
                 parse_jet("u*v + v^3", field, ["u", "v"], prec)]
        got = f.substitute(parts)
        assert got.prec == prec
        assert got == naive_substitute(f, parts, 2)


# -- batched substitution: one power table per tuple of parts -------------------

BATCH_FIELDS = [parse_field_spec(s) for s in ("q", "fp:7", "fp:2", "f2k:4")]


def rand_batch(field, rng, large_fractions=False):
    """Sources at mixed precisions, a zero source among them, and their parts."""
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    prec = rng.choice((1, 2, 3, 4, 7, 8))

    def jet(nvars, p, min_degree, terms):
        if large_fractions:
            return rand_large_fraction_jet(nvars, p, rng, min_degree, terms)
        return rand_jet(field, nvars, p, rng, min_degree=min_degree, terms=terms)

    sources = [jet(n, rng.randint(0, prec), 0, rng.randint(0, 6)) for _ in range(3)]
    sources.insert(rng.randint(0, 3), Jet.zero(field, n, rng.randint(0, prec)))
    parts = [jet(m, prec + rng.choice((0, 0, 2)), 1, rng.randint(0, 4)) for _ in range(n)]
    return sources, parts, m


def test_batch_matches_naive_expansion():
    rng = random.Random(21)
    cases = [(field, False) for field in BATCH_FIELDS for _ in range(60)]
    cases += [(Q, True)] * 40
    for field, large in cases:
        sources, parts, m = rand_batch(field, rng, large)
        got = _substitute_batch(sources, parts)
        assert got == [naive_substitute(f, parts, m) for f in sources]
        assert got == [f.substitute(parts) for f in sources]


def test_packed_sources_match_naive_expansion():
    # the core reads each exponent from a source's key: sources in n variables
    # at mixed precisions, in any term order, at a packing of their own, and
    # parts in m variables, n != m in most cases
    rng = random.Random(2401)
    cases = [(field, False) for field in BATCH_FIELDS for _ in range(40)] + [(Q, True)] * 30
    for field, large in cases:
        sources, parts, m = rand_batch(field, rng, large)
        top = max(f.prec for f in sources)
        packing, source = _Packing(top, m), _Packing(top + rng.choice((0, 0, 9)), len(parts))
        packed = [(source.terms(f.coeffs), f.prec) for f in sources]
        for terms, _ in packed:
            rng.shuffle(terms)
        got = _substitute_packed(packed, source, [packing.terms(p.coeffs) for p in parts],
                                 packing, _route(field))
        assert all(c != field.zero for out in got for c in out.values())
        assert all(key < packing.limit for out in got for key in out)
        assert [Jet(field, m, f.prec, packing.unpack(out)) for f, out in zip(sources, got)] \
            == [naive_substitute(f, parts, m) for f in sources]


def test_batch_cancels_to_zero_over_gf2():
    names = ["x", "y"]
    s = parse_jet("x + y", F2, names, 4)
    sources = [parse_jet(t, F2, names, 4) for t in ("x^2 + y^2", "x*y + y*x", "x^3 + y^3")]
    got = _substitute_batch(sources, [s, s])
    assert got[0].is_zero() and got[1].is_zero()
    assert got == [naive_substitute(f, [s, s], 2) for f in sources]


def test_batch_results_are_valid_jets():
    # results are built without Jet.__init__, so check what it would have checked
    rng = random.Random(22)
    for field in BATCH_FIELDS:
        for _ in range(40):
            sources, parts, m = rand_batch(field, rng)
            for f, got in zip(sources, _substitute_batch(sources, parts)):
                assert (got.field, got.nvars, got.prec) == (field, m, f.prec)
                for alpha, c in got.coeffs.items():
                    assert len(alpha) == m and sum(alpha) <= f.prec
                    assert c != field.zero
                assert Jet(field, m, f.prec, got.coeffs) == got


def power_part(shape, field, m, prec, rng, coeff):
    """A part in m variables at prec: zero, one term, two or three terms with one
    at degree prec // 2 (its square lands on the limit), or dense with terms at
    every degree 1..prec."""
    if shape == "zero":
        return Jet.zero(field, m, prec)
    if shape == "one-term":
        return Jet(field, m, prec, {rand_monomial(m, rng.randint(1, 2), rng): coeff()})
    if shape == "sparse":
        degrees = [max(1, prec // 2), prec] + [rng.randint(1, prec)]
        return Jet(field, m, prec, {rand_monomial(m, d, rng): coeff() for d in degrees})
    return Jet(field, m, prec, {beta: coeff() for d in range(1, prec + 1)
                                for beta in monomials_of_degree(m, d)
                                if d == prec or rng.random() < 0.35})


def test_even_powers_match_naive_expansion():
    # sources rich in even powers, so the power tables build their squares in
    # every characteristic, in 1..4 target variables, up to the truncation limit
    rng = random.Random(2400)
    shapes = ("zero", "one-term", "sparse", "dense")
    for field, large in [(field, False) for field in BATCH_FIELDS] + [(Q, True)]:
        def coeff():
            if large:
                return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                                rng.randint(1, 10 ** 6))
            return random_element(field, rng, nonzero=True)

        for m in (1, 2, 3, 4):
            for _ in range(4):
                n, prec = rng.randint(1, 3), rng.choice((4, 5, 6))
                parts = [power_part(rng.choice(shapes), field, m, prec + rng.choice((0, 1)),
                                    rng, coeff) for _ in range(n)]
                powers = {tuple(e if j == i else 0 for j in range(n)): coeff()
                          for i in range(n) for e in range(2, prec + 1)}
                sources = [Jet(field, n, prec, powers),
                           Jet(field, n, prec - 1,
                               {rand_monomial(n, d, rng): coeff() for d in range(prec)}),
                           Jet.zero(field, n, prec)]
                got = _substitute_batch(sources, parts)
                assert got == [naive_substitute(f, parts, m) for f in sources], (field, m)


# -- results built without Jet.__init__ -----------------------------------------

def assert_valid(jet):
    """What ``Jet.__init__`` would check of a result that skipped it."""
    assert Jet(jet.field, jet.nvars, jet.prec, dict(jet.coeffs)) == jet
    assert all(c != jet.field.zero for c in jet.coeffs.values())


def rand_pair(field, rng, large_fractions):
    """f and g in one variable set at mixed precisions, g cancelling some of f's terms."""
    n = rng.randint(1, 3)
    p, q = rng.randint(0, 6), rng.randint(0, 6)
    if large_fractions:
        f = rand_large_fraction_jet(n, p, rng, terms=rng.randint(0, 6))
        g = rand_large_fraction_jet(n, q, rng, terms=rng.randint(0, 4))
    else:
        f = rand_jet(field, n, p, rng, terms=rng.randint(0, 6))
        g = rand_jet(field, n, q, rng, terms=rng.randint(0, 4))
    cancel = {a: field.neg(c) for a, c in f.coeffs.items() if sum(a) <= q and rng.random() < 0.5}
    return f, Jet(field, n, q, {**g.coeffs, **cancel})


def cofactor_case(field, rng, coeff):
    """f with the head c1*x1^2 or c*x1*x2 in n = 3 at precision 5, and that head."""
    head = rng.choice((1, 2))
    head_quad = Jet(field, 3, 5, {(2, 0, 0) if head == 1 else (1, 1, 0): coeff()})
    tail = [beta for d in range(2, 6) for beta in monomials_of_degree(3, d)
            if d > 2 or not any(beta[:head])]
    return Jet(field, 3, 5, {**{beta: coeff() for beta in rng.sample(tail, 8)},
                             **head_quad.coeffs}), head_quad, head


def test_internal_results_are_valid_jets():
    # sums, negations, truncations, derivatives, degree parts, products, parses
    # and cofactors skip Jet.__init__; rebuilding each through it changes nothing
    rng = random.Random(25)
    cases = [(field, False) for field in BATCH_FIELDS for _ in range(50)] + [(Q, True)] * 50
    for field, large in cases:
        f, g = rand_pair(field, rng, large)
        results = [f + g, g + f, f - g, g - f, f - f, -f, f * g, f * f]
        results += [f.truncate(k) for k in range(f.prec + 1)]
        results += [f.degree_part(d) for d in range(-1, f.prec + 2)]
        if f.prec >= 1:
            results += [f.partial(i) for i in range(f.nvars)]
        names = [f"x{i + 1}" for i in range(f.nvars)]
        # the literals cancel in every field
        text = serialize_jet(f, names).removesuffix(f" + O(deg {f.prec})")
        results.append(parse_jet(f"{text} + 1 - 1", field, names, f.prec))
        for result in results:
            assert_valid(result)
        assert results[-1] == f

    for field in BATCH_FIELDS:
        x, y = Jet.variable(field, 2, 0, 3), Jet.variable(field, 2, 1, 3)
        # the cross terms cancel in every characteristic
        assert_valid((x + y) * (x - y))
        assert (x + y) * (x - y) == x * x - y * y

    for field, large in [(field, False) for field in BATCH_FIELDS] + [(Q, True)]:
        def coeff():
            if large:
                return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                                rng.randint(1, 10 ** 6))
            return random_element(field, rng, nonzero=True)

        for _ in range(20):
            f, head_quad, head = cofactor_case(field, rng, coeff)
            packing = _Packing(5, 3)
            gs = [Jet._valid(field, 3, 5, packing.unpack(g))
                  for g in _cofactors(packing.terms(f.coeffs), packing.terms(head_quad.coeffs),
                                      head, packing, field)]
            for g in gs:
                assert_valid(g)
            # x1*g1 + ... + x_head*g_head is the part of f - head_quad in the head variables
            moved = sum((Jet.variable(field, 3, i, 5) * g for i, g in enumerate(gs)),
                        Jet.zero(field, 3, 5))
            rest = f - head_quad
            assert moved == Jet(field, 3, 5, {a: c for a, c in rest.coeffs.items()
                                              if any(a[:head])})


def test_public_constructor_messages_are_kept():
    f = jq("x^2 + x*y^3", ["x", "y"], 5)
    with pytest.raises(PrecisionError, match=r"^precision must be >= 0$"):
        f.truncate(-1)
    with pytest.raises(PrecisionError, match=r"^cannot truncate precision-5 jet at 6$"):
        f.truncate(6)
    with pytest.raises(PrecisionError, match=r"^precision must be >= 0$"):
        parse_jet("2", Q, ["x"], -1)
    with pytest.raises(PrecisionError, match=r"^a coordinate jet needs precision >= 1$"):
        parse_jet("x", Q, ["x"], -1)
    with pytest.raises(ValueError, match=r"^exponent \(1,\) does not have 2 entries$"):
        Jet(Q, 2, 3, {(1,): Fraction(1)})


def test_inline_kernel_matches_generic_kernel():
    rng = random.Random(23)
    generic = (lambda x, y: x + y, lambda x, y: x * y)
    for values in (lambda: rng.randint(-10 ** 12, 10 ** 12),
                   lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99))):
        for _ in range(200):
            a = sorted({rng.randrange(64): values() for _ in range(rng.randint(0, 12))}.items())
            b = sorted({rng.randrange(64): values() for _ in range(rng.randint(0, 12))}.items())
            start = {rng.randrange(128): values() for _ in range(rng.randint(0, 3))}
            limit = rng.randint(0, 130)
            inline, called = dict(start), dict(start)
            _product_into(inline, a, b, limit, operator.add, operator.mul)
            _product_into(called, a, b, limit, *generic)
            assert inline == called


def test_batch_raises_the_per_source_messages():
    f7 = parse_field_spec("fp:7")
    sources = [jq("x^2 + y", ["x", "y"], 4), jq("x*y^3", ["x", "y"], 3)]
    good = [Jet.variable(Q, 3, 0, 4), Jet.variable(Q, 3, 2, 4)]
    bad_parts = [
        good[:1],  # wrong count
        [good[0], Jet.variable(f7, 3, 2, 4)],  # another field
        [good[0], Jet.variable(Q, 2, 1, 4)],  # another variable set
        [good[0], Jet.variable(Q, 3, 2, 3)],  # precision below the sources'
        [good[0], good[1] + constant_jet(Q, 3, 4, Fraction(1))],  # constant term
    ]
    for parts in bad_parts:
        same_error(lambda: _substitute_batch(sources, parts),
                   lambda: [f.substitute(parts) for f in sources])
    mixed = sources + [parse_jet("x*y", f7, ["x", "y"], 4)]  # a source over another field
    same_error(lambda: _substitute_batch(mixed, good),
               lambda: [f.substitute(good) for f in mixed])
    n = 513
    wide = [Jet.zero(Q, n, 3), Jet(Q, n, 3, {(1,) + (0,) * (n - 2) + (2,): Fraction(2, 3)})]
    parts = [Jet.variable(Q, 1, 0, 3)] * n
    assert _substitute_batch(wide, parts) == [naive_substitute(f, parts, 1) for f in wide]


def test_compose_raises_the_per_source_messages():
    outer = identity_change(Q, 2, 4)
    inners = [identity_change(Q, 3, 4),
              identity_change(parse_field_spec("fp:7"), 2, 4),
              identity_change(Q, 2, 3)]
    for inner in inners:
        same_error(lambda: outer.compose(inner),
                   lambda: [c.substitute(inner.components) for c in outer.components])
    wide = identity_change(Q, 513, 2)
    assert wide.compose(wide) == wide


# -- every part shape on every Horner level -------------------------------------

SHAPES = ("zero", "variable", "monomial", "dense")
SHAPE_PREC = 7


def shaped_part(shape, field, rng, coeff):
    """A part in u, v at precision 7: zero, the variable v, one term c*u^2*v with
    c != 1 where the field has such a c, or two to five terms."""
    if shape == "zero":
        return Jet.zero(field, 2, SHAPE_PREC)
    if shape == "variable":
        return Jet.variable(field, 2, 1, SHAPE_PREC)
    if shape == "monomial":
        c = coeff()
        while c == field.one and field != F2:
            c = coeff()
        return Jet(field, 2, SHAPE_PREC, {(2, 1): c})
    support = [beta for d in range(1, SHAPE_PREC + 1) for beta in monomials_of_degree(2, d)]
    return Jet(field, 2, SHAPE_PREC,
               {beta: coeff() for beta in rng.sample(support, rng.randint(2, 5))})


def test_batch_matches_naive_expansion_for_every_part_shape_in_every_order():
    # dense parts take the Horner levels, most terms outermost; one-term and
    # zero parts are folded into the last level, where they make no product
    rng = random.Random(24)
    monomials = [beta for d in range(SHAPE_PREC + 1) for beta in monomials_of_degree(3, d)
                 if max(beta) <= 3]
    for field, large in [(field, False) for field in BATCH_FIELDS] + [(Q, True)]:
        def coeff():
            if large:
                return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                                rng.randint(1, 10 ** 6))
            return random_element(field, rng, nonzero=True)

        for shapes in itertools.product(SHAPES, repeat=3):
            parts = [shaped_part(shape, field, rng, coeff) for shape in shapes]
            f = Jet(field, 3, SHAPE_PREC, {beta: coeff() for beta in rng.sample(monomials, 10)})
            # terms on the one-term and zero parts only, up to their cubes,
            # whose degree 9 passes the budget for c*u^2*v
            folded = [beta for beta in monomials
                      if all(shapes[i] != "dense" for i, e in enumerate(beta) if e)]
            cubes = [beta for beta in folded if max(beta) == 3]
            g = Jet(field, 3, SHAPE_PREC,
                    {beta: coeff() for beta in cubes + rng.sample(folded, min(6, len(folded)))})
            sources = [f, g, f.truncate(3), Jet.zero(field, 3, 5)]
            got = _substitute_batch(sources, parts)
            assert got == [naive_substitute(h, parts, 2) for h in sources], shapes


# -- pinned substitution work ------------------------------------------------------

def ift_work():
    """ift over fp:101 in the parameters x1, x2, x3 and the unknowns y1, y2 at
    N = 8: an invertible linear block in the unknowns, a linear parameter term
    and every monomial of degree 2 and 3."""
    def equation(i):
        y1, y2 = (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)
        coeffs = {y1 if i == 0 else y2: 1, y2 if i == 0 else y1: 3 + i,
                  (1, 0, 0, 0, 0) if i == 0 else (0, 0, 1, 0, 0): 2}
        betas = [beta for d in (2, 3) for beta in monomials_of_degree(5, d)]
        coeffs.update((beta, (37 * k + 11 * i) % 100 + 1) for k, beta in enumerate(betas, 1))
        return Jet(parse_field_spec("fp:101"), 5, 8, coeffs)

    system = ImplicitSystem([equation(0), equation(1)], [3, 4])
    return lambda: ift_solve(system, 8)


def split_work():
    """One fp:7 split in four variables, rank 3, at N = 6."""
    f = parse_jet("x1^2 + 2*x2^2 + 3*x3^2 + x1*x2*x4 + 3*x2^2*x3 + 4*x3*x4^2 + x4^3"
                  " + 5*x1^2*x4^2 + x2*x3*x4^2 + 6*x4^4 + x1*x4^4 + 2*x3^3*x4 + 3*x4^5"
                  " + x2*x4^5 + 4*x1*x2*x3*x4", parse_field_spec("fp:7"),
                  ["x1", "x2", "x3", "x4"], 6)
    return lambda: split(f, 6)


def dense_work():
    """f(change) over Q as verify_split computes it: every part is dense."""
    names = ["x", "y", "z"]
    f = jq("x^2 + 2*y^2 - z^2 + x*y*z + 3*x^3 - 1/2*y^2*z^2 + x^4*z + 5/3*y^5 - z^6"
           " + x*y^3*z", names, 6)
    parts = [jq(t, names, 6) for t in ("x + y^2 - 2*x*z + z^3 - 1/3*x^2*y^2",
                                       "y + 3*x^2 + x*y*z - z^4 + 2/5*y^5",
                                       "z - x*y + 2*y^3 + x^2*z^2 - 7*x^4*y")]
    return lambda: f.substitute(parts)


@pytest.mark.parametrize("case, calls, pairs, ift_calls, ift_pairs",
                         [(ift_work, 240, 35053, 48, 4550),
                          (split_work, 99, 501, 0, 0),
                          (dense_work, 26, 235, 0, 0)],
                         ids=["ift-fp101", "split-fp7", "dense-q"])
def test_substitution_work_is_pinned(kernel_work, case, calls, pairs, ift_calls, ift_pairs):
    # the Horner level order and the fold set these counts; a change to either
    # shows here as more or less work, while the results stay exact; ift's
    # matrix products are counted apart
    run = case()
    work = kernel_work()
    run()
    # products in three or more variables never take the Kronecker route
    assert work == {"calls": calls, "pairs": pairs, "ift_calls": ift_calls,
                    "ift_pairs": ift_pairs, "expr_calls": 0, "expr_pairs": 0, "kronecker": 0}


# -- the power table's squares ------------------------------------------------------

def square_operands(rng, packing, top, values):
    """Packed term lists at ``packing``: empty, one term, and up to 32 terms of
    degree <= top, among them terms of degree floor and ceil of (top + 1) / 2,
    whose squares land just below the limit or on it."""
    def term(degree):
        beta = [0] * packing.m
        for _ in range(degree):
            beta[rng.randrange(packing.m)] += 1
        return packing.pack(beta), values()

    many = dict(term(rng.randint(1, top)) for _ in range(rng.randint(2, 30)))
    many.update([term(max(1, top // 2)), term((top + 1) // 2)])
    return [[], [term(rng.randint(1, top))], sorted(many.items())]


def test_squares_match_the_pair_loop():
    # the one pass over unordered pairs (signed Q integers and GF(p) residues)
    # and the Frobenius image (characteristic 2) against the plain pair loop,
    # on budgets at the packing limit and below it
    rng = random.Random(2403)
    for field in BATCH_FIELDS:
        route = _route(field)
        if isinstance(field, RationalField):
            values = lambda: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)  # noqa: E731
        else:
            values = lambda: random_element(field, rng, nonzero=True)  # noqa: E731
        for m in (1, 2, 3, 4):
            for _ in range(12):
                prec = rng.randint(1, 9)
                packing = _Packing(prec, m)
                for p in square_operands(rng, packing, prec, values):
                    for budget in {prec, rng.randint(0, prec)}:
                        limit = (budget + 1) << packing.shift
                        plain = {}
                        _product_into(plain, p, p, limit, route.add, route.mul)
                        if not route.char2:
                            start = {packing.pack([budget] + [0] * (m - 1)): 7 ** 30}
                            got, want = dict(start), dict(start)
                            _square_into(got, p, limit)
                            _product_into(want, p, p, limit, operator.add, operator.mul)
                            assert got == want
                        assert _next_power([None, p], limit, packing, route) == route.terms(plain)
                    # p^4 and p^6 from their halves, against repeated products
                    cache = [None, p]
                    while len(cache) <= 6:
                        cache.append(_packed_product(cache[-1], p, packing.limit, packing, route))
                    for e in (4, 6):
                        assert _next_power(cache[:e], packing.limit, packing, route) == cache[e]


# -- the Kronecker route of the product kernel ------------------------------------


def kronecker_terms(rng, packing, top, values, size):
    """A packed term list of up to ``size`` distinct monomials of degree <= top."""
    terms = {}
    for _ in range(size):
        beta = [0] * packing.m
        for _ in range(rng.randint(0, top)):
            beta[rng.randrange(packing.m)] += 1
        terms[packing.pack(beta)] = values()
    return sorted(terms.items())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kronecker_route_matches_the_pair_loop(m):
    # the route is called directly, so its size rule is bypassed in every
    # number of variables; a case it refuses must leave out untouched
    rng = random.Random(2200 + m)
    always = lambda pairs, box_bits: True  # noqa: E731
    value_kinds = {
        "fp7": lambda: rng.randrange(1, 7),
        "fp2": lambda: 1,
        # residues of 8 bits: 16-bit slots would hold one product, not a sum
        "fp257": lambda: rng.randrange(128, 257),
        "fp1000003": lambda: rng.randrange(1, 1000003),
        "fp2^61-1": lambda: rng.randrange(2 ** 60, 2 ** 61 - 1),  # slots above 64 bits
        "q-negative": lambda: -rng.randrange(1, 10 ** 6),  # fraction-free integers
        "q-fractions": lambda: Fraction(rng.randrange(1, 99), rng.randrange(1, 99)),
    }
    taken = set()
    for _ in range(150):
        kind = rng.choice(sorted(value_kinds))
        values = value_kinds[kind]
        prec = rng.randint(1, 12)
        packing = _Packing(prec, m)
        # budgets at the packing limit and below it; operands reach past it
        budget = rng.choice([prec, rng.randint(1, prec)])
        limit = (budget + 1) << packing.shift
        sizes = rng.choice([(0, 20), (1, 20), (20, 1), (rng.randint(2, 40), rng.randint(2, 40))])
        a, b = (kronecker_terms(rng, packing, prec + 2, values, n) for n in sizes)
        # unreduced values already in out, on keys the product reaches or not
        start = {packing.pack([budget] + [0] * (m - 1)): 7 ** 30,
                 packing.pack([0] * (m - 1) + [1]): rng.randrange(10 ** 12)}
        expected, got = dict(start), dict(start)
        _product_into(expected, a, b, limit, operator.add, operator.mul)
        if _kronecker_into(got, a, b, limit, packing, always):
            assert got == expected
            if got != start:
                taken.add(kind)
        else:
            assert got == start
    assert taken == {"fp7", "fp2", "fp257", "fp1000003"}


def test_kronecker_route_keeps_exactly_the_terms_below_the_limit():
    # dense operands whose top degrees sum past the budget: every kept key has
    # degree <= budget, and the pairs at budget + 1 land above the cut
    always = lambda pairs, box_bits: True  # noqa: E731
    for m, prec in [(1, 30), (2, 12)]:
        packing = _Packing(prec, m)
        dense = sorted((packing.pack(beta), 1 + sum(beta) % 6)
                       for d in range(prec + 1) for beta in monomials_of_degree(m, d))
        for budget in (0, 1, prec // 2, prec - 1, prec):
            limit = (budget + 1) << packing.shift
            expected, got = {}, {}
            _product_into(expected, dense, dense, limit, operator.add, operator.mul)
            assert _kronecker_into(got, dense, dense, limit, packing, always) == (budget > 0)
            if budget:
                assert got == expected
                assert max(got) < limit <= max(got) + (1 << packing.shift)


def test_kernel_takes_the_route_by_its_rule():
    # through _product_into: large dense products in one and two variables
    # take the route, small ones keep the pair loop
    rng = random.Random(2211)
    for m, prec, route in [(1, 60, True), (2, 14, True), (1, 12, False), (2, 6, False)]:
        packing = _Packing(prec, m)
        dense = sorted((packing.pack(beta), rng.randrange(1, 7))
                       for d in range(1, prec + 1) for beta in monomials_of_degree(m, d))
        assert _kronecker_into({}, dense, dense, packing.limit, packing,
                               _kronecker_pays) is route
        expected, got = {}, {}
        _product_into(expected, dense, dense, packing.limit, operator.add, operator.mul)
        _product_into(got, dense, dense, packing.limit, operator.add, operator.mul, packing)
        assert got == expected


def test_catalan_ift_takes_the_route_for_its_dense_products(kernel_work):
    f7 = parse_field_spec("fp:7")
    system = ImplicitSystem([parse_jet("y - x - y^2", f7, ["x", "y"], 200)], [1])
    work = kernel_work()
    y, = ift_solve(system, 200)
    assert y == parse_jet(serialize_jet(y, ["x"]), f7, ["x"], 200)
    assert work["kronecker"] == 4


def test_four_variable_split_never_takes_the_route(kernel_work, monkeypatch):
    # the split-dense shape: a nondegenerate head plus dense terms of degree
    # 3..10 in four variables over fp:7; its products are large, but in four
    # variables the kernel refuses the route before any per-term work
    rng = random.Random(2212)
    f7 = parse_field_spec("fp:7")
    coeffs = {(2, 0, 0, 0): 1, (0, 2, 0, 0): 3, (0, 0, 1, 1): 1}
    coeffs.update((beta, rng.randrange(1, 7)) for d in range(3, 11)
                  for beta in monomials_of_degree(4, d) if rng.random() < 0.6)
    f = Jet(f7, 4, 10, coeffs)
    work = kernel_work()
    offered = []

    def recorder(counted):
        def recorded(out, a, b, limit, add, mul, packing=None):
            if packing is not None and len(a) * len(b) >= 4800:  # past both try thresholds
                offered.append(packing.m)
            counted(out, a, b, limit, add, mul, packing)
        return recorded

    # substitution's products and those of split's last pass
    for module in (jetsplit.jet, split_module):
        monkeypatch.setattr(module, "_product_into", recorder(module._product_into))
    split(f, 10)
    # 62 such products, every one in four variables, and none took the route
    assert work["kronecker"] == 0 and len(offered) >= 30 and set(offered) == {4}, offered
