import random

import pytest

from gen import (identity_change, rand_invertible, rand_split_form, tail_block_change,
                 transport_roundtrip)
from jetsplit import (BinaryField, CoordinateChange, Jet, PrimeField,
                      RationalField, TransportError, TransportHypothesisError,
                      TransportProblem, parse_jet, split_shape, transport)
import linalg_oracle
from jetsplit import linalg

Q = RationalField()
F2 = PrimeField(2)
F4 = BinaryField(2)


def test_identity_equivalence_transports_to_identity():
    rng = random.Random(41)
    for field in (Q, F2):
        quad, g0, f0 = rand_split_form(field, 3, 5, rng, rank=2)
        phi = identity_change(field, 3, 5)
        p = TransportProblem(quad, g0, g0, phi, 5)
        pp = transport(p)
        assert pp.components[0] == Jet.variable(field, 1, 0, 5)


def test_worked_example_rational():
    names = ["x", "y"]
    n_prec = 8
    f0 = parse_jet("x^2 + y^4", Q, names, n_prec)
    phi = CoordinateChange([parse_jet("x", Q, names, n_prec),
                            parse_jet("y + y^2", Q, names, n_prec)])
    f1 = phi.apply(f0)
    quad0, g0 = split_shape(f0)
    quad1, g1 = split_shape(f1)
    assert quad0.diagonal == quad1.diagonal == (1,)
    p = TransportProblem(quad0, g0, g1, phi, n_prec)
    pp = transport(p)
    assert pp.components[0] == parse_jet("y + y^2", Q, ["y"], n_prec)
    assert pp.apply(g0) == g1


def test_char2_roundtrip_example():
    names = ["x1", "x2", "x3"]
    prec = 6
    f0 = parse_jet("x1*x2 + x3^3", F2, names, prec)
    rho = CoordinateChange([parse_jet("x1", F2, names, prec),
                            parse_jet("x2 + x3^2", F2, names, prec),
                            parse_jet("x3 + x1*x3", F2, names, prec)])
    from jetsplit import QuadNormalForm, iterate_arf

    moved = rho.apply(f0)
    sigma, _ = iterate_arf(moved, prec, QuadNormalForm.read_split_shape(moved))
    total = rho.compose(sigma)
    quad0, g0 = split_shape(f0)
    quad1, g1 = split_shape(total.apply(f0))
    p = TransportProblem(quad0, g0, g1, total, prec)
    pp = transport(p)
    assert pp.apply(p.g0) == p.g1
    assert pp.is_automorphism()


def test_hypothesis_check_rejects_wrong_target():
    rng = random.Random(42)
    quad, g0, f0 = rand_split_form(Q, 3, 5, rng, rank=1)
    phi = identity_change(Q, 3, 5)
    g_bad = g0 + parse_jet("x1^3", Q, ["x1", "x2"], 5)
    with pytest.raises(TransportHypothesisError):
        TransportProblem(quad, g0, g_bad, phi, 5)


def test_hypothesis_check_rejects_wrong_tail_order():
    quad, g0, f0 = rand_split_form(Q, 2, 5, random.Random(43), rank=1)
    bad = parse_jet("x1^2", Q, ["x1"], 5)
    with pytest.raises(TransportHypothesisError):
        TransportProblem(quad, bad, bad, identity_change(Q, 2, 5), 5)


@pytest.mark.parametrize("field, names, f, phi_lines, message", [
    (Q, "x,y", "x^2 + y^2", ["x", "y"], "no tail variables"),
    # phi(f) = f, but phi's tail row x3 + x1 takes x1 beside the square tail x3^2
    (F2, "x1,x2,x3", "x1*x2 + x3^2 + x3^3",
     ["x1", "x2 + x1 + x1^2 + x1*x3 + x3^2", "x3 + x1"], "mix in head variables linearly"),
], ids=["no-tail", "fp2-tail-takes-head"])
def test_problem_refuses_what_transport_cannot_run(field, names, f, phi_lines, message):
    names = names.split(",")
    quad, g = split_shape(parse_jet(f, field, names, 5))
    phi = CoordinateChange([parse_jet(line, field, names, 5) for line in phi_lines])
    with pytest.raises(TransportError, match=message):
        TransportProblem(quad, g, g, phi, 5)


def tail_block(p):
    """phi's tail-to-tail linear block."""
    lin = p.phi.linear_matrix()
    return [row[p.rank:] for row in lin[p.rank:]]


def scrambled(p, block):
    """p's data with the tail recoordinated by ``block``: g1(block x_tail) and
    phi o (identity on the head, block on the tail)."""
    tail_rho = CoordinateChange.from_linear(p.field, block, p.precision)
    rho = tail_block_change(p.field, p.nvars, block, p.precision)
    return TransportProblem(p.quad, p.g0, tail_rho.apply(p.g1), p.phi.compose(rho),
                            p.precision)


def test_identity_tail_block_is_kept():
    rng = random.Random(44)
    p = transport_roundtrip(F2, 3, 5, rng)
    assert tail_block(p) == linalg.identity(F2, p.tail_count)
    again = TransportProblem(p.quad, p.g0, p.g1, p.phi, p.precision)
    assert again.phi == p.phi
    assert again.g1 == p.g1


def test_tail_block_permutation_is_undone():
    # the permuted square tail must stay the same form, so require d1 = d2
    rng = random.Random(45)
    while True:
        p = transport_roundtrip(F2, 4, 5, rng)
        if p.rank == 2 and p.quad.tail[0] == p.quad.tail[1]:
            break
    swap = [[F2.zero, F2.one], [F2.one, F2.zero]]
    fixed = scrambled(p, swap)
    assert tail_block(fixed) == linalg.identity(F2, 2)
    assert fixed.phi == p.phi
    assert fixed.g1 == p.g1
    pp = transport(fixed)
    assert pp.apply(fixed.g0) == fixed.g1


def test_tail_block_random_invertible_is_undone():
    # with a zero square tail every invertible tail block keeps the shape
    rng = random.Random(46)
    done = 0
    while done < 5:
        p = transport_roundtrip(F2, 4, 5, rng)
        if p.rank != 2 or any(d != 0 for d in p.quad.tail):
            continue
        block = rand_invertible(F2, 2, rng)
        fixed = scrambled(p, block)
        assert tail_block(fixed) == linalg.identity(F2, 2)
        assert fixed.phi == p.phi
        pp = transport(fixed)
        assert pp.apply(fixed.g0) == fixed.g1
        done += 1


def test_roundtrip_transport_all_fields():
    rng = random.Random(47)
    for field in (Q, PrimeField(7), F2, F4):
        for _ in range(15):
            n = rng.randint(2, 4)
            prec = rng.randint(4, 6)
            p = transport_roundtrip(field, n, prec, rng)
            pp = transport(p)
            assert pp.apply(p.g0) == p.g1
            assert pp.is_automorphism()


def test_transport_result_is_automorphism_with_invertible_linear_part():
    rng = random.Random(48)
    p = transport_roundtrip(Q, 3, 5, rng)
    pp = transport(p)
    assert linalg_oracle.rank(Q, pp.linear_matrix()) == p.tail_count
