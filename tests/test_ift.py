import random

import pytest

from degree_oracle import ift_solve_by_degree
from gen import (FIELDS, rand_implicit_system, rand_invertible, rand_jet, random_element,
                 same_error)
from jetsplit import (ImplicitSystem, Jet, PrimeField, RationalField,
                      ift_solve, parse_field_spec, parse_jet)
from jetsplit.ift import _cut, _product
from jetsplit.jet import _Packing, _route

Q = RationalField()


def test_catalan_coefficients():
    eq = parse_jet("y - x - y^2", Q, ["x", "y"], 5)
    ys = ift_solve(ImplicitSystem([eq], [1]), 5)
    assert ys[0] == parse_jet("x + x^2 + 2*x^3 + 5*x^4 + 14*x^5", Q, ["x"], 5)


def test_linear_equation():
    eq = parse_jet("y - x", Q, ["x", "y"], 4)
    ys = ift_solve(ImplicitSystem([eq], [1]), 4)
    assert ys[0] == parse_jet("x", Q, ["x"], 4)


def test_prime_field_inverse_coefficient():
    f7 = PrimeField(7)
    eq = parse_jet("2*y + x^2", f7, ["x", "y"], 5)
    ys = ift_solve(ImplicitSystem([eq], [1]), 5)
    assert ys[0] == parse_jet("3*x^2", f7, ["x"], 5)


def test_solution_has_zero_constant_term():
    eq = parse_jet("y - x - y^3", Q, ["x", "y"], 6)
    ys = ift_solve(ImplicitSystem([eq], [1]), 6)
    assert ys[0].constant_term() == 0


def test_rejects_nonzero_constant_term():
    eq = parse_jet("1 + y - x", Q, ["x", "y"], 3)
    with pytest.raises(ValueError):
        ImplicitSystem([eq], [1])


def test_rejects_singular_jacobian_block():
    eq = parse_jet("y^2 - x", Q, ["x", "y"], 3)
    with pytest.raises(ValueError):
        ImplicitSystem([eq], [1])


def test_multivariate_system():
    names = ["x", "u", "v"]
    eqs = [parse_jet("u + v - x", Q, names, 4),
           parse_jet("u - v + x^2 + u*v", Q, names, 4)]
    system = ImplicitSystem(eqs, [1, 2])
    ys = ift_solve(system, 4)
    assert all(r.is_zero() for r in system.residuals(ys, 4))


def test_random_systems_residual_zero():
    rng = random.Random(31)
    count = 0
    for field in FIELDS:
        for _ in range(30):
            nx = rng.randint(1, 3)
            ny = rng.randint(1, 3)
            prec = rng.randint(2, 6)
            system = rand_implicit_system(field, nx, ny, prec, rng)
            ys = ift_solve(system, prec)
            assert all(r.is_zero() for r in system.residuals(ys, prec))
            count += 1
    assert count >= 100


def test_degree_oracle_produces_identical_jets():
    rng = random.Random(32)
    for field in FIELDS:
        for _ in range(25):
            nx = rng.randint(1, 3)
            ny = rng.randint(1, 2)
            prec = rng.randint(2, 6)
            system = rand_implicit_system(field, nx, ny, prec, rng)
            assert ift_solve(system, prec) == ift_solve_by_degree(system, prec)


def dense_implicit_system(field, nx, ny, prec, rng):
    """A solvable system whose solution has order 1: an invertible block in the
    unknowns, one parameter term of degree 1, six terms of degree 2 and 3 and
    two of higher degree in every equation."""
    n = nx + ny
    block = rand_invertible(field, ny, rng)
    eqs = []
    for row in block:
        eq = Jet.variable(field, n, rng.randrange(nx), prec).scale(
            random_element(field, rng, nonzero=True))
        for j, c in enumerate(row):
            eq = eq + Jet.variable(field, n, nx + j, prec).scale(c)
        eq = eq + rand_jet(field, n, prec, rng, min_degree=2, max_degree=3, terms=6)
        eqs.append(eq + rand_jet(field, n, prec, rng, min_degree=4, terms=2))
    return ImplicitSystem(eqs, list(range(nx, n)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec())
def test_degree_oracle_agrees_at_depth(field):
    # univariate through precision 24 (schedules of up to five steps), and
    # three unknowns, where u is a 3x3 matrix of series
    rng = random.Random(34)
    for prec in (7, 12, 16, 21, 24):
        system = dense_implicit_system(field, 1, 1, prec, rng)
        solution = ift_solve(system, prec)
        assert solution == ift_solve_by_degree(system, prec)
        # order 1, and terms above prec/2 for the last step to find
        assert solution[0].order() == 1 and max(map(sum, solution[0].coeffs)) > prec // 2
    for nx, prec in ((1, 9), (2, 7)):
        system = dense_implicit_system(field, nx, 3, prec, rng)
        assert ift_solve(system, prec) == ift_solve_by_degree(system, prec)


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_degree_oracle_agrees_where_the_packing_width_changes(spec):
    # the solve packs every step at N, in fields of N.bit_length() bits: N on
    # both sides of each change of width, no parameters (the solution is 0)
    # and up to three unknowns, and equations with terms above N
    field = parse_field_spec(spec)
    rng = random.Random(35)
    for N in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32):
        shapes = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)] if N <= 8 else [(1, 1), (1, 2)]
        for nx, ny in shapes:
            n, prec = nx + ny, N + 2
            block = rand_invertible(field, ny, rng)
            eqs = []
            for row in block:
                eq = rand_jet(field, n, prec, rng, min_degree=2, max_degree=3, terms=4)
                eq = eq + rand_jet(field, n, prec, rng, min_degree=N + 1, terms=2)
                for j, c in enumerate(row):
                    eq = eq + Jet.variable(field, n, nx + j, prec).scale(c)
                if nx:
                    eq = eq + Jet.variable(field, n, 0, prec).scale(
                        random_element(field, rng, nonzero=True))
                eqs.append(eq)
            system = ImplicitSystem(eqs, list(range(nx, n)))
            assert max(sum(alpha) for eq in eqs for alpha in eq.coeffs) > N
            assert ift_solve(system, N) == ift_solve_by_degree(system, N), (N, nx, ny)


def test_premultiplying_by_constant_invertible_matrix_keeps_solution():
    rng = random.Random(33)
    for field in FIELDS:
        for _ in range(10):
            nx = rng.randint(1, 2)
            ny = rng.randint(1, 3)
            prec = rng.randint(2, 5)
            system = rand_implicit_system(field, nx, ny, prec, rng)
            m = rand_invertible(field, ny, rng)
            mixed = []
            for i in range(ny):
                acc = Jet.zero(field, nx + ny, prec)
                for j in range(ny):
                    if m[i][j] != field.zero:
                        acc = acc + system.equations[j].scale(m[i][j])
                mixed.append(acc)
            mixed_system = ImplicitSystem(mixed, system.y_indices)
            assert ift_solve(system, prec) == ift_solve(mixed_system, prec)


def test_solution_matches_fixed_point_oracle():
    # independent oracle: iterate y <- x + y^2, a contraction in the jet metric
    eq = parse_jet("y - x - y^2", Q, ["x", "y"], 5)
    ys = ift_solve(ImplicitSystem([eq], [1]), 5)
    y = Jet.zero(Q, 1, 5)
    for _ in range(6):
        y = parse_jet("x", Q, ["x"], 5) + y * y
    assert ys[0] == y


def test_matrix_product_matches_jet_arithmetic():
    # _product runs on packed term lists and the native routes; Jet.__mul__ and
    # __add__ on field methods.  The packed result is sorted and has no zeros.
    rng = random.Random(31)
    for field in FIELDS + [parse_field_spec("f2k:4"), parse_field_spec("f2k:13")]:
        for _ in range(15):
            nvars, rows, inner, cols = (rng.randint(0, 2), rng.randint(1, 3),
                                        rng.randint(1, 3), rng.randint(1, 2))
            prec = rng.randint(0, 6)
            top = prec + rng.choice((0, 2))
            a = [[rand_jet(field, nvars, top, rng, terms=rng.randint(0, 5))
                  for _ in range(inner)] for _ in range(rows)]
            b = [[rand_jet(field, nvars, top, rng, terms=rng.randint(0, 5))
                  for _ in range(cols)] for _ in range(inner)]
            want = []
            for row in a:
                want.append([])
                for j in range(cols):
                    acc = Jet.zero(field, nvars, top)
                    for t, x in enumerate(row):
                        acc = acc + x * b[t][j]
                    want[-1].append(acc.truncate(prec))
            packing = _Packing(top, nvars)
            packed = [[[packing.terms(x.coeffs) for x in row] for row in m] for m in (a, b, want)]
            got = _product(packed[0], packed[1], (prec + 1) << packing.shift, packing,
                           _route(field))
            assert got == packed[2]


def test_residuals_raise_the_per_source_messages():
    names = ["x", "y1", "y2"]
    eqs = [parse_jet("y1 - x^2 + y1*y2", Q, names, 4), parse_jet("y2 + x*y1", Q, names, 4)]
    sys = ImplicitSystem(eqs, [1, 2])
    y = parse_jet("x^2", Q, ["x"], 4)
    bad = [
        [y, parse_jet("x^3", PrimeField(7), ["x"], 4)],  # another field
        [y, parse_jet("u^3", Q, ["u", "v"], 4)],  # another variable set
        [y, parse_jet("1 + x^3", Q, ["x"], 4)],  # constant term
        [y, parse_jet("x^3", Q, ["x"], 3)],  # precision below the request
    ]
    for ys in bad:
        same_error(lambda: sys.residuals(ys, 4),
                   lambda: [eq.truncate(4).substitute(sys._parts(ys, 4)) for eq in eqs])
    n = 513
    wide = ImplicitSystem([parse_jet("y - x1*x512", Q, ["y"] + [f"x{i}" for i in range(1, n)],
                                     2)], [0])
    ys = ift_solve(wide, 2)
    assert ys == [parse_jet("x1*x512", Q, [f"x{i}" for i in range(1, n)], 2)]
    assert wide.residuals(ys, 2) == [Jet.zero(Q, n - 1, 2)]


def test_cuts_match_truncate():
    # ift packs its equations and partials once and cuts them per step
    rng = random.Random(2402)
    for field in FIELDS:
        for _ in range(30):
            n, prec = rng.randint(1, 4), rng.choice((1, 2, 3, 4, 7, 8, 15, 16))
            f = rand_jet(field, n, prec, rng, terms=rng.randint(0, 8))
            f = f + Jet(field, n, prec, {tuple([prec] + [0] * (n - 1)): field.one})
            packing = _Packing(prec + rng.choice((0, 0, 3)), n)
            terms = packing.terms(f.coeffs)
            for k in range(prec + 1):
                assert _cut(terms, (k + 1) << packing.shift) == packing.terms(f.truncate(k).coeffs)
