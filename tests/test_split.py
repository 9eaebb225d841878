import dataclasses
import importlib
import json
import math
import random

import pytest

from gen import (FIELDS, identity_change, monomials_of_degree, rand_automorphism, rand_m2_jet,
                 rand_monomial, rand_split_form, random_element, transition_change)
from jetsplit import (BinaryField, CoordinateChange, ImplicitSystem, Jet, PrecisionError,
                      PrimeField, QuadNormalForm, RationalField, SplitResult,
                      SplitShapeError, VerificationError, iterate_arf, iterate_diagonal,
                      ift_solve, normal_form, parse_jet, split, verify_split)
from jetsplit.field import parse_field_spec

# the package re-exports a function named like this module
split_module = importlib.import_module("jetsplit.split")

Q = RationalField()
F2 = PrimeField(2)


def test_worked_example_rational():
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2", Q, names, 4)
    r = split(f, 4)
    assert r.rank == 1
    assert r.residual == parse_jet("-1/4*y^4", Q, names, 4)
    assert r.change.components[0] == parse_jet("x - 1/2*y^2", Q, names, 4)
    assert r.change.components[1] == parse_jet("y", Q, names, 4)
    assert verify_split(f, r).is_zero()


def test_worked_example_char2():
    names = ["x1", "x2", "x3"]
    f = parse_jet("x1*x2 + x1*x3^2", F2, names, 4)
    r = split(f, 4)
    assert r.rank == 2
    assert r.residual.is_zero()
    assert r.change.components[1] == parse_jet("x2 + x3^2", F2, names, 4)
    assert verify_split(f, r).is_zero()


def test_already_split_gives_linear_change():
    f = parse_jet("x^2 + y^2", Q, ["x", "y"], 3)
    r = split(f, 3)
    assert r.residual.is_zero()
    for comp in r.change.components:
        assert all(sum(a) == 1 for a in comp.coeffs)


def test_two_step_iteration():
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2 + x*y^3", Q, names, 6)
    r = split(f, 6)
    assert r.rank == 1
    assert all(a[0] == 0 for a in r.residual.coeffs)
    assert verify_split(f, r).is_zero()


def test_iterate_diagonal_requires_diagonal_two_jet():
    f = parse_jet("x*y + x^3", Q, ["x", "y"], 3)
    with pytest.raises(SplitShapeError):
        iterate_diagonal(f, 3, QuadNormalForm.read_split_shape(f))
    g = parse_jet("x^2 + x^3", F2, ["x"], 3)
    with pytest.raises(SplitShapeError, match="characteristic != 2"):
        iterate_diagonal(g, 3, normal_form(g))
    with pytest.raises(ValueError, match="^the head has 1 variables, the series 2$"):
        iterate_diagonal(f, 3, QuadNormalForm.read_split_shape(parse_jet("x^2", Q, ["x"], 3)))


def test_iterate_arf_requires_unit_pairs():
    f = parse_jet("x1^2 + x1*x2 + x3*x2", F2, ["x1", "x2", "x3"], 3)
    with pytest.raises(SplitShapeError):
        iterate_arf(f, 3, QuadNormalForm.read_split_shape(f))
    f4 = BinaryField(2)
    g = parse_jet("t*x1*x2", f4, ["x1", "x2"], 3)
    with pytest.raises(SplitShapeError):
        iterate_arf(g, 3, QuadNormalForm.read_split_shape(g))
    h = parse_jet("x^2 + x^3", Q, ["x"], 3)
    with pytest.raises(SplitShapeError, match="characteristic 2"):
        iterate_arf(h, 3, normal_form(h))


def test_char2_residual_keeps_square_tail():
    names = ["x1", "x2", "x3"]
    f = parse_jet("x1*x2 + x3^2 + x2*x3^3", F2, names, 6)
    r = split(f, 6)
    assert r.rank == 2
    two_jet = r.residual.degree_part(2)
    assert two_jet == parse_jet("x3^2", F2, names, 6).degree_part(2)
    rest = r.residual - two_jet
    assert rest.is_zero() or rest.order() >= 3
    assert verify_split(f, r).is_zero()


def test_degenerate_zero_two_jet():
    f = parse_jet("x^3 + y^4", Q, ["x", "y"], 5)
    r = split(f, 5)
    assert r.rank == 0
    assert r.residual == f
    g = parse_jet("x1^2 + x1^3", F2, ["x1", "x2"], 4)
    r2 = split(g, 4)
    assert r2.rank == 0
    assert r2.residual == g


def test_rejects_low_degree_terms_and_bad_precision():
    with pytest.raises(SplitShapeError):
        split(parse_jet("x + x^2", Q, ["x"], 3), 3)
    with pytest.raises(PrecisionError):
        split(parse_jet("x^2", Q, ["x"], 3), 4)
    with pytest.raises(PrecisionError):
        split(parse_jet("x^2", Q, ["x"], 3), 1)


def test_residual_involves_only_tail_variables():
    rng = random.Random(21)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(1, 4)
            N = rng.randint(2, 7)
            f = rand_m2_jet(field, n, N, rng)
            r = split(f, N)
            assert all(not any(a[:r.rank]) for a in r.residual.coeffs)
            head_two = r.residual.degree_part(2)
            rest = r.residual - head_two
            if field.char == 2:
                assert rest.is_zero() or rest.order() >= 3
            else:
                assert r.residual.is_zero() or r.residual.order() >= 3


def test_split_soundness_random():
    rng = random.Random(22)
    for field in FIELDS:
        for _ in range(50):
            n = rng.randint(1, 4)
            N = rng.randint(2, 8)
            f = rand_m2_jet(field, n, N, rng, terms=rng.randint(0, 8))
            r = split(f, N)
            assert verify_split(f, r).is_zero()
            assert r.change.is_automorphism()


def test_split_on_further_field_families():
    from jetsplit import PrimeField as P, BinaryField as B

    rng = random.Random(25)
    for field in (P(3), P(5), P(13), B(1), B(3), B(4)):
        for _ in range(15):
            n = rng.randint(1, 3)
            N = rng.randint(2, 6)
            f = rand_m2_jet(field, n, N, rng)
            r = split(f, N)
            assert verify_split(f, r).is_zero()


def test_rank_invariant_under_precomposition():
    rng = random.Random(23)
    for field in FIELDS:
        for _ in range(20):
            n = rng.randint(2, 4)
            N = 4
            f = rand_m2_jet(field, n, N, rng)
            phi = rand_automorphism(field, n, N, rng)
            assert split(phi.apply(f), N).rank == split(f, N).rank


def test_split_idempotent_on_its_own_output():
    rng = random.Random(24)
    for field in FIELDS:
        for _ in range(20):
            n = rng.randint(1, 4)
            N = rng.randint(2, 6)
            f = rand_m2_jet(field, n, N, rng)
            r = split(f, N)
            again = r.head_jet() + r.residual
            r2 = split(again, N)
            assert r2.residual == r.residual
            identity = [Jet.variable(field, n, i, N) for i in range(n)]
            assert list(r2.change.components) == identity


def test_verify_split_detects_tampering():
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2", Q, names, 4)
    r = split(f, 4)
    r.residual = r.residual + parse_jet("y^3", Q, names, 4)
    assert not verify_split(f, r).is_zero()


def test_verify_split_detects_identity_change_on_unsplit_input():
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2", Q, names, 4)
    r = split(f, 4)
    r.change = identity_change(Q, 2, 4)
    assert not verify_split(f, r).is_zero()


def test_verify_split_refuses_jets_below_the_result_precision():
    # each forgery's difference vanishes at the lower precision it declares
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2", Q, names, 4)
    r = split(f, 4)
    low_residual = dataclasses.replace(r, residual=parse_jet("7*y^4", Q, names, 3))
    low_change = dataclasses.replace(r, change=CoordinateChange(
        [c.truncate(1) for c in r.change.components]))
    for g, forged, name, prec in [(f.truncate(3), r, "series", 3),
                                  (f, low_residual, "residual", 3),
                                  (f, low_change, "change", 1)]:
        with pytest.raises(VerificationError, match=f"^split: the {name} has precision {prec}, "
                                                    "below 4$"):
            verify_split(g, forged)


def test_verify_split_refuses_jets_above_the_result_precision():
    # a jet that claims coefficients above the result's precision must not pass
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2 + x*y^3", Q, names, 6)
    r = split(f, 4)
    assert verify_split(f, r).is_zero()   # the series may be longer
    high_residual = dataclasses.replace(r, residual=parse_jet("-1/4*y^4", Q, names, 6))
    high_change = dataclasses.replace(r, change=CoordinateChange(
        [Jet(Q, 2, 6, c.coeffs) for c in r.change.components]))
    for forged, name in [(high_residual, "residual"), (high_change, "change")]:
        with pytest.raises(VerificationError, match=f"^split: the {name} has precision 6, "
                                                    "above 4$"):
            verify_split(f, forged)


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_split_matches_the_three_step_pipeline(spec):
    # the linear change applied first, the loop from the identity, the two composed
    field = parse_field_spec(spec)
    rng = random.Random(26)
    for _ in range(12):
        n, N = rng.randint(2, 4), rng.randint(3, 6)
        _, _, f0 = rand_split_form(field, n, N, rng)
        f = rand_automorphism(field, n, N, rng).apply(f0)
        linear = transition_change(normal_form(f), N)
        moved = linear.apply(f)
        iterate = iterate_arf if field.char == 2 else iterate_diagonal
        change, residual = iterate(moved, N, QuadNormalForm.read_split_shape(moved))
        r = split(f, N)
        assert r.change == linear.compose(change)
        assert r.residual == residual


def test_split_json_shape():
    f = parse_jet("x^2 + x*y^2", Q, ["x", "y"], 4)
    data = split(f, 4).to_json(["x", "y"])
    assert data["rank"] == 1
    assert data["field"] == "q"
    assert data["residual"] == "-1/4*y^4 + O(deg 4)"
    assert "verified" not in data
    assert len(data["change"]) == 2


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_split_result_json_round_trip(spec):
    field = parse_field_spec(spec)
    names = ["x", "y", "z"]
    f = parse_jet("x*y + y^2 + x*z^2 + z^3 + y*z^3", field, names, 6)
    result = split(f, 6)
    assert result.rank == 2 and not result.residual.is_zero()
    data = json.loads(json.dumps(result.to_json(names)))
    assert SplitResult.from_json(data, names) == result


def dense_split_input(field, n, N, rank, rng):
    """A split form of the given rank (its even part in characteristic 2) plus
    about half of all monomials of degree 3..N, moved by a random automorphism."""
    _, _, f0 = rand_split_form(field, n, N, rng, rank=rank)
    dense = Jet(field, n, N, {beta: random_element(field, rng, nonzero=True)
                              for d in range(3, N + 1)
                              for beta in monomials_of_degree(n, d) if rng.random() < 0.5})
    return rand_automorphism(field, n, N, rng).apply(f0 + dense)


def critical_residual(f, N):
    """f after the head's transition S, at x_h = phi(y): phi solves
    d(f o S)/dx_h = 0 through degree N - 1 (``ift_solve``), whose degree-N
    coefficient does not reach f o S(phi(y), y) below degree N + 1."""
    quad = normal_form(f)
    g = transition_change(quad, N).apply(f)
    rank, n, field = quad.rank, f.nvars, f.field
    if rank == 0:
        return g
    if rank == n:
        phi = [Jet.zero(field, n, N)] * rank
    else:
        solution = ift_solve(ImplicitSystem([g.partial(i) for i in range(rank)], range(rank)),
                             N - 1)
        phi = [Jet(field, n, N, {(0,) * rank + a: c for a, c in y.coeffs.items()})
               for y in solution]
    return g.substitute(phi + [Jet.variable(field, n, j, N) for j in range(rank, n)])


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_residual_is_the_series_on_the_critical_manifold(spec):
    # the residual is unique once the tail is fixed: whatever change split
    # prints, its residual is the series on the critical manifold of the head
    field = parse_field_spec(spec)
    rng = random.Random(27)
    for i in range(12):
        n, N = rng.randint(2, 4), rng.randint(3, 6)
        f = dense_split_input(field, n, N, i % (n + 1), rng)
        assert split(f, N).residual == critical_residual(f, N), (spec, i)


# the passes each seed-28 input of dense_split_input makes, per field; and the
# mixed-part orders of the deep split, after the transition and each pass
PASS_COUNTS = {"q": [3, 3, 2, 3, 2, 2, 3, 3, 2, 2], "fp:7": [3, 2, 3, 3, 2, 3, 3, 3, 3, 3],
               "fp:2": [3, 2, 3, 3, 3, 2, 3, 2, 3, 2], "f2k:4": [3, 3, 2, 3, 2, 3, 3, 3, 3, 3]}
DEEP_ORDERS = {("q", 60): [3, 4, 6, 10, 18, 34, math.inf],
               ("fp:1000003", 200): [3, 4, 6, 10, 18, 34, 66, 130, math.inf]}


@pytest.fixture
def mixed_orders(monkeypatch):
    """Every split's mixed-part orders, after the transition and after each pass."""
    orders = []
    iterate, mixed_order = split_module._iterate, split_module._mixed_order

    def started(*args):
        orders.append([])
        return iterate(*args)

    def recorded(gs, shift):
        orders[-1].append(mixed_order(gs, shift))
        return orders[-1][-1]

    monkeypatch.setattr(split_module, "_iterate", started)
    monkeypatch.setattr(split_module, "_mixed_order", recorded)
    return orders


def test_each_pass_reaches_twice_the_order_minus_two(mixed_orders):
    # a pass at mixed order r leaves order >= 2r - 2 (the split docstring);
    # the pass counts are pinned
    for spec, counts in PASS_COUNTS.items():
        field = parse_field_spec(spec)
        rng = random.Random(28)
        for i in range(len(counts)):
            n, N = rng.randint(2, 4), rng.randint(5, 8)
            rank = rng.randint(1, n // 2) * 2 if field.char == 2 else rng.randint(1, n - 1)
            split(dense_split_input(field, n, N, rank, rng), N)
        assert [len(orders) - 1 for orders in mixed_orders[-len(counts):]] == counts, spec
    for (spec, P), deep in DEEP_ORDERS.items():
        split(parse_jet("x^2+x^2*y+x*y^3+y^3", parse_field_spec(spec), ["x", "y"], P), P)
        assert mixed_orders[-1] == deep, spec
    for orders in mixed_orders:
        for r, new in zip(orders, orders[1:]):
            assert new >= 2 * r - 2, orders


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_f_in_m2_never_reads_the_degree_n_part_of_its_change(spec):
    # g(phi + tau) = sum_beta (D^beta g)(phi) tau^beta, D^beta the Hasse
    # derivatives: with g in m^2 and tau homogeneous of degree N every term
    # with |beta| >= 1 lies above N, in every characteristic; a linear term
    # of g reads tau itself
    field = parse_field_spec(spec)
    rng = random.Random(29)
    for _ in range(12):
        n, N = rng.randint(1, 4), rng.randint(2, 6)
        f = rand_m2_jet(field, n, N, rng, terms=rng.randint(1, 8))
        phi = list(rand_automorphism(field, n, N, rng).components)
        tau = [Jet(field, n, N, {rand_monomial(n, N, rng): random_element(field, rng, nonzero=True)
                                 for _ in range(rng.randint(1, 3))}) for _ in range(n)]
        moved = [p + t for p, t in zip(phi, tau)]
        assert f.substitute(moved) == f.substitute(phi)
        linear = f + Jet.variable(field, n, 0, N)
        assert linear.substitute(moved) - linear.substitute(phi) == tau[0]


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_split_prints_no_change_term_of_degree_n(spec):
    # the loop carries the change modulo m^N, at every rank the field allows
    field = parse_field_spec(spec)
    rng = random.Random(30)
    for n in (1, 2, 3, 4):
        for rank in range(0, n + 1, 2 if field.char == 2 else 1):
            N = rng.randint(3, 6)
            r = split(dense_split_input(field, n, N, rank, rng), N)
            assert r.rank == rank
            assert all(c.degree_part(N).is_zero() for c in r.change.components), (spec, n, rank)
