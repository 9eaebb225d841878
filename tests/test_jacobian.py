import contextlib
import dataclasses
import random
import signal
import time
from fractions import Fraction

import pytest

import linalg_oracle
from gen import (monomials_of_degree, naive_substitute, naive_times, rand_invertible, rand_jet,
                 random_element)
from jetsplit import (BinaryField, DeterminacyReport, Jet, MilnorReport, PrimeField,
                      RationalField, VerificationError, determinacy_certificate,
                      milnor_number, parse_jet, verify_determinacy, verify_milnor)
from jetsplit.cli import main
from jetsplit.field import parse_field_spec
from jetsplit.jacobian import (MAX_MONOMIALS, _Echelon, _growing_echelon, _ideal_echelon,
                               count_monomials_upto, jacobian_generators)
from jetsplit.jet import _Packing, _packed_product, _route, _substitute_packed

Q = RationalField()
POLY = 10 ** 9


def poly(text, names, field=Q):
    return parse_jet(text, field, names, POLY)


def test_monomial_enumeration():
    assert list(monomials_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert count_monomials_upto(2, 2) == 6
    assert count_monomials_upto(3, 0) == 1


def test_milnor_of_nondegenerate_quadric_is_one():
    report = milnor_number(poly("x^2 + y^2", ["x", "y"]))
    assert report.mu == 1
    assert report.stabilization_degree == 1
    assert report.order == 2
    assert report.determinacy_bound == 2


def test_milnor_of_pure_powers():
    for k in range(1, 7):
        report = milnor_number(poly(f"x^{k + 1}", ["x"]))
        assert report.mu == k


def test_milnor_of_cusp_sum():
    report = milnor_number(poly("x^3 + y^3", ["x", "y"]))
    assert report.mu == 4


def test_milnor_monomial_staircase_oracle():
    # J = <x^a, y^b> gives the a*b staircase count
    for a in range(1, 5):
        for b in range(1, 5):
            f = poly(f"x^{a + 1} + y^{b + 1}", ["x", "y"])
            assert milnor_number(f).mu == a * b


def test_milnor_unknown_when_not_isolated():
    report = milnor_number(poly("x^2", ["x", "y"]))
    assert report.mu is None
    assert report.stabilization_degree is None
    f2 = PrimeField(2)
    report2 = milnor_number(parse_jet("x^2", f2, ["x"], POLY))
    assert report2.mu is None  # the derivative vanishes identically in char 2


def test_milnor_zero_input():
    report = milnor_number(Jet.zero(Q, 2, POLY))
    assert report.mu is None
    assert report.order is None


def test_milnor_search_bound_respected():
    report = milnor_number(poly("x^9", ["x"]), max_degree=5)
    assert report.mu is None
    assert report.max_degree == 5


def test_milnor_with_unit_is_zero():
    # an equation with a nonzero linear part is regular: trivial quotient
    report = milnor_number(poly("x + x^2", ["x"]))
    assert report.mu == 0


def test_verify_milnor_recheck():
    f = poly("x^3 + y^3", ["x", "y"])
    report = milnor_number(f)
    verify_milnor(f, report)


def test_determinacy_of_quadric():
    f = poly("x^2 + y^2", ["x", "y"])
    report = determinacy_certificate(f)
    assert report == DeterminacyReport(1, 2, 12) and report.bound == 2
    verify_determinacy(f, report)


def test_determinacy_of_cusp():
    report = determinacy_certificate(poly("x^3", ["x"]))
    assert report.stabilization_degree == 2
    assert report.bound == 3


def test_determinacy_hyperbolic_prime_field():
    f7 = PrimeField(7)
    f = parse_jet("x*y", f7, ["x", "y"], POLY)
    assert determinacy_certificate(f).bound == 2


def test_determinacy_absent_for_non_isolated():
    assert determinacy_certificate(poly("x^2", ["x", "y"])).bound is None
    assert determinacy_certificate(Jet.zero(Q, 1, POLY)).bound is None


def test_mu_determinacy_bound_examples():
    assert milnor_number(poly("x^2 + y^2", ["x", "y"])).determinacy_bound == 2
    assert milnor_number(poly("x^3 + y^3", ["x", "y"])).determinacy_bound == 7
    assert milnor_number(poly("x^2", ["x", "y"])).determinacy_bound is None


def test_milnor_invariant_under_polynomial_automorphisms():
    rng = random.Random(51)
    seeds = ["x^2 + y^2", "x^3 + y^3", "x^2 + y^3", "x^3 + y^4"]
    names = ["x", "y"]
    checked = 0
    while checked < 20:
        f = poly(seeds[checked % len(seeds)], names)
        mu = milnor_number(f).mu
        lin = rand_invertible(Q, 2, rng)
        comps = []
        for i in range(2):
            coeffs = {(1, 0): lin[i][0], (0, 1): lin[i][1]}
            comp = Jet(Q, 2, POLY, {a: c for a, c in coeffs.items() if c != 0})
            comp = comp + rand_jet(Q, 2, POLY, rng, min_degree=2, max_degree=3,
                                   terms=rng.randint(0, 2))
            comps.append(comp)
        phi = [c for c in comps]
        image = f.substitute(phi)
        assert milnor_number(image).mu == mu
        checked += 1


def test_perturbations_above_the_bound_keep_mu():
    rng = random.Random(52)
    f = poly("x^2 + y^2", ["x", "y"])
    bound = milnor_number(f).determinacy_bound
    assert bound == 2
    for _ in range(20):
        p = rand_jet(Q, 2, POLY, rng, min_degree=bound + 1, max_degree=bound + 3,
                     terms=rng.randint(1, 4))
        assert milnor_number(f + p).mu == 1


def test_nakayama_certificate_reproducible_on_random_inputs():
    rng = random.Random(53)
    for _ in range(10):
        f = rand_jet(Q, 2, POLY, rng, min_degree=2, max_degree=4, terms=4)
        report = milnor_number(f, max_degree=8)
        verify_milnor(f, report)


def test_milnor_over_prime_fields():
    f7 = PrimeField(7)
    assert milnor_number(parse_jet("x^3 + y^3", f7, ["x", "y"], POLY)).mu == 4
    rng = random.Random(54)
    for field in (PrimeField(3), PrimeField(5), f7):
        for _ in range(10):
            f = rand_jet(field, 2, POLY, rng, min_degree=2, max_degree=4, terms=4)
            report = milnor_number(f, max_degree=9)
            verify_milnor(f, report)


def test_milnor_when_characteristic_divides_an_exponent():
    # over GF(3) the derivative of x^3 vanishes, so x^3 is not isolated
    f3 = PrimeField(3)
    assert milnor_number(parse_jet("x^3", f3, ["x"], POLY)).mu is None
    assert milnor_number(parse_jet("x^4", f3, ["x"], POLY)).mu == 3


def macaulay_rank(field, gens, nvars, cutoff, min_multiplier_degree):
    """Rank of the dense matrix of all beta*g mod m^(cutoff+1), tuple-keyed."""
    columns = {alpha: j for j, alpha in enumerate(
        alpha for d in range(cutoff + 1) for alpha in monomials_of_degree(nvars, d))}
    rows = []
    for g in gens:
        for bdeg in range(min_multiplier_degree, cutoff + 1):
            for beta in monomials_of_degree(nvars, bdeg):
                row = [field.zero] * len(columns)
                for alpha, c in g.coeffs.items():
                    gamma = tuple(b + a for b, a in zip(beta, alpha))
                    if gamma in columns:
                        row[columns[gamma]] = c
                rows.append(row)
    return linalg_oracle.rank(field, rows)


ORACLE_FIELDS = [RationalField(), PrimeField(7), PrimeField(2), BinaryField(4)]


def check_pivots(field, ech):
    """Each pivot is stored under its lowest key and is normal for its route,
    and rank_by_degree counts the pivot leads per degree.

    Over Q a pivot is nonzero integers; it need not be primitive, since the
    cut may drop the terms that kept a generator's content 1."""
    per_degree = [0] * len(ech.rank_by_degree)
    for lead, pivot in ech.pivots.items():
        assert lead == min(pivot)
        if isinstance(field, RationalField):
            assert all(type(c) is int and c for c in pivot.values())
        else:
            assert pivot[lead] == field.one
        per_degree[lead >> ech.shift] += 1
    assert ech.rank_by_degree == per_degree


@pytest.fixture
def empty_rows(monkeypatch):
    """The number of rows inserted so far that the cut left empty."""
    count = [0]
    insert = _Echelon.insert

    def counted(self, row):
        count[0] += not row
        return insert(self, row)

    monkeypatch.setattr(_Echelon, "insert", counted)
    return lambda: count[0]


@pytest.mark.parametrize("min_multiplier_degree", [0, 2])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec())
def test_echelon_ranks_match_dense_macaulay_matrix(field, min_multiplier_degree, empty_rows):
    rng = random.Random(55 + min_multiplier_degree)
    cutoff = 5
    for trial in range(8):
        nvars = 2 + trial % 2
        gens = [rand_jet(field, nvars, POLY, rng, min_degree=trial % 3, max_degree=4,
                         terms=rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        oracle = [macaulay_rank(field, gens, nvars, s, min_multiplier_degree)
                  for s in range(cutoff + 1)]
        for s, ech in _growing_echelon(field, gens, nvars, cutoff, min_multiplier_degree):
            # after batch s the pivots up to degree s are final
            assert ech.rank_upto(s) == oracle[s], (trial, s)
        assert [ech.rank_upto(s) for s in range(cutoff + 1)] == oracle
        check_pivots(field, ech)
        for s in range(cutoff + 1):
            fresh = _ideal_echelon(field, gens, nvars, s, min_multiplier_degree)
            assert len(fresh.pivots) == oracle[s], (trial, s)
            check_pivots(field, fresh)
    # some lifted rows x_j*p lose every term to the cut
    assert empty_rows() > 0


def skip_prone_generators(field, nvars, rng):
    """Generator sets whose rows reduce to zero beyond the Koszul syzygies:
    three with a common factor, and one generator beside a multiple of it."""
    def rand(min_degree, max_degree):
        while True:
            g = rand_jet(field, nvars, POLY, rng, min_degree=min_degree,
                         max_degree=max_degree, terms=rng.randint(1, 3))
            if not g.is_zero():
                return g
    factor = rand(1, 2)
    common = [factor * rand(0, 2) for _ in range(3)]
    g = rand(1, 3)
    multiple = [g * rand(0, 2), rand(1, 3), g]
    return [[h for h in gens if not h.is_zero()] for gens in (common, multiple)]


@pytest.mark.parametrize("min_multiplier_degree", [0, 2])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec())
def test_search_ranks_under_skipped_rows_match_dense_macaulay_matrix(field,
                                                                     min_multiplier_degree,
                                                                     empty_rows):
    rng = random.Random(56 + min_multiplier_degree)
    cutoff = 6
    skipped = 0
    for trial in range(4):
        nvars = 2 + trial % 2
        for gens in skip_prone_generators(field, nvars, rng):
            oracle = [macaulay_rank(field, gens, nvars, s, min_multiplier_degree)
                      for s in range(cutoff + 1)]
            per_degree = [b - a for a, b in zip([0] + oracle, oracle)]
            for s, ech in _growing_echelon(field, gens, nvars, cutoff, min_multiplier_degree):
                fresh = _ideal_echelon(field, gens, nvars, s, min_multiplier_degree)
                assert fresh.skipped == 0
                assert ech.rank_by_degree[:s + 1] == fresh.rank_by_degree == per_degree[:s + 1], \
                    (trial, s)
                check_pivots(field, fresh)
            check_pivots(field, ech)
            skipped += ech.skipped
    assert skipped > 0
    assert empty_rows() > 0


def test_search_skips_multiples_of_zero_rows_and_counts_repeat():
    f = poly("(x+y-z)^2*((x-y+2*z)^2 + x*y*z)", ["x", "y", "z"])
    gens = jacobian_generators(f)
    runs = []
    for _ in range(2):
        for _, ech in _growing_echelon(Q, gens, 3, 20):
            pass
        runs.append((ech.offered, ech.skipped, ech.zero, ech.steps, ech.rank_by_degree))
    assert runs[0] == runs[1]
    offered, skipped, zero, steps, _ = runs[0]
    # every row is still offered; inserting each as beta*g gave 1925 zero
    # rows and 352902 elimination steps
    assert offered == 3420
    assert skipped > 0 and zero < 1925
    assert steps < 352902 // 10
    assert offered - skipped == len(ech.pivots) + zero
    # the verifiers' echelon inserts every row, to the same ranks with more work
    for _, ech in _growing_echelon(Q, gens, 3, 12):
        pass
    full = _ideal_echelon(Q, gens, 3, 12)
    assert full.skipped == 0 and full.offered == ech.offered
    assert full.rank_by_degree == ech.rank_by_degree
    assert full.zero > ech.zero and full.steps > ech.steps


SEARCH_COUNTERS = [
    # (field, variables, input, max degree, stop at the first cover):
    # offered, skipped, zero, steps and rank_by_degree of the search's echelon
    ("q", "x,y,z", "(x+y-z)^2*((x-y+2*z)^2 + x*y*z)", 20, False,
     (3420, 1717, 208, 3506, [0, 0, 0, 2, 6, 12, 19, 26, 34, 43, 53, 64, 76, 89, 103, 118,
                              134, 151, 169, 188, 208])),
    ("fp:7", "x,y,z", "2*x^3 + y^4 + 3*z^5 + x^2*y^2 + y*z^4", 12, True,
     (111, 3, 2, 26, [0, 0, 1, 4, 10, 18, 27, 36, 10, 0, 0, 0, 0])),
    ("f2k:4", "x1,x2,x3,x4", "t*x1^3 + x2^3 + (t^2+1)*x3^5 + x4^3 + t^3*x1^2*x2^2 + x3*x4^3",
     12, True, (448, 73, 8, 53, [0, 0, 3, 12, 28, 52, 83, 120, 69, 0, 0, 0, 0])),
    # shaped like a milnor-search slot over fp:101
    ("fp:101", "x,y,z", "x^3 + 2*y^5 + 3*z^6 + x*y^2*z^2 + y^3*z^3", 16, True,
     (333, 21, 4, 160, [0, 0, 1, 3, 8, 15, 23, 33, 43, 54, 66, 46, 16, 0, 0, 0, 0])),
]


@pytest.mark.parametrize("spec, names, text, max_degree, first, counters", SEARCH_COUNTERS,
                         ids=[case[0] for case in SEARCH_COUNTERS])
def test_search_counters_are_pinned(spec, names, text, max_degree, first, counters):
    # how rows are scaled may change the cost of a row, never which rows are
    # offered, skipped, reduced to zero or eliminated against
    f = poly(text, names.split(","), parse_field_spec(spec))
    for s, ech in _growing_echelon(f.field, jacobian_generators(f), f.nvars, max_degree):
        if first and ech.covers(s):
            break
    assert (ech.offered, ech.skipped, ech.zero, ech.steps, ech.rank_by_degree) == counters


def rand_generators(field, nvars, rng, constant):
    """One to three random polynomials with random, mostly non-unit, lead
    coefficients; with ``constant``, a nonzero constant is among them."""
    gens = [rand_jet(field, nvars, POLY, rng, min_degree=0, max_degree=4,
                     terms=rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    if constant:
        gens.insert(rng.randrange(len(gens) + 1),
                    rand_jet(field, nvars, POLY, rng, min_degree=0, max_degree=0, terms=1))
    return [g for g in gens if not g.is_zero()]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec())
def test_rank_below_the_cutoff_is_the_rank_at_the_lower_cutoff(field):
    # verify_milnor recounts mu on its cover echelon cut at s: the rows of
    # lowest degree s add no pivot of lead degree <= s - 1
    rng = random.Random(57)
    for trial in range(8):
        nvars = 2 + trial % 2
        gens = rand_generators(field, nvars, rng, constant=trial % 4 == 3)
        for s in range(1, 7):
            cut_at_s = _ideal_echelon(field, gens, nvars, s)
            # the oracle: a second echelon cut at s - 1
            cut_below = _ideal_echelon(field, gens, nvars, s - 1)
            assert cut_at_s.rank_upto(s - 1) == cut_below.rank_upto(s - 1), (trial, s)


@contextlib.contextmanager
def time_bound(seconds):
    """Raise TimeoutError from the block once it has run ``seconds``; the
    suite's per-test time limit (``conftest.py``) runs on after the block."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


# rows offered and elimination steps over the search and the nine fresh
# echelons, measured (266 and 124, 239 and 95, 301 and 200) with about 15% to spare
MONIC_WORK = {("fp:7", "3*x^3 + 5*y^4"): (306, 143), ("f2k:4", "t*x^3 + y^5"): (275, 109),
              ("fp:7", "2*x^2*y + 3*y^4 + 4*x^5"): (346, 230)}


@pytest.mark.parametrize("spec, text", list(MONIC_WORK))
def test_pivots_stay_monic_when_leads_are_not_units(spec, text, echelon_work):
    # the GF(p) and GF(2^k) routes cancel a lead only against a monic pivot:
    # a non-monic one leaves the lead in place and the reduction never ends
    counted = echelon_work()
    field = parse_field_spec(spec)
    f = poly(text, ["x", "y"], field)
    gens = [f] + jacobian_generators(f)
    cutoff = 8
    oracle = [macaulay_rank(field, gens, 2, s, 0) for s in range(cutoff + 1)]
    with time_bound(1.0):
        for s, ech in _growing_echelon(field, gens, 2, cutoff):
            assert ech.rank_upto(s) == oracle[s], s
        fresh = [_ideal_echelon(field, gens, 2, s) for s in range(cutoff + 1)]
    for e in [ech] + fresh:
        assert all(pivot[lead] == field.one for lead, pivot in e.pivots.items())
    assert [len(e.pivots) for e in fresh] == oracle
    offered, steps = MONIC_WORK[spec, text]
    counts = counted()
    assert counts["offered"] <= offered and counts["steps"] <= steps, counts


# rows offered before the failing step, measured (18 and 26) with about 15%
# to spare; the step that fails is not counted, and no step comes before it
NOT_MONIC_OFFERED = {("fp:7", "3*x^3 + 5*y^4"): 21, ("f2k:4", "t*x^3 + y^5"): 30}


@pytest.mark.parametrize("spec, text", list(NOT_MONIC_OFFERED))
def test_a_pivot_that_is_not_monic_fails_instead_of_looping(monkeypatch, spec, text,
                                                            echelon_work):
    # generators left as they are give pivots with non-unit leads; a step
    # against one cannot cancel the lead, and without a check _reduce spins
    counted = echelon_work()
    field = parse_field_spec(spec)
    monkeypatch.setattr(type(_route(field)), "monic", lambda self, terms: terms)
    f = poly(text, ["x", "y"], field)
    with time_bound(5.0), pytest.raises(VerificationError,
                                        match=r"^echelon: a step left the lead \d+ in the row$"):
        milnor_number(f)
    counts = counted()
    assert counts["offered"] <= NOT_MONIC_OFFERED[spec, text] and counts["steps"] == 0, counts


# -- the routes' row operations against elimination by field methods ----------


def field_monic(field, terms):
    """A generator's terms made monic at the lead by the field's methods."""
    inv = field.inv(terms[0][1])
    return [(k, field.mul(inv, c)) for k, c in terms]


def field_eliminate(field, row, pivot, lead):
    """row <- row - c*pivot in place for a monic pivot, by the field's methods."""
    zero = field.zero
    c = row[lead]
    for m, v in pivot.items():
        new = field.sub(row.get(m, zero), field.mul(c, v))
        if new == zero:
            del row[m]
        else:
            row[m] = new


def field_normalize(field, row, lead):
    inv = field.inv(row[lead])
    return {m: field.mul(inv, c) for m, c in row.items()}


def same_row(field, native, reference):
    """Equal over GF(p) and GF(2^k); over Q, the integers are a nonzero
    multiple of the Fractions."""
    if not isinstance(field, RationalField):
        return native == reference
    if native.keys() != reference.keys():
        return False
    if not native:
        return True
    ratio = Fraction(native[min(native)]) / reference[min(native)]
    return all(Fraction(c) == ratio * reference[m] for m, c in native.items())


def check_row_operations(field, route, rng):
    """monic, eliminate and normalize of the route on one random pivot and row,
    against elimination by the field's methods."""

    def row_at(lead):
        keys = [lead] + rng.sample(range(lead + 1, lead + 30), rng.randint(0, 8))
        return {k: random_element(field, rng, nonzero=True) for k in keys}

    lead = rng.randrange(20)
    terms = sorted(row_at(lead).items())
    pivot = dict(route.monic(terms))
    reference_pivot = dict(field_monic(field, terms))
    assert same_row(field, pivot, reference_pivot)
    # a row in native values: integers over Q, elements of a finite field
    reference_row = row_at(lead)
    row = dict(reference_row)
    if isinstance(field, RationalField):
        row = {k: c.numerator for k, c in row.items()}
        reference_row = {k: Fraction(c) for k, c in row.items()}
    route.eliminate(row, pivot, lead)
    field_eliminate(field, reference_row, reference_pivot, lead)
    assert lead not in row and same_row(field, row, reference_row)
    if row:
        lead = min(row)
        assert same_row(field, route.normalize(row, lead),
                        field_normalize(field, reference_row, lead))


@pytest.mark.parametrize("spec", ["q", "fp:7", "fp:2", "f2k:4"])
def test_route_row_operations_match_field_methods(spec):
    field = parse_field_spec(spec)
    route = _route(field)
    rng = random.Random(11)
    for _ in range(300):
        check_row_operations(field, route, rng)


@pytest.mark.parametrize("spec", ["q", "fp:7", "f2k:4"])
def test_one_route_serves_every_loop_and_keeps_no_state(spec):
    # one route, interleaved: a batch substitution (fraction-free over q), a
    # packed product (of Fractions over q) and the echelon's row operations,
    # each against the field's methods; no call sets an attribute on the route
    field = parse_field_spec(spec)
    route = _route(field)
    state = dict(vars(route))
    rng = random.Random(2024)
    for _ in range(60):
        n, m, prec = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 7)
        sources = [rand_jet(field, n, rng.randint(0, prec), rng, terms=rng.randint(0, 6))
                   for _ in range(2)]
        parts = [rand_jet(field, m, prec, rng, min_degree=1, terms=rng.randint(0, 4))
                 for _ in range(n)]
        packing, source = _Packing(prec, m), _Packing(prec, n)
        got = _substitute_packed([(source.terms(f.coeffs), f.prec) for f in sources], source,
                                 [packing.terms(p.coeffs) for p in parts], packing, route)
        assert [Jet(field, m, f.prec, packing.unpack(out)) for f, out in zip(sources, got)] \
            == [naive_substitute(f, parts, m) for f in sources]
        assert vars(route) == state
        a, b = (rand_jet(field, m, prec, rng, terms=rng.randint(0, 6)) for _ in range(2))
        product = _packed_product(packing.terms(a.coeffs), packing.terms(b.coeffs),
                                  packing.limit, packing, route)
        want = Jet(field, m, prec, naive_times(field, a.coeffs, b.coeffs, prec))
        assert product == packing.terms(want.coeffs)
        assert vars(route) == state
        check_row_operations(field, route, rng)
        assert vars(route) == state


def test_rational_rows_are_primitive_integers():
    route = _route(Q)
    terms = [(3, Fraction(-4, 3)), (5, Fraction(2, 9)), (8, Fraction(8))]
    assert route.monic(terms) == [(3, -6), (5, 1), (8, 36)]
    assert route.normalize({3: -6, 5: 4, 8: 36}, 3) == {3: -3, 5: 2, 8: 18}


@pytest.mark.parametrize("nvars, cutoff", [(0, 3), (1, 4), (2, 5), (3, 6), (4, 4)])
def test_packed_monomials_are_lex_ordered(nvars, cutoff):
    ech = _Echelon(Q, nvars, cutoff)
    for degree in range(cutoff, -1, -1):
        assert ech.monomials(degree) == [ech.packing.pack(beta)
                                         for beta in monomials_of_degree(nvars, degree)]


def test_verify_milnor_rejects_forged_reports():
    for text in ("x^3 + y^4", "x^2 + y^2", "x + y^2"):
        f = poly(text, ["x", "y"])
        report = milnor_number(f)
        verify_milnor(f, report)
        for change, reason in (({"mu": report.mu + 1}, "mu .* is not the recounted"),
                               ({"mu": report.mu - 1}, "mu .* is not the recounted"),
                               ({"order": report.order + 1}, "order .* is not the series' order"),
                               ({"stabilization_degree": 0}, "stabilization degree 0 is not >= 1"),
                               ({"stabilization_degree": None},
                                "stabilization degree None is not >= 1")):
            forged = dataclasses.replace(report, **change)
            with pytest.raises(VerificationError, match=f"^milnor: {reason}"):
                verify_milnor(f, forged)
    # a degree below the true stabilization degree has no certificate
    f = poly("x^3 + y^4", ["x", "y"])
    report = milnor_number(f)
    s = report.stabilization_degree - 1
    early = dataclasses.replace(report, stabilization_degree=s)
    with pytest.raises(VerificationError, match=rf"^milnor: no cover at degree {s}: "
                                                rf"m\^{s} is not in J \+ m\^{s + 1}$"):
        verify_milnor(f, early)
    # a report without mu may claim no degree, and has no bound
    for forged in (MilnorReport(None, 3, 7, 12), MilnorReport(None, 3, 3, 12)):
        assert forged.determinacy_bound is None
        with pytest.raises(VerificationError,
                           match="^milnor: a report without mu claims a degree$"):
            verify_milnor(f, forged)
    verify_milnor(f, MilnorReport(None, None, 3, 12))
    with pytest.raises(VerificationError, match="^milnor: order 7 is not the series' order 3"):
        verify_milnor(f, MilnorReport(None, None, 7, 12))


def test_verify_milnor_rejects_mu_for_the_zero_series():
    # in 0 variables the cover check passes vacuously; the bound needs an order
    for f in (Jet(Q, 0, POLY, {}), Jet(Q, 2, POLY, {})):
        assert milnor_number(f).mu is None
        with pytest.raises(VerificationError, match="^milnor: mu 1 is claimed for a series "
                                                    r"with no order \(the zero series\)$"):
            verify_milnor(f, MilnorReport(1, 1, None, 12))


def test_verify_determinacy_rejects_a_lower_degree():
    for text in ("x^3 + y^4", "x^2 + y^2", "x*y + y^5"):
        f = poly(text, ["x", "y"])
        report = determinacy_certificate(f)
        verify_determinacy(f, report)
        k = report.stabilization_degree
        for change, reason in (({"order": report.order + 1}, "order .* is not the series' order"),
                               ({"stabilization_degree": k - 1},
                                rf"no cover at degree {k + 1}: "
                                rf"m\^{k + 1} is not in m\^2 J \+ m\^{k + 2}$"),
                               ({"stabilization_degree": -1}, "degree -1 is not >= 0")):
            forged = dataclasses.replace(report, **change)
            with pytest.raises(VerificationError, match=f"^determinacy: {reason}"):
                verify_determinacy(f, forged)
    # a report without k claims only the order, and has no bound
    f = poly("x^3 + y^4", ["x", "y"])
    verify_determinacy(f, DeterminacyReport(None, 3, 12))
    assert DeterminacyReport(None, 3, 12).bound is None
    with pytest.raises(VerificationError, match="^determinacy: order 7 is not the series' order 3"):
        verify_determinacy(f, DeterminacyReport(None, 7, 12))
    # the zero series has no order, so no bound can follow from a claimed k
    with pytest.raises(VerificationError, match="^determinacy: k 1 is claimed for a series "
                                                r"with no order \(the zero series\)$"):
        verify_determinacy(Jet(Q, 0, POLY, {}), DeterminacyReport(1, None, 12))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec())
def test_verifiers_reject_a_degree_above_the_least(field):
    # one degree higher still covers and recounts the same mu (Nakayama), so
    # only the check that no lower degree covers rejects it
    checked = 0
    for text in ("x^3 + y^4", "x^2 + y^2", "x*y + y^5", "x^3 + x*y^3 + y^5"):
        f = parse_jet(text, field, ["x", "y"], POLY)
        milnor, determinacy = milnor_number(f), determinacy_certificate(f)
        if milnor.mu is not None:
            s = milnor.stabilization_degree
            late = MilnorReport(milnor.mu, s + 1, milnor.order, milnor.max_degree)
            with pytest.raises(VerificationError,
                               match=rf"^milnor: a cover at degree {s}: m\^{s} is in J \+ m\^{s + 1}$"):
                verify_milnor(f, late)
            checked += 1
        if determinacy.stabilization_degree is not None:
            k = determinacy.stabilization_degree
            late = DeterminacyReport(k + 1, determinacy.order, determinacy.max_degree)
            with pytest.raises(VerificationError,
                               match=rf"^determinacy: a cover at degree {k + 2}: "
                                     rf"m\^{k + 2} is in m\^2 J \+ m\^{k + 3}$"):
                verify_determinacy(f, late)
            checked += 1
    assert checked >= 4


# rows offered and elimination steps per search, measured (milnor 1320 and
# 860, determinacy 1300 and 997) with about 15% to spare
NON_ISOLATED_WORK = {"milnor": (1520, 990), "determinacy": (1500, 1150)}


@pytest.mark.parametrize("command", ["milnor", "determinacy"])
def test_non_isolated_four_variables_is_fast(command, capsys, echelon_work):
    work = echelon_work()
    start = time.perf_counter()
    code = main([command, "--field", "q", "--vars", "x,y,z,w", "--max-degree", "10",
                 "(x+y+z+w)^2*(x-y+2*z)^2 + x^3*z^3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "verified: true" in out
    assert elapsed < 2.0, elapsed
    offered, steps = NON_ISOLATED_WORK[command]
    counts = work()
    assert counts["offered"] <= offered and counts["steps"] <= steps, counts


def test_search_size_limit():
    f = poly("x^2 + y^2", ["x", "y"])
    for search in (milnor_number, determinacy_certificate):
        with pytest.raises(ValueError, match="max degree"):
            search(f, max_degree=-1)
    big = parse_jet("x1^2", Q, [f"x{i}" for i in range(8)], POLY)
    assert count_monomials_upto(8, 12) > MAX_MONOMIALS
    for search in (milnor_number, determinacy_certificate):
        with pytest.raises(ValueError, match="exceed the limit"):
            search(big, max_degree=12)
    # the largest benchmark search, 4 variables to degree 16, is admitted
    assert count_monomials_upto(4, 16) == 4845 <= MAX_MONOMIALS
    # README's table: the largest admitted max degree in 2 to 7 variables
    for nvars, degree in zip(range(2, 8), (198, 47, 23, 15, 12, 10)):
        assert count_monomials_upto(nvars, degree) <= MAX_MONOMIALS, nvars
        assert count_monomials_upto(nvars, degree + 1) > MAX_MONOMIALS, nvars


@pytest.mark.parametrize("argv", [
    ["milnor", "--vars", ",".join(f"x{i}" for i in range(8)), "x1^2 + x2^3"],
    ["determinacy", "--vars", "x,y", "--max-degree", str(10 ** 9), "x^2 + y^3"],
    ["milnor", "--vars", "x,y", "--max-degree", "-1", "x^2 + y^3"],
])
def test_search_size_limit_exits_2_at_once(argv, capsys, echelon_work):
    work = echelon_work()
    start = time.perf_counter()
    code = main([argv[0], "--field", "q"] + argv[1:])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 1.0, elapsed
    # refused before any row is offered
    assert work() == {"offered": 0, "steps": 0}
