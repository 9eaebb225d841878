"""Acceptance suite: one test per criterion, exact tolerances, PASS line each.

Everything here is exact identity or property testing; there are no numeric
tolerances anywhere.
"""

import itertools
import json
import random
import time

from gen import (FIELDS, gram_jet, rand_automorphism, rand_implicit_system, rand_jet,
                 rand_m2_jet, transition_change, transport_roundtrip)
from jetsplit import (BinaryField, CoordinateChange, ImplicitSystem,
                      PrimeField, RationalField,
                      arf_normal_form, arf_reduce_solvable, ift_solve,
                      milnor_number, parse_jet, serialize_jet, split,
                      transport, verify_split)
import linalg_oracle
from jetsplit.cli import main
from degree_oracle import ift_solve_by_degree

Q = RationalField()
F7 = PrimeField(7)
F2 = PrimeField(2)
F4 = BinaryField(2)
ACCEPTANCE_FIELDS = [Q, F7, F2, F4]


def test_criterion_01_splitting_soundness_randomized():
    rng = random.Random(101)
    start = time.time()
    for field in ACCEPTANCE_FIELDS:
        for _ in range(200):
            n = rng.randint(1, 4)
            N = rng.randint(2, 8)
            f = rand_m2_jet(field, n, N, rng, terms=rng.randint(0, 8))
            result = split(f, N)
            assert verify_split(f, result).is_zero()
    elapsed = time.time() - start
    assert elapsed < 30.0, f"soundness sweep took {elapsed:.1f}s"
    print(f"\nPASS: criterion 1 - 800 random splits verified exactly "
          f"({elapsed:.1f}s)")


def test_criterion_02_worked_example_away_from_char2():
    names = ["x", "y"]
    f = parse_jet("x^2 + x*y^2", Q, names, 4)
    result = split(f, 4)
    assert result.residual == parse_jet("-1/4*y^4", Q, names, 4)
    assert result.change.components[0] == parse_jet("x - 1/2*y^2", Q, names, 4)
    assert result.change.components[1] == parse_jet("y", Q, names, 4)
    print("\nPASS: criterion 2 - x^2 + x*y^2 over Q splits with residual "
          "-1/4*y^4 and change x -> x - 1/2*y^2")


def test_criterion_03_worked_example_char2():
    names = ["x1", "x2", "x3"]
    f = parse_jet("x1*x2 + x1*x3^2", F2, names, 4)
    result = split(f, 4)
    assert result.rank == 2
    assert result.residual.is_zero()
    assert verify_split(f, result).is_zero()
    print("\nPASS: criterion 3 - x1*x2 + x1*x3^2 over GF(2) splits with "
          "rank 2 and zero residual")


def test_criterion_04_hessian_rank_invariance():
    rng = random.Random(104)
    for field in ACCEPTANCE_FIELDS:
        for _ in range(100):
            n = rng.randint(2, 4)
            f = rand_m2_jet(field, n, 4, rng)
            phi = rand_automorphism(field, n, 4, rng)
            r1 = f.hessian_rank()
            assert phi.apply(f).hessian_rank() == r1
            if field.char == 2:
                assert r1 % 2 == 0
    print("\nPASS: criterion 4 - hessian rank invariant under 100 random "
          "automorphisms per field, even in characteristic 2")


def _gf2_form_key(q):
    gram = q.gram()
    return tuple(gram.get((i, j), 0) for i in range(3) for j in range(i, 3))


def _form_from_key(key):
    positions = [(i, j) for i in range(3) for j in range(i, 3)]
    return gram_jet(F2, 3, dict(zip(positions, key)))


def test_criterion_05_arf_oracle_equivalence_exhaustive():
    start = time.time()
    matrices = []
    for bits in itertools.product((0, 1), repeat=9):
        m = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
        if linalg_oracle.rank(F2, m) == 3:
            matrices.append(m)
    assert len(matrices) == 168
    changes = [CoordinateChange.from_linear(F2, m, 2) for m in matrices]
    keys = [tuple(key) for key in itertools.product((0, 1), repeat=6)]
    orbit_id = {}
    for key in keys:
        if key in orbit_id:
            continue
        stack = [key]
        orbit_id[key] = key
        while stack:
            current = stack.pop()
            jet = _form_from_key(current)
            for change in changes:
                image = _gf2_form_key(change.apply(jet))
                if image not in orbit_id:
                    orbit_id[image] = key
                    stack.append(image)
    nf_orbit = {}
    for key in keys:
        nf = arf_normal_form(_form_from_key(key))
        nf_key = _gf2_form_key(nf.normal_jet(2))
        nf_orbit[key] = orbit_id[nf_key]
        # the transition is invertible, so the normal form stays in the orbit
        assert orbit_id[nf_key] == orbit_id[key]
    for k1 in keys:
        for k2 in keys:
            brute = orbit_id[k1] == orbit_id[k2]
            toolkit = nf_orbit[k1] == nf_orbit[k2]
            assert brute == toolkit
    classes = len(set(orbit_id.values()))
    elapsed = time.time() - start
    assert elapsed < 10.0, f"exhaustive Arf oracle took {elapsed:.1f}s"
    print(f"\nPASS: criterion 5 - brute-force GL(3,2) classification "
          f"({classes} classes) agrees with normal-form reachability "
          f"({elapsed:.1f}s)")


def test_criterion_06_solvable_reduction():
    q4 = parse_jet("x1^2 + x1*x2 + x2^2", F4, ["x1", "x2"], 2)
    red = arf_reduce_solvable(arf_normal_form(q4))
    assert red is not None
    assert red.variant == "char2_solvable_b"
    assert red.half_rank == 1
    assert transition_change(red).apply(q4) == parse_jet("x1*x2", F4, ["x1", "x2"], 2)
    q2 = parse_jet("x1^2 + x1*x2 + x2^2", F2, ["x1", "x2"], 2)
    assert arf_reduce_solvable(arf_normal_form(q2)) is None
    print("\nPASS: criterion 6 - x1^2 + x1*x2 + x2^2 reduces to x1*x2 over "
          "GF(4) and reports the reduction absent over GF(2)")


def test_criterion_07_implicit_function_theorem():
    eq = parse_jet("y - x - y^2", Q, ["x", "y"], 5)
    ys = ift_solve(ImplicitSystem([eq], [1]), 5)
    assert ys[0] == parse_jet("x + x^2 + 2*x^3 + 5*x^4 + 14*x^5", Q, ["x"], 5)
    rng = random.Random(107)
    checked = 0
    while checked < 100:
        field = ACCEPTANCE_FIELDS[checked % 4]
        nx = rng.randint(1, 3)
        ny = rng.randint(1, 3)
        prec = rng.randint(2, 6)
        system = rand_implicit_system(field, nx, ny, prec, rng)
        solution = ift_solve(system, prec)
        assert all(r.is_zero() for r in system.residuals(solution, prec))
        assert solution == ift_solve_by_degree(system, prec)
        checked += 1
    print("\nPASS: criterion 7 - Newton implicit solver returns the Catalan "
          "coefficients and matches the degree-by-degree oracle on 100 random systems")


def test_criterion_08_transport_roundtrips():
    rng = random.Random(108)
    for label, fields in [("char != 2", (Q, F7)), ("char 2", (F2, F4))]:
        for trial in range(100):
            field = fields[trial % 2]
            n = rng.randint(2, 4)
            prec = rng.randint(4, 6)
            problem = transport_roundtrip(field, n, prec, rng)
            change = transport(problem)
            assert change.apply(problem.g0) == problem.g1
            assert change.is_automorphism()
    print("\nPASS: criterion 8 - transported equivalences satisfy "
          "g0(phi') = g1 exactly on 100 instances per characteristic")


def test_criterion_09_milnor_and_determinacy():
    f = parse_jet("x^2 + y^2", Q, ["x", "y"], 10 ** 9)
    report = milnor_number(f)
    assert report.mu == 1
    assert report.determinacy_bound == 2
    for k in range(1, 7):
        assert milnor_number(parse_jet(f"x^{k + 1}", Q, ["x"], 10 ** 9)).mu == k
    assert milnor_number(parse_jet("x^3 + y^3", Q, ["x", "y"], 10 ** 9)).mu == 4
    rng = random.Random(109)
    for _ in range(20):
        p = rand_jet(Q, 2, 10 ** 9, rng, min_degree=3, max_degree=6,
                     terms=rng.randint(1, 4))
        assert milnor_number(f + p).mu == 1
    print("\nPASS: criterion 9 - Milnor numbers 1, k, 4 with bound 2, and "
          "20 perturbations above the bound keep mu = 1")


def test_criterion_10_parser_roundtrip_and_cli_determinism(capsys):
    rng = random.Random(110)
    for trial in range(500):
        field = ACCEPTANCE_FIELDS[trial % 4]
        n = rng.randint(1, 4)
        prec = rng.randint(0, 8)
        f = rand_jet(field, n, prec, rng, terms=rng.randint(0, 8))
        names = [f"x{i + 1}" for i in range(n)]
        assert parse_jet(serialize_jet(f, names), field, names, 99) == f
    argv = ["split", "--field", "q", "--vars", "x,y", "--precision", "6",
            "--format", "json", "x^2 + x*y^2 + y^3"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
    print("\nPASS: criterion 10 - 500 parse/serialize round-trips and "
          "byte-identical CLI reruns")
