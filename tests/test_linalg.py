"""``linalg``'s sparse rank and inverse against dense Gauss-Jordan elimination
(``linalg_oracle``), which shares none of its code."""

import copy
import random
from fractions import Fraction

import pytest

from gen import random_element
from jetsplit import RationalField, linalg, parse_field_spec
from linalg_oracle import dense, invert as dense_invert, rank as dense_rank, sparse

SPECS = ["q", "fp:7", "fp:2", "f2k:4"]


def rand_matrix(field, rows, cols, rng):
    """A dense matrix whose entries are nonzero with a random density."""
    density = rng.choice([0.2, 0.5, 1.0])
    return [[random_element(field, rng, nonzero=True) if rng.random() < density else field.zero
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("spec", SPECS)
def test_rank_matches_dense_elimination(spec):
    field = parse_field_spec(spec)
    rng = random.Random(3601)
    deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        m = rand_matrix(field, rows, cols, rng)
        if rng.random() < 0.3 and rows > 1:  # a repeated row, scaled
            c = random_element(field, rng, nonzero=True)
            m[-1] = [field.mul(c, x) for x in m[0]]
        rows_in = sparse(field, m)
        kept = copy.deepcopy(rows_in)
        r = linalg.rank(field, rows_in)
        assert r == dense_rank(field, m)
        assert rows_in == kept  # the input rows are not consumed
        deficient += r < min(rows, cols)
    assert deficient > 30
    one = field.one
    assert linalg.rank(field, []) == 0
    assert linalg.rank(field, [{}, {}, {}]) == 0
    assert linalg.rank(field, [{5: one}]) == 1
    assert linalg.rank(field, [{0: one, 4: one}, {}, {4: one}, {0: one}]) == 2


@pytest.mark.parametrize("spec", SPECS)
def test_inverse_matches_dense_elimination(spec):
    field = parse_field_spec(spec)
    rng = random.Random(3602)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        m = rand_matrix(field, n, n, rng)
        rows = sparse(field, m)
        try:
            want = dense_invert(field, m)
        except ValueError:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                linalg.invert(field, rows)
            singular += 1
            continue
        got = linalg.invert(field, rows)
        assert dense(field, got, n) == want
        assert got == sparse(field, want)  # field elements, without zeros
        if isinstance(field, RationalField):
            assert all(type(c) is Fraction for row in got for c in row.values())
        assert rows == sparse(field, m)
    assert 30 < singular < 270


@pytest.mark.parametrize("spec", SPECS)
def test_inverse_edge_cases(spec):
    field = parse_field_spec(spec)
    rng = random.Random(3603)
    one, zero = field.one, field.zero
    assert linalg.invert(field, []) == []
    for _ in range(20):
        c = random_element(field, rng, nonzero=True)
        assert linalg.invert(field, [{0: c}]) == [{0: field.inv(c)}]
    with pytest.raises(ValueError, match="^matrix is singular$"):
        linalg.invert(field, [{}])
    with pytest.raises(ValueError, match="^matrix is singular$"):  # an all-zero row
        linalg.invert(field, [{0: one, 1: one}, {}])
    # rectangular: a column outside 0..n-1 would meet the identity block
    with pytest.raises(ValueError, match="column outside 0..1"):
        linalg.invert(field, [{0: one, 2: one}, {1: one}])
    with pytest.raises(ValueError, match="column outside 0..0"):
        linalg.invert(field, [{-1: one}])
    assert dense(field, linalg.invert(field, [{1: one}, {0: one}]), 2) == [[zero, one], [one, zero]]


def test_rational_inverse_keeps_large_entries_exact():
    # the fraction-free route scales rows to integers: the Fractions must not move
    field = RationalField()
    rng = random.Random(3604)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = [[Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
              for _ in range(n)] for _ in range(n)]
        if dense_rank(field, m) == n:
            assert dense(field, linalg.invert(field, sparse(field, m)), n) == \
                dense_invert(field, m)
