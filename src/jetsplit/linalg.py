"""Small exact dense linear algebra over a coefficient field."""

from __future__ import annotations

from .field import Field


def identity(field: Field, n: int):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def copy_matrix(m):
    return [row[:] for row in m]


def rref(field: Field, m):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = copy_matrix(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != field.zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field: Field, m) -> int:
    if not m:
        return 0
    return len(rref(field, m)[1])


def invert(field: Field, m):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    aug = [m[i][:] + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]

