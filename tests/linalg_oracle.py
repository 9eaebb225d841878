"""Dense Gauss-Jordan elimination through the field's own methods: a test
oracle for ``jetsplit.linalg``.

A matrix is a list of dense rows of field elements.  Each pivot row is
scaled by the pivot's inverse and cleared from every other row with
``field.sub`` and ``field.mul``, so it shares no code with the sparse,
fraction-free elimination on native values it checks.  Rank and inverse are
unique, so the two must agree exactly.
"""


def rref(field, m):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [row[:] for row in m]
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


def rank(field, m) -> int:
    return len(rref(field, m)[1]) if m else 0


def invert(field, m):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    aug = [m[i][:] + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def sparse(field, m):
    """The dense matrix as ``linalg``'s sparse rows {column: value}, zeros dropped."""
    return [{j: c for j, c in enumerate(row) if c != field.zero} for row in m]


def dense(field, rows, ncols):
    """Sparse rows {column: value} as a dense matrix of ncols columns."""
    return [[row.get(j, field.zero) for j in range(ncols)] for row in rows]
