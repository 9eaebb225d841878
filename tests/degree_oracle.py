"""Degree-by-degree solving of implicit systems: a test oracle for ``ift_solve``.

The degree-d part of y is one linear solve against the constant Jacobian J0,
using the residual that the lower degrees leave, so the system is substituted
at every precision 1..N.  It reaches the same unique solution as the Newton
iteration by another route, so the two must produce identical jets.
"""

from jetsplit import ImplicitSystem, Jet, PrecisionError, VerificationError


def matmul(field, a, b):
    """The matrix product a b over field."""
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[field.zero] * cols for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait == field.zero:
                continue
            row = b[t]
            for j in range(cols):
                out[i][j] = field.add(out[i][j], field.mul(ait, row[j]))
    return out


def ift_solve_by_degree(sys: ImplicitSystem, N: int):
    """The unique zero-constant solution y(x), one degree at a time."""
    field = sys.field
    if N < 1:
        raise PrecisionError("implicit solving needs precision >= 1")
    for eq in sys.equations:
        if eq.prec < N:
            raise PrecisionError("equation precision below the requested precision")
    nx = len(sys.x_indices)
    ny = len(sys.y_indices)
    sol = [dict() for _ in range(ny)]
    for d in range(1, N + 1):
        ys = [Jet(field, nx, d, s) for s in sol]
        res = sys.residuals(ys, d)
        by_monomial = {}
        for i, r in enumerate(res):
            for alpha, c in r.coeffs.items():
                if sum(alpha) == d:
                    by_monomial.setdefault(alpha, [field.zero] * ny)[i] = c
        for alpha, vec in by_monomial.items():
            for j, (corr,) in enumerate(matmul(field, sys.j0_inv, [[c] for c in vec])):
                if corr != field.zero:
                    sol[j][alpha] = field.neg(corr)
    ys = [Jet(field, nx, N, s) for s in sol]
    if not all(r.is_zero() for r in sys.residuals(ys, N)):
        raise VerificationError("ift by degree", "the solution leaves a nonzero residual")
    return ys
