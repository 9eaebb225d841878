"""Newton iteration for implicit systems: a test oracle for ``ift_solve``.

It reaches the same unique solution by jet-matrix inverse updates rather than
degree-by-degree linear solves, so the two must produce identical jets.
"""

from jetsplit import ImplicitSystem, Jet, PrecisionError, VerificationError


def ift_solve_newton(sys: ImplicitSystem, N: int):
    """Newton cross-check: jet-matrix inverse updates until the residual dies.

    Exactness at exit is forced by the zero-residual test plus uniqueness of
    the solution; the iteration itself only controls how fast it gets there.
    """
    field = sys.field
    if N < 1:
        raise PrecisionError("implicit solving needs precision >= 1")
    for eq in sys.equations:
        if eq.prec < N:
            raise PrecisionError("equation precision below the requested precision")
    nx = len(sys.x_indices)
    ny = len(sys.y_indices)
    partials = [[eq.truncate(N).partial(v).with_precision(N) for v in sys.y_indices]
                for eq in sys.equations]
    u = [[Jet.constant(field, nx, N, sys.j0_inv[i][j]) for j in range(ny)]
         for i in range(ny)]
    two = field.from_int(2)
    ys = [Jet.zero(field, nx, N) for _ in range(ny)]
    steps = 0
    while True:
        res = sys.residuals(ys, N)
        if all(r.is_zero() for r in res):
            break
        steps += 1
        if steps > N + 3:
            raise VerificationError("ift newton", "no convergence after N + 3 steps")
        ys = [y - _row_dot(u[i], res) for i, y in enumerate(ys)]
        parts = sys._parts(ys, N)
        jmat = [[p.substitute(parts) for p in row] for row in partials]
        # u <- u (2I - J u), the Newton update of an approximate inverse
        ju = _matmul(jmat, u)
        for i in range(ny):
            for j in range(ny):
                diag = Jet.constant(field, nx, N, two) if i == j else Jet.zero(field, nx, N)
                ju[i][j] = diag - ju[i][j]
        u = _matmul(u, ju)
    return ys


def _row_dot(row, vec):
    acc = None
    for a, b in zip(row, vec):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def _matmul(a, b):
    n = len(a)
    k = len(b)
    cols = len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = None
            for t in range(k):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out
