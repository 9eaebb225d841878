"""Formal implicit function theorem, solved degree by degree.

Given equations F_1..F_m in variables split into parameters x and unknowns y,
with F(0,0) = 0 and the y-Jacobian at the origin invertible, there is a
unique tuple y(x) of series with zero constant term and F(x, y(x)) = 0.  The
degree-d part of y is one linear solve against the constant Jacobian, using
the residual left by the lower degrees.
"""

from __future__ import annotations

from . import linalg
from .jet import Jet, PrecisionError, VerificationError


class ImplicitSystem:
    """Equations plus the parameter/unknown split of their variables."""

    def __init__(self, equations, y_indices):
        equations = list(equations)
        y_indices = tuple(y_indices)
        if len(equations) != len(y_indices):
            raise ValueError("need exactly one equation per unknown")
        if len(set(y_indices)) != len(y_indices):
            raise ValueError("repeated unknown index")
        if not equations:
            raise ValueError("empty system: supply at least one equation")
        field = equations[0].field
        nvars = equations[0].nvars
        for eq in equations:
            if eq.field != field or eq.nvars != nvars:
                raise ValueError("equations must share one field and variable set")
            if eq.constant_term() != field.zero:
                raise ValueError("equation has a nonzero constant term")
        for i in y_indices:
            if not 0 <= i < nvars:
                raise ValueError(f"unknown index {i} out of range")
        self.equations = equations
        self.y_indices = y_indices
        self.field = field
        self.nvars = nvars
        self.x_indices = tuple(i for i in range(nvars) if i not in set(y_indices))
        self.j0 = self._jacobian_block()
        try:
            self.j0_inv = linalg.invert(self.field, self.j0)
        except ValueError:
            raise ValueError("singular Jacobian block at the origin") from None

    def _jacobian_block(self):
        field = self.field
        m = len(self.equations)
        j0 = [[field.zero] * m for _ in range(m)]
        for i, eq in enumerate(self.equations):
            for col, v in enumerate(self.y_indices):
                alpha = tuple(1 if t == v else 0 for t in range(self.nvars))
                j0[i][col] = eq.coeffs.get(alpha, field.zero)
        return j0

    def _parts(self, ys, prec):
        """Substitution tuple sending x-variables to coordinates, unknowns to ys."""
        nx = len(self.x_indices)
        xpos = {v: i for i, v in enumerate(self.x_indices)}
        ypos = {v: i for i, v in enumerate(self.y_indices)}
        parts = []
        for v in range(self.nvars):
            if v in ypos:
                parts.append(ys[ypos[v]] if ys[ypos[v]].prec == prec else ys[ypos[v]].truncate(prec))
            else:
                parts.append(Jet.variable(self.field, nx, xpos[v], prec))
        return parts

    def residuals(self, ys, prec):
        """F(x, y(x)) for a candidate solution, at the given precision."""
        parts = self._parts(ys, prec)
        return [eq.truncate(prec).substitute(parts) for eq in self.equations]


def ift_solve(sys: ImplicitSystem, N: int):
    """The unique zero-constant solution y(x), exact at precision N."""
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
            corr = linalg.matvec(field, sys.j0_inv, vec)
            for j in range(ny):
                if corr[j] != field.zero:
                    sol[j][alpha] = field.neg(corr[j])
    ys = [Jet(field, nx, N, s) for s in sol]
    if not all(r.is_zero() for r in sys.residuals(ys, N)):
        raise VerificationError("ift", "the solution leaves a nonzero residual")
    return ys
