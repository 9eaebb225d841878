"""Formal implicit function theorem, solved by Newton iteration with doubling precision.

Given equations F_1..F_m in variables split into parameters x and unknowns y,
with F(0,0) = 0 and the y-Jacobian J0 at the origin invertible, there is a
unique tuple y(x) of series with zero constant term and F(x, y(x)) = 0.

``ift_solve`` finds it by Newton's method on power series (Lipson,
"Newton's method: a great algebraic algorithm", SYMSAC 1976; Brent & Kung,
"Fast algorithms for manipulating formal power series", J. ACM 1978).
Over GF(p) its dense products in one or two parameters take ``jet``'s Kronecker route.

- **Step.** Let y be exact through degree k, so e = y - y(x) has order at
  least k + 1, and let J(y) be the y-Jacobian of F, made of the formal
  partials ``Jet.partial``.  Taylor's formula gives F(x, y) = J(y) e + (terms
  of order >= 2k + 2), so y - u F(x, y) has error (I - u J(y)) e plus terms
  of order >= 2k + 2.  It is exact through degree p <= 2k + 1 as soon as
  I - u J(y) has order >= p - k, that is, as soon as u inverts J(y) through
  degree p - k - 1 <= k.  Each step substitutes every equation once, at
  precision p.
- **Schedule.** The precisions are N, floor(N/2), ..., 1, run upward from
  y = 0: each is at most twice the one before plus one.  That is about
  log2 N steps, against the N + 1 substitution rounds of solving one degree
  at a time.
- **Inverse.** u starts as J0^-1, which inverts J(y) through degree 0.  A
  step that needs more evaluates J(y) through degree p - k - 1 only, from
  partials taken once through degree N - floor(N/2) - 1, the largest any
  step needs, and applies u <- u(2I - J u) until u is exact that far.  Each
  update squares the error, I - J u(2I - J u) = (I - J u)^2, so it doubles
  the order of I - J u.  The step then changes y, and J(y) with it, only
  from degree k + 1 on, so u stays exact through degree p - k - 1 <= k.
- **Any characteristic.** The step uses only formal partials and J0^-1,
  and the squaring identity is one of polynomials, true over every
  commutative ring.  Where 2 = 0 (GF(2), GF(2^k)) the update is u <- -u J u
  and still squares the error.

The iteration runs at one packing for precision N (``jet._Packing``): y,
u, J(y) and the residuals stay packed term lists, cut at each step's
precision, until y is unpacked at the end; the equations and their
partials are packed once, in all the variables, and cut per step by
bisection.  The final check, a full substitution of every equation at N,
does not rest on this argument: a solution that leaves F(x, y) nonzero
raises ``VerificationError``.
"""

from __future__ import annotations

from bisect import bisect_left

from . import linalg
from .jet import (Jet, PrecisionError, VerificationError, _Packing, _product_into, _route,
                  _substitute_batch, _substitute_packed)


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
        column = {v: t for t, v in enumerate(y_indices)}  # J0 = dF/dy at 0, sparse rows
        self.j0 = [{column[v]: c for v, c in eq.linear().items() if v in column}
                   for eq in equations]
        try:
            self.j0_inv = linalg.invert(self.field, self.j0)
        except ValueError:
            raise ValueError("singular Jacobian block at the origin") from None

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
        return _substitute_batch([eq.truncate(prec) for eq in self.equations],
                                 self._parts(ys, prec))


def ift_solve(sys: ImplicitSystem, N: int):
    """The unique zero-constant solution y(x), exact at precision N."""
    field = sys.field
    if N < 1:
        raise PrecisionError("implicit solving needs precision >= 1")
    for eq in sys.equations:
        if eq.prec < N:
            raise PrecisionError("equation precision below the requested precision")
    packing, source = _Packing(N, len(sys.x_indices)), _Packing(N, sys.nvars)
    shift = packing.shift
    route = _route(field)
    xs = {v: [(w, field.one)] for v, w in zip(sys.x_indices, packing.weights)}

    def substitute(sources, ys, top):  # the packed sources at x and the packed ys, cut at top
        cut = (top + 1) << source.shift
        parts = {**xs, **{v: _cut(y, (top + 1) << shift) for v, y in zip(sys.y_indices, ys)}}
        return [sorted(r.items()) for r in _substitute_packed(
            [(_cut(s, cut), top) for s in sources], source,
            [parts[v] for v in range(sys.nvars)], packing, route)]

    schedule = [N]
    while schedule[-1] > 1:
        schedule.append(schedule[-1] // 2)
    # no step needs J(y) beyond degree N - floor(N/2) - 1
    partials = [source.terms(eq.truncate(N - N // 2).partial(v).coeffs)
                for eq in sys.equations for v in sys.y_indices]
    equations = [source.terms(eq.coeffs) for eq in sys.equations]
    u = [[[(0, row[t])] if t in row else [] for t in range(len(sys.j0))] for row in sys.j0_inv]
    exact = 1  # I - J u has order >= exact
    ys = [[] for _ in sys.y_indices]
    k = 0
    for p in reversed(schedule):
        if exact < p - k:
            flat = substitute(partials, ys, p - k - 1)
            jac = [flat[i:i + len(ys)] for i in range(0, len(flat), len(ys))]
            while exact < p - k:
                exact = min(2 * exact, p - k)
                u = _inverse_update(u, jac, exact << shift, packing, route, field)
        res = substitute(equations, ys, p)
        ys = [_difference(field, y, c)
              for y, c in zip(ys, _correction(u, res, (p + 1) << shift, packing, route))]
        k = p
    # every key is below (N + 1) << shift, and _difference drops zeros
    ys = [Jet._valid(field, packing.m, N, packing.unpack(dict(y))) for y in ys]
    if not all(r.is_zero() for r in sys.residuals(ys, N)):
        raise VerificationError("ift", "the solution leaves a nonzero residual")
    return ys


def _inverse_update(u, jac, limit, packing, route, field):
    """u(2I - J u) below limit, J cut there: the Newton update of an approximate inverse."""
    two = [(0, field.from_int(2))]
    ju = _product([[_cut(e, limit) for e in row] for row in jac], u, limit, packing, route)
    return _product(u, [[_difference(field, two if i == j else [], e) for j, e in enumerate(row)]
                        for i, row in enumerate(ju)], limit, packing, route)


def _cut(terms, limit):
    """The terms of a sorted packed term list whose keys are below limit."""
    return terms[:bisect_left(terms, (limit,))]


def _correction(u, res, limit, packing, route):
    """The Newton correction u F(x, y) below limit, subtracted from y."""
    return [entry for entry, in _product(u, [[r] for r in res], limit, packing, route)]


def _difference(field, a, b):
    """a - b for packed term lists of field elements: sorted by key, no zeros."""
    out = dict(a)
    for key, c in b:
        out[key] = field.sub(out.get(key, field.zero), c)
    return sorted(t for t in out.items() if t[1] != field.zero)


def _product(a, b, limit, packing, route):
    """The product of two matrices of packed term lists of field elements,
    without keys at or above limit.

    Each entry's sum of products accumulates in one packed dict through the
    product kernel, on the field's native values (``jet._route``): GF(p)
    residues are reduced once per entry coefficient.
    """
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = {}
            for t, terms in enumerate(row):
                _product_into(acc, terms, b[t][j], limit, route.add, route.mul, packing)
            out_row.append(route.terms(acc))
        out.append(out_row)
    return out
