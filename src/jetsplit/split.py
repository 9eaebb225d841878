"""The splitting algorithm.

A series f in m^2 is transformed, by an explicit automorphism computed to a
requested jet precision N, into (nondegenerate quadratic normal form in head
variables) + (residual series in the tail variables).  ``split`` classifies
the 2-jet and moves it to its normal form by a linear change; the iteration
then reads the head back from the moved series' 2-jet with
``QuadNormalForm.read_split_shape``.  Away from characteristic 2 the head is
diagonal and the iteration substitutes x_i -> x_i - g_i/(2 a_i); in
characteristic 2 the head consists of Arf pairs with middle coefficient 1
and the iteration substitutes, per pair, x_i -> x_i + g_{i+1} and
x_{i+1} -> x_{i+1} + g_i.  Each pass strictly raises the order of the mixed
part, so the loop ends once it vanishes at precision N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jet import (ABOVE_PRECISION, CoordinateChange, Jet, PrecisionError,
                  VerificationError, _substitute_batch)
from .quadform import (QuadNormalForm, QuadraticForm, SplitShapeError, arf_normal_form,
                       diagonalize)


@dataclass
class SplitResult:
    """Outcome of a split, with its check.

    ``residual`` lives in the ambient variables but involves only tail
    variables; in characteristic 2 it includes the diagonal square tail of
    the 2-jet.  ``change`` satisfies f(change) = head quadratic + residual:
    ``split`` checks that with ``verify_split`` before it returns.
    """

    quad: QuadNormalForm
    rank: int
    residual: Jet
    change: CoordinateChange
    precision: int

    @property
    def field(self):
        return self.residual.field

    @property
    def nvars(self):
        return self.residual.nvars

    def head_jet(self) -> Jet:
        return self.quad.head_jet(self.precision)

    def to_json(self, varnames=None) -> dict:
        from .expr import serialize_jet

        return {
            "rank": self.rank,
            "field": self.field.spec(),
            "precision": self.precision,
            "quad": self.quad.to_json(),
            "residual": serialize_jet(self.residual, varnames),
            "change": [serialize_jet(c, varnames) for c in self.change.components],
        }


def project_to_tail(f: Jet, rank: int) -> Jet:
    """Re-index a jet supported on x_{rank+1..n} to n - rank variables."""
    for alpha in f.coeffs:
        if any(alpha[:rank]):
            raise SplitShapeError("jet involves head variables")
    return Jet(f.field, f.nvars - rank, f.prec,
               {alpha[rank:]: c for alpha, c in f.coeffs.items()})


def embed_from_tail(g: Jet, rank: int) -> Jet:
    """Inverse of project_to_tail: pad with rank zero head exponents."""
    return Jet(g.field, g.nvars + rank, g.prec,
               {(0,) * rank + alpha: c for alpha, c in g.coeffs.items()})


def _cofactors(f: Jet, head_quad: Jet, head: int):
    """Per-head-variable cofactors g_i of f - head_quad.

    Every monomial containing a head variable is assigned to the cofactor of
    its smallest head index (divided by that variable); monomials in tail
    variables alone are left for the residual.
    """
    h = f - head_quad
    gs = [dict() for _ in range(head)]
    for alpha, c in h.coeffs.items():
        i = next((j for j in range(head) if alpha[j]), None)
        if i is None:
            continue
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        gs[i][beta] = c
    out = [Jet(f.field, f.nvars, f.prec, g) for g in gs]
    for g in out:
        if not g.is_zero() and g.order() < 2:
            raise SplitShapeError("2-jet does not match the declared quadratic head")
    return out


def _mixed_order(gs):
    orders = [g.order() + 1 for g in gs if not g.is_zero()]
    return min(orders) if orders else ABOVE_PRECISION


def _iterate(f: Jet, head_quad: Jet, head: int, make_components, N: int):
    """Shared splitting loop; make_components turns cofactors into one pass."""
    total = CoordinateChange.identity(f.field, f.nvars, N)
    gs = _cofactors(f, head_quad, head)
    mixed_order = _mixed_order(gs)
    passes = 0
    while mixed_order != ABOVE_PRECISION:
        passes += 1
        if passes > N + 1:
            raise VerificationError("split iteration", "no progress after N + 1 passes")
        change = CoordinateChange(make_components(gs))
        # f(change) and total.compose(change) share their parts: one batch
        f, *components = _substitute_batch([f, *total.components], change.components)
        total = CoordinateChange(components)
        gs = _cofactors(f, head_quad, head)
        new_order = _mixed_order(gs)
        if new_order <= mixed_order:
            raise VerificationError(
                "split iteration", f"mixed part order did not increase past {mixed_order}")
        mixed_order = new_order
    residual = f - head_quad
    return total, residual


def iterate_diagonal(f: Jet, N: int):
    """Split a series whose 2-jet is already diagonal with nonzero entries.

    Returns (change, residual); characteristic != 2.
    """
    field = f.field
    if field.char == 2:
        raise SplitShapeError("diagonal splitting iteration needs characteristic != 2")
    if f.prec < N:
        raise PrecisionError(f"requested precision {N} exceeds the input's {f.prec}")
    f = f.truncate(N)
    quad = QuadNormalForm.read_split_shape(f)
    head = quad.rank
    two = field.from_int(2)

    def components(gs):
        out = []
        for i in range(f.nvars):
            x = Jet.variable(field, f.nvars, i, N)
            if i < head and not gs[i].is_zero():
                scale = field.neg(field.inv(field.mul(two, quad.diagonal[i])))
                out.append(x + gs[i].scale(scale))  # x_i -> x_i - g_i/(2 a_i)
            else:
                out.append(x)
        return out

    return _iterate(f, quad.head_jet(N), head, components, N)


def iterate_arf(f: Jet, N: int):
    """Split a series whose 2-jet is an Arf normal form with unit middle terms.

    Returns (change, residual); characteristic 2.  The residual keeps the
    diagonal square tail of the 2-jet.
    """
    field = f.field
    if field.char != 2:
        raise SplitShapeError("Arf splitting iteration needs characteristic 2")
    if f.prec < N:
        raise PrecisionError(f"requested precision {N} exceeds the input's {f.prec}")
    f = f.truncate(N)
    quad = QuadNormalForm.read_split_shape(f)
    n = f.nvars

    def components(gs):
        out = [Jet.variable(field, n, i, N) for i in range(n)]
        for t in range(quad.half_rank):
            e = 2 * t
            if not gs[e + 1].is_zero():
                out[e] = out[e] + gs[e + 1]  # x_i -> x_i + g_{i+1}
            if not gs[e].is_zero():
                out[e + 1] = out[e + 1] + gs[e]  # x_{i+1} -> x_{i+1} + g_i
        return out

    return _iterate(f, quad.head_jet(N), quad.rank, components, N)


def split(f: Jet, N: int) -> SplitResult:
    """Full splitting: classify the 2-jet, iterate, and verify by substitution."""
    if N < 2:
        raise PrecisionError("splitting needs precision >= 2")
    if N > f.prec:
        raise PrecisionError(f"requested precision {N} exceeds the input's {f.prec}")
    f = f.truncate(N)
    if any(sum(alpha) < 2 for alpha in f.coeffs):
        raise SplitShapeError("series must have no terms of degree < 2")
    field = f.field
    q = QuadraticForm.from_jet(f)
    nf = arf_normal_form(q) if field.char == 2 else diagonalize(q)
    rank = nf.rank
    linear = nf.change(N)
    f1 = linear.apply(f)
    if field.char == 2:
        change_it, residual = iterate_arf(f1, N)
    else:
        change_it, residual = iterate_diagonal(f1, N)
    total = linear.compose(change_it)
    result = SplitResult(nf, rank, residual, total, N)
    if not verify_split(f, result).is_zero():
        raise VerificationError("split", "f(change) differs from head + residual")
    return result


def verify_split(f: Jet, result: SplitResult) -> Jet:
    """Recompute f(change) - (head quadratic + residual); zero on contract.

    Raises VerificationError when the result is not a split whatever the
    difference: its rank is not the rank of its quadratic head, the head is
    degenerate or of another rank than the Hessian of f, the change is not
    an automorphism, or the residual involves a head variable.
    """
    quad = result.quad
    rank = quad.rank
    if result.rank != rank:
        raise VerificationError(
            "split", f"rank {result.rank} is not the quadratic head's rank {rank}")
    if f.prec > result.precision:
        f = f.truncate(result.precision)
    head = result.head_jet()
    if head.hessian_rank() != rank:
        raise VerificationError("split", "the quadratic head is degenerate")
    f_rank = f.hessian_rank()
    if f_rank != rank:
        raise VerificationError(
            "split", f"the series has Hessian rank {f_rank}, not the head's rank {rank}")
    if not result.change.is_automorphism():
        raise VerificationError("split", "the change is not an automorphism")
    if any(any(alpha[:rank]) for alpha in result.residual.coeffs):
        raise VerificationError("split", "the residual involves head variables")
    return result.change.apply(f) - (head + result.residual)
