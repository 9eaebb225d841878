"""Transport of the residual part along an equivalence of split forms.

Given f0 = H + g0 and f1 = H + g1 sharing the quadratic head H, and an
automorphism phi with phi(f0) = f1, this builds the tail-variable
automorphism phi' with g0(phi') = g1.  Write the head components of phi as
linear part plus higher terms, phi_h = l + k, and let U be H's
upper-triangular Gram matrix and P = U + U^T its polar matrix.  Over every
field

  H(l + k) = H(l) + k^T (P l + U k),

so on the zero set of F = P l + U k = U^T l + U phi_h (as k = phi_h - l)
the head components act on H as their linear part does.  ``transport``
builds F from U and re-expresses the head variables as series psi in the
tail variables by solving F = 0 with the implicit function theorem; then
phi'_j = phi_j(psi, x_tail) for the tail components j.  In characteristic 2
the tail-variable linear part of phi must be the identity, so that the tail
components are phi_j = x_j + k_j; the square-tail bookkeeping
Sum d_j phi_j^2 = Sum d_j x_j^2 + Sum d_j k_j^2 then matches the d_j k_j^2
terms against the transform of g0's own square tail, so F = 0 already
yields g0(phi') = g1 exactly.  ``TransportProblem`` makes that block D the
identity by recoordinating the tail, which replaces g1 by g1(D^-1 x_tail);
the change then carries g0 to that jet, the problem's ``g1`` and the JSON
``g1`` of the CLI, not to the supplied g1.

``TransportProblem`` makes every refusal; ``transport`` builds F, solves it,
substitutes once and checks the result twice by substitution.  f0 and f1
are read by ``split_shape``: ``QuadNormalForm.read_split_shape`` gives the
head, and the rest is projected to the tail variables.  The square tail is
the part of the normal form's ``normal_jet`` outside its ``head_jet``.
"""

from __future__ import annotations

from . import linalg
from .ift import ImplicitSystem, ift_solve
from .jet import CoordinateChange, Jet, VerificationError, _substitute_batch
from .quadform import QuadNormalForm
from .split import embed_from_tail, project_to_tail


class TransportHypothesisError(ValueError):
    """The supplied data does not satisfy phi(f0) = f1 in split shape."""


class TransportError(ValueError):
    """The construction cannot run on this (otherwise genuine) input."""


class TransportProblem:
    """A verified instance: shared quad q, tail residuals g0, g1, and phi.

    g0 and g1 are jets in the tail variables (n - rank of them); phi acts on
    all n variables.  The constructor makes every refusal of the
    construction, in this order:

    1. TransportHypothesisError: the fields differ; a residual is not in the
       n - rank tail variables; phi does not act on all n variables; an input
       carries less than the working precision N; g0 or g1 minus the square
       tail has order < 3; phi is not an automorphism; phi(f0) = f1 fails at
       precision N; in characteristic 2, phi's tail-to-tail linear block D is
       singular, or g1(D^-1 x_tail) minus the square tail has order < 3.
    2. TransportError: there are no tail variables; in characteristic 2, the
       square tail is nonzero and the tail rows of phi's linear matrix take
       head variables.

    In characteristic 2 it makes D the identity, which ``transport`` needs.
    Let rho be the linear change that is the identity on the head variables
    and D^-1 on the tail.  It stores phi o rho for phi and g1(D^-1 x_tail)
    for g1.  No second substitution is needed: rho preserves degree and H
    involves only head variables, so (phi o rho)(f0) = f1 o rho =
    H + g1(D^-1 x_tail) exactly at precision N, and phi o rho is an
    automorphism whose tail block is D D^-1 = I.  Only the order check is
    re-run on the new g1.  rho is the identity on the head columns, so
    phi o rho has phi's tail-to-head linear block, and the last refusal reads
    it from the linear parts of the supplied phi's tail components, the ones
    read for D.
    """

    def __init__(self, quad: QuadNormalForm, g0: Jet, g1: Jet,
                 phi: CoordinateChange, precision: int):
        field = quad.field
        n = quad.nvars
        rank = quad.rank
        m = n - rank
        if g0.field != field or g1.field != field or phi.field != field:
            raise TransportHypothesisError("field mismatch")
        if g0.nvars != m or g1.nvars != m:
            raise TransportHypothesisError(f"residuals must live in {m} tail variables")
        if phi.nvars != n:
            raise TransportHypothesisError(f"phi must act on all {n} variables")
        if g0.prec < precision or g1.prec < precision or phi.prec < precision:
            raise TransportHypothesisError("inputs carry less than the working precision")
        g0 = g0.truncate(precision)
        g1 = g1.truncate(precision)
        phi = CoordinateChange([c.truncate(precision) for c in phi.components])
        square_tail = project_to_tail(
            quad.normal_jet(precision) - quad.head_jet(precision), rank)
        _check_square_tail(g0, square_tail)
        _check_square_tail(g1, square_tail)
        if not phi.is_automorphism():
            raise TransportHypothesisError("phi is not an automorphism")
        self.quad = quad
        self.g0 = g0
        self.g1 = g1
        self.phi = phi
        self.precision = precision
        if phi.apply(self.f0_jet()) != self.f1_jet():
            raise TransportHypothesisError("phi(f0) = f1 fails at the working precision")
        # the tail components' linear parts: the block D and the tail-to-head block
        tails = [c.linear() for c in phi.components[rank:]]
        d_block = [{j - rank: c for j, c in lin.items() if j >= rank} for lin in tails]
        if field.char == 2 and d_block != [{i: field.one} for i in range(m)]:
            try:
                d_inv = [[row.get(j, field.zero) for j in range(m)]
                         for row in linalg.invert(field, d_block)]
            except ValueError:
                raise TransportHypothesisError(
                    "tail linear block is singular; phi does not preserve the splitting") from None
            rho = linalg.identity(field, n)
            for i in range(m):
                rho[rank + i][rank:] = d_inv[i]
            self.phi = phi.compose(CoordinateChange.from_linear(field, rho, precision))
            self.g1 = CoordinateChange.from_linear(field, d_inv, precision).apply(g1)
            _check_square_tail(self.g1, square_tail)
        if m == 0:
            raise TransportError("no tail variables; nothing to transport")
        # only characteristic 2 has a square tail; rho kept phi's tail-to-head block
        if not square_tail.is_zero() and any(j < rank for lin in tails for j in lin):
            raise TransportError(
                "tail components of phi mix in head variables linearly; "
                "with a nonzero square tail the construction needs the "
                "tail linear part to be exactly the identity")

    @property
    def field(self):
        return self.quad.field

    @property
    def nvars(self):
        return self.quad.nvars

    @property
    def rank(self):
        return self.quad.rank

    @property
    def tail_count(self):
        return self.nvars - self.rank

    def f0_jet(self) -> Jet:
        return self.quad.head_jet(self.precision) + embed_from_tail(self.g0, self.rank)

    def f1_jet(self) -> Jet:
        return self.quad.head_jet(self.precision) + embed_from_tail(self.g1, self.rank)


def transport(p: TransportProblem) -> CoordinateChange:
    """The tail automorphism phi' with g0(phi') = g1, verified exactly."""
    field = p.field
    rank, m = p.rank, p.tail_count
    psi = []
    if rank:
        heads = p.phi.components[:rank]
        linears = [h.degree_part(1) for h in heads]
        terms = [[] for _ in range(rank)]   # F = U^T l + U phi_h
        for (i, j), c in p.quad.head_jet(2).gram().items():
            terms[j].append(linears[i].scale(c))
            terms[i].append(heads[j].scale(c))
        try:
            sys = ImplicitSystem([sum(t[1:], t[0]) for t in terms], list(range(rank)))
        except ValueError as exc:
            raise TransportError(f"implicit system rejected: {exc}") from None
        psi = ift_solve(sys, p.precision)
    parts = psi + [Jet.variable(field, m, j, p.precision) for j in range(m)]
    phi_prime = CoordinateChange(_substitute_batch(p.phi.components[rank:], parts))
    if not phi_prime.is_automorphism():
        raise VerificationError("transport", "the transported change is not an automorphism")
    if phi_prime.apply(p.g0) != p.g1:
        raise VerificationError("transport", "g0(change) differs from g1")
    return phi_prime


def split_shape(f: Jet):
    """Read a series already in split normal shape as (quad, tail residual).

    The quad is ``QuadNormalForm.read_split_shape(f)``; everything else must
    involve only tail variables.  The returned residual is a jet in the tail
    variables; in characteristic 2 it includes the square tail.
    """
    quad = QuadNormalForm.read_split_shape(f)
    return quad, project_to_tail(f - quad.head_jet(f.prec), quad.rank)


def _check_square_tail(g: Jet, square_tail: Jet):
    h = g - square_tail
    if not h.is_zero() and h.order() < 3:
        raise TransportHypothesisError("residual minus the square tail must have order >= 3")
