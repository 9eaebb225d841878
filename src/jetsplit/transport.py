"""Transport of the residual part along an equivalence of split forms.

Given f0 = H + g0 and f1 = H + g1 sharing the quadratic head H, and an
automorphism phi with phi(f0) = f1, this builds the tail-variable
automorphism phi' with g0(phi') = g1.  Write the head components of phi as
linear part plus higher terms, phi_h = l + k, and let U be H's
upper-triangular Gram matrix and P = U + U^T its polar matrix.  Over every
field

  H(l + k) = H(l) + k^T (P l + U k),

so on the zero set of F = P l + U k the head components act on H as their
linear part does.  The head variables are re-expressed as series psi in the
tail variables by solving F = 0 with the implicit function theorem, and
then phi'_j = phi_j(psi, x_tail) for the tail components j.  In
characteristic 2 the tail-variable linear part of phi must be the
identity, so that the tail components are phi_j = x_j + k_j; the
square-tail bookkeeping Sum d_j phi_j^2 = Sum d_j x_j^2 + Sum d_j k_j^2
then matches the d_j k_j^2 terms against the transform of g0's own square
tail, so F = 0 already yields g0(phi') = g1 exactly.  ``TransportProblem``
makes that block D the identity by recoordinating the tail, which replaces
g1 by g1(D^-1 x_tail); the change then carries g0 to that jet, the
problem's ``g1`` and the JSON ``g1`` of the CLI, not to the supplied g1.
The result is verified by substitution before it is returned.

f0 and f1 are read by ``split_shape``: ``QuadNormalForm.read_split_shape``
gives the head, and the rest is projected to the tail variables.  The
square tail is the part of the normal form's ``normal_jet`` outside its
``head_jet``.
"""

from __future__ import annotations

from . import linalg
from .ift import ImplicitSystem, ift_solve
from .jet import CoordinateChange, Jet, VerificationError, _substitute_batch
from .quadform import QuadNormalForm, QuadraticForm
from .split import embed_from_tail, project_to_tail


class TransportHypothesisError(ValueError):
    """The supplied data does not satisfy phi(f0) = f1 in split shape."""


class TransportError(ValueError):
    """The construction cannot run on this (otherwise genuine) input."""


class TransportProblem:
    """A verified instance: shared quad q, tail residuals g0, g1, and phi.

    g0 and g1 are jets in the tail variables (n - rank of them); phi acts on
    all n variables.  The constructor checks the data as given: fields and
    shapes, that each residual minus the square tail has order >= 3, that phi
    is an automorphism, and then the hypothesis phi(f0) = f1 exactly at the
    working precision N.

    In characteristic 2 it then makes phi's tail-to-tail linear block D the
    identity, which ``transport`` needs.  Let rho be the linear change that is
    the identity on the head variables and D^-1 on the tail.  It stores
    phi o rho for phi and g1(D^-1 x_tail) for g1, raising
    TransportHypothesisError when D is singular.  No second substitution is
    needed: rho preserves degree and H involves only head variables, so
    (phi o rho)(f0) = f1 o rho = H + g1(D^-1 x_tail) exactly at precision N,
    and phi o rho is an automorphism whose tail block is D D^-1 = I.  Only the
    order check is re-run on the new g1.
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
        if field.char != 2:
            return
        d_block = [row[rank:] for row in phi.linear_matrix()[rank:]]
        if d_block == linalg.identity(field, m):
            return
        try:
            d_inv = linalg.invert(field, d_block)
        except ValueError:
            raise TransportHypothesisError(
                "tail linear block is singular; phi does not preserve the splitting") from None
        rho = linalg.identity(field, n)
        for i in range(m):
            rho[rank + i][rank:] = d_inv[i]
        self.phi = phi.compose(CoordinateChange.from_linear(field, rho, precision))
        self.g1 = CoordinateChange.from_linear(field, d_inv, precision).apply(g1)
        _check_square_tail(self.g1, square_tail)

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
    N = p.precision
    if m == 0:
        raise TransportError("no tail variables; nothing to transport")
    if rank == 0:
        psi = []
    else:
        if field.char == 2:
            _check_char2_tail_linear(p)
        heads = p.phi.components[:rank]
        linears = [h.degree_part(1) for h in heads]
        highers = [h - lin for h, lin in zip(heads, linears)]
        head = QuadraticForm.from_jet(p.quad.head_jet(2))
        eqs = []
        for i, row in enumerate(head.polar()[:rank]):  # F = P l + U k; P is invertible
            terms = [lin.scale(c) for c, lin in zip(row, linears) if c != field.zero]
            terms += [highers[j].scale(c) for (r, j), c in head.gram.items() if r == i]
            eqs.append(sum(terms[1:], terms[0]))
        try:
            sys = ImplicitSystem(eqs, list(range(rank)))
        except ValueError as exc:
            raise TransportError(f"implicit system rejected: {exc}") from None
        psi = ift_solve(sys, N)
    parts = list(psi) + [Jet.variable(field, m, j, N) for j in range(m)]
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


def _check_char2_tail_linear(p: TransportProblem):
    """Raise if phi's tail rows take head variables linearly while the square
    tail is nonzero (characteristic 2).

    The constructor has made the tail-to-tail linear block the identity.
    """
    if p.quad.normal_jet(2) == p.quad.head_jet(2):
        return
    lin = p.phi.linear_matrix()
    if any(c != p.field.zero for row in lin[p.rank:] for c in row[:p.rank]):
        raise TransportError(
            "tail components of phi mix in head variables linearly; "
            "with a nonzero square tail the construction needs the "
            "tail linear part to be exactly the identity")
