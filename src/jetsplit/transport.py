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
characteristic 2 the tail-variable linear part of phi must first be the
identity (see normalize_tail_linear), so that the tail components are
phi_j = x_j + k_j; the square-tail bookkeeping Sum d_j phi_j^2 =
Sum d_j x_j^2 + Sum d_j k_j^2 then matches the d_j k_j^2 terms against the
transform of g0's own square tail, so F = 0 already yields g0(phi') = g1
exactly.  The result is verified by substitution before it is returned.

f0 and f1 are read by ``split_shape``: ``QuadNormalForm.read_split_shape``
gives the head, and the rest is projected to the tail variables.  The
square tail is the part of the normal form's ``normal_jet`` outside its
``head_jet``.
"""

from __future__ import annotations

from . import linalg
from .field import CharacteristicError
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
    all n variables.  The hypothesis phi(f0) = f1 is checked exactly at the
    working precision on construction.
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
        for g in (g0, g1):
            h = g - square_tail
            if not h.is_zero() and h.order() < 3:
                raise TransportHypothesisError(
                    "residual minus the square tail must have order >= 3")
        if not phi.is_automorphism():
            raise TransportHypothesisError("phi is not an automorphism")
        self.quad = quad
        self.g0 = g0
        self.g1 = g1
        self.phi = phi
        self.precision = precision
        if phi.apply(self.f0_jet()) != self.f1_jet():
            raise TransportHypothesisError("phi(f0) = f1 fails at the working precision")

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


def normalize_tail_linear(p: TransportProblem) -> TransportProblem:
    """Recoordinate the tail so phi's tail-to-tail linear block is the identity.

    Characteristic 2 only.  Both phi and g1 are rewritten; the hypothesis is
    re-verified by the TransportProblem constructor.
    """
    field = p.field
    if field.char != 2:
        raise CharacteristicError("tail normalization is a characteristic-2 step")
    n, rank, m = p.nvars, p.rank, p.tail_count
    lin = p.phi.linear_matrix()
    d_block = [[lin[rank + i][rank + j] for j in range(m)] for i in range(m)]
    if d_block == linalg.identity(field, m):
        return p
    try:
        d_inv = linalg.invert(field, d_block)
    except ValueError:
        raise TransportHypothesisError(
            "tail linear block is singular; phi does not preserve the splitting") from None
    big = linalg.identity(field, n)
    for i in range(m):
        for j in range(m):
            big[rank + i][rank + j] = d_inv[i][j]
    rho = CoordinateChange.from_linear(field, big, p.precision)
    tail_rho = CoordinateChange.from_linear(field, d_inv, p.precision)
    return TransportProblem(p.quad, p.g0, tail_rho.apply(p.g1),
                            p.phi.compose(rho), p.precision)


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


def _check_char2_tail_linear(p: TransportProblem):
    """Raise unless phi's tail rows are linearly the identity (characteristic 2).

    Head variables may enter them linearly only when the square tail is zero.
    """
    field = p.field
    n, rank = p.nvars, p.rank
    lin = p.phi.linear_matrix()
    square_tail = p.quad.normal_jet(2) != p.quad.head_jet(2)
    for i in range(rank, n):
        for j in range(rank):
            if lin[i][j] != field.zero and square_tail:
                raise TransportError(
                    "tail components of phi mix in head variables linearly; "
                    "with a nonzero square tail the construction needs the "
                    "tail linear part to be exactly the identity")
        for j in range(rank, n):
            expected = field.one if i == j else field.zero
            if lin[i][j] != expected:
                raise TransportError(
                    "tail linear block is not the identity; run normalize_tail_linear")
