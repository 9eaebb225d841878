"""Transport of the residual part along an equivalence of split forms.

Given f0 = q + g0 and f1 = q + g1 sharing the quadratic normal form q, and
an automorphism phi with phi(f0) = f1, this builds the tail-variable
automorphism phi' with g0(phi') = g1.  Writing the head components of phi
as linear part plus higher terms, phi_i = l_i + k_i, the head variables are
re-expressed as series psi in the tail variables by solving, via the
implicit function theorem,

  characteristic != 2:  F_i = 2 l_i + k_i = 0
  characteristic 2:     F_i = l_i + a_{i+1} k_{i+1} = 0          (pair head)
                        F_{i+1} = l_{i+1} + k_{i+1} + a_i k_i = 0 (pair tail)

and then phi'_j = phi_j(psi, x_tail) for the tail components j.  In
characteristic 2 the tail-variable linear part of phi must first be the
identity (see normalize_tail_linear); the square-tail bookkeeping
Sum d_i phi_i^2 = Sum d_i x_i^2 + Sum d_i k_i^2 then matches the d_i k_i^2
terms against the transform of g0's own square tail, so the F-system above
already yields g0(phi') = g1 exactly.  The result is verified by
substitution before it is returned.

f0 and f1 are read by ``split_shape``: ``QuadNormalForm.read_split_shape``
gives q, and the rest is projected to the tail variables.  The square tail
Sum d_i x_i^2 is the part of q's ``normal_jet`` outside its ``head_jet``.
"""

from __future__ import annotations

from . import linalg
from .field import CharacteristicError
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
        heads = [p.phi.components[i] for i in range(rank)]
        linears = [h.degree_part(1) for h in heads]
        highers = [h - lin for h, lin in zip(heads, linears)]
        if field.char != 2:
            two = field.from_int(2)
            eqs = [lin.scale(two) + k for lin, k in zip(linears, highers)]
        else:
            eqs = _char2_system(p, linears, highers)
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


def _char2_system(p: TransportProblem, linears, highers):
    """The paired implicit equations for characteristic 2."""
    field = p.field
    n, rank = p.nvars, p.rank
    lin = p.phi.linear_matrix()
    for i in range(rank, n):
        for j in range(rank):
            if lin[i][j] != field.zero:
                if any(d != field.zero for d in p.quad.tail):
                    raise TransportError(
                        "tail components of phi mix in head variables linearly; "
                        "with a nonzero square tail the construction needs the "
                        "tail linear part to be exactly the identity")
        for j in range(rank, n):
            expected = field.one if i == j else field.zero
            if lin[i][j] != expected:
                raise TransportError(
                    "tail linear block is not the identity; run normalize_tail_linear")
    eqs = []
    for t in range(rank // 2):
        e = 2 * t
        a_first, a_second = p.quad.pairs[t]
        eqs.append(linears[e] + highers[e + 1].scale(a_second))
        eqs.append(linears[e + 1] + highers[e + 1] + highers[e].scale(a_first))
    return eqs
