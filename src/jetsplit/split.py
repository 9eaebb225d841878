"""The splitting algorithm.

A series f in m^2 is transformed, by an explicit automorphism computed to a
requested jet precision N, into (nondegenerate quadratic normal form H in head
variables) + (residual series in the tail variables).  ``split`` classifies
the 2-jet with ``normal_form``, and the loop starts at that head's linear
transition: its rows are the starting change, and f at them has the head's
normal jet as its 2-jet.  A caller whose series is already in split shape
passes ``QuadNormalForm.read_split_shape(f)``, whose transition is the
identity.  Write f = H(x_h) + x_h . g + t, after that first substitution,
with cofactors g of the mixed part (every term with a head variable, H
aside), t in the tail variables alone, and P = U + U^T the polar matrix of
H's upper-triangular Gram matrix U.  Over every field

  H(x + d) = H(x) + x^T P d + H(d).

- **Pass.** Let k >= 3 be the mixed order, the order of x_h . g, and g' the
  terms of g of degree <= 2k - 4.  The pass x_h -> x_h + d, d = -P^{-1} g',
  of order k - 1, leaves

    f(x_h + d) = H(x_h) + t + x_h . (g - g') + x_h . (g(x_h + d) - g(x_h))
                 + H(d) + d . g(x_h + d),

  and each of the four remainders has order >= 2k - 2: g - g' starts at
  degree 2k - 3, every term of g(x_h + d) - g(x_h) trades an x for a d, and
  the last two are products of two factors of order >= k - 1.  So the mixed
  order climbs to at least 2k - 2, as it would with the whole of g, whose
  other terms only make the parts denser for the next pass to redo.  The
  two differ by x_h . (g - g') from degree 2k - 2 on, so where the whole of
  g would cancel the mixed part there by chance the pass stops at 2k - 2.
- **Last pass.** Once 2k - 2 > N, g' is all of g (of degree <= N - 1 <=
  2k - 4) and every product d_i d_j lies above N, so Taylor's formula (in
  any characteristic the terms past the first are products of two or more
  d_i) gives f(x_h + d) = f + sum_i (df/dx_i) d_i exactly below degree
  N + 1: f and the change move by one product per head variable
  (``_taylor_step``), and the mixed part vanishes.
- **The residual is unique.** The loop's change is S, the transition,
  composed with x_h -> x_h + delta(x, y), y -> y, with delta of order >= 2.
  If f o S(x_h + delta, y) = H(x_h) + R(y), differentiate in x_h and set
  x_h = 0: the right side gives P x_h = 0 there, and I + d(delta)/dx_h is
  invertible, so (delta(0, y), y) is critical for f o S in x_h.  P is
  invertible (for Arf pairs too), so by the implicit function theorem
  delta(0, y) is the unique phi(y) with phi(0) = 0 on that critical
  manifold, and R(y) = f o S(phi(y), y).  Which change the passes find
  does not move the residual; the change itself is not unique.
- **The change modulo m^N.**  Below degree N + 1, f(change) reads the
  change only below degree N.  In every characteristic Taylor's formula with
  Hasse derivatives D^b gives g(phi + tau) = sum_b (D^b g)(phi) tau^b.  Let
  g lie in m^2, phi have no constant term and tau have order N.  The term
  with |b| = 1 has order >= 1 + N, and those with |b| >= 2 have order >=
  2N, so g(phi + tau) = g(phi) through degree N.  The loop therefore
  carries the change modulo m^N: every pass moves f at precision N and the
  change's components at N - 1, so the change that ``split`` returns has no
  term of degree N.  ``verify_split`` recomputes f(change) at N, where
  degree-N terms of a stored change make no difference.

The loop ends once the mixed part vanishes at precision N.  f, the change,
the parts and the cofactors stay packed term lists at one packing for
precision N (``jet._Packing``) from the linear transition to the last pass,
one ``jet._substitute_packed`` call for the transition and one per pass but
the last, which is the Taylor step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .field import FieldError, parse_field_spec
from .jet import (ABOVE_PRECISION, CoordinateChange, Jet, PrecisionError,
                  VerificationError, _Packing, _product_into, _route,
                  _substitute_packed)
from .quadform import QuadNormalForm, SplitShapeError, normal_form


@dataclass
class SplitResult:
    """Outcome of a split, with its check.

    ``residual`` lives in the ambient variables but involves only tail
    variables; in characteristic 2 it includes the diagonal square tail of
    the 2-jet.  ``change`` satisfies f(change) = head quadratic + residual:
    ``split`` checks that with ``verify_split`` before it returns.  The
    change is known modulo m^N, which is all that f(change) reads at
    precision N: ``split`` writes it without terms of degree N, and those of
    a change that ``from_json`` reads do not move ``verify_split``'s
    difference.  ``rank``
    is the head's: ``from_json`` reads the file's ``rank`` and ``quad`` only
    to compare them with what ``to_json`` writes for the head it read.
    """

    quad: QuadNormalForm
    residual: Jet
    change: CoordinateChange
    precision: int

    @property
    def rank(self) -> int:
        return self.quad.rank

    @property
    def field(self):
        return self.residual.field

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

    @classmethod
    def from_json(cls, data, varnames) -> "SplitResult":
        """The result that ``to_json`` wrote, read back in the given variables.

        Raises FieldError (an input error) naming a missing or malformed key,
        or a ``quad`` or ``rank`` whose JSON text is not what ``to_json``
        writes for the head read; checking the rest is ``verify_split``'s task.
        """
        from .expr import parse_jet

        if not isinstance(data, dict):
            raise FieldError("result file is not a JSON object")

        def entry(key, kind):
            if key not in data:
                raise FieldError(f"result file has no {key!r} key")
            value = data[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise FieldError(f"result file key {key!r} is not a {kind.__name__}")
            return value

        field = parse_field_spec(entry("field", str))
        N = entry("precision", int)
        texts = entry("change", list)
        if not all(isinstance(t, str) for t in texts):
            raise FieldError("result file key 'change' is not a list of strings")
        change = CoordinateChange([parse_jet(t, field, varnames, N) for t in texts])
        residual = parse_jet(entry("residual", str), field, varnames, N)
        try:
            quad = QuadNormalForm.from_json(field, entry("quad", dict))
        except FieldError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise FieldError(f"result file key 'quad' is malformed: {exc!r}") from None
        if quad.nvars != len(varnames) or quad.rank + len(quad.tail) > quad.nvars:
            raise FieldError("result file key 'quad' does not fit the variables")
        entry("rank", int)
        for key, written in (("quad", quad.to_json()), ("rank", quad.rank)):
            if json.dumps(data[key], sort_keys=True) != json.dumps(written, sort_keys=True):
                raise FieldError(f"result file key {key!r} is not what split writes for its head")
        return cls(quad, residual, change, N)


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


def _cofactors(f, head_quad, head, packing, field):
    """Per-head-variable cofactors g_i of f - head_quad, as packed dicts.

    f and head_quad are packed term lists at ``packing``.  Every monomial
    containing a head variable is assigned to the cofactor of its smallest
    head index (divided by that variable); monomials in tail variables alone
    are left for the residual.
    """
    h = dict(f)
    for key, c in head_quad:
        h[key] = field.sub(h.get(key, field.zero), c)
    width, heads = packing.width, (1 << packing.width * head) - 1
    gs = [{} for _ in range(head)]
    for key, c in h.items():
        # the lowest set bit of a head exponent lies in the smallest head index
        if c != field.zero and (low := key & heads):
            i = ((low & -low).bit_length() - 1) // width
            gs[i][key - packing.weights[i]] = c
    for g in gs:  # quad was read or classified from f's 2-jet: only a fault lands here
        if g and min(g) >> packing.shift < 2:
            raise VerificationError("split iteration",
                                    "2-jet does not match the declared quadratic head")
    return gs


def _mixed_order(gs, shift):
    orders = [(min(g) >> shift) + 1 for g in gs if g]
    return min(orders) if orders else ABOVE_PRECISION


def _iterate(f: Jet, N: int, quad: QuadNormalForm):
    """The splitting loop from quad's transition; returns (change, residual)."""
    if f.prec < N:
        raise PrecisionError(f"requested precision {N} exceeds the input's {f.prec}")
    field, n = f.field, f.nvars
    if quad.nvars != n:
        raise ValueError(f"the head has {quad.nvars} variables, the series {n}")
    head_quad = quad.head_jet(N)
    head = quad.rank
    inverse = linalg.invert(field, head_quad.hessian()[:head])  # P^{-1}
    packing, route = _Packing(N, n), _route(field)
    quad_terms = packing.terms(head_quad.coeffs)
    variables = [[(w, field.one)] for w in packing.weights]
    # the transition's rows are the starting change; f at them has quad's 2-jet
    total = [[(w, c) for w, c in zip(packing.weights, row) if c != field.zero]
             for row in quad.matrix]
    moved, = _substitute_packed([(packing.terms(f.coeffs), N)], packing, total, packing, route)
    terms = list(moved.items())
    gs = _cofactors(terms, quad_terms, head, packing, field)
    mixed_order = _mixed_order(gs, packing.shift)
    # a finite order is an integer in 3..N, and each pass raises it or raises
    # VerificationError: at most N - 2 passes
    while mixed_order != ABOVE_PRECISION:
        # d = -P^{-1} g from g's terms below degree 2k - 3, k the mixed order:
        # the rest of g reaches only the order 2k - 2 that the pass leaves
        cut = (2 * mixed_order - 3) << packing.shift
        corrections = []
        for row in inverse:
            d = {}
            for j, c in row.items():
                for key, v in gs[j].items():
                    if key < cut:
                        d[key] = field.sub(d.get(key, field.zero), field.mul(c, v))
            corrections.append(sorted(t for t in d.items() if t[1] != field.zero))
        # f at precision N, the change modulo m^N: f(change) never reads its degree N
        sources = [(terms, N), *((t, N - 1) for t in total)]
        if 2 * mixed_order - 2 > N:  # the last pass: d_i d_j lies above N
            terms, *total = _taylor_step(sources, corrections, packing, field)
        else:  # f(parts) and total's components at parts share their parts: one batch
            parts = [v + d for v, d in zip(variables, corrections)] + variables[head:]
            terms, *total = (list(r.items()) for r in _substitute_packed(
                sources, packing, parts, packing, route))
        gs = _cofactors(terms, quad_terms, head, packing, field)
        new_order = _mixed_order(gs, packing.shift)
        if new_order <= mixed_order:
            raise VerificationError(
                "split iteration", f"mixed part order did not increase past {mixed_order}")
        mixed_order = new_order
    # every pass keeps keys below the limit and drops zero values
    f, *total = (Jet._valid(field, n, N, packing.unpack(dict(t))) for t in (terms, *total))
    return CoordinateChange(total), f - head_quad


def _taylor_step(sources, corrections, packing, field):
    """Each source (s, prec), s a packed term list at ``packing`` without terms
    above prec, at x_i -> x_i + d_i for i < len(corrections): s + sum_i
    (ds/dx_i) d_i through degree prec, which is s at those parts when every
    product d_i d_j lies above prec.  The loop passes f at N and the change's
    components at N - 1."""
    route = _route(field)
    mask = (1 << packing.width) - 1
    moved = []
    for terms, prec in sources:
        limit = (prec + 1) << packing.shift
        out = dict(terms)
        for i, d in enumerate(corrections):
            if not d:
                continue
            weight, offset = packing.weights[i], packing.width * i
            # only the terms whose derivative times d's lowest term stays below the limit
            reach = limit - d[0][0] + weight
            derivative = sorted(
                (key - weight, c) for key, v in terms
                if key < reach and (e := key >> offset & mask)
                and (c := field.mul(field.from_int(e), v)) != field.zero)
            _product_into(out, derivative, d, limit, route.add, route.mul, packing)
        moved.append(list(route.decode(out).items()))
    return moved


def iterate_diagonal(f: Jet, N: int, quad: QuadNormalForm):
    """Split f under its classified head ``quad``, characteristic != 2.

    ``quad`` is ``normal_form`` of f's 2-jet, or ``read_split_shape(f)`` for a
    series already in split shape; the loop starts at quad's transition.
    Returns (change, residual) with f(change) = quad's head + residual.
    """
    if f.field.char == 2:
        raise SplitShapeError("diagonal splitting iteration needs characteristic != 2")
    return _iterate(f, N, quad)


def iterate_arf(f: Jet, N: int, quad: QuadNormalForm):
    """Split f under its classified Arf head ``quad``, characteristic 2.

    ``quad`` is obtained as for ``iterate_diagonal``.  The residual keeps the
    diagonal square tail of the 2-jet.
    """
    if f.field.char != 2:
        raise SplitShapeError("Arf splitting iteration needs characteristic 2")
    return _iterate(f, N, quad)


def split(f: Jet, N: int) -> SplitResult:
    """Full splitting: classify the 2-jet, iterate, and verify by substitution."""
    if N < 2:
        raise PrecisionError("splitting needs precision >= 2")
    if N > f.prec:
        raise PrecisionError(f"requested precision {N} exceeds the input's {f.prec}")
    f = f.truncate(N)
    if any(sum(alpha) < 2 for alpha in f.coeffs):
        raise SplitShapeError("series must have no terms of degree < 2")
    nf = normal_form(f)
    iterate = iterate_arf if f.field.char == 2 else iterate_diagonal
    change, residual = iterate(f, N, nf)
    result = SplitResult(nf, residual, change, N)
    if not verify_split(f, result).is_zero():
        raise VerificationError("split", "f(change) differs from head + residual")
    return result


def verify_split(f: Jet, result: SplitResult) -> Jet:
    """Recompute f(change) - (head quadratic + residual); zero on contract.

    Raises VerificationError when the result is not a split whatever the
    difference: f, the residual or the change is known to a lower precision
    than the result's, the residual or the change claims a higher one, the
    head is degenerate or of another rank than the Hessian of f, the change
    is not an automorphism, or the residual involves a head variable.  When
    the difference is zero it also raises unless f lies in m^2, the change's
    linear part is the head's transition and the residual's 2-jet is the
    normal form's square tail: with the identity these give f's 2-jet at the
    transition equal to the normal jet, so the head is f's classified 2-jet.
    """
    N = result.precision
    for name, jet in (("series", f), ("residual", result.residual), ("change", result.change)):
        if jet.prec < N:
            raise VerificationError("split", f"the {name} has precision {jet.prec}, below {N}")
        if jet.prec > N and name != "series":   # only the series may be longer
            raise VerificationError("split", f"the {name} has precision {jet.prec}, above {N}")
    quad = result.quad
    rank = quad.rank
    if f.prec > N:
        f = f.truncate(N)
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
    difference = result.change.apply(f) - (head + result.residual)
    if difference.is_zero():
        if f.order() < 2:
            raise VerificationError("split", "the series has terms of degree < 2")
        if result.change.linear_matrix() != quad.matrix:
            raise VerificationError("split", "the change's linear part is not the transition")
        if result.residual.degree_part(2) != quad.normal_jet(N) - head:
            raise VerificationError("split", "the residual's 2-jet is not the square tail")
    return difference
