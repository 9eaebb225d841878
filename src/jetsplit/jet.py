"""Truncated multivariate power series (jets) and coordinate changes.

A jet is a power series cut off above a total-degree precision N, stored as
a sparse map from exponent tuples to nonzero field elements.  All operations
are exact on the retained terms: binary operations return the minimum of the
two precisions, and products drop terms above the result precision during
accumulation.

Products, substitution (the kernel under every coordinate change) and the
expression parser work on packed monomials instead (see ``_Packing``): one
int per monomial, with a bit field of ``N.bit_length()`` bits per variable
and the total degree above them, so a monomial product is one integer
addition and the degree guard is one comparison.  Terms are kept in lists
sorted by key, hence by degree, and all three share one truncated product,
``_product_into``, which adds and multiplies inline when it is given
Python's own + and *.  Substitution evaluates the series in Horner form:
monomials are grouped by their leading exponent, each distinct exponent
prefix costs one truncated product, and the sum is accumulated in one
packed dict.  ``_substitute_batch`` (``Jet.substitute`` is its one-source
case) evaluates many sources at one tuple of parts: it is its checks plus
``_substitute_packed``, which takes the sources and the parts packed, reads
each exponent from a source's key, encodes the parts once and shares one
table of their powers, cut at the batch's top precision; ``ift``'s Newton
steps and ``split``'s passes call it directly.  Parts with more terms lead
(ties keep index order), so a dense part's powers multiply once per
exponent, not once per prefix.  One-term and zero parts, such as ``ift``'s
parameters, make no product: a term adds their cached powers' keys and takes
their one coefficients.  A power table builds p^e as p^(e-1) * p, and an
even power from its half (``_next_power``): in characteristic 2 by the
Frobenius map, with no product; else, in three or more variables, by one
pass over unordered pairs (``_square_into``) unless its half has more of
them than p^(e-1) * p has pairs, as a sparse part's high powers do.
Horner runs one loop over a work list, not a recursion, so no number of
variables or parts deepens the Python stack.

Every product and elimination loop (substitution, ``Jet.__mul__``, the
parser's products and sums, ``ift``'s matrix products and the Jacobian
echelon) computes on native values, from one stateless route per field type
(``_route``); a field type without one is refused with ``TypeError``.  Over
Q products add and multiply the ``Fraction`` values inline; substitution is
fraction-free (``_RationalRoute``): the source and the parts are scaled to
integers, the kernel adds and multiplies Python ints, and each output
coefficient is divided once by the common scale.  Over GF(p) residues are
multiplied and added as ints and reduced mod p once per coefficient, when a
product or a sum becomes a multiplicand and at the end.  Over GF(2^k) masks
are added by xor and multiplied by the field's ``nonzero_product``, one
log/exp table lookup.  Each route's decode drops zeros, so a result skips
``Jet.__init__``'s checks.  ``Jet.coeffs`` holds field elements throughout.

Dense products in one or two variables on ints >= 0 (GF(p) residues) are
one int product (Kronecker 1882, section 4; Harvey, J. Symbolic Comput.
2009).  A monomial's slot has its degree as top digit, of radix min(D, top
degree of a + of b) + 1 for the budget D, and e_{m-2}, ..., e_0 below, each
of radix min(D, largest e_j of a + of b) + 1.  A kept pair has degree <= D
and each digit below its radix, so none carries; a dropped pair has degree
>= D + 1 and lands above the box, which is masked off.  A slot sums at most
min(len a, len b) products, so bits(max a) + bits(max b) + bits(min(len a,
len b)) + 1 bits hold it exactly; slots are 16, 32 or 64 bits, or the pair
loop runs.  It is tried for m = 1 with len(a) * len(b) >= 600 and m = 2
with >= 4800 (smaller two-variable products gain little, and a refusal
costs ~30 us of checks), and taken for pairs >= 256 and box bits <= 8 *
pairs; per product (two-core Xeon, Python 3.11):

  m  field       a x b    pairs  box bits  pair loop  Kronecker
  1  fp:7        79x79     3886      3216     457 us      95 us
  1  fp:1000003  25x25      625      3264      86 us      40 us
  2  fp:7        52x52      426      1936      53 us      71 us  not tried
  2  fp:7        81x81     6561     34320    1332 us     784 us
  2  fp:1000003  118x118   2066     28224     545 us     694 us  refused
  3  fp:1000003  164x164   2674     46656     475 us     704 us  not tried

``Jet(...)`` validates outside input: key lengths, degrees and zeros.
Internal results whose invariants hold by construction (sums, negations,
truncations, derivatives, products, substitutions, parses) are built with
``Jet._valid``, which checks nothing; each such site states why it may.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from collections import Counter
from itertools import chain, compress, repeat

from . import linalg
from .field import (ArchimedeanValuation, BinaryField, Field, PrimeField, RationalField,
                    Valuation)

# order() of the zero jet: larger than any precision, safe in comparisons
ABOVE_PRECISION = math.inf


class PrecisionError(ValueError):
    pass


class VerificationError(Exception):
    """An exact check of a computed result failed.

    Not a ValueError: the input was accepted, and the failure is the
    program's (or a supplied certificate's).  ``stage`` names the step whose
    check failed.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def grlex_key(alpha):
    """Sort key for graded lexicographic term order (x1-major within a degree)."""
    return (sum(alpha), tuple(-e for e in alpha))


class Jet:
    __slots__ = ("field", "nvars", "prec", "coeffs")

    def __init__(self, field: Field, nvars: int, prec: int, coeffs: dict):
        if prec < 0:
            raise PrecisionError("precision must be >= 0")
        clean = {}
        zero = field.zero
        for alpha, c in coeffs.items():
            if c == zero:
                continue
            if len(alpha) != nvars:
                raise ValueError(f"exponent {alpha} does not have {nvars} entries")
            if sum(alpha) > prec:
                raise PrecisionError(f"term {alpha} exceeds precision {prec}")
            clean[alpha] = c
        self.field = field
        self.nvars = nvars
        self.prec = prec
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def _valid(cls, field, nvars, prec, coeffs):
        """A jet without ``__init__``'s checks: coeffs has keys of nvars
        entries and degree <= prec, and no zero value.

        For results whose invariants hold by construction; ``Jet(...)``
        is for outside input."""
        jet = object.__new__(cls)
        jet.field, jet.nvars, jet.prec, jet.coeffs = field, nvars, prec, coeffs
        return jet

    @classmethod
    def zero(cls, field, nvars, prec):
        return cls(field, nvars, prec, {})

    @classmethod
    def variable(cls, field, nvars, i, prec):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        if prec < 1:
            raise PrecisionError("a coordinate jet needs precision >= 1")
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, prec, {alpha: field.one})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self):
        """Smallest total degree of a nonzero term, or ABOVE_PRECISION."""
        if not self.coeffs:
            return ABOVE_PRECISION
        return min(sum(a) for a in self.coeffs)

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, self.field.zero)

    def degree_part(self, d: int) -> "Jet":
        # a subset of this jet's terms
        return Jet._valid(self.field, self.nvars, self.prec,
                          {a: c for a, c in self.coeffs.items() if sum(a) == d})

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.field == other.field
                and self.nvars == other.nvars and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __repr__(self):
        from .expr import serialize_jet
        return f"Jet({serialize_jet(self)!r})"

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError("jets over different fields")
        if self.nvars != other.nvars:
            raise ValueError("jets in different numbers of variables")

    def __add__(self, other):
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        field = self.field
        zero = field.zero
        out = self._terms_to(prec)
        theirs = other.coeffs if other.prec == prec else other._terms_to(prec)
        for a, c in theirs.items():
            s = field.add(out.get(a, zero), c)
            if s == zero:
                out.pop(a, None)
            else:
                out[a] = s
        # both operands' terms of degree <= prec, zero sums dropped
        return Jet._valid(field, self.nvars, prec, out)

    def __neg__(self):
        field = self.field
        # the negative of a nonzero element is nonzero
        return Jet._valid(field, self.nvars, self.prec,
                          {a: field.neg(c) for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        field = self.field
        prec = min(self.prec, other.prec)
        packing = _Packing(prec, self.nvars)
        route = _route(field)
        out = {}
        _product_into(out, packing.terms(self.coeffs), packing.terms(other.coeffs),
                      packing.limit, route.add, route.mul, packing)
        # the kernel keeps keys below the limit: degree <= prec
        return Jet._valid(field, self.nvars, prec, packing.unpack(route.decode(out)))

    def scale(self, c) -> "Jet":
        field = self.field
        if c == field.zero:
            return Jet.zero(field, self.nvars, self.prec)
        # a field has no zero divisors: c times a nonzero coefficient is nonzero
        return Jet._valid(field, self.nvars, self.prec,
                          {a: field.mul(c, v) for a, v in self.coeffs.items()})

    # -- truncation, order, differentiation ------------------------------------

    def _terms_to(self, k):
        """A copy of the terms of degree <= k: a plain copy when k >= prec."""
        if k >= self.prec:
            return dict(self.coeffs)
        return {a: c for a, c in self.coeffs.items() if sum(a) <= k}

    def truncate(self, k: int) -> "Jet":
        if k > self.prec:
            raise PrecisionError(f"cannot truncate precision-{self.prec} jet at {k}")
        if k < 0:
            raise PrecisionError("precision must be >= 0")
        # this jet's terms of degree <= k
        return Jet._valid(self.field, self.nvars, k, self._terms_to(k))

    def partial(self, i: int) -> "Jet":
        """Formal partial derivative; the exponent multiplies in the field."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        if self.prec < 1:
            raise PrecisionError("cannot differentiate a precision-0 jet")
        field = self.field
        out = {}
        for a, c in self.coeffs.items():
            e = a[i]
            if e and (coeff := field.mul(field.from_int(e), c)) != field.zero:
                # lowering exponent i is one-to-one on the terms it keeps
                out[a[:i] + (e - 1,) + a[i + 1:]] = coeff
        # one exponent lowered: degree <= prec - 1, zeros dropped
        return Jet._valid(field, self.nvars, self.prec - 1, out)

    # -- substitution -----------------------------------------------------------

    def substitute(self, parts) -> "Jet":
        """Evaluate the jet at an n-tuple of jets with zero constant term.

        Every part must live in the same target variable set and carry at
        least this jet's precision; the result is exact at that precision.
        """
        return _substitute_batch([self], parts)[0]

    # -- second-order data ---------------------------------------------------

    def linear(self) -> dict:
        """The coefficients {j: c} of the degree-1 terms c x_j, read in one
        pass over the terms: the one reader of this jet's linear part."""
        return {a.index(1): c for a, c in self.coeffs.items() if sum(a) == 1}

    def gram(self) -> dict:
        """The Gram entries {(i, j): c}, i <= j, of the degree-2 terms c x_i x_j:
        the one reader of the quadratic form that is this jet's 2-jet."""
        return {tuple(i for i, e in enumerate(a) for _ in range(e)): c
                for a, c in self.coeffs.items() if sum(a) == 2}

    def hessian(self):
        """Second partials at 0: the polar matrix U + U^T of the Gram matrix U."""
        if self.prec < 2:
            raise PrecisionError("hessian needs precision >= 2")
        field = self.field
        n = self.nvars
        h = [[field.zero] * n for _ in range(n)]
        two = field.from_int(2)
        for (i, j), c in self.gram().items():
            if i == j:
                h[i][i] = field.mul(two, c)
            else:
                h[i][j] = h[j][i] = c
        return h

    def hessian_rank(self) -> int:
        return linalg.rank(self.field, self.hessian())

    # -- norms -----------------------------------------------------------------

    def norm(self, valuation: Valuation, eps):
        """The weighted coefficient norm  sum |c_alpha| * eps^alpha.

        A float for the archimedean valuation (ValueError beyond the float
        range), an exact Fraction otherwise.
        """
        valuation.check(self.field)
        eps = list(eps)
        if len(eps) != self.nvars:
            raise ValueError(f"need {self.nvars} radii, got {len(eps)}")
        for e in eps:
            if e <= 0:
                raise ValueError("radii must be positive")
        total = Fraction(0)
        for a, c in self.coeffs.items():
            weight = Fraction(1)
            for e, r in zip(a, eps):
                if e:
                    weight *= Fraction(r) ** e
            total += valuation.value(self.field, c) * weight
        if not isinstance(valuation, ArchimedeanValuation):
            return total
        try:
            return float(total)
        except OverflowError:
            raise ValueError("the archimedean norm exceeds the float range") from None


class _Packing:
    """Monomials in m variables up to total degree prec, one int each.

    Exponent beta_j sits in bits [w*j, w*j + w) with w = prec.bit_length(),
    and the total degree in the field above them.  Keys add under
    multiplication; every kept product has degree <= prec < 2^w, so no
    exponent field carries, and a key is at or above ``(d + 1) << shift``
    exactly when its degree exceeds d (``limit`` for d = prec).  Term lists
    sorted by key are sorted by degree, so truncation is a ``break``.
    """

    def __init__(self, prec, m):
        self.m = m
        self.width = max(prec, 0).bit_length()
        self.shift = self.width * m
        self.limit = (prec + 1) << self.shift
        # exponent j's weight: its bit field plus one unit of the degree field
        self.weights = [(1 << self.width * j) + (1 << self.shift) for j in range(m)]

    def pack(self, beta):
        return sum(map(operator.mul, beta, self.weights))

    def terms(self, coeffs):
        """The terms of degree <= prec of a tuple-keyed dict, packed and sorted by key.

        A key is at or above the limit exactly when its degree exceeds prec,
        whether or not its exponent fields carried."""
        weights, limit, mul = self.weights, self.limit, operator.mul
        return sorted((k, c) for beta, c in coeffs.items()
                      if (k := sum(map(mul, beta, weights))) < limit)

    def unpack(self, packed):
        """The tuple-keyed coefficient dict of a packed one: keys of m entries."""
        mask = (1 << self.width) - 1
        shifts = [self.width * j for j in range(self.m)]
        return {tuple([key >> s & mask for s in shifts]): c for key, c in packed.items()}


def _substitute_batch(sources, parts):
    """``[f.substitute(parts) for f in sources]``: the batch's checks, then the
    sources and parts packed once at their top precision for ``_substitute_packed``."""
    parts = list(parts)
    n = len(parts)
    for f in sources:
        if f.nvars != n:
            raise ValueError(f"need {f.nvars} substitution components, got {n}")
        if f.field != sources[0].field:
            raise ValueError("substitution components over a different field")
    if not n or not sources:
        return [Jet(f.field, 0, f.prec, dict(f.coeffs)) for f in sources]
    field = sources[0].field
    prec = max(f.prec for f in sources)
    m = parts[0].nvars
    for p in parts:
        if p.field != field:
            raise ValueError("substitution components over a different field")
        if p.nvars != m:
            raise ValueError("substitution components in different variable sets")
        if p.prec < prec:
            raise PrecisionError("substitution component precision below target")
        if p.constant_term() != field.zero:
            raise ValueError("substitution component has a nonzero constant term")
    packing, source = _Packing(prec, m), _Packing(prec, n)
    outs = _substitute_packed([(source.terms(f.coeffs), f.prec) for f in sources], source,
                              [packing.terms(p.coeffs) for p in parts], packing, _route(field))
    return [Jet._valid(field, m, f.prec, packing.unpack(out)) for f, out in zip(sources, outs)]


def _substitute_packed(sources, source, bases, packing, route):
    """The values of the sources at the parts ``bases``, each at its source's
    precision, as packed dicts of field elements without zeros.

    A source is a pair (terms, prec): a packed term list at ``source``, in
    any order and without terms above prec; exponents are read from its keys.
    The parts are packed term lists with zero constant term, sorted by key,
    at ``packing``, without terms above top, the largest prec.  The sum
    c_alpha * prod parts[i]^alpha_i is computed on packed monomials in the m
    target variables and on the route's native values (``_route``), which
    encodes the parts once; their cached powers are cut at top.  The Horner
    levels are the parts of two or more terms, most terms outermost; the
    others are folded into the last level, where they make no product.
    """
    n = len(bases)
    shift = packing.shift
    top_limit = (max(prec for _, prec in sources) + 1) << shift
    offsets, mask = [source.width * i for i in range(n)], (1 << source.width) - 1
    add, mul, multiplicand = route.add, route.mul, route.terms
    bases, d = route.encode_parts(bases)
    powers = [[None, base] for base in bases]
    orders = [base[0][0] >> shift if base else None for base in bases]
    levels = sorted((i for i in range(n) if len(bases[i]) > 1), key=lambda i: -len(bases[i]))
    folded = [(j, offsets[j]) for j in range(n) if len(bases[j]) <= 1]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(_next_power(cache, top_limit, packing, route))
        return cache[e]

    def horner(terms, budget, out):
        """out += sum of c * prod parts[i]^alpha_i over the terms, to degree budget.

        One loop over a work list of tasks, last in first out.  A sum task
        (k, terms, budget, out) adds its terms' values over levels[k:] and the
        folded parts.  f = sum_e x_i^e f_e for i = levels[k]: the task pushes,
        per exponent e in reverse, a product task and above it the sum task of
        f_e to the budget left after part i's order, so f_e is complete when
        its product multiplies it once by parts[i]^e; tasks run in the order
        of a recursive Horner.  On the last level a term's folded parts make
        no product (their power keys add, c takes their one coefficients), and
        the term makes one product with the last dense part's power, if any.
        """
        work = [(0, terms, budget, out)]
        while work:
            task = work.pop()
            if task[0] is None:  # (None, i, e, inner, limit, out): inner's tasks are done
                _, i, e, inner, limit, out = task
                _product_into(out, power(i, e), multiplicand(inner), limit, add, mul, packing)
                continue
            k, terms, budget, out = task
            limit = (budget + 1) << shift
            if k + 1 >= len(levels):
                i = levels[k] if levels else None
                for alpha, c in terms:
                    key = 0
                    for j, offset in folded:
                        e = alpha >> offset & mask
                        if e:
                            if orders[j] is None or e * orders[j] > budget:
                                break
                            (kj, cj), = power(j, e)
                            key += kj
                            c = mul(c, cj)
                    else:
                        e = 0 if i is None else alpha >> offsets[i] & mask
                        if e == 0:
                            if key < limit:
                                v = out.get(key)
                                out[key] = c if v is None else add(v, c)
                        elif e * orders[i] <= budget:
                            _product_into(out, [(key, c)], power(i, e), limit, add, mul)
                continue
            i = levels[k]
            order, offset = orders[i], offsets[i]
            groups = {}
            for alpha, c in terms:
                groups.setdefault(alpha >> offset & mask, []).append((alpha, c))
            for e, group in reversed(groups.items()):
                if e == 0:
                    work.append((k + 1, group, budget, out))
                elif e * order <= budget:
                    inner = {}
                    work.append((None, i, e, inner, limit, out))
                    work.append((k + 1, group, budget - e * order, inner))

    results = []
    for terms, prec in sources:
        out = {}
        terms, scale = route.encode(terms, source.shift, d)
        horner(terms, prec, out)
        results.append(route.unscale(out, scale))
    return results


def _route(field):
    """The native values and operations for the field, one stateless route per
    field type.  Every product, substitution and elimination loop takes its
    route here, so a field type without one is refused."""
    if isinstance(field, RationalField):
        return _RationalRoute()
    if isinstance(field, PrimeField):
        return _PrimeRoute(field.p)
    if isinstance(field, BinaryField):
        return _BinaryRoute(field)
    raise TypeError(f"no route for {type(field).__name__}: "
                    "coefficients lie in Q, GF(p) or GF(2^k)")


class _Route:
    """The native values a coefficient loop computes on, and how it adds and
    multiplies them; this class adds and multiplies with Python's + and *,
    which the kernel runs inline.

    ``terms`` makes a packed dict of native values a sorted term list without
    zeros, ready to be a multiplicand; ``decode`` makes a packed result field
    elements without zeros.  Substitution: ``encode_parts`` encodes the parts
    once per batch and returns their common denominator d beside them,
    ``encode`` one source (degrees above bit ``shift``) and returns its scale,
    and ``unscale`` decodes a result at that scale; here both are 1.  The
    caller keeps them, so no route has per-call state.  ``char2`` marks
    characteristic 2, where squaring is additive.  The subclasses add the
    echelon's row operations: ``monic`` makes a generator's terms normal,
    ``eliminate`` cancels a row's lead against a normal pivot in place, and
    ``normalize`` makes a reduced row normal: monic at the lead (the lowest
    key) over GF(p) and GF(2^k), primitive integers over Q.
    """

    add = operator.add
    mul = operator.mul
    char2 = False

    def encode_parts(self, bases):
        return bases, 1

    def encode(self, terms, shift, d):
        return terms, 1

    def terms(self, packed):
        return sorted((k, c) for k, c in packed.items() if c)

    def decode(self, packed):
        return {k: c for k, c in packed.items() if c}

    def unscale(self, packed, scale):
        return self.decode(packed)

    def monic(self, terms):
        return list(self.normalize(dict(terms), terms[0][0]).items())


class _RationalRoute(_Route):
    """Q: products add and multiply the Fractions themselves; substitution
    and the echelon compute fraction-free, on integers.

    With d the lcm of the parts' denominators, each part is P_i / d with P_i
    integral.  With b the lcm of one source's denominators and top its
    largest degree, c_alpha * b * d^(top - |alpha|) * prod P_i^alpha_i is an
    integer, and is the scale b * d^top times the term it stands for.  The
    scale uses the source's top degree, not the precision, which may be as
    large as 10^9.

    Echelon rows are integers, reduced as row <- a*row - b*pivot.  Pivots
    are primitive after a step; a row cut at the cutoff that took no step
    may keep a content above 1, which affects coefficient size only.
    """

    def encode_parts(self, bases):
        d = math.lcm(*(c.denominator for base in bases for _, c in base))
        return [[(k, c.numerator * (d // c.denominator)) for k, c in base] for base in bases], d

    def encode(self, terms, shift, d):
        b = math.lcm(*(c.denominator for _, c in terms))
        top = max((k for k, _ in terms), default=0) >> shift
        return ([(k, c.numerator * (b // c.denominator) * d ** (top - (k >> shift)))
                 for k, c in terms], b * d ** top)

    def unscale(self, packed, scale):
        return {k: Fraction(c, scale) for k, c in packed.items() if c}

    def monic(self, terms):
        scale = math.lcm(*(c.denominator for _, c in terms))
        ints = [(k, c.numerator * (scale // c.denominator)) for k, c in terms]
        content = math.gcd(*(c for _, c in ints))
        return [(k, c // content) for k, c in ints]

    def eliminate(self, row, pivot, lead):
        a, b = pivot[lead], row[lead]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for m in row:
                row[m] *= a
        for m, v in pivot.items():
            new = row.get(m, 0) - b * v
            if new:
                row[m] = new
            else:
                del row[m]

    def normalize(self, row, lead):
        content = math.gcd(*row.values())
        return {m: c // content for m, c in row.items()}


class _PrimeRoute(_Route):
    """Residues multiplied and added as ints, reduced mod p once per coefficient:
    when a product or a sum becomes a multiplicand, and at the end.  An
    echelon step reduces each coefficient it changes."""

    def __init__(self, p):
        self.p = p
        self.char2 = p == 2

    def terms(self, packed):
        return sorted(self.decode(packed).items())

    def decode(self, packed):
        p = self.p
        return {k: r for k, c in packed.items() if (r := c % p)}

    def eliminate(self, row, pivot, lead):
        p = self.p
        c = row[lead]
        for m, v in pivot.items():
            new = (row.get(m, 0) - c * v) % p
            if new:
                row[m] = new
            else:
                del row[m]

    def normalize(self, row, lead):
        p = self.p
        inv = pow(row[lead], -1, p)
        return {m: c * inv % p for m, c in row.items()}


class _BinaryRoute(_Route):
    """GF(2^k) masks, added by xor and multiplied by the field's
    ``nonzero_product``: one log/exp table lookup up to its table limit.
    The kernel and the echelon multiply only nonzero masks."""

    add = operator.xor
    char2 = True

    def __init__(self, field):
        self.field = field
        self.mul = field.nonzero_product()

    def eliminate(self, row, pivot, lead):
        mul = self.mul
        c = row[lead]
        for m, v in pivot.items():
            new = row.get(m, 0) ^ mul(c, v)
            if new:
                row[m] = new
            else:
                del row[m]

    def normalize(self, row, lead):
        mul = self.mul
        inv = self.field.inv(row[lead])
        return {m: mul(inv, c) for m, c in row.items()}


def _packed_product(a, b, limit, packing, route):
    """a * b as a packed term list sorted by key, without keys at or above
    limit, on the route's native values; ``route.terms`` makes the list."""
    out = {}
    _product_into(out, a, b, limit, route.add, route.mul, packing)
    return route.terms(out)


def _next_power(cache, limit, packing, route):
    """p^e below limit for e = len(cache), given cache = [None, p, ..., p^(e-1)]
    (module docstring).  One- and two-variable products keep the Kronecker route."""
    e = len(cache)
    half = cache[e // 2]
    if e % 2 == 0 and route.char2:
        return [(2 * k, route.mul(c, c)) for k, c in half if 2 * k < limit]
    pairs = len(cache[-1]) * len(cache[1])
    if e % 2 == 0 and packing.m > 2 and len(half) * (len(half) + 1) // 2 < pairs:
        out = {}
        _square_into(out, half, limit)
        return route.terms(out)
    return _packed_product(cache[-1], cache[1], limit, packing, route)


def _square_into(out, a, limit):
    """out += a * a for a packed term list sorted by key, dropping keys at or
    above limit, with Python's + and *: one pass over the unordered pairs,
    the cross sum doubled."""
    get = out.get
    for i, (ka, ca) in enumerate(a):
        k = ka + ka
        if k >= limit:
            break
        v = get(k)
        out[k] = ca * ca if v is None else v + ca * ca
        twice = ca + ca
        for kb, cb in a[i + 1:bisect_left(a, (limit - ka,))]:
            k = ka + kb
            v = get(k)
            out[k] = twice * cb if v is None else v + twice * cb


def _product_into(out, a, b, limit, add, mul, packing=None):
    """out += a * b for packed term lists sorted by key, dropping keys at or above limit.

    With Python's own + and * (``operator.add`` and ``operator.mul``, as the
    int routes pass them) the loop adds and multiplies inline, without a call,
    or, given the operands' ``packing``, may take the Kronecker route.
    """
    if not b:
        return
    b0 = b[0][0]
    get = out.get
    if add is operator.add and mul is operator.mul:
        if (packing is not None and packing.m <= 2
                and len(a) * len(b) >= (600 if packing.m == 1 else 4800)
                and _kronecker_into(out, a, b, limit, packing, _kronecker_pays)):
            return
        for ka, ca in a:
            if ka + b0 >= limit:
                break
            for kb, cb in b:
                k = ka + kb
                if k >= limit:
                    break
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb
        return
    for ka, ca in a:
        if ka + b0 >= limit:
            break
        for kb, cb in b:
            k = ka + kb
            if k >= limit:
                break
            v = get(k)
            out[k] = mul(ca, cb) if v is None else add(v, mul(ca, cb))


# (bits, typecode) of the unsigned array slots, narrowest first
_SLOT_TYPES = sorted({array(code).itemsize * 8: code for code in "HILQ"}.items())


def _kronecker_pays(pairs, box_bits):
    """The measured rule of the module docstring: the route beats the pair loop."""
    return pairs >= 256 and box_bits <= 8 * pairs


def _kronecker_into(out, a, b, limit, packing, pays):
    """out += a * b by one int product (module docstring), or False with out untouched:
    for values not ints >= 0, slots over 64 bits, a limit off a degree boundary, or
    ``pays(pairs, box_bits)`` false."""
    shift, width, m = packing.shift, packing.width, packing.m
    top = (limit >> shift) - 1
    if top < 1 or limit != (top + 1) << shift:
        return False
    a = a[:bisect_left(a, limit - b[0][0], key=operator.itemgetter(0))] if b else []
    if not a:
        return True
    b = b[:bisect_left(b, limit - a[0][0], key=operator.itemgetter(0))]
    (keys_a, values_a), (keys_b, values_b) = zip(*a), zip(*b)
    if set(map(type, values_a + values_b)) != {int} or min(values_a + values_b) < 0:
        return False
    hi_a, hi_b = max(values_a), max(values_b)
    need = hi_a.bit_length() + hi_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    if need > 64:
        return False
    bits, code = next(slot for slot in _SLOT_TYPES if slot[0] >= need)
    rshift, mask = operator.rshift, repeat((1 << width) - 1)

    def digits(keys):  # per key, most significant first: degree, e_{m-2}, ..., e_0
        return [list(map(rshift, keys, repeat(shift)))] + [
            list(map(operator.and_, map(rshift, keys, repeat(width * j)), mask))
            for j in range(m - 2, -1, -1)]

    digits_a, digits_b = digits(keys_a), digits(keys_b)
    radices = [min(top, max(x) + max(y)) + 1 for x, y in zip(digits_a, digits_b)]
    box = math.prod(radices)
    pairs = sum(n * bisect_right(digits_b[0], top - d) for d, n in Counter(digits_a[0]).items())
    if not pays(pairs, box * bits):
        return False

    def packed(digits, values):
        slots = digits[0]
        for digit, radix in zip(digits[1:], radices[1:]):
            slots = list(map(operator.add, map(operator.mul, slots, repeat(radix)), digit))
        row = array(code, bytes((digits[0][-1] + 1) * box // radices[0] * bits // 8))
        for i, c in zip(slots, values):
            row[i] = c
        return int.from_bytes(row, sys.byteorder)

    product = packed(digits_a, values_a) * packed(digits_b, values_b) & ((1 << box * bits) - 1)
    sums = array(code, product.to_bytes(box * bits // 8, sys.byteorder))
    # each slot's key in slot order: a unit of digit i adds steps[i] (e_{m-1} is
    # the degree less the others); a slot whose exponents exceed its degree stays 0
    last = 1 << width * (m - 1)
    steps = [(1 << shift) + last] + [(1 << width * j) - last for j in range(m - 2, -1, -1)]
    starts = [0]
    for step, radix in zip(steps[:-1], radices):
        starts = [s + e * step for s in starts for e in range(radix)]
    keys = chain.from_iterable(range(s, s + radices[-1] * steps[-1], steps[-1]) for s in starts)
    for k, v in compress(zip(keys, sums), sums):
        out[k] = out.get(k, 0) + v
    return True


class CoordinateChange:
    """An n-tuple of jets with zero constant terms, acting by substitution.

    The change is an automorphism exactly when the linear-part matrix
    (d phi_i / d x_j at 0) is invertible over the field.
    """

    __slots__ = ("field", "nvars", "prec", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a coordinate change needs at least one component")
        first = components[0]
        for c in components:
            if c.field != first.field or c.nvars != len(components) or c.prec != first.prec:
                raise ValueError("components must be jets in n variables at one precision")
            if c.constant_term() != c.field.zero:
                raise ValueError("coordinate change component has a nonzero constant term")
        self.field = first.field
        self.nvars = len(components)
        self.prec = first.prec
        self.components = components

    @classmethod
    def from_linear(cls, field, matrix, prec):
        """Linear change with components phi_i = sum_j matrix[i][j] * x_j."""
        n = len(matrix)
        comps = []
        for row in matrix:
            coeffs = {}
            for j, c in enumerate(row):
                if c != field.zero:
                    alpha = tuple(1 if t == j else 0 for t in range(n))
                    coeffs[alpha] = c
            comps.append(Jet(field, n, prec, coeffs))
        return cls(comps)

    def linear_matrix(self):
        zero = self.field.zero
        return [[linear.get(j, zero) for j in range(self.nvars)]
                for linear in map(Jet.linear, self.components)]

    def is_automorphism(self) -> bool:
        return linalg.rank(self.field, self.linear_matrix()) == self.nvars

    def apply(self, f: Jet) -> Jet:
        return f.substitute(self.components)

    def compose(self, inner: "CoordinateChange") -> "CoordinateChange":
        """The change x -> self(inner(x)), so f.substitute matches chaining:
        compose(compose(f, self), inner) == compose(f, self.compose(inner))."""
        return CoordinateChange(_substitute_batch(self.components, inner.components))

    def __eq__(self, other):
        return isinstance(other, CoordinateChange) and self.components == other.components

    def __repr__(self):
        return f"CoordinateChange({list(self.components)!r})"
