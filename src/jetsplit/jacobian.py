"""Milnor number and finite-determinacy bounds by exact linear algebra.

Inputs are treated as polynomials (their jets carry every term).  For an
ideal I with generators g, I + m^(s+1) is spanned modulo m^(s+1) by the
multiples beta*g with |beta| + ord g <= s, cut above degree s: the rows of a
truncated Macaulay matrix (Lazard, EUROCAL 1983).  Once m^s <= I + m^(s+1)
holds, Nakayama upgrades it to m^s <= I in the local ring.  With I = J, the
Jacobian ideal, that certifies a finite Milnor number mu = dim O/J, which is
then the codimension of J modulo m^s; with I = m^2 J it bounds determinacy.

A row's lead is its lowest-degree term.  Reduction never lowers a lead, so
truncation commutes with reduction: the rank at cutoff s is the number of
pivots of lead degree <= s in any echelon cut at a degree >= s.  The search
(``milnor_number``, ``determinacy_certificate``) therefore keeps one echelon,
cut at max_degree, and inserts the multiples in increasing order of lowest
degree.  Once the batch of lowest degree s is in, the pivots of lead degree
<= s are final: degree s is covered exactly when its pivot count equals the
number of degree-s monomials, and mu is read off the same echelon.

The search spans what inserting every row would span, with less work.
Rows R = beta*g_i go in the order (batch s, generator i, beta), with the
betas of one degree in lex order: x_1's exponent descending, then x_2's,
and so on.  Two rules, modulo m^(D+1) with D the max degree:

- Skip (the syzygy criterion of signature-based algorithms; Gao, Volny &
  Wang, Math. Comp. 2016): when beta*g_i reduces to zero or is skipped,
  every x_j*beta joins generator i's dead set, and a row whose beta is in
  that set is skipped.
- Lift (the Simplify step of Faugere's F4, JPAA 1999): a row that is not
  skipped, where beta/x_j left the pivot p for the first variable x_j
  dividing beta, is inserted as x_j*p.  Such rows arrive nearly reduced.

Why the span after every row is the one without the rules:

- Lex is a monomial order, so if row (s', i', beta') comes before
  (s, i, beta), then (s' + |gamma|, i', gamma*beta') comes before
  (s + |gamma|, i, gamma*beta), and it is offered whenever the latter is:
  its batch is no later and its multiplier no smaller.  Multiplying by a
  monomial commutes with the cut.
- Suppose the echelon spans the rows before each row so far.  A row that
  reduced to zero, or was skipped, lies in the span of the rows R' before
  it; gamma times it lies in the span of the rows gamma*R', which come
  before it, so skipping it loses nothing.
- p is a nonzero multiple of (beta/x_j)*g_i minus a combination of the rows
  R' before that row, so x_j*p is a nonzero multiple of beta*g_i minus a
  combination of the rows x_j*R', which come before beta*g_i: inserting
  x_j*p adds what inserting beta*g_i adds.

Hence the set of pivot leads, the per-degree pivot counts, the degree s and
mu are the ones every row would give.  The order matters for speed only:
any monomial order keeps the proof, but with the betas sorted by packed
key instead, the search on the non-isolated (x+y-z)^2*((x-y+2*z)^2 + x*y*z)
to max degree 30 makes 50% more elimination steps.  The verifiers insert
every row, so they stay an independent recount.

Every row enters with its lead known: beta*g's is beta times g's lead and
x_j*p's is x_j times p's lead, because the cut keeps a row's lowest term
unless it drops every term.  A non-empty row whose lead no pivot holds,
as most are, is a pivot as it arrived, with no reduction call; only the
other rows are reduced.  The search reads x_j, the first variable
dividing beta, from the lowest set bit of beta's packed exponent fields.

A ``MilnorReport`` holds mu, the least covering degree s and the order, a
``DeterminacyReport`` the least k with m^(k+2) <= m^2 J + m^(k+3) and the
order; each derives its bound 2*mu - order + 2 or 2*k - order + 2.  When no
Nakayama certificate appears up to max_degree, a report holds only the
order and max_degree: mu or k is "infinite or unknown", never a claim of
non-isolation, and it has no bound.

The verifiers (``verify_milnor``, ``verify_determinacy``) share the row
kernel but not the search.  Each builds a fresh echelon at the certified
cutoff, inserting generator by generator, and checks every monomial of the
certified degree by full reduction rather than by counting leads.
``verify_milnor`` recounts mu on that same echelon cut at s: since reduction
never lowers a lead, its pivots of lead degree <= s - 1 give the rank at
cutoff s - 1, and the rows it adds, those with |beta| + ord g = s, have no
term below degree s.  So its pivot count at degree s - 1 also tells
whether the degree is the least covering one (for s >= 2; k >= 1).
Like every check in the library, a verifier returns nothing on success and
raises ``VerificationError`` naming the condition that failed: a degree
claimed without mu, the order (a certificate claimed for the zero series
included), a degree below the least one that can certify, no cover at the
certified degree, a cover one degree lower or the mu recount.  Each search
runs its verifier on the report it found before returning it.  A step that
leaves its lead in the row (a pivot not monic) raises it with stage
``echelon``.

A search refuses (``ValueError``) a negative max degree, and a search or
check refuses more than ``MAX_MONOMIALS`` monomials of degree <= its
degree, which bounds the number of columns of its echelon.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

from .jet import ABOVE_PRECISION, Jet, VerificationError, _Packing, _route
from .linalg import _Pivots

DEFAULT_MAX_DEGREE = 12
# admits max_degree 198 in 2 variables, 47 in 3, 23 in 4, 15 in 5, 12 in 6, 10 in 7
MAX_MONOMIALS = 20_000


def count_monomials_upto(nvars: int, degree: int) -> int:
    return math.comb(degree + nvars, nvars)


def _check_search_size(nvars: int, max_degree: int):
    """Raise ValueError unless a search to max_degree fits MAX_MONOMIALS."""
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, not {max_degree}")
    count = count_monomials_upto(nvars, max_degree)
    if count > MAX_MONOMIALS:
        raise ValueError(f"{count} monomials of degree <= {max_degree} in {nvars} variables "
                         f"exceed the limit of {MAX_MONOMIALS}; lower --max-degree")


@functools.lru_cache(maxsize=256)
def _lex_monomials(nvars: int, width: int, degree: int):
    """Packed keys (``jet._Packing``, fields of this width) of the degree-d
    monomials in nvars variables, in lex order: x_1's exponent descending,
    then x_2's, and so on.  By stars and bars: e_j is the number of stars
    between bar j - 1 and bar j, and ``combinations`` yields the bars in
    ascending lex order, so the keys are reversed.  Pure, hence cached: the
    callers share each list and only read it."""
    if not nvars:
        return [0] if degree == 0 else []
    weights = [1 << width * j for j in range(nvars)]
    slots = degree + nvars - 1
    base = (degree << width * nvars) - sum(weights)  # the degree field, less 1 per e_j
    keys = [base + sum(map(operator.mul, map(operator.sub, (*bars, slots), (-1, *bars)), weights))
            for bars in combinations(range(slots), nvars - 1)]
    return keys[::-1]


class _Echelon(_Pivots):
    """Row echelon form of polynomials cut above degree ``cutoff``, reduced by
    ``linalg``'s pivots on the field's native values (``jet._route``).

    A row is a dict from packed monomial (``jet._Packing`` at precision
    cutoff) to nonzero coefficient.  Rows hold degrees <= cutoff only, so
    multiplying by beta adds its key, a key is below ``limit`` exactly when
    its degree is <= cutoff, and ``min(row)`` is a lowest-degree term, the
    lead.  At cutoff 0 every exponent field is empty and only the constant
    monomial, key 0, is below the limit.  The order of the pivots within a
    degree is arbitrary; only per-degree pivot counts are read.  Multiplier
    keys come from ``_lex_monomials``, shared by all echelons of one shape.

    The counters are plain ints: rows ``offered``, rows ``skipped`` without
    reduction (by the search), rows reduced to ``zero`` and ``steps``.

    Rows arrive normal: ``terms`` makes each generator's terms normal once
    (``monic``), and beta*g and x_j*p keep that lead, the lowest key, which
    the cut never drops.  Over Q the cut may drop the terms that kept the
    content 1, which only scales the row; dividing such a pivot by its
    content made the milnor-search bench's seed-1 pass slower, min 177-196
    ms against 160-180 ms (8 passes per run, 6 alternating runs, two-core
    Xeon, Python 3.11), with the same output.  The caller knows each row's
    lead: ``add`` keeps a row whose lead no pivot holds as a pivot as it
    is, without a reduction, and sends any other row to ``insert``.
    """

    def __init__(self, field, nvars: int, cutoff: int):
        super().__init__(_route(field))
        self.nvars = nvars
        self.packing = _Packing(cutoff, nvars)
        self.shift = self.packing.shift
        self.limit = self.packing.limit
        self.rank_by_degree = [0] * (cutoff + 1)
        self.offered = self.skipped = self.zero = 0

    def monomials(self, degree: int):
        """Packed keys of the degree-d monomials in lex order (``_lex_monomials``)."""
        return _lex_monomials(self.nvars, self.packing.width, degree)

    def terms(self, g: Jet):
        """Packed terms of g up to the cutoff, native and normal."""
        terms = self.packing.terms(g.coeffs)
        return self.route.monic(terms) if terms else terms

    def add(self, row: dict, lead: int):
        """Keep the row (consumed), whose lowest key is ``lead`` unless it is
        empty: as a pivot as it arrived when no pivot holds that lead, else
        through ``insert``.  Returns the new pivot's lead, or None at zero."""
        self.offered += 1
        if row and lead not in self.pivots:
            self.pivots[lead] = row
        elif (lead := self.insert(row)) is None:
            self.zero += 1
            return None
        self.rank_by_degree[lead >> self.shift] += 1
        return lead

    def contains_monomial(self, key: int) -> bool:
        return self.reduce({key: 1}) is None

    def covers(self, degree: int) -> bool:
        """Every degree-d monomial is a pivot lead (pivots of degree d are final)."""
        return self.rank_by_degree[degree] == math.comb(degree + self.nvars - 1, self.nvars - 1)

    def rank_upto(self, degree: int) -> int:
        return sum(self.rank_by_degree[:degree + 1])


def _growing_echelon(field, gens, nvars: int, max_degree: int,
                     min_multiplier_degree: int = 0):
    """Yield (s, echelon) after each batch of multiples of lowest degree s.

    One echelon cut at max_degree is offered every beta*g with
    |beta| >= min_multiplier_degree, in increasing order of |beta| + ord g,
    starting at s = 0 so that constant generators count.  When s is yielded,
    the pivots of lead degree <= s are final.  Rows in a generator's dead
    set are skipped, and a row whose beta/x_j left a pivot p is inserted as
    x_j*p (see the module docstring).  Multipliers are packed keys, so
    x_j*beta is beta's key plus the unit key of x_j, and the first variable
    dividing beta is the field of the lowest set bit of beta's key below the
    degree, looked up in a table built once.
    """
    ech = _Echelon(field, nvars, max_degree)
    pivots, limit, units = ech.pivots, ech.limit, ech.packing.weights
    # unit_at[b.bit_length()]: the unit key of x_j for the exponent field j
    # that holds bit b - 1; unit_at[0] is None, for beta = 1
    unit_at = [None] + [units[i // ech.packing.width] for i in range(ech.shift)]
    fields = (1 << ech.shift) - 1
    # per generator: order, terms, dead multipliers, the lead of the pivot
    # each multiplier left
    batches = [(int(g.order()), ech.terms(g), set(), {}) for g in gens]
    for s in range(max_degree + 1):
        for order, terms, dead, lead_of in batches:
            if s - order >= min_multiplier_degree:
                for kb in ech.monomials(s - order):
                    if kb in dead:
                        ech.offered += 1
                        ech.skipped += 1
                        lead = None
                    else:
                        # x_j for the first variable dividing beta: the lowest set bit
                        low = kb & fields
                        unit = unit_at[(low & -low).bit_length()]
                        lower = None if unit is None else lead_of.get(kb - unit)
                        if lower is None:
                            row = {kb + k: c for k, c in terms if kb + k < limit}
                            lead = ech.add(row, kb + terms[0][0])
                        else:
                            row = {unit + k: c for k, c in pivots[lower].items()
                                   if unit + k < limit}
                            lead = ech.add(row, unit + lower)
                    if lead is None:
                        dead.update([kb + unit for unit in units])
                    else:
                        lead_of[kb] = lead
        yield s, ech


def _ideal_echelon(field, gens, nvars: int, cutoff: int,
                   min_multiplier_degree: int = 0) -> _Echelon:
    """Fresh echelon of all beta*g mod m^(cutoff+1), generator by generator."""
    ech = _Echelon(field, nvars, cutoff)
    limit = ech.limit
    for g in gens:
        terms = ech.terms(g)
        for bdeg in range(min_multiplier_degree, cutoff - int(g.order()) + 1):
            for kb in ech.monomials(bdeg):
                ech.add({kb + k: c for k, c in terms if kb + k < limit}, kb + terms[0][0])
    return ech


def _check_cover(stage: str, ideal: str, f: Jet, gens, degree: int,
                 min_multiplier_degree: int = 0) -> _Echelon:
    """Raise unless m^degree <= ideal + m^(degree+1), by full reduction on a fresh
    echelon, and degree is the least such degree from the search's first one
    on (its pivot counts); return that echelon."""
    _check_search_size(f.nvars, degree)
    ech = _ideal_echelon(f.field, gens, f.nvars, degree, min_multiplier_degree)
    if not all(ech.contains_monomial(key) for key in ech.monomials(degree)):
        raise VerificationError(
            stage, f"no cover at degree {degree}: m^{degree} is not in {ideal} + m^{degree + 1}")
    if degree - 1 >= max(1, min_multiplier_degree) and ech.covers(degree - 1):
        raise VerificationError(
            stage, f"a cover at degree {degree - 1}: m^{degree - 1} is in {ideal} + m^{degree}")
    return ech


def jacobian_generators(f: Jet):
    """The nonzero partial derivatives of f."""
    return [g for g in (f.partial(i) for i in range(f.nvars)) if not g.is_zero()]


def _bound(degree: int | None, order: int | None) -> int | None:
    """The right-determinacy bound 2*degree - order + 2, for degree mu or k."""
    return None if degree is None or order is None else 2 * degree - order + 2


@dataclass
class MilnorReport:
    """Outcome of the bounded Milnor-number search; s is ``stabilization_degree``."""

    mu: int | None
    stabilization_degree: int | None
    order: int | None
    max_degree: int

    @property
    def determinacy_bound(self) -> int | None:
        return _bound(self.mu, self.order)


@dataclass
class DeterminacyReport:
    """Outcome of the bounded determinacy search; k is ``stabilization_degree``."""

    stabilization_degree: int | None
    order: int | None
    max_degree: int

    @property
    def bound(self) -> int | None:
        return _bound(self.stabilization_degree, self.order)


def _order(f: Jet):
    order = f.order()
    return None if order == ABOVE_PRECISION else int(order)


def _check_order(stage: str, f: Jet, claimed_order, name: str, value):
    """Raise unless the claimed order is the series'; a claimed value needs one."""
    order = _order(f)
    if claimed_order != order:
        raise VerificationError(stage, f"order {claimed_order} is not the series' order {order}")
    if value is not None and order is None:
        raise VerificationError(stage, f"{name} {value} is claimed for a series with no order "
                                "(the zero series)")


def _first_cover(f: Jet, max_degree: int, min_multiplier_degree: int = 0):
    """(s, echelon) at the least covered s >= max(1, min_multiplier_degree), or None."""
    _check_search_size(f.nvars, max_degree)
    least = max(1, min_multiplier_degree)
    gens = jacobian_generators(f)
    if gens:
        for s, ech in _growing_echelon(f.field, gens, f.nvars, max_degree, min_multiplier_degree):
            if s >= least and ech.covers(s):
                return s, ech
    return None


def milnor_number(f: Jet, max_degree: int = DEFAULT_MAX_DEGREE) -> MilnorReport:
    """The bounded search for mu; a found certificate is verified before it is returned."""
    order = _order(f)
    found = _first_cover(f, max_degree)
    if found is None:
        return MilnorReport(None, None, order, max_degree)
    s, ech = found
    mu = count_monomials_upto(f.nvars, s - 1) - ech.rank_upto(s - 1)
    report = MilnorReport(mu, s, order, max_degree)
    verify_milnor(f, report)
    return report


def verify_milnor(f: Jet, report: MilnorReport):
    """Re-check the certificate and mu on a fresh echelon, apart from the search.

    Every degree-s monomial must reduce to zero modulo J + m^(s+1), s must be
    the least such degree (for s >= 2, m^(s-1) is not in J + m^s), and mu
    must equal the codimension of J modulo m^s; the order must be the
    series'.  A report without mu claims only the order, and the zero
    series, which has no order, has no finite mu.
    Raises VerificationError naming the first condition that fails.
    """
    s = report.stabilization_degree
    if report.mu is None and s is not None:
        raise VerificationError("milnor", "a report without mu claims a degree")
    _check_order("milnor", f, report.order, "mu", report.mu)
    if report.mu is None:
        return
    if s is None or s < 1:
        raise VerificationError("milnor", f"stabilization degree {s} is not >= 1")
    gens = jacobian_generators(f)
    ech = _check_cover("milnor", "J", f, gens, s)
    mu = count_monomials_upto(f.nvars, s - 1) - ech.rank_upto(s - 1)
    if report.mu != mu:
        raise VerificationError("milnor", f"mu {report.mu} is not the recounted {mu}")


def determinacy_certificate(f: Jet, max_degree: int = DEFAULT_MAX_DEGREE) -> DeterminacyReport:
    """The bounded search for k; a found certificate is verified before it is returned."""
    order = _order(f)
    found = _first_cover(f, max_degree, min_multiplier_degree=2)
    if found is None:
        return DeterminacyReport(None, order, max_degree)
    report = DeterminacyReport(found[0] - 2, order, max_degree)
    verify_determinacy(f, report)
    return report


def verify_determinacy(f: Jet, report: DeterminacyReport):
    """Re-check the certificate m^(k+2) <= m^2 J + m^(k+3), that k is the least
    such degree (for k >= 1, m^(k+1) is not in m^2 J + m^(k+2)) and the order."""
    k = report.stabilization_degree
    _check_order("determinacy", f, report.order, "k", k)
    if k is None:
        return
    if k < 0:
        raise VerificationError("determinacy", f"degree {k} is not >= 0")
    _check_cover("determinacy", "m^2 J", f, jacobian_generators(f), k + 2,
                 min_multiplier_degree=2)
