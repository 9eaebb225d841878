"""Classification of quadratic forms.

A quadratic form is the 2-jet of a series: the classifiers take a series f
in m^2 and classify ``f.truncate(2)``.  ``Jet.gram`` is the one reader of
its Gram entries and ``QuadNormalForm.normal_jet`` writes the normal form
straight into a ``Jet``.

Away from characteristic 2 a form is congruence-diagonalized; in
characteristic 2 it is brought to Arf normal form (hyperbolic-style pairs
``a x_i^2 + x_i x_{i+1} + b x_{i+1}^2`` plus a diagonal square tail), with a
further reduction to the solvable-field normal forms when the needed square
roots and affine quadratics have solutions.  Every producer changes
coordinates in place, one elementary congruence at a time on the columns of
its transition matrix (and on the rows and columns of the Gram matrix it
reduces), and then checks its transition by exact substitution before
returning.

In characteristic 2 the reduced matrix is the polar matrix b, which is
alternating (zero diagonal).  For a pair (i, j) with b(i, j) != 0, every
other free x_t gains b(t, j)/b(i, j) times x_i and b(t, i)/b(i, j) times
x_j.  As b(i, i) = b(j, j) = 0, afterwards b(t, i) = b(t, j) = 0, and b
stays alternating, since a congruence M^T b M of an alternating b is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from . import linalg
from .field import _MR_LIMIT, CharacteristicError, Field, FieldError, RationalField, _is_prime
from .jet import CoordinateChange, Jet, VerificationError


class QuadraticShapeError(ValueError):
    pass


class SplitShapeError(ValueError):
    pass


TRIAL_BOUND = 1 << 21


def _square_free_split(fr: Fraction):
    """Write fr = s * t^2 with s a squarefree integer (t > 0 rational).

    Trial division stops at B = TRIAL_BOUND.  A cofactor left below B^3 is 1,
    p, p*q or p^2 with primes p != q >= B, told apart by isqrt.  A larger one
    is decided when it is a prime or the square of a prime that Miller-Rabin
    proves prime (below ``field._MR_LIMIT``), and rejected with ValueError
    otherwise.
    """
    if fr == 0:
        return Fraction(0), Fraction(1)
    m = fr.numerator * fr.denominator
    sign = -1 if m < 0 else 1
    mm = abs(m)
    u, s0 = 1, 1
    d = 2
    while d * d <= mm and d < TRIAL_BOUND:
        if mm % d == 0:
            e = 0
            while mm % d == 0:
                mm //= d
                e += 1
            u *= d ** (e // 2)
            if e % 2:
                s0 *= d
        d += 1
    small = mm < TRIAL_BOUND ** 3
    r = isqrt(mm)
    if r * r == mm and (small or _proved_prime(r)):
        u *= r
    elif small or _proved_prime(mm):
        s0 *= mm
    else:
        raise ValueError(
            f"cannot take the squarefree part of the diagonal coefficient {fr}: its factor "
            f"{mm} has no prime factor below {TRIAL_BOUND}, is not below {TRIAL_BOUND}^3, "
            f"and is not a prime or the square of a prime below {_MR_LIMIT}")
    return Fraction(sign * s0), Fraction(u, fr.denominator)


def _proved_prime(n: int) -> bool:
    return n < _MR_LIMIT and _is_prime(n)


@dataclass
class QuadNormalForm:
    """A classified 2-jet together with the linear transition onto it.

    ``matrix`` is the substitution matrix S: applying the change
    phi_i = sum_j S[i][j] x_j to the original form reproduces ``normal_jet``.
    ``normal_jet`` writes the split shape as a ``Jet`` and ``read_split_shape``
    reads it back from ``Jet.gram``; no other module of the library knows
    where its coefficients sit.
    The splitting loop reads its ``nvars``, ``rank``, ``matrix`` and
    ``head_jet``; transport its ``nvars``, ``rank``, ``head_jet`` and ``normal_jet``.

    The normal jet is the ``diagonal`` squares, then one block
    a x_k^2 + x_k x_{k+1} + b x_{k+1}^2 per entry (a, b) of ``pairs``, then the
    ``tail`` squares, on consecutive variables; the head leaves out the tail.
    Each variant fills them so:

    - ``diagonal`` and ``unit_diagonal``: ``diagonal`` only;
    - ``arf``: ``pairs`` and ``tail``, the tail one square per radical vector;
    - ``char2_solvable_a``: ``pairs`` of zeros and ``tail = (1,)``;
    - ``char2_solvable_b``: ``pairs`` of zeros only.
    """

    variant: str  # diagonal | unit_diagonal | arf | char2_solvable_a | char2_solvable_b
    field: Field
    matrix: list
    diagonal: tuple = ()
    pairs: tuple = ()
    tail: tuple = ()

    @property
    def nvars(self) -> int:
        return len(self.matrix)

    @property
    def half_rank(self) -> int:
        return len(self.pairs)

    @property
    def rank(self) -> int:
        return len(self.diagonal) + 2 * len(self.pairs)

    def normal_jet(self, prec: int = 2) -> Jet:
        field, n = self.field, self.nvars
        entries = [((i, i), a) for i, a in enumerate(self.diagonal)]
        k = len(self.diagonal)
        for a, b in self.pairs:
            entries += [((k, k), a), ((k, k + 1), field.one), ((k + 1, k + 1), b)]
            k += 2
        entries += [((k + j, k + j), d) for j, d in enumerate(self.tail)]
        if k + len(self.tail) > n:
            raise ValueError(f"the normal form does not fit in {n} variables")
        return Jet(field, n, prec, {tuple((t == i) + (t == j) for t in range(n)): c
                                    for (i, j), c in entries})

    def head_jet(self, prec: int = 2) -> Jet:
        """Only the nondegenerate head: the normal jet without its tail."""
        return replace(self, tail=()).normal_jet(prec)

    @classmethod
    def read_split_shape(cls, f: Jet) -> "QuadNormalForm":
        """The identity-transition normal form whose ``normal_jet`` is f's 2-jet.

        f must lie in m^2.  Away from characteristic 2 its 2-jet must be
        diagonal in leading position (variant ``diagonal``); in characteristic
        2 its cross terms must be x_1 x_2, x_3 x_4, ... with coefficient 1
        (variant ``arf``).  Raises SplitShapeError otherwise.
        """
        field = f.field
        n = f.nvars
        if any(sum(alpha) < 2 for alpha in f.coeffs):
            raise SplitShapeError("series has terms of degree < 2")
        gram = f.gram()
        squares = {i: c for (i, j), c in gram.items() if i == j}
        cross = {ij: c for ij, c in gram.items() if ij[0] != ij[1]}
        identity = linalg.identity(field, n)
        if field.char != 2:
            if cross:
                raise SplitShapeError("2-jet is not diagonal")
            if sorted(squares) != list(range(len(squares))):
                raise SplitShapeError("diagonal entries are not in leading position")
            return cls("diagonal", field, identity,
                       diagonal=tuple(squares[i] for i in range(len(squares))))
        rank = 2 * len(cross)
        if sorted(cross) != [(i, i + 1) for i in range(0, rank, 2)]:
            raise SplitShapeError("2-jet cross terms do not pair consecutive variables")
        if any(c != field.one for c in cross.values()):
            raise SplitShapeError("2-jet pair middle coefficients are not 1")
        d = [squares.get(i, field.zero) for i in range(n)]
        return cls("arf", field, identity,
                   pairs=tuple(zip(d[0:rank:2], d[1:rank:2])), tail=tuple(d[rank:]))

    def to_json(self) -> dict:
        fmt = self.field.format_scalar
        out = {
            "variant": self.variant,
            "rank": self.rank,
            "nvars": self.nvars,
        }
        if self.variant in ("diagonal", "unit_diagonal"):
            out["diagonal"] = [fmt(a) for a in self.diagonal]
        elif self.variant == "arf":
            out["pairs"] = [[fmt(a), fmt(b)] for a, b in self.pairs]
            out["tail"] = [fmt(d) for d in self.tail]
        else:
            out["half_rank"] = self.half_rank
            out["has_square"] = self.variant == "char2_solvable_a"
        out["transition_matrix"] = [[fmt(c) for c in row] for row in self.matrix]
        return out

    @classmethod
    def from_json(cls, field: Field, data: dict) -> "QuadNormalForm":
        """The head ``split`` writes: ``diagonal``, or ``arf`` in characteristic 2.

        Reads only the entries and the transition matrix, and raises
        FieldError for any other variant; the derived keys are not read.
        """
        parse = field.parse_scalar
        variant = data["variant"]
        if variant != ("arf" if field.char == 2 else "diagonal"):
            raise FieldError(f"variant {variant!r} is not the one split writes "
                             f"in characteristic {field.char}")
        matrix = [[parse(c) for c in row] for row in data["transition_matrix"]]
        if variant == "diagonal":
            return cls(variant, field, matrix, diagonal=tuple(parse(a) for a in data["diagonal"]))
        return cls(variant, field, matrix,
                   pairs=tuple((parse(a), parse(b)) for a, b in data["pairs"]),
                   tail=tuple(parse(d) for d in data["tail"]))


def _verify_transition(what: str, source: Jet, matrix, nf: QuadNormalForm):
    """Raise unless the invertible linear change ``matrix`` carries ``source`` to nf's 2-jet."""
    change = CoordinateChange.from_linear(nf.field, matrix, 2)
    if change.apply(source) != nf.normal_jet(2):
        raise VerificationError("quadform", f"the {what} does not give the normal form")
    if not change.is_automorphism():
        raise VerificationError("quadform", f"the {what} is singular")


# Elementary congruences, in place.  Each is one linear substitution with
# matrix M: every transition matrix S in ``mats`` becomes S M (a column
# operation) and the symmetric matrix b, when given, becomes M^T b M.


def _add(field: Field, mats, i, j, c, b=None):
    """x_i -> x_i + c x_j: column j gains c times column i (and so does row j of b)."""
    for m in mats if b is None else mats + [b]:
        for row in m:
            row[j] = field.add(row[j], field.mul(c, row[i]))
    if b is not None:
        b[j] = [field.add(y, field.mul(c, x)) for x, y in zip(b[i], b[j])]


def _scale(field: Field, mats, i, c, b=None):
    """x_i -> c x_i: column i (and row i of b) times c."""
    for m in mats if b is None else mats + [b]:
        for row in m:
            row[i] = field.mul(c, row[i])
    if b is not None:
        b[i] = [field.mul(c, x) for x in b[i]]


def _permute(mats, order, b=None):
    """Renumber the coordinates: the new x_k is the old x_{order[k]}."""
    for m in mats:
        m[:] = [[row[k] for k in order] for row in m]
    if b is not None:
        b[:] = [[b[k][t] for t in order] for k in order]


def _two_jet(f: Jet) -> Jet:
    """f's 2-jet, the quadratic form it classifies; f must lie in m^2."""
    if f.prec < 2:
        raise QuadraticShapeError("need precision >= 2 to extract a quadratic form")
    q = f.truncate(2)
    if q.order() < 2:
        raise QuadraticShapeError("series has terms of degree < 2")
    return q


def diagonalize(f: Jet) -> QuadNormalForm:
    """Congruence-diagonalize the 2-jet q of f over a field of characteristic != 2.

    Pivots prefer the smallest index with a nonzero diagonal entry; if the
    remaining block has a zero diagonal but a nonzero mixed entry a_ij, the
    substitution x_j -> x_j + x_i creates one.  Over the rationals each
    diagonal entry is reduced to its squarefree part.
    """
    q = _two_jet(f)
    field = q.field
    if field.char == 2:
        raise CharacteristicError("diagonalization requires characteristic != 2")
    n = q.nvars
    half = field.inv(field.from_int(2))
    b = [[field.mul(half, row.get(j, field.zero)) for j in range(n)]  # P/2
         for row in q.hessian()]
    s = linalg.identity(field, n)
    p = 0
    while p < n:
        piv = next((j for j in range(p, n) if b[j][j] != field.zero), None)
        if piv is None:
            pair = next(((i, j) for i in range(p, n) for j in range(i + 1, n)
                         if b[i][j] != field.zero), None)
            if pair is None:
                break
            i, j = pair
            _add(field, [s], j, i, field.one, b)  # x_j -> x_j + x_i makes b[i][i] = 2 b[i][j]
            continue
        if piv != p:
            order = list(range(n))
            order[p], order[piv] = piv, p
            _permute([s], order, b)
        for j in range(p + 1, n):
            if b[p][j] != field.zero:
                _add(field, [s], p, j, field.neg(field.div(b[p][j], b[p][p])), b)
        p += 1
    k = p
    if isinstance(field, RationalField):
        for i in range(k):
            _, t = _square_free_split(b[i][i])
            if t != 1:
                _scale(field, [s], i, field.inv(t), b)  # strips the square factor
    nf = QuadNormalForm("diagonal", field, s, diagonal=tuple(b[i][i] for i in range(k)))
    _verify_transition("transition", q, nf.matrix, nf)
    return nf


def diagonal_signs(nf: QuadNormalForm):
    """Sign pattern of the diagonal entries (rationals only)."""
    if not isinstance(nf.field, RationalField):
        raise ValueError("sign pattern is only defined over the rationals")
    return tuple("+" if a > 0 else "-" for a in nf.diagonal)


def normalize_squares(nf: QuadNormalForm):
    """Rescale a diagonal form to unit diagonal when every entry is a square.

    Returns None when some entry has no square root in the field.  The
    rescaling is checked to carry the diagonal form to the unit one.
    """
    if nf.variant != "diagonal":
        raise ValueError("normalize_squares expects a diagonal normal form")
    field = nf.field
    roots = [field.sqrt(a) for a in nf.diagonal]
    if any(r is None for r in roots):
        return None
    m = linalg.identity(field, nf.nvars)
    matrix = [row[:] for row in nf.matrix]
    for i, r in enumerate(roots):
        _scale(field, [m, matrix], i, field.inv(r))
    out = QuadNormalForm("unit_diagonal", field, matrix,
                         diagonal=tuple(field.one for _ in roots))
    _verify_transition("unit-diagonal rescaling", nf.normal_jet(2), m, out)
    return out


def arf_normal_form(f: Jet) -> QuadNormalForm:
    """Arf normal form of the 2-jet q of f: pair blocks with middle
    coefficient 1 plus a square tail.

    Reduces the polar matrix b in place, starting from the identity
    transition with every index free.  Each step takes the first free i with
    a free partner, and its first free partner j (b(i, j) != 0).  Every other
    free x_t gains b(t, j)/b(i, j) times x_i and b(t, i)/b(i, j) times x_j,
    which makes b(t, i) = b(t, j) = 0 and keeps b alternating, and x_i is
    scaled by 1/b(i, j).  The free indices left span the radical.  The pairs
    in the order found, then the radical in index order, are the new
    coordinates, and the pair and tail coefficients are q at their columns.
    """
    q = _two_jet(f)
    field = q.field
    if field.char != 2:
        raise CharacteristicError("Arf decomposition requires characteristic 2")
    zero = field.zero
    n = q.nvars
    b = [[row.get(j, zero) for j in range(n)] for row in q.hessian()]
    s = linalg.identity(field, n)
    free = list(range(n))
    order = []
    while (pair := next(((i, j) for i in free for j in free if b[i][j] != zero), None)):
        i, j = pair
        free = [t for t in free if t not in pair]
        cinv = field.inv(b[i][j])
        for t in free:
            bv, bw = field.mul(b[t][j], cinv), field.mul(b[t][i], cinv)
            _add(field, [s], i, t, bv, b)
            _add(field, [s], j, t, bw, b)
        _scale(field, [s], i, cinv, b)
        order += pair
    if any(b[r][k] != zero for r in free for k in range(n)):
        raise VerificationError("arf decomposition", "the radical is not orthogonal")
    _permute([s], order + free)
    gram = q.gram()
    value = []
    for v in zip(*s):   # q at each column of the transition
        total = zero
        for (i, j), c in gram.items():
            total = field.add(total, field.mul(c, field.mul(v[i], v[j])))
        value.append(total)
    rank = len(order)
    nf = QuadNormalForm("arf", field, s, pairs=tuple(zip(value[0:rank:2], value[1:rank:2])),
                        tail=tuple(value[rank:]))
    _verify_transition("transition", q, nf.matrix, nf)
    return nf


def arf_reduce_solvable(nf: QuadNormalForm):
    """Reduce an Arf normal form to x1x2 + ... (+ x_{2l+1}^2) if the field allows.

    Per pair this solves a_i u^2 + u + a_{i+1} = 0; the square tail is
    rescaled by square roots and collapsed to a single square.  Returns None
    when some required root does not exist.
    """
    if nf.variant != "arf":
        raise ValueError("arf_reduce_solvable expects an Arf normal form")
    field = nf.field
    l = nf.half_rank
    extra = linalg.identity(field, nf.nvars)
    matrix = [row[:] for row in nf.matrix]
    mats = [extra, matrix]
    for t, (a, c) in enumerate(nf.pairs):
        u = field.solve_affine_quadratic(a, c)
        if u is None:
            return None
        _add(field, mats, 2 * t, 2 * t + 1, u)
        _add(field, mats, 2 * t + 1, 2 * t, a)
    nonzero = [i for i, d in enumerate(nf.tail) if d != field.zero]
    order = nonzero + [i for i, d in enumerate(nf.tail) if d == field.zero]
    # renumber so the nonzero squares sit right after the pairs
    _permute(mats, list(range(2 * l)) + [2 * l + i for i in order])
    for pos, old in enumerate(nonzero):
        r = field.sqrt(nf.tail[old])
        if r is None:
            return None
        _scale(field, mats, 2 * l + pos, field.inv(r))
    k_sq = len(nonzero)
    for j in range(1, k_sq):
        _add(field, mats, 2 * l, 2 * l + j, field.one)  # collapse x^2 + ... onto one square
    square = (field.one,) if k_sq else ()
    out = QuadNormalForm("char2_solvable_a" if square else "char2_solvable_b", field, matrix,
                         pairs=tuple((field.zero, field.zero) for _ in range(l)), tail=square)
    _verify_transition("solvable reduction", nf.normal_jet(2), extra, out)
    return out


def normal_form(f: Jet) -> QuadNormalForm:
    """Classify the 2-jet of f: diagonalize, or Arf normal form in characteristic 2."""
    if f.field.char == 2:
        return arf_normal_form(f)
    return diagonalize(f)
