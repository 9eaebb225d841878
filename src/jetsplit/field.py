"""Exact coefficient fields (rationals, GF(p), GF(2^k)) and real valuations.

Field elements are plain canonical Python values: ``Fraction`` for the
rationals, residues in ``[0, p)`` for GF(p), and bitmask integers below
``2^k`` (coefficient vectors of polynomials in ``t``) for GF(2^k).  All
arithmetic goes through a field object, which keeps the values canonical,
so ``==`` on values is structural equality of field elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property


class FieldError(ValueError):
    """Malformed field description or a value outside the field."""


class CharacteristicError(FieldError):
    """Operation requires a field of a different characteristic."""


# Low-weight irreducible polynomials over GF(2), one per degree k <= 16,
# given as exponent tuples.  These are the classical primitive polynomials
# (primitive implies irreducible); the test suite re-checks irreducibility.
_IRREDUCIBLE_EXPONENTS = {
    1: (1, 0),
    2: (2, 1, 0),
    3: (3, 1, 0),
    4: (4, 1, 0),
    5: (5, 2, 0),
    6: (6, 4, 3, 1, 0),
    7: (7, 1, 0),
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 6, 5, 3, 2, 1, 0),
    11: (11, 2, 0),
    12: (12, 7, 6, 5, 3, 1, 0),
    13: (13, 4, 3, 1, 0),
    14: (14, 7, 5, 3, 0),
    15: (15, 5, 4, 2, 0),
    16: (16, 5, 3, 2, 0),
}


def default_modulus(k: int) -> int:
    """Built-in irreducible modulus for GF(2^k), as a bitmask."""
    try:
        exps = _IRREDUCIBLE_EXPONENTS[k]
    except KeyError:
        raise FieldError(
            f"no built-in modulus for GF(2^{k}); supply one explicitly"
        ) from None
    m = 0
    for e in exps:
        m |= 1 << e
    return m


# ---------------------------------------------------------------------------
# raw GF(2)[t] arithmetic on bitmasks

def gf2_poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf2_poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_poly_mod(a, b)
    return a


def gf2_poly_irreducible(m: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial of degree >= 1."""
    k = m.bit_length() - 1
    if k < 1:
        return False
    t = 0b10

    def pow_x(exp_log2: int) -> int:
        # t^(2^exp_log2) mod m, by repeated squaring
        r = gf2_poly_mod(t, m)
        for _ in range(exp_log2):
            r = gf2_poly_mod(gf2_poly_mul(r, r), m)
        return r

    if pow_x(k) != gf2_poly_mod(t, m):
        return False
    for q in _prime_factors(k):
        if gf2_poly_gcd(pow_x(k // q) ^ t, m) != 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below the smallest strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 2017); larger moduli are rejected rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise FieldError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def format_t_poly(mask: int) -> str:
    """Render a GF(2) polynomial bitmask as ``t^3+t+1`` (descending)."""
    if mask == 0:
        return "0"
    parts = []
    for e in range(mask.bit_length() - 1, -1, -1):
        if mask >> e & 1:
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append("t")
            else:
                parts.append(f"t^{e}")
    return "+".join(parts)


def parse_t_poly(text: str) -> int:
    """Parse ``t^3+t+1``-style text (also ``t3+t+1``) to a bitmask."""
    mask = 0
    for raw in text.replace(" ", "").split("+"):
        if raw == "":
            raise FieldError(f"empty term in polynomial {text!r}")
        if raw == "1":
            mask ^= 1
        elif raw == "0":
            pass
        elif raw == "t":
            mask ^= 2
        elif raw.startswith("t"):
            body = raw[1:]
            if body.startswith("^"):
                body = body[1:]
            if not body.isdigit():
                raise FieldError(f"bad term {raw!r} in polynomial {text!r}")
            mask ^= 1 << int(body)
        else:
            raise FieldError(f"bad term {raw!r} in polynomial {text!r}")
    return mask


# ---------------------------------------------------------------------------


class Field:
    """Base class.  Subclasses implement exact arithmetic on canonical values."""

    char: int

    # -- ring structure -----------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        raise NotImplementedError

    # computed once per field object: elements are immutable values
    @cached_property
    def zero(self):
        return self.from_int(0)

    @cached_property
    def one(self):
        return self.from_int(1)

    # -- extras -------------------------------------------------------------
    def sqrt(self, a):
        """A square root of ``a``, or None if ``a`` is not a square."""
        raise NotImplementedError

    def solve_affine_quadratic(self, a, c):
        """Solve ``a*u^2 + u + c = 0`` (characteristic 2 only)."""
        raise CharacteristicError(f"affine quadratic solver needs char 2, not {self.char}")

    def format_scalar(self, a) -> str:
        raise NotImplementedError

    def parse_scalar(self, text: str):
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical field spec string (``q``, ``fp:7``, ``f2k:4``)."""
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.spec()


class RationalField(Field):
    """The rationals with exact ``Fraction`` arithmetic."""

    char = 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def from_int(self, n):
        return Fraction(n)

    def sqrt(self, a):
        if a < 0:
            return None
        rn = math.isqrt(a.numerator)
        rd = math.isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rn, rd)
        return None

    def format_scalar(self, a):
        return str(a)

    def parse_scalar(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}: {exc}") from None

    def spec(self):
        return "q"

    def _key(self):
        return ("q",)


class PrimeField(Field):
    """GF(p) for a prime p, elements as residues in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def sqrt(self, a):
        p = self.p
        a %= p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        r = self._tonelli_shanks(a)
        return min(r, p - r)

    def _tonelli_shanks(self, a):
        p = self.p
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # write p-1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def solve_affine_quadratic(self, a, c):
        if self.p != 2:
            raise CharacteristicError("affine quadratic solver needs char 2")
        for u in (0, 1):
            if (a * u * u + u + c) % 2 == 0:
                return u
        return None

    def format_scalar(self, a):
        return str(a)

    def parse_scalar(self, text):
        try:
            return int(text) % self.p
        except ValueError:
            raise FieldError(f"bad GF({self.p}) literal {text!r}") from None

    def spec(self):
        return f"fp:{self.p}"

    def _key(self):
        return ("fp", self.p)


class BinaryField(Field):
    """GF(2^k) as GF(2)[t] modulo an irreducible degree-k polynomial.

    Elements are bitmask integers below 2^k; bit i is the coefficient of
    t^i.  Multiplication uses log/exp tables for k <= 12 and carry-less
    reduction above that.
    """

    char = 2
    _TABLE_LIMIT = 12

    def __init__(self, k: int, modulus: int | None = None):
        if k < 1:
            raise FieldError("binary field degree must be >= 1")
        if modulus is None:
            modulus = default_modulus(k)
        if modulus.bit_length() - 1 != k:
            raise FieldError(f"modulus {format_t_poly(modulus)} does not have degree {k}")
        if not gf2_poly_irreducible(modulus):
            raise FieldError(f"modulus {format_t_poly(modulus)} is reducible over GF(2)")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self._product = None

    def _raw_mul(self, a, b):
        return gf2_poly_mod(gf2_poly_mul(a, b), self.modulus)

    def _build_tables(self):
        """The log table and the doubled exp table of a generator of the
        multiplicative group, the smallest one."""
        n = self.order - 1
        g = 1 if self.k == 1 else 2
        while True:
            exp = [0] * n
            x = 1
            ok = True
            for i in range(n):
                exp[i] = x
                x = self._raw_mul(x, g)
                if x == 1 and i != n - 1:
                    ok = False
                    break
            if ok and x == 1:
                log = [0] * self.order
                for i, v in enumerate(exp):
                    log[v] = i
                # doubled, so a product of nonzero masks needs no % n
                return log, exp + exp
            g += 1

    def nonzero_product(self):
        """The product of two nonzero masks, as a function: one lookup in the
        log and doubled exp tables (built on first use) for k up to
        ``_TABLE_LIMIT``, carry-less multiplication above."""
        if self._product is None:
            if self.k > self._TABLE_LIMIT:
                self._product = self._raw_mul
            else:
                log, exp = self._build_tables()
                self._product = lambda a, b: exp[log[a] + log[b]]
        return self._product

    def add(self, a, b):
        return a ^ b

    def sub(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.nonzero_product()(a, b)

    def inv(self, a):
        """a^(2^k - 2) = a^2 * a^4 * ... * a^(2^(k-1)), the inverse in a group of
        order 2^k - 1."""
        if a == 0:
            raise ZeroDivisionError(f"division by zero in GF(2^{self.k})")
        mul = self.nonzero_product()
        out = 1
        for _ in range(self.k - 1):
            a = mul(a, a)
            out = mul(out, a)
        return out

    def from_int(self, n):
        return n % 2

    def sqrt(self, a):
        # Frobenius is bijective: the square root is a^(2^(k-1)), unique.
        r = a
        for _ in range(self.k - 1):
            r = self.mul(r, r)
        return r

    def trace(self, a):
        """Absolute trace GF(2^k) -> GF(2), as 0 or 1."""
        s = a
        x = a
        for _ in range(self.k - 1):
            x = self.mul(x, x)
            s ^= x
        return s

    def _artin_schreier_root(self, d):
        """A root v of v^2 + v = d, for d of trace 0.

        v -> v^2 + v is GF(2)-linear with kernel {0, 1} and image the trace-0
        hyperplane, so solve the k x k system over GF(2): eliminate on the
        images of the basis elements t^i as bitmasks, each carrying the
        preimage it is the image of.
        """
        basis = {}  # top bit -> (image, preimage), images with distinct top bits
        for i in range(self.k):
            pre = 1 << i
            img = self.mul(pre, pre) ^ pre
            while img:
                top = img.bit_length() - 1
                if top not in basis:
                    basis[top] = (img, pre)
                    break
                img ^= basis[top][0]
                pre ^= basis[top][1]
        v = 0
        while d:
            img, pre = basis[d.bit_length() - 1]
            d ^= img
            v ^= pre
        return v

    def solve_affine_quadratic(self, a, c):
        if a == 0:
            return c
        # substitute v = a*u: v^2 + v + a*c = 0, solvable iff trace(a*c) = 0
        d = self.mul(a, c)
        if self.trace(d) != 0:
            return None
        ai = self.inv(a)
        u = self.mul(self._artin_schreier_root(d), ai)
        return min(u, u ^ ai)

    def format_scalar(self, a):
        return format_t_poly(a)

    def parse_scalar(self, text):
        v = parse_t_poly(text)
        if v >= self.order:
            raise FieldError(f"{text!r} has degree >= {self.k}, not in GF(2^{self.k})")
        return v

    def spec(self):
        base = f"f2k:{self.k}"
        if self.k not in _IRREDUCIBLE_EXPONENTS or self.modulus != default_modulus(self.k):
            return f"{base}:modulus={format_t_poly(self.modulus)}"
        return base

    def _key(self):
        return ("f2k", self.k, self.modulus)


def parse_field_spec(spec: str) -> Field:
    """Parse ``q`` / ``fp:7`` / ``f2k:4`` / ``f2k:4:modulus=t4+t+1``."""
    parts = spec.strip().split(":")
    if parts[0] == "q":
        if len(parts) != 1:
            raise FieldError(f"bad field spec {spec!r}")
        return RationalField()
    if parts[0] == "fp":
        if len(parts) != 2 or not parts[1].isdigit():
            raise FieldError(f"bad field spec {spec!r}")
        return PrimeField(int(parts[1]))
    if parts[0] == "f2k":
        if len(parts) not in (2, 3) or not parts[1].isdigit():
            raise FieldError(f"bad field spec {spec!r}")
        k = int(parts[1])
        modulus = None
        if len(parts) == 3:
            opt = parts[2]
            if not opt.startswith("modulus="):
                raise FieldError(f"bad field option {opt!r}")
            modulus = parse_t_poly(opt[len("modulus="):])
        return BinaryField(k, modulus)
    raise FieldError(f"unknown field spec {spec!r}")


# ---------------------------------------------------------------------------
# real valuations


class Valuation:
    """A multiplicative absolute value |.| : K -> R>=0, zero only at 0."""

    kind: str

    def applies_to(self, field: Field) -> bool:
        raise NotImplementedError

    def check(self, field: Field):
        if not self.applies_to(field):
            raise FieldError(f"{self.kind} valuation does not apply to {field}")

    def value(self, field: Field, a) -> Fraction:
        """|a|, exactly."""
        raise NotImplementedError

    def __repr__(self):
        return self.kind


class TrivialValuation(Valuation):
    """|0| = 0 and |a| = 1 otherwise; applies to any field."""

    kind = "trivial"

    def applies_to(self, field):
        return True

    def value(self, field, a):
        return Fraction(0) if a == field.zero else Fraction(1)


class ArchimedeanValuation(Valuation):
    """Usual absolute value on the rationals; ``Jet.norm`` reports it as a float."""

    kind = "archimedean"

    def applies_to(self, field):
        return isinstance(field, RationalField)

    def value(self, field, a):
        self.check(field)
        return abs(a)


class PAdicValuation(Valuation):
    """|a| = p^(-v_p(a)) on the rationals, exact."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.kind = f"p-adic({p})"

    def applies_to(self, field):
        return isinstance(field, RationalField)

    def value(self, field, a):
        self.check(field)
        if a == 0:
            return Fraction(0)
        m = self._vp(a.numerator) - self._vp(a.denominator)
        return Fraction(1, self.p ** m) if m >= 0 else Fraction(self.p ** -m)

    def _vp(self, n):
        """The exponent of p in n != 0: strip p^(2^k) for k = 0, 1, ... and back."""
        n, m, powers = abs(n), 0, [self.p]
        while n % powers[-1] == 0:
            n //= powers[-1]
            m += 1 << len(powers) - 1
            powers.append(powers[-1] * powers[-1])
        for k in range(len(powers) - 2, -1, -1):
            if n % powers[k] == 0:
                n //= powers[k]
                m += 1 << k
        return m


def parse_valuation_spec(spec: str) -> Valuation:
    """Parse ``trivial`` / ``abs`` / ``padic:2``."""
    spec = spec.strip()
    if spec == "trivial":
        return TrivialValuation()
    if spec in ("abs", "archimedean"):
        return ArchimedeanValuation()
    if spec.startswith("padic:"):
        body = spec[len("padic:"):]
        if not body.isdigit():
            raise FieldError(f"bad valuation spec {spec!r}")
        return PAdicValuation(int(body))
    raise FieldError(f"unknown valuation spec {spec!r}")
