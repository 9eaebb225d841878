"""Output checks that do not trust the program's own ``verified`` flag.

The program's text is parsed with ``jetsplit.parse_jet`` (the format is the
program's), but every identity is recomputed here with separate polynomial
arithmetic: truncated products, substitution and linear algebra over Q, GF(p)
and GF(2^k) written for this file alone.  A kernel change inside ``jetsplit``
that computes wrong coefficients therefore cannot also fool the check.

Every ``check_*`` function returns None when the output is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class Arith:
    """Field arithmetic on the program's canonical values, implemented anew."""

    def __init__(self, field):
        spec = field.spec()
        self.kind = spec.split(":")[0]
        if self.kind == "fp":
            self.p = field.p
        elif self.kind == "f2k":
            self.k = field.k
            self.modulus = field.modulus
        self.zero = Fraction(0) if self.kind == "q" else 0
        self.one = Fraction(1) if self.kind == "q" else 1

    def add(self, a, b):
        if self.kind == "q":
            return a + b
        if self.kind == "fp":
            return (a + b) % self.p
        return a ^ b

    def neg(self, a):
        if self.kind == "q":
            return -a
        if self.kind == "fp":
            return (-a) % self.p
        return a

    def mul(self, a, b):
        if self.kind == "q":
            return a * b
        if self.kind == "fp":
            return a * b % self.p
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> self.k:
                a ^= self.modulus
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "q":
            return 1 / a
        if self.kind == "fp":
            return pow(a, self.p - 2, self.p)
        out, e = 1, (1 << self.k) - 2
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


# -- polynomials: dicts from exponent tuples to nonzero values ------------------


def padd(ar, f, g):
    out = dict(f)
    for a, c in g.items():
        s = ar.add(out.get(a, ar.zero), c)
        if s == ar.zero:
            out.pop(a, None)
        else:
            out[a] = s
    return out


def pmul(ar, f, g, prec):
    out = {}
    for a, ca in f.items():
        da = sum(a)
        for b, cb in g.items():
            if da + sum(b) > prec:
                continue
            m = tuple(x + y for x, y in zip(a, b))
            s = ar.add(out.get(m, ar.zero), ar.mul(ca, cb))
            if s == ar.zero:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def psubst(ar, f, parts, nvars, prec):
    """f(parts) truncated above total degree prec; parts live in nvars variables."""
    one = {(0,) * nvars: ar.one}
    powers = [[one] for _ in parts]
    out = {}
    for alpha, c in f.items():
        if sum(alpha) > prec:
            continue
        term = {(0,) * nvars: c}
        for i, e in enumerate(alpha):
            while len(powers[i]) <= e:
                powers[i].append(pmul(ar, powers[i][-1], parts[i], prec))
            if e:
                term = pmul(ar, term, powers[i][e], prec)
        out = padd(ar, out, term)
    return out


def monomial(nvars, i, ar):
    return {tuple(1 if j == i else 0 for j in range(nvars)): ar.one}


def linear_matrix(components, nvars, ar):
    out = [[ar.zero] * nvars for _ in components]
    for i, comp in enumerate(components):
        for a, c in comp.items():
            if sum(a) == 1:
                out[i][a.index(1)] = c
    return out


def matrix_rank(ar, matrix):
    m = [list(row) for row in matrix]
    r = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != ar.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ar.inv(m[r][col])
        for i in range(len(m)):
            if i != r and m[i][col] != ar.zero:
                f = ar.mul(m[i][col], inv)
                m[i] = [ar.add(x, ar.neg(ar.mul(f, y))) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def invert(ar, matrix):
    n = len(matrix)
    m = [list(row) + [ar.one if i == j else ar.zero for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != ar.zero)
        m[col], m[piv] = m[piv], m[col]
        inv = ar.inv(m[col][col])
        m[col] = [ar.mul(inv, x) for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != ar.zero:
                f = m[i][col]
                m[i] = [ar.add(x, ar.neg(ar.mul(f, y))) for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


# -- parsing the program's text --------------------------------------------------


class Reader:
    """Parses expressions with jetsplit's parser into plain coefficient dicts."""

    def __init__(self, jetsplit, field_spec):
        self.js = jetsplit
        self.field = jetsplit.parse_field_spec(field_spec)
        self.ar = Arith(self.field)

    def poly(self, text, names, prec):
        return dict(self.js.parse_jet(text, self.field, names, prec).coeffs)

    def scalar(self, text):
        return self.field.parse_scalar(text)


def _text_fields(out):
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _load_json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


# -- the checks ------------------------------------------------------------------


def check_split(js, inst, out):
    """f(change) = head + residual, change invertible, residual in the tail, rank."""
    data = _load_json(out)
    if data is None:
        return "split output is not JSON"
    if data.get("verified") is not True:
        return "split did not report verified: true"
    rd = Reader(js, inst["field"])
    ar = rd.ar
    names, N, n = inst["names"], inst["precision"], len(inst["names"])
    if data["field"] != rd.field.spec() or data["precision"] != N:
        return "field or precision differs from the request"
    quad = data["quad"]
    if not data["rank"] == quad["rank"] == inst["rank"]:
        return f"rank {data['rank']} / classified {quad['rank']}, expected {inst['rank']}"
    head_rank = data["rank"]
    head = {}

    def put(i, j, c):
        if c != ar.zero:
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            head[tuple(alpha)] = c

    if quad["variant"] == "diagonal":
        for i, a in enumerate(quad["diagonal"]):
            put(i, i, rd.scalar(a))
    elif quad["variant"] == "arf":
        for t, (a, b) in enumerate(quad["pairs"]):
            put(2 * t, 2 * t, rd.scalar(a))
            put(2 * t, 2 * t + 1, ar.one)
            put(2 * t + 1, 2 * t + 1, rd.scalar(b))
    else:
        return f"unexpected normal-form variant {quad['variant']!r}"
    change = [rd.poly(t, names, N) for t in data["change"]]
    residual = rd.poly(data["residual"], names, N)
    if any(any(alpha[:head_rank]) for alpha in residual):
        return "residual involves head variables"
    if matrix_rank(ar, linear_matrix(change, n, ar)) != n:
        return "change has a singular linear part"
    f = rd.poly(inst["expr"], names, N)
    if psubst(ar, f, change, n, N) != padd(ar, head, residual):
        return "f(change) differs from head + residual"
    return None


def check_verify(js, inst, out):
    fields = _text_fields(out)
    if fields.get("verified") != "true":
        return "verify did not report verified: true"
    if not fields.get("difference", "").startswith("0 + O("):
        return "verify printed a nonzero difference"
    return None


def check_ift(js, inst, out):
    """Back-substitute the printed solution into every equation."""
    data = _load_json(out)
    if data is None or data.get("verified") is not True:
        return "ift did not report verified: true"
    rd = Reader(js, inst["field"])
    ar = rd.ar
    names, N, unknowns = inst["names"], inst["precision"], inst["unknowns"]
    x_names = [v for v in names if v not in unknowns]
    nx = len(x_names)
    if sorted(data["solution"]) != sorted(unknowns):
        return "solution does not name every unknown"
    parts = []
    for v in names:
        if v in unknowns:
            y = rd.poly(data["solution"][v], x_names, N)
            if y.get((0,) * nx, ar.zero) != ar.zero:
                return f"solution {v} has a constant term"
            parts.append(y)
        else:
            parts.append(monomial(nx, x_names.index(v), ar))
    for eq in inst["equations"]:
        f = rd.poly(eq, names, N)
        if psubst(ar, f, parts, nx, N):
            return "an equation does not vanish on the printed solution"
    return None


def check_transport(js, inst, out):
    """g0(phi') = g1 with phi' invertible, g0 and g1 the ones supplied."""
    data = _load_json(out)
    if data is None or data.get("verified") is not True:
        return "transport did not report verified: true"
    rd = Reader(js, inst["field"])
    ar = rd.ar
    N, head_rank = inst["precision"], inst["rank"]
    tail = inst["names"][head_rank:]
    m = len(tail)
    if data["rank"] != head_rank:
        return f"rank {data['rank']}, expected {head_rank}"
    g0 = rd.poly(data["g0"], tail, N)
    g1 = rd.poly(data["g1"], tail, N)
    want_g0 = rd.poly(inst["g0"], tail, N)
    want_g1 = rd.poly(inst["g1"], tail, N)
    if g0 != want_g0:
        return "printed g0 is not the supplied residual"
    # characteristic 2 recoordinates the tail by the inverse of phi's tail block
    block = inst["tail_block"]
    if block is not None:
        d_inv = invert(ar, [[rd.scalar(c) for c in row] for row in block])
        rho = [{tuple(1 if t == j else 0 for t in range(m)): c
                for j, c in enumerate(row) if c != ar.zero} for row in d_inv]
        want_g1 = psubst(ar, want_g1, rho, m, N)
    if g1 != want_g1:
        return "printed g1 is not the supplied residual (up to the tail recoordinatization)"
    change = [rd.poly(t, tail, N) for t in data["change"]]
    if matrix_rank(ar, linear_matrix(change, m, ar)) != m:
        return "transported change has a singular linear part"
    if psubst(ar, g0, change, m, N) != g1:
        return "g0(phi') differs from g1"
    return None


def _order(js, inst):
    rd = Reader(js, inst["field"])
    f = rd.poly(inst["expr"], inst["names"], 10 ** 9)
    return min(sum(a) for a in f)


def check_milnor(js, inst, out):
    data = _load_json(out)
    if data is None or data.get("verified") is not True:
        return "milnor did not report verified: true"
    order = _order(js, inst)
    if data["order"] != order:
        return f"order {data['order']}, expected {order}"
    mu = data["mu"]
    if inst["isolated"] is False:
        if mu is not None:
            return f"mu {mu} reported for a non-isolated singularity"
        return None
    if inst["mu"] is not None and mu != inst["mu"]:
        return f"mu {mu}, expected {inst['mu']}"
    if mu is not None and data["bound"] != 2 * mu - order + 2:
        return "bound is not 2*mu - order + 2"
    return None


def check_determinacy(js, inst, out):
    data = _load_json(out)
    if data is None or data.get("verified") is not True:
        return "determinacy did not report verified: true"
    order = _order(js, inst)
    if data["order"] != order:
        return f"order {data['order']}, expected {order}"
    k = data["stabilization_degree"]
    if inst["isolated"] is False:
        if k is not None:
            return "determinacy bound reported for a non-isolated singularity"
        return None
    if inst["mu"] is not None and k is None:
        return "no determinacy bound for an isolated singularity over Q"
    if k is not None and data["bound"] != 2 * k - order + 2:
        return "bound is not 2*k - order + 2"
    return None


def check_quadform(js, inst, out):
    fields = _text_fields(out)
    if fields.get("verified") != "true":
        return "quadform did not report verified: true"
    if fields.get("rank") != str(inst["rank"]):
        return f"rank {fields.get('rank')}, expected {inst['rank']}"
    return None


def check_norm(js, inst, out):
    """The weighted norm, recomputed from the coefficients."""
    fields = _text_fields(out)
    if fields.get("verified") != "true":
        return "norm did not report verified: true"
    rd = Reader(js, inst["field"])
    f = rd.poly(inst["expr"], inst["names"], 10 ** 9)
    eps = [Fraction(e) for e in inst["epsilon"]]
    p = inst["p"]
    total = Fraction(0)
    for alpha, c in f.items():
        weight = math.prod((r ** e for r, e in zip(eps, alpha)), start=Fraction(1))
        if p is None:
            value = Fraction(1)
        else:
            v = _vp(c.numerator, p) - _vp(c.denominator, p)
            value = Fraction(p) ** -v
        total += value * weight
    if fields.get("value") != str(total):
        return f"norm {fields.get('value')}, expected {total}"
    return None


def _vp(n, p):
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


CHECKS = {
    "split": check_split,
    "verify": check_verify,
    "ift": check_ift,
    "transport": check_transport,
    "milnor": check_milnor,
    "determinacy": check_determinacy,
    "quadform": check_quadform,
    "norm": check_norm,
}
