"""Random instance generators and checks shared by the test modules."""

import random
import re
from fractions import Fraction

import pytest

from jetsplit import (BinaryField, CoordinateChange, ImplicitSystem, Jet,
                      PrimeField, QuadNormalForm, RationalField,
                      TransportProblem, iterate_arf, iterate_diagonal,
                      split_shape)
from jetsplit import linalg
from jetsplit.split import embed_from_tail

FIELDS = [RationalField(), PrimeField(7), PrimeField(2), BinaryField(2)]


def constant_jet(field, nvars, prec, c):
    """The jet c in nvars variables at precision prec."""
    return Jet(field, nvars, prec, {(0,) * nvars: c})


def identity_change(field, nvars, prec):
    """The change x -> x in nvars variables at precision prec."""
    return CoordinateChange([Jet.variable(field, nvars, i, prec) for i in range(nvars)])


def transition_change(nf, prec=2):
    """The linear change whose substitution carries the classified form to nf's normal jet."""
    return CoordinateChange.from_linear(nf.field, nf.matrix, prec)


def jet_power(f, e):
    """f^e by repeated squaring with ``Jet.__mul__`` (e >= 0)."""
    if e < 0:
        raise ValueError("negative jet power")
    result = constant_jet(f.field, f.nvars, f.prec, f.field.one)
    while e:
        if e & 1:
            result = result * f
        e >>= 1
        if e:
            f = f * f
    return result


def elements(field):
    """Every element of GF(p) or GF(2^k), as the integer codes 0, 1, ..."""
    if isinstance(field, PrimeField):
        return range(field.p)
    if isinstance(field, BinaryField):
        return range(field.order)
    raise ValueError(f"{field} is not finite")


def random_element(field, rng, nonzero=False):
    """A small fraction over Q; a uniform element of a finite field."""
    if isinstance(field, RationalField):
        while True:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a != 0 or not nonzero:
                return a
    return rng.randint(1 if nonzero else 0, elements(field)[-1])


def rand_monomial(nvars, degree, rng):
    alpha = [0] * nvars
    for _ in range(degree):
        alpha[rng.randrange(nvars)] += 1
    return tuple(alpha)


def monomials_of_degree(nvars, degree):
    """Exponent tuples of the degree-d monomials in lex order, x_1's exponent descending."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def rand_jet(field, nvars, prec, rng, min_degree=0, max_degree=None, terms=4):
    if max_degree is None:
        max_degree = prec
    coeffs = {}
    for _ in range(terms):
        if min_degree > max_degree or nvars == 0:
            break
        d = rng.randint(min_degree, max_degree)
        coeffs[rand_monomial(nvars, d, rng)] = random_element(field, rng, nonzero=True)
    return Jet(field, nvars, prec, coeffs)


def naive_times(field, a, b, prec):
    """Product of two tuple-keyed coefficient dicts, terms above prec dropped."""
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            z = tuple(i + j for i, j in zip(x, y))
            if sum(z) <= prec:
                out[z] = field.add(out.get(z, field.zero), field.mul(cx, cy))
    return out


def naive_substitute(f, parts, m):
    """sum c_alpha * prod parts[i]^alpha_i by repeated dict products, at f.prec."""
    field = f.field
    prec = f.prec
    acc = {}
    for alpha, c in f.coeffs.items():
        term = {(0,) * m: c}
        for i, e in enumerate(alpha):
            for _ in range(e):
                term = naive_times(field, term, parts[i].coeffs, prec)
        for z, v in term.items():
            acc[z] = field.add(acc.get(z, field.zero), v)
    return Jet(field, m, prec, acc)


def rand_invertible(field, n, rng):
    while True:
        m = [[random_element(field, rng) for _ in range(n)] for _ in range(n)]
        if linalg.rank(field, m) == n:
            return m


def rand_automorphism(field, nvars, prec, rng, higher_terms=2):
    linear = CoordinateChange.from_linear(field, rand_invertible(field, nvars, rng), prec)
    comps = []
    for c in linear.components:
        extra = rand_jet(field, nvars, prec, rng, min_degree=2,
                         terms=rng.randint(0, higher_terms))
        comps.append(c + extra)
    return CoordinateChange(comps)


def rand_m2_jet(field, nvars, prec, rng, terms=6):
    return rand_jet(field, nvars, prec, rng, min_degree=2, terms=terms)


def rand_split_form(field, nvars, prec, rng, rank=None):
    """A series already in split normal shape, as (quad, g_tail, f_jet)."""
    if field.char == 2:
        l = rng.randint(0, nvars // 2) if rank is None else rank // 2
        rank = 2 * l
        pairs = tuple((random_element(field, rng), random_element(field, rng))
                      for _ in range(l))
        tail = tuple(random_element(field, rng) for _ in range(nvars - rank))
        quad = QuadNormalForm("arf", field, linalg.identity(field, nvars),
                              pairs=pairs, tail=tail)
        m = nvars - rank
        g = rand_jet(field, m, prec, rng, min_degree=3, terms=4)
        squares = Jet(field, m, prec,
                      {tuple(2 if t == j else 0 for t in range(m)): d
                       for j, d in enumerate(tail) if d != field.zero})
        g = g + squares
    else:
        k = rng.randint(0, nvars) if rank is None else rank
        rank = k
        diag = tuple(random_element(field, rng, nonzero=True) for _ in range(k))
        quad = QuadNormalForm("diagonal", field, linalg.identity(field, nvars),
                              diagonal=diag)
        m = nvars - rank
        g = rand_jet(field, m, prec, rng, min_degree=3, terms=4)
    f = quad.head_jet(prec) + embed_from_tail(g, rank)
    return quad, g, f


def gram_jet(field, nvars, gram, prec=2):
    """The jet sum c x_i x_j over the Gram entries {(i, j): c}, i <= j."""
    return Jet(field, nvars, prec, {tuple((t == i) + (t == j) for t in range(nvars)): c
                                    for (i, j), c in gram.items()})


def evaluate(q, v):
    """The quadratic part of the jet q at the coordinate vector v."""
    field = q.field
    s = field.zero
    for (i, j), c in q.gram().items():
        s = field.add(s, field.mul(c, field.mul(v[i], v[j])))
    return s


def bilinear(q, v, w):
    """The polar form b(v, w) = q(v + w) - q(v) - q(w) = v^T P w of the 2-jet of q."""
    field = q.field
    zero, add, mul = field.zero, field.add, field.mul
    s = zero
    for (i, j), c in q.gram().items():
        if v[i] != zero or v[j] != zero:
            s = add(s, mul(c, add(mul(v[i], w[j]), mul(v[j], w[i]))))
    return s


def arf_reference(q):
    """The Arf normal form by symplectic vector pairs, as (matrix, pairs, tail).

    An independent reduction to compare ``arf_normal_form`` with.  Each
    remaining vector z is kept beside P z, with P the polar matrix, and
    updated by the same combination, so b(v, z) = v . P z is one dot product.
    The first remaining vector with a partner is paired with its first
    partner; the pairs in the order found, then the radical, are the columns.
    """
    field = q.field
    zero, add, mul = field.zero, field.add, field.mul

    def dot(v, w):
        s = zero
        for a, b in zip(v, w):
            if a != zero and b != zero:
                s = add(s, mul(a, b))
        return s

    def combine(z, bv, v, bw, w):
        return [add(zc, add(mul(bv, vc), mul(bw, wc))) for zc, vc, wc in zip(z, v, w)]

    polar = q.hessian()
    remaining = [(e, [row[i] for row in polar])
                 for i, e in enumerate(linalg.identity(field, q.nvars))]
    pairs = []
    while True:
        found = None
        for i, (v, _) in enumerate(remaining):
            partner = next((j for j, (_, pw) in enumerate(remaining)
                            if j != i and dot(v, pw) != zero), None)
            if partner is not None:
                found = (i, partner)
                break
        if found is None:
            break
        i, j = found
        (v, pv), (w, pw) = remaining[i], remaining[j]
        cinv = field.inv(dot(v, pw))
        fixed = []
        for t, (z, pz) in enumerate(remaining):
            if t not in (i, j):
                bv, bw = mul(dot(z, pw), cinv), mul(dot(z, pv), cinv)
                fixed.append((combine(z, bv, v, bw, w), combine(pz, bv, pv, bw, pw)))
        pairs.append(([mul(cinv, vc) for vc in v], w))
        remaining = fixed
    radical = [z for z, _ in remaining]
    basis = [u for p in pairs for u in p] + radical
    if any(bilinear(q, z, w) != zero for z in radical for w in basis):
        raise AssertionError("the radical is not orthogonal")
    matrix = [[u[i] for u in basis] for i in range(q.nvars)]  # columns are basis vectors
    return (matrix, tuple((evaluate(q, u), evaluate(q, w)) for u, w in pairs),
            tuple(evaluate(q, z) for z in radical))


def rand_split_equivalence(field, f0, prec, rng):
    """A random automorphism carrying f0, in split shape, to a split form with its head.

    A random change is applied to f0, its linear part is undone, and the
    splitting iteration brings the result back to split shape.
    """
    rho = rand_automorphism(field, f0.nvars, prec, rng)
    lin_inv = CoordinateChange.from_linear(
        field, linalg.invert(field, rho.linear_matrix()), prec)
    f_mid = lin_inv.apply(rho.apply(f0))
    quad = QuadNormalForm.read_split_shape(f_mid)
    if field.char == 2:
        sigma, _ = iterate_arf(f_mid, prec, quad)
    else:
        sigma, _ = iterate_diagonal(f_mid, prec, quad)
    return rho.compose(lin_inv).compose(sigma)


def tail_block_change(field, nvars, block, prec):
    """The linear change that is the identity on the head variables and applies
    the square matrix ``block`` to the last len(block) variables."""
    rank = nvars - len(block)
    big = linalg.identity(field, nvars)
    for i, row in enumerate(block):
        big[rank + i][rank:] = row
    return CoordinateChange.from_linear(field, big, prec)


def transport_roundtrip(field, nvars, prec, rng):
    """A verified TransportProblem: a random split form f0 and its image f1
    under ``rand_split_equivalence``, which has the same quadratic head."""
    while True:
        quad, g0, f0 = rand_split_form(field, nvars, prec, rng)
        if quad.rank < nvars:
            break
    total = rand_split_equivalence(field, f0, prec, rng)
    f1 = total.apply(f0)
    quad1, g1 = split_shape(f1)
    if quad1 != quad:
        raise AssertionError(f"split shape {quad1} is not the source's {quad}")
    return TransportProblem(quad, g0, g1, total, prec)


def rand_implicit_system(field, nx, ny, prec, rng):
    """A solvable system: invertible linear unknown block plus random terms."""
    n = nx + ny
    block = rand_invertible(field, ny, rng)
    eqs = []
    for i in range(ny):
        coeffs = {}
        for j in range(ny):
            if block[i][j] != field.zero:
                coeffs[tuple(1 if t == nx + j else 0 for t in range(n))] = block[i][j]
        for _ in range(rng.randint(0, 2)):
            idx = rng.randrange(nx)
            coeffs[tuple(1 if t == idx else 0 for t in range(n))] = \
                random_element(field, rng, nonzero=True)
        jet = Jet(field, n, prec, coeffs)
        jet = jet + rand_jet(field, n, prec, rng, min_degree=2,
                             terms=rng.randint(0, 4))
        eqs.append(jet)
    return ImplicitSystem(eqs, list(range(nx, n)))


def same_error(batched, per_source):
    """Both calls raise, with the same exception type and message."""
    with pytest.raises(ValueError) as want:
        per_source()
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        batched()
