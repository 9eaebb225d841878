"""Seeded inputs for the three workloads.

Every input is built from the workload seed before any timing starts, and
reaches the program only as command-line text or as a file.  Construction
uses the benchmark's own polynomial arithmetic (``checks``).  From the
library it takes only field specs, the expression parser and scalar
formatting, plus the ``split`` command, which turns a random equivalence
into a pair of split forms for ``transport``.

Each workload is a fixed list of slots (field, size, shape); the seed only
draws the coefficients, the monomial supports and the coordinates.  Every
slot keeps a fixed share of the monomials it could hold, so the work per
call varies little from seed to seed.  A pass is arranged in light, medium
and heavy blocks so that the median and the tail latency each fall among
many calls of about the same cost.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from checks import Arith, matrix_rank, padd, pmul, psubst


@dataclass
class Call:
    label: str
    command: str
    argv: list
    inst: dict
    save_to: str | None = None  # split output, read by the following verify call


@dataclass
class Workload:
    fields: list
    warmup: list
    calls: list


# -- random polynomials ---------------------------------------------------------


def monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in monomials(n - 1, d - a)]


def scalar(ar, rng, nonzero=False):
    while True:
        if ar.kind == "q":
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        elif ar.kind == "fp":
            c = rng.randrange(ar.p)
        else:
            c = rng.randrange(1 << ar.k)
        if c != ar.zero or not nonzero:
            return c


def dense(ar, rng, n, lo, hi, share):
    """A fixed share of all monomials of degree lo..hi, with nonzero coefficients."""
    pool = [a for d in range(lo, hi + 1) for a in monomials(n, d)]
    return {a: scalar(ar, rng, True) for a in rng.sample(pool, round(share * len(pool)))}


def invertible(ar, rng, n, small=False):
    while True:
        if small and ar.kind == "q":
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        else:
            m = [[scalar(ar, rng) for _ in range(n)] for _ in range(n)]
        if matrix_rank(ar, m) == n:
            return m


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def linear_parts(matrix, offset, n):
    """Components sum_j matrix[i][j] * x_(offset+j), as polynomials in n variables."""
    return [{unit(n, offset + j): c for j, c in enumerate(row) if c} for row in matrix]


def to_text(field, poly, names):
    if not poly:
        return "0"
    terms = []
    for alpha in sorted(poly, key=lambda a: (sum(a), a)):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, alpha) if e)
        c = f"({field.format_scalar(poly[alpha])})"
        terms.append(f"{c}*{mono}" if mono else c)
    return " + ".join(terms)


def names_of(n):
    return [f"x{i + 1}" for i in range(n)]


def head_form(ar, rng, n, head_rank, squarefree_q=False):
    """Quadratic normal shape of the given rank in leading position.

    Characteristic 2: rank/2 Arf pairs a*x^2 + x*y + b*y^2, then squares on
    the tail.  Otherwise a diagonal; over Q with squarefree integer entries,
    which the program's normal form keeps as they are.
    """
    q = {}
    if char2(ar):
        for t in range(head_rank // 2):
            i, j = 2 * t, 2 * t + 1
            q[tuple(2 if s == i else 0 for s in range(n))] = scalar(ar, rng)
            q[tuple(1 if s in (i, j) else 0 for s in range(n))] = ar.one
            q[tuple(2 if s == j else 0 for s in range(n))] = scalar(ar, rng)
        for j in range(head_rank, n):
            q[tuple(2 if s == j else 0 for s in range(n))] = scalar(ar, rng)
    else:
        for i in range(head_rank):
            if squarefree_q and ar.kind == "q":
                c = Fraction(rng.choice((1, -1, 2, -2, 3, -3, 5, 6, -7)))
            else:
                c = scalar(ar, rng, True)
            q[tuple(2 if s == i else 0 for s in range(n))] = c
    return {a: c for a, c in q.items() if c != ar.zero}


def char2(ar):
    return ar.kind == "f2k" or (ar.kind == "fp" and ar.p == 2)


def interleave(families):
    """Round-robin over families; each family is a list of units, a unit a list of calls."""
    out = []
    for i in range(max(len(f) for f in families)):
        for family in families:
            if i < len(family):
                out.extend(family[i])
    return out


def run_cli(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"input construction failed: jetsplit {argv[0]} exited {code}")
    return buf.getvalue()


# -- split-dense ---------------------------------------------------------------

# (field, variables, precision, rank of the quadratic head).  Each pass has
# twenty light slots, whose splits take about the same time, and ten heavy
# ones (every third slot).  Light verifies sit below the light splits, heavy
# verifies and splits above them, so the median falls in the middle of the
# light splits.  The heavy block is mostly GF(7) in 4 variables at precision
# 6, so the tail is an order statistic of many similar calls, not of one.
SPLIT_SLOTS = [
    ("q", 3, 5, 3), ("f2k:4", 4, 5, 4), ("fp:7", 4, 6, 4),
    ("fp:2", 3, 8, 2), ("fp:7", 4, 5, 3), ("fp:7", 4, 6, 3),
    ("f2k:4", 3, 7, 2), ("fp:2", 4, 6, 2), ("f2k:4", 4, 6, 2),
    ("fp:7", 3, 7, 2), ("q", 3, 5, 2), ("fp:7", 4, 6, 4),
    ("f2k:4", 4, 5, 2), ("fp:7", 4, 5, 4), ("fp:7", 4, 6, 3),
    ("fp:2", 3, 8, 2), ("q", 3, 5, 3), ("fp:2", 4, 7, 4),
    ("fp:7", 4, 5, 3), ("f2k:4", 3, 7, 2), ("q", 4, 5, 4),
    ("fp:2", 4, 6, 2), ("f2k:4", 4, 5, 4), ("fp:7", 4, 6, 3),
    ("q", 3, 5, 2), ("fp:7", 3, 7, 2), ("fp:7", 4, 6, 4),
    ("fp:2", 3, 8, 2), ("f2k:4", 4, 5, 2), ("fp:7", 4, 6, 3),
]
SPLIT_SLOTS_TINY = [("q", 2, 4, 2), ("fp:7", 3, 4, 2), ("fp:2", 2, 4, 2), ("f2k:4", 3, 4, 2)]
SPLIT_SHARE = 0.6


def split_instance(js, rng, spec, n, N, rank):
    field = js.parse_field_spec(spec)
    ar = Arith(field)
    names = names_of(n)
    head = head_form(ar, rng, n, rank)
    lin = linear_parts(invertible(ar, rng, n, small=True), 0, n)
    f = padd(ar, psubst(ar, head, lin, n, 2), dense(ar, rng, n, 3, N, SPLIT_SHARE))
    return {"field": spec, "names": names, "precision": N, "rank": rank,
            "expr": to_text(field, f, names)}


def split_dense(js, rng, workdir, tiny):
    slots = SPLIT_SLOTS_TINY if tiny else SPLIT_SLOTS
    calls = []
    for k, (spec, n, N, rank) in enumerate(slots):
        inst = split_instance(js, rng, spec, n, N, rank)
        label = f"split-{k:02d}:{spec}:n{n}:N{N}:r{rank}"
        path = os.path.join(workdir, f"split-{k:02d}.json")
        common = ["--field", spec, "--vars", ",".join(inst["names"])]
        calls += [
            Call(label, "split", ["split", *common, "--precision", str(N),
                                  "--format", "json", inst["expr"]], inst, save_to=path),
            Call(label, "verify", ["verify", *common, inst["expr"], path], inst),
        ]
    warm = split_instance(js, rng, "q", 2, 4, 2)
    warmup = ["split", "--field", "q", "--vars", "x1,x2", "--precision", "4", warm["expr"]]
    return Workload(sorted({s[0] for s in slots}), warmup, calls)


# -- milnor-search ---------------------------------------------------------------

# semiquasihomogeneous: (field, exponents of the Brieskorn-Pham part); in
# characteristic 2 the exponents are odd, so that no partial derivative vanishes
SQH_SLOTS = [
    ("q", (3, 4, 5)), ("fp:101", (3, 5, 6)), ("f2k:4", (3, 5, 7)), ("q", (3, 3, 4, 4)),
    ("q", (2, 5, 6)), ("fp:101", (4, 4, 4)), ("f2k:4", (5, 5, 7)), ("fp:101", (3, 3, 4, 4)),
    ("q", (4, 4, 4)), ("fp:101", (3, 4, 5)), ("f2k:4", (3, 3, 5)), ("q", (2, 3, 4, 5)),
    ("q", (3, 5, 6)), ("fp:101", (5, 6, 7)), ("f2k:4", (3, 3, 5, 5)), ("fp:101", (2, 3, 4, 5)),
    ("q", (5, 6, 7)), ("q", (4, 5, 7)), ("f2k:4", (3, 3, 3, 5)), ("fp:101", (4, 4, 5, 5)),
    ("q", (3, 3, 3, 4)), ("fp:101", (4, 5, 7)), ("f2k:4", (3, 3, 3, 3)), ("q", (3, 3, 7)),
    ("q", (3, 4, 6)), ("fp:101", (2, 6, 6)), ("f2k:4", (3, 5, 5)), ("q", (2, 2, 3, 5)),
    ("q", (2, 4, 7)), ("fp:101", (3, 3, 3, 5)), ("f2k:4", (3, 7, 7)), ("q", (2, 3, 3, 4)),
    ("q", (4, 4, 6)), ("fp:101", (2, 5, 7)), ("f2k:4", (3, 3, 3, 7)), ("q", (3, 3, 5, 5)),
]
SQH_SLOTS_TINY = [("q", (3, 4)), ("fp:101", (2, 5)), ("f2k:4", (3, 5))]
# non-isolated: (field, variables, max degree of the search); each costs more
# than any semiquasihomogeneous call, so these searches make the tail
NONISOLATED_SLOTS = [("q", 3, 8)] * 15
NONISOLATED_SLOTS_TINY = [("q", 3, 4)]
SQH_MAX_DEGREE = 16  # above every stabilization degree of the slots above


def sqh_instance(js, rng, spec, exps):
    """Brieskorn-Pham sum c_i x_i^a_i plus two terms of weighted degree > 1."""
    field = js.parse_field_spec(spec)
    ar = Arith(field)
    n = len(exps)
    f = {tuple(a if j == i else 0 for j in range(n)): scalar(ar, rng, True)
         for i, a in enumerate(exps)}
    extra = 0
    while extra < 2:
        alpha = [0] * n
        for _ in range(max(exps) + 1):
            alpha[rng.randrange(n)] += 1
        alpha = tuple(alpha)
        if alpha not in f and sum(Fraction(e, a) for e, a in zip(alpha, exps)) > 1:
            f[alpha] = scalar(ar, rng, True)
            extra += 1
    names = names_of(n)
    # mu = prod(a_i - 1) is a theorem in characteristic 0 only
    return {"field": spec, "names": names, "expr": to_text(field, f, names),
            "max_degree": SQH_MAX_DEGREE, "isolated": True if spec == "q" else None,
            "mu": math.prod(a - 1 for a in exps) if spec == "q" else None}


def nonisolated_instance(js, rng, spec, n, max_degree):
    """L1^2 * (L2^2 + m): singular along the hyperplane L1 = 0.

    L1 and L2 have coefficients +-1 in every variable and m is a product of
    three distinct variables, so only signs and positions vary by seed.
    """
    field = js.parse_field_spec(spec)
    ar = Arith(field)
    while True:
        l1, l2 = ({unit(n, j): ar.one if rng.random() < 0.5 else ar.neg(ar.one)
                   for j in range(n)} for _ in range(2))
        if l1 != l2 and l1 != {a: ar.neg(c) for a, c in l2.items()}:
            break
    chosen = rng.sample(range(n), 3)
    cubic = tuple(1 if j in chosen else 0 for j in range(n))
    big = 10 ** 6
    f = pmul(ar, pmul(ar, l1, l1, big), padd(ar, pmul(ar, l2, l2, big), {cubic: ar.one}), big)
    names = names_of(n)
    return {"field": spec, "names": names, "expr": to_text(field, f, names),
            "max_degree": max_degree, "isolated": False, "mu": None}


def milnor_search(js, rng, workdir, tiny):
    sqh = SQH_SLOTS_TINY if tiny else SQH_SLOTS
    noniso = NONISOLATED_SLOTS_TINY if tiny else NONISOLATED_SLOTS
    insts = [(f"sqh-{k:02d}:{s}:a{''.join(map(str, exps))}", sqh_instance(js, rng, s, exps))
             for k, (s, exps) in enumerate(sqh)]
    insts += [(f"noniso-{k:02d}:{s}:n{n}:D{d}", nonisolated_instance(js, rng, s, n, d))
              for k, (s, n, d) in enumerate(noniso)]
    units = []
    for label, inst in insts:
        common = ["--field", inst["field"], "--vars", ",".join(inst["names"]),
                  "--format", "json", "--max-degree", str(inst["max_degree"]), inst["expr"]]
        units.append([Call(label, cmd, [cmd, *common], inst) for cmd in ("milnor", "determinacy")])
    # the few heavy non-isolated searches are spread evenly through the pass
    light, heavy = units[:len(sqh)], units[len(sqh):]
    step = -(-len(light) // len(heavy))
    order = interleave([[light[i:i + step] for i in range(0, len(light), step)], [[u] for u in heavy]])
    warm = sqh_instance(js, rng, "q", (3, 4))
    warmup = ["milnor", "--field", "q", "--vars", "x1,x2", warm["expr"]]
    fields = sorted({s for s, _ in sqh} | {s for s, _, _ in noniso})
    return Workload(fields, warmup, [c for unit in order for c in unit])


# -- ift-transport ----------------------------------------------------------------

# Three blocks of jobs, (command, slot).  The heavy and the light block have
# the same number of calls, so the median latency falls in the middle of the
# medium block, whose calls cost about the same; the tail falls in the heavy
# block, whose heaviest slot repeats.  ift: (field, parameters, unknowns,
# precision); transport: (field, variables, rank, precision, recoordinate the
# tail); quadform: (field, variables, rank); norm: (field, variables, valuation).
IFT_TRANSPORT_BLOCKS = {
    "heavy": [("ift", ("fp:101", 3, 2, 8))] * 6 + [("ift", ("fp:7", 1, 1, 80))] * 3
    + [("transport", ("fp:7", 4, 2, 7, True))] * 3,
    "medium": [("ift", ("fp:7", 1, 1, 60))] * 8 + [("ift", ("fp:7", 2, 2, 10))] * 6
    + [("transport", ("fp:2", 4, 2, 8, True))] * 4 + [("ift", ("q", 1, 1, 30))] * 2,
    "light": [("quadform", ("q", 3, 2)), ("quadform", ("fp:7", 4, 3)), ("quadform", ("fp:2", 4, 2)),
              ("quadform", ("f2k:4", 3, 2)), ("norm", ("q", 2, "padic:2")),
              ("norm", ("q", 3, "padic:3")), ("norm", ("fp:7", 3, "trivial")),
              ("norm", ("f2k:4", 2, "trivial")), ("transport", ("q", 2, 1, 10, True)),
              ("transport", ("fp:2", 3, 2, 8, False)), ("transport", ("f2k:4", 3, 2, 7, False)),
              ("transport", ("q", 2, 1, 8, False))],
}
IFT_TRANSPORT_BLOCKS_TINY = {
    "medium": [("ift", ("q", 1, 1, 5)), ("ift", ("fp:7", 1, 2, 4))],
    "light": [("quadform", ("q", 2, 1)), ("norm", ("q", 2, "padic:2")),
              ("transport", ("q", 2, 1, 4, True)), ("transport", ("fp:2", 3, 2, 4, True)),
              ("transport", ("f2k:4", 3, 2, 4, False))],
}


def ift_instance(js, rng, spec, nx, ny, N):
    """An invertible linear block in the unknowns, a linear parameter term and
    every monomial of degree 2 and 3, with random nonzero coefficients."""
    field = js.parse_field_spec(spec)
    ar = Arith(field)
    n = nx + ny
    names = [f"x{i + 1}" for i in range(nx)] + [f"y{i + 1}" for i in range(ny)]
    block = invertible(ar, rng, ny)
    eqs = []
    for i in range(ny):
        f = {unit(n, nx + j): c for j, c in enumerate(block[i]) if c}
        f[unit(n, rng.randrange(nx))] = scalar(ar, rng, True)
        f = padd(ar, f, dense(ar, rng, n, 2, 3, 1.0))
        eqs.append(to_text(field, f, names))
    return {"field": spec, "names": names, "unknowns": names[nx:], "precision": N,
            "equations": eqs}


def transport_instance(js, rng, spec, n, rank, N, recoordinate):
    """f0 = q + g0, a random equivalence phi and f1 = f0(phi), both in split shape.

    A near-identity automorphism rho is applied to f0 and the result is split
    by the program; phi is rho followed by that splitting change, then, when
    asked, a random linear change of the tail variables.  In characteristic 2
    the square tail must survive that change, so it is drawn only with a zero
    square tail; the transport command then runs normalize_tail_linear on it.
    """
    field = js.parse_field_spec(spec)
    ar = Arith(field)
    fmt = field.format_scalar
    names = names_of(n)
    m = n - rank
    head = head_form(ar, rng, n, rank, squarefree_q=True)
    if char2(ar) and recoordinate:
        head = {a: c for a, c in head.items() if any(a[:rank])}
    f0 = padd(ar, head, {(0,) * rank + a: c for a, c in dense(ar, rng, m, 3, N, 0.5).items()})
    rho = [padd(ar, {unit(n, i): ar.one}, dense(ar, rng, n, 2, 3, 0.15)) for i in range(n)]
    out = json.loads(run_cli(js.cli, ["split", "--field", spec, "--vars", ",".join(names),
                                   "--precision", str(N), "--format", "json",
                                   to_text(field, psubst(ar, f0, rho, n, N), names)]))

    def square(i):
        return fmt(head.get(tuple(2 if s == i else 0 for s in range(n)), ar.zero))

    if char2(ar):
        want = {"pairs": [[square(2 * t), square(2 * t + 1)] for t in range(rank // 2)],
                "tail": [square(j) for j in range(rank, n)]}
    else:
        want = {"diagonal": [square(i) for i in range(rank)]}
    if out["rank"] != rank or any(out["quad"][key] != value for key, value in want.items()):
        raise RuntimeError("transport construction: the split head differs from the chosen one")
    c1 = [dict(js.parse_jet(t, field, names, N).coeffs) for t in out["change"]]
    phi = [psubst(ar, r, c1, n, N) for r in rho]
    # split reports the square tail with the residual, the pairs or diagonal with the head
    f1 = padd(ar, dict(js.parse_jet(out["residual"], field, names, N).coeffs),
              {a: c for a, c in head.items() if any(a[:rank])})
    block = None
    if recoordinate:
        d = invertible(ar, rng, m, small=True)
        parts = [{unit(n, i): ar.one} for i in range(rank)] + linear_parts(d, rank, n)
        phi = [psubst(ar, comp, parts, n, N) for comp in phi]
        f1 = psubst(ar, f1, parts, n, N)
        if char2(ar):
            block = [[fmt(c) for c in row] for row in d]
    tail_names = names[rank:]

    def tail_text(f):
        return to_text(field, {a[rank:]: c for a, c in f.items() if not any(a[:rank])}, tail_names)

    return {"field": spec, "names": names, "rank": rank, "precision": N,
            "f0": to_text(field, f0, names), "f1": to_text(field, f1, names),
            "phi": [to_text(field, c, names) for c in phi],
            "g0": tail_text(f0), "g1": tail_text(f1), "tail_block": block}


def ift_transport(js, rng, workdir, tiny):
    blocks = IFT_TRANSPORT_BLOCKS_TINY if tiny else IFT_TRANSPORT_BLOCKS
    families = []
    for block, jobs in blocks.items():
        family = []
        for k, (command, slot) in enumerate(jobs):
            label = f"{block}-{k:02d}:{command}:" + ":".join(map(str, slot))
            family.append([ift_transport_call(js, rng, workdir, command, slot, label)])
        families.append(family)
    calls = interleave(families)
    warm = ift_instance(js, rng, "q", 1, 1, 6)
    warmup = ["ift", "--field", "q", "--vars", "x1,y1", "--split-vars", "y1",
              "--precision", "6", *warm["equations"]]
    return Workload(sorted({c.inst["field"] for c in calls}), warmup, calls)


def ift_transport_call(js, rng, workdir, command, slot, label):
    spec = slot[0]
    if command == "ift":
        inst = ift_instance(js, rng, *slot)
        extra = ["--split-vars", ",".join(inst["unknowns"]), "--precision", str(inst["precision"]),
                 "--format", "json", *inst["equations"]]
    elif command == "transport":
        inst = transport_instance(js, rng, *slot)
        extra = ["--precision", str(inst["precision"]), "--format", "json"]
        for part in ("f0", "f1", "phi"):
            path = os.path.join(workdir, f"{label.split(':')[0]}.{part}")
            text = "\n".join(inst[part]) if part == "phi" else inst[part]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            extra.append(path)
    elif command == "quadform":
        _, n, rank = slot
        field = js.parse_field_spec(spec)
        ar = Arith(field)
        q = psubst(ar, head_form(ar, rng, n, rank), linear_parts(invertible(ar, rng, n), 0, n), n, 2)
        inst = {"field": spec, "names": names_of(n), "rank": rank,
                "expr": to_text(field, q, names_of(n))}
        extra = [inst["expr"]]
    else:
        _, n, valuation = slot
        field = js.parse_field_spec(spec)
        f = dense(Arith(field), rng, n, 1, 4, 0.3)
        eps = [str(Fraction(rng.randint(1, 4), rng.randint(1, 4))) for _ in range(n)]
        inst = {"field": spec, "names": names_of(n), "expr": to_text(field, f, names_of(n)),
                "epsilon": eps,
                "p": int(valuation.split(":")[1]) if valuation.startswith("padic") else None}
        extra = ["--valuation", valuation, "--epsilon", ",".join(eps), inst["expr"]]
    argv = [command, "--field", spec, "--vars", ",".join(inst["names"]), *extra]
    return Call(label, command, argv, inst)


WORKLOADS = {
    "split-dense": split_dense,
    "milnor-search": milnor_search,
    "ift-transport": ift_transport,
}
