"""Regenerate the golden CLI corpus (``corpus.json`` next to this file).

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_corpus.py

With ``--check`` it writes nothing: it rebuilds the corpus in memory, names
on stderr every case that differs from ``corpus.json`` and in which of argv,
files, exit, stdout and stderr, and then exits 1; it exits 0 when all match.

Each case is a CLI argument list, the input files it reads and the exit code,
stdout and stderr the program produced.  ``tests/test_golden.py`` replays
every case and requires byte-identical output, so regenerate only when an output
change is intended, and say so in the change log.  Inputs are drawn from
fixed seeds with the generators in ``tests/gen.py``, except those of the
cases in ``recorded_inputs.json``: the random transport cases, whose phi was
built with ``gen.rand_split_equivalence``, that is with the splitting loop,
and a split input drawn after some of them.  Rebuilt, they would move with
every change to the change that ``split`` finds, though ``transport`` is
untouched; recorded, they stay fixed.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from gen import (rand_automorphism, rand_implicit_system, rand_jet,  # noqa: E402
                 rand_split_form, random_element)
from jetsplit import Jet, parse_field_spec, serialize_jet  # noqa: E402
from jetsplit.cli import main  # noqa: E402

FILE_PREFIX = "file:"

with open(os.path.join(HERE, "recorded_inputs.json"), encoding="utf-8") as _handle:
    RECORDED = {case["name"]: case for case in json.load(_handle)}


def recorded(*names):
    """The cases of these names with the argv and input files recorded for them."""
    return [(name, RECORDED[name]["argv"], RECORDED[name]["files"]) for name in names]


def bare(f, names):
    """f's text without its `` + O(deg N)`` marker, as a polynomial argument."""
    return serialize_jet(f, names).removesuffix(f" + O(deg {f.prec})")


def names_of(n):
    return [f"x{i + 1}" for i in range(n)]


def run_case(argv, files):
    """Exit code, stdout and stderr of one CLI call, with its input files in a temp dir."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        real = [os.path.join(tmp, a[len(FILE_PREFIX):]) if a.startswith(FILE_PREFIX) else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(real)
    return code, out.getvalue(), err.getvalue()


def readme_cases():
    f0 = "x^2 + y^4\n"
    f1 = "x^2 + y^4 + 4*y^5 + 6*y^6 + 4*y^7 + y^8\n"
    phi = "x\ny + y^2\n"
    cases = [
        ("readme-split", ["split", "--field", "q", "--vars", "x,y", "--precision", "4",
                          "x^2 + x*y^2"], {}),
        ("readme-quadform", ["quadform", "--field", "fp:2", "--vars", "x1,x2,x3",
                             "x1^2+x1*x2+x2^2+x3^2"], {}),
        ("readme-milnor", ["milnor", "--field", "q", "--vars", "x,y", "x^2+y^2"], {}),
        ("readme-determinacy", ["determinacy", "--field", "q", "--vars", "x", "x^3"], {}),
        ("readme-norm", ["norm", "--field", "q", "--vars", "x", "--valuation", "padic:2",
                         "12*x"], {}),
        ("readme-ift", ["ift", "--field", "q", "--vars", "x,y", "--split-vars", "y",
                        "--precision", "5", "y - x - y^2"], {}),
        ("readme-transport", ["transport", "--field", "q", "--vars", "x,y", "--precision",
                              "8", "file:f0.txt", "file:f1.txt", "file:phi.txt"],
         {"f0.txt": f0, "f1.txt": f1, "phi.txt": phi}),
    ]
    split_json = ["split", "--field", "q", "--vars", "x,y", "--precision", "4",
                  "--format", "json", "x^2 + x*y^2"]
    _, result, _ = run_case(split_json, {})
    cases.append(("readme-split-json", split_json, {}))
    cases.append(("readme-verify", ["verify", "--field", "q", "--vars", "x,y",
                                    "x^2 + x*y^2", "file:result.json"],
                  {"result.json": result}))
    return cases


# (field spec, variables, precision); two seeded inputs each
SPLIT_SIZES = [
    ("q", 2, 7), ("q", 3, 5), ("q", 4, 4),
    ("fp:7", 2, 7), ("fp:7", 3, 6), ("fp:7", 4, 5),
    ("fp:2", 2, 7), ("fp:2", 3, 6), ("fp:2", 4, 5),
    ("f2k:4", 2, 7), ("f2k:4", 3, 6), ("f2k:4", 4, 5),
]


def split_input(field, n, N, rank, rng):
    """A split form with extra mixed terms, moved by a random automorphism."""
    _, _, f = rand_split_form(field, n, N, rng, rank=rank)
    f = f + rand_jet(field, n, N, rng, min_degree=3, terms=3)
    phi = rand_automorphism(field, n, N, rng, higher_terms=1)
    return phi.apply(f)


def verify_failure_cases():
    """`verify` on a stored split result that was changed, in text and JSON.

    Returns two lists.  A tampered residual fails the check (exit 1).  A
    forged rank is not what split writes for the head, so reading the file
    refuses it (exit 2).
    """
    split_json = ["split", "--field", "q", "--vars", "x,y", "--precision", "4",
                  "--format", "json", "x^2 + x*y^2"]
    result = json.loads(run_case(split_json, {})[1])
    tampered = dict(result, residual="-1/3*y^4 + O(deg 4)")
    forged = dict(result, rank=2)

    def cases(*rows):
        return [(f"verify-fails-{tag}",
                 ["verify", "--field", "q", "--vars", "x,y"] + fmt + ["x^2 + x*y^2",
                                                                      "file:result.json"],
                 {"result.json": json.dumps(data, indent=2) + "\n"})
                for tag, fmt, data in rows]

    return (cases(("tampered-residual", [], tampered),
                  ("tampered-residual-json", ["--format", "json"], tampered)),
            cases(("forged-rank", ["--format", "json"], forged),
                  ("forged-rank-text", [], forged)))


def split_cases(rng):
    cases = []
    for spec, n, N in SPLIT_SIZES:
        field = parse_field_spec(spec)
        names = names_of(n)
        common = ["--field", spec, "--vars", ",".join(names), "--precision", str(N)]
        for k in range(2):
            rank = n - k if field.char != 2 else 2 * ((n - k) // 2)
            expr = serialize_jet(split_input(field, n, N, rank, rng), names)
            tag = f"{spec.replace(':', '')}-n{n}-N{N}-{k}"
            text = ["split"] + common + [expr]
            as_json = ["split"] + common + ["--format", "json", expr]
            _, result, _ = run_case(as_json, {})
            cases.append((f"split-{tag}", text, {}))
            cases.append((f"split-json-{tag}", as_json, {}))
            cases.append((f"verify-{tag}",
                          ["verify", "--field", spec, "--vars", ",".join(names),
                           "--format", "json", expr, "file:result.json"],
                          {"result.json": result}))
    return cases


def ift_cases(rng):
    cases = []
    for spec, nx, ny, N in [("q", 1, 1, 6), ("q", 2, 1, 4), ("fp:7", 2, 1, 5),
                            ("fp:2", 1, 2, 5), ("f2k:4", 2, 2, 4)]:
        field = parse_field_spec(spec)
        names = names_of(nx + ny)
        system = rand_implicit_system(field, nx, ny, N, rng)
        eqs = [bare(eq, names) for eq in system.equations]
        cases.append((f"ift-{spec.replace(':', '')}-{nx}x{ny}-N{N}",
                      ["ift", "--field", spec, "--vars", ",".join(names), "--split-vars",
                       ",".join(names[nx:]), "--precision", str(N), "--format", "json"]
                      + eqs, {}))
    return cases


def transport_cases():
    """json `transport` on a random split form f0, its image f1 under a random
    split equivalence phi, and phi (``gen.transport_roundtrip``), one per field."""
    return recorded("transport-q-n2-N5", "transport-fp7-n3-N5", "transport-fp2-n3-N5",
                    "transport-f2k4-n3-N4")


def quadform_cases():
    return [
        ("quadform-q-signs", ["quadform", "--field", "q", "--vars", "x,y,z",
                              "--format", "json", "2*x^2 - 3*y^2 + x*z + 5*z^2"], {}),
        ("quadform-fp7", ["quadform", "--field", "fp:7", "--vars", "x,y,z",
                          "x^2 + 3*x*y + 5*y^2 + 6*z^2 + y*z"], {}),
        ("quadform-f2k2", ["quadform", "--field", "f2k:2", "--vars", "x1,x2",
                           "--format", "json", "x1^2+x1*x2+x2^2"], {}),
        ("quadform-f2k4", ["quadform", "--field", "f2k:4", "--vars", "x1,x2,x3,x4",
                           "t*x1^2 + x1*x3 + (t^2+1)*x2*x4 + x4^2 + x2^2"], {}),
        ("quadform-q-unit-diagonal", ["quadform", "--field", "q", "--vars", "x,y",
                                      "x^2 + 4*y^2"], {}),
        ("quadform-json-q-unit-diagonal", ["quadform", "--field", "q", "--vars", "x,y",
                                           "--format", "json", "x^2 + 4*y^2"], {}),
        ("quadform-fp7-no-unit-diagonal", ["quadform", "--field", "fp:7", "--vars", "x,y",
                                           "--format", "json", "3*x^2 + y^2"], {}),
    ]


def norm_cases():
    return [
        ("norm-q-abs", ["norm", "--field", "q", "--vars", "x,y", "--valuation", "abs",
                        "--epsilon", "1/2,1/3", "1 + 2*x - 3/4*x*y^2"], {}),
        ("norm-q-padic3", ["norm", "--field", "q", "--vars", "x,y", "--valuation",
                           "padic:3", "--format", "json", "9*x + 2/27*y^3 + 5"], {}),
        ("norm-fp7-trivial", ["norm", "--field", "fp:7", "--vars", "x", "3*x^2 + x"], {}),
    ]


# (tag, field, variables, expression, [milnor options, determinacy options]):
# Brieskorn-Pham sums with higher terms (mu up to 100) over every field, a
# non-isolated input, an order-1 input (mu = 0), a constant term, the zero
# jet, a search cut below the stabilization degree and both --precision
# branches of milnor; then searches that meet rows reducing to zero: three
# non-isolated inputs whose partials share a factor (over q, fp:101 and
# fp:2, where the partials do not vanish) and an isolated one with zero
# rows two batches before its cover; text and json alternate.
TEXT, JSON = [], ["--format", "json"]
JACOBIAN_INPUTS = [
    ("q-bp-a566", "q", "x,y,z", "x^5 + y^6 + z^6 + x^2*y^3*z", [TEXT, JSON]),
    ("fp7-sqh", "fp:7", "x,y,z", "2*x^3 + y^4 + 3*z^5 + x^2*y^2 + y*z^4", [JSON, TEXT]),
    ("fp2-sqh", "fp:2", "x,y,z", "x^3 + y^5 + z^3 + x*y^3 + x^2*z^2", [TEXT, JSON]),
    ("f2k4-sqh", "f2k:4", "x1,x2,x3,x4",
     "t*x1^3 + x2^3 + (t^2+1)*x3^5 + x4^3 + t^3*x1^2*x2^2 + x3*x4^3", [JSON, TEXT]),
    ("q-nonisolated", "q", "x,y,z", "(x+y-z)^2*((x-y+2*z)^2 + x*y*z)",
     [["--max-degree", "7"], ["--max-degree", "7"] + JSON]),
    ("q-order1", "q", "x,y", "x + 3*y^2 - x*y", [JSON, TEXT]),
    ("q-constant-term", "q", "x,y", "5 + x^2 + 2*x*y^2 + y^4 + y^5", [JSON, TEXT]),
    ("zero", "fp:7", "x,y", "0", [TEXT, JSON]),
    ("q-below-stabilization", "q", "x,y", "x^3 + y^7",
     [["--max-degree", "4"], ["--max-degree", "4"] + JSON]),
    ("q-precision-fits", "q", "x,y", "x^2 + y^3 + x*y^4", [["--precision", "6"], TEXT]),
    ("q-precision-short", "q", "x,y", "x^2 + y^7", [["--precision", "4"] + JSON, TEXT]),
    ("q-shared-factor", "q", "x,y,z", "(x+y-z)^2*((x-y+2*z)^2 + x*y*z)",
     [["--max-degree", "12"], ["--max-degree", "12"] + JSON]),
    ("fp101-shared-factor", "fp:101", "x,y,z", "(x+y-z)^2*((x-y+2*z)^2 + x*y*z)",
     [["--max-degree", "12"] + JSON, ["--max-degree", "12"]]),
    ("q-shared-factor-4vars", "q", "x,y,z,w", "(x+y+z+w)^2*(x-y+2*z)^2 + x^3*z^3",
     [["--max-degree", "10"], ["--max-degree", "10"] + JSON]),
    ("fp2-shared-factor", "fp:2", "x,y,z", "(x+y)^2*(x*y + z^3)", [JSON, TEXT]),
    ("q-isolated-zero-rows", "q", "x,y,z", "x^2*y + y^6 + x^3*z + z^5", [TEXT, JSON]),
]


def milnor_cases():
    return [
        ("milnor-q-cusp", ["milnor", "--field", "q", "--vars", "x,y", "--format", "json",
                           "x^3 + y^4"], {}),
        ("determinacy-fp7", ["determinacy", "--field", "fp:7", "--vars", "x,y",
                             "x^2 + y^5"], {}),
        # the text twin of milnor-q-precision-short: mu unknown, with its note
        ("milnor-q-precision-short-text", ["milnor", "--field", "q", "--vars", "x,y",
                                           "--precision", "4", "x^2 + y^7"], {}),
    ] + [(f"{cmd}-{tag}", [cmd, "--field", spec, "--vars", names] + opts + [expr], {})
         for tag, spec, names, expr, per_command in JACOBIAN_INPUTS
         for cmd, opts in zip(("milnor", "determinacy"), per_command)]


# split over q with large coprime denominators: fractions that a substitution
# kernel must carry exactly through every pass
LARGE_DENOMINATORS = ("1000003/999983*x^2 - 999979/1000037*y^2 + 3/999961*x*z^2"
                      " - 1000039/999953*y*z^3 + 7/1000033*x*y*z + 5/999931*x^2*y*z"
                      " - 11/1000081*z^3 + 13/999917*x*z^4 + 2/3*z^4")


def large_coefficient_cases():
    """Fractional and large-residue coefficients through split, ift and transport.

    Drawn from their own seed, so the cases above keep their inputs.
    """
    rng = random.Random(1000000007)
    spec, n, N = "fp:1000000007", 3, 6
    names = ",".join(names_of(n))
    expr = serialize_jet(split_input(parse_field_spec(spec), n, N, n, rng), names_of(n))
    as_json = ["split", "--field", spec, "--vars", names, "--precision", str(N),
               "--format", "json", expr]
    _, result, _ = run_case(as_json, {})
    return [
        ("split-q-large-denominators", ["split", "--field", "q", "--vars", "x,y,z",
                                        "--precision", "5", LARGE_DENOMINATORS], {}),
        ("split-json-q-large-denominators",
         ["split", "--field", "q", "--vars", "x,y,z", "--precision", "5", "--format",
          "json", LARGE_DENOMINATORS], {}),
        (f"split-json-fp1000000007-n{n}-N{N}", as_json, {}),
        (f"verify-fp1000000007-n{n}-N{N}",
         ["verify", "--field", spec, "--vars", names, "--format", "json", expr,
          "file:result.json"], {"result.json": result}),
        ("ift-q-fractional",
         ["ift", "--field", "q", "--vars", "x1,x2,y1,y2", "--split-vars", "y1,y2",
          "--precision", "4", "--format", "json",
          "3/7*y1 - 2/5*y2 + 11/13*x1 - 1000003/999983*x2*y1 + 5/1000033*y2^2"
          " - 1/999979*x1^3",
          "1/4*y1 + 9/11*y2 - 7/1000037*x1*x2 + 2/3*y1*y2^2 + 999961/17*x2^4"], {}),
        # transport over q with fractions in f0, f1 and phi
        *recorded("transport-q-fractional"),
    ]


def deep_ift_cases():
    """ift and transport at precisions whose solve takes several precision steps.

    Univariate fp:7 at 40 and fractional q at 20; two unknowns over fp:2 and
    f2k:4 at 12, where 2I vanishes; no parameters at all; transport at 10.
    Drawn from their own seed, so the cases above keep their inputs.
    """
    rng = random.Random(4096)
    cases = []
    field = parse_field_spec("f2k:4")
    system = rand_implicit_system(field, 2, 2, 12, rng)
    eqs = [bare(eq, names_of(4)) for eq in system.equations]
    cases.append(("ift-f2k4-2x2-N12",
                  ["ift", "--field", "f2k:4", "--vars", "x1,x2,x3,x4", "--split-vars",
                   "x3,x4", "--precision", "12", "--format", "json"] + eqs, {}))
    cases.append(("ift-fp7-1x1-N40",
                  ["ift", "--field", "fp:7", "--vars", "x,y", "--split-vars", "y",
                   "--precision", "40", "3*y - x + 2*y^2 + x*y^3 + 5*x^3*y + 6*x^7"], {}))
    cases.append(("ift-fp2-1x2-N12",
                  ["ift", "--field", "fp:2", "--vars", "x,y1,y2", "--split-vars", "y1,y2",
                   "--precision", "12", "--format", "json",
                   "y1 + y2 + x + y1^2*y2 + x*y2^2", "y2 + x^2 + y1*y2 + y1^3"], {}))
    cases.append(("ift-q-fractional-N20",
                  ["ift", "--field", "q", "--vars", "x,y", "--split-vars", "y",
                   "--precision", "20",
                   "3/7*y - 2/5*x + 1/3*y^2 - 5/11*x*y^3 + 7/2*x^2*y - 1/13*x^5"], {}))
    cases.append(("ift-q-no-parameters",
                  ["ift", "--field", "q", "--vars", "y1,y2", "--split-vars", "y1,y2",
                   "--precision", "20", "--format", "json",
                   "y1 + 2/3*y2^2 - y1*y2", "y2 - 3*y1^3 + y1*y2^4"], {}))
    return cases + recorded("transport-q-n3-N10", "transport-fp2-n3-N10")


def char2_pair_cases():
    """transport and split over two Arf pairs with both squares in some pair.

    The earlier char-2 transport cases have an identity phi or at most one
    nonzero square per pair; these move x_i^2 and x_{i+1}^2 of one pair at
    once, over f2k:4 and fp:2, with g0 != g1.  Then a json split over f2k:4
    in 5 variables at rank 4, drawn after them.
    """
    return recorded("transport-f2k4-n5-N4", "transport-fp2-n5-N5",
                    "split-json-f2k4-n5-N5-rank4")


def tail_block_cases():
    """transport in characteristic 2 where phi's tail-to-tail linear block is
    invertible but not the identity, which the construction first recoordinates.

    A zero square tail keeps f1 in split shape under any tail block.  The files
    hold f0, phi = (split equivalence) composed with the block change, and
    f1 = phi(f0); one call prints text, which shows the change alone.
    """
    return recorded("transport-tail-block-fp2-n4-json", "transport-tail-block-f2k4-n4-json",
                    "transport-tail-block-fp2-n5-json", "transport-tail-block-f2k4-n3-text")


# quadform inputs, as (tag, field, variables, expression): a zero diagonal
# with a mixed entry, a pivot swap, squarefree rescaling, a permuted and
# collapsed square tail, an Arf pair without a solvable reduction and t
# coefficients over GF(16)
QUADFORM_BRANCH_INPUTS = [
    ("zero-diagonal-q", "q", "x,y,z", "x*y + y*z"),
    ("zero-diagonal-fp7", "fp:7", "x,y,z", "x*y + y*z"),
    ("pivot-swap-q", "q", "x,y", "y^2 + x*y"),
    ("squarefree-q", "q", "x,y", "12*x^2 + 18*y^2"),
    ("square-tail-fp2", "fp:2", "x1,x2,x3,x4,x5", "x1*x2 + x4^2 + x5^2"),
    ("unsolvable-pair-fp2", "fp:2", "x1,x2", "x1^2 + x1*x2 + x2^2"),
    ("t-coefficients-f2k4", "f2k:4", "x1,x2,x3,x4,x5",
     "t*x1^2 + x1*x2 + (t+1)*x2^2 + t^2*x3^2 + x3*x4 + x4^2 + (t^3+t)*x5^2 + x2*x5"),
]


def dense_quadratic(field, n, rng):
    """Every monomial x_i x_j with a nonzero coefficient (small integers over q)."""
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            coeffs[tuple(alpha)] = (field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                                    if field.char == 0
                                    else random_element(field, rng, nonzero=True))
    return Jet(field, n, 2, coeffs)


def quadform_branch_cases():
    """quadform and split through every branch of the congruence steps.

    Each input of QUADFORM_BRANCH_INPUTS in text and json, then dense forms in
    8 variables over q, fp:7, fp:2 and f2k:4 as quadform and as json split at
    precision 3, which print the transition matrix.  The dense forms are drawn
    from their own seed, so the cases above keep their inputs.
    """
    cases = []
    for tag, spec, names, expr in QUADFORM_BRANCH_INPUTS:
        argv = ["quadform", "--field", spec, "--vars", names]
        cases.append((f"quadform-{tag}", argv + [expr], {}))
        cases.append((f"quadform-json-{tag}", argv + ["--format", "json", expr], {}))
    rng = random.Random(1313)
    names = names_of(8)
    for spec in ("q", "fp:7", "fp:2", "f2k:4"):
        expr = bare(dense_quadratic(parse_field_spec(spec), 8, rng), names)
        common = ["--field", spec, "--vars", ",".join(names)]
        tag = f"{spec.replace(':', '')}-dense-n8"
        cases.append((f"quadform-{tag}", ["quadform"] + common + [expr], {}))
        cases.append((f"split-json-{tag}-N3", ["split"] + common + [
            "--precision", "3", "--format", "json", expr], {}))
    return cases



# Arf reductions, as (tag, field, variables, expression): a radical of three
# vectors, and an index without a partner before indices that have one
ARF_ORDER_INPUTS = [
    ("radical-3-fp2", "fp:2", "x1,x2,x3,x4,x5", "x1*x2 + x2*x5 + x3^2 + x4^2"),
    ("unpaired-first-fp2", "fp:2", "x1,x2,x3,x4", "x1^2 + x2*x3 + x3*x4 + x4^2"),
    ("unpaired-first-f2k4", "f2k:4", "x1,x2,x3,x4,x5",
     "t*x1^2 + x2^2 + x3*x4 + x2*x5 + (t+1)*x5^2"),
]


def sparse_quadratic(field, n, rng):
    """At most 2n random monomials x_i x_j with nonzero coefficients."""
    coeffs = {}
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        alpha = [0] * n
        alpha[i] += 1
        alpha[j] += 1
        coeffs[tuple(alpha)] = random_element(field, rng, nonzero=True)
    return Jet(field, n, 2, coeffs)


def arf_reduction_cases():
    """quadform and split in characteristic 2 beyond 8 variables.

    Each input of ARF_ORDER_INPUTS as json quadform, then sparse and dense
    forms in 12 and 16 variables over fp:2, f2k:4 and f2k:8 as json quadform,
    which prints the transition matrix, and one json split over fp:2 in 10
    variables at precision 3.  Drawn from their own seed, so the cases above
    keep their inputs.
    """
    cases = [(f"quadform-json-{tag}",
              ["quadform", "--field", spec, "--vars", names, "--format", "json", expr], {})
             for tag, spec, names, expr in ARF_ORDER_INPUTS]
    rng = random.Random(2121)
    for spec in ("fp:2", "f2k:4", "f2k:8"):
        field = parse_field_spec(spec)
        for n in (12, 16):
            names = names_of(n)
            for kind, draw in (("sparse", sparse_quadratic), ("dense", dense_quadratic)):
                expr = bare(draw(field, n, rng), names)
                cases.append((f"quadform-json-{spec.replace(':', '')}-{kind}-n{n}",
                              ["quadform", "--field", spec, "--vars", ",".join(names),
                               "--format", "json", expr], {}))
    names = names_of(10)
    expr = serialize_jet(split_input(parse_field_spec("fp:2"), 10, 3, 6, rng), names)
    cases.append(("split-json-fp2-n10-N3",
                  ["split", "--field", "fp:2", "--vars", ",".join(names), "--precision", "3",
                   "--format", "json", expr], {}))
    return cases


def dense_product_cases():
    """Calls whose truncated products are dense in one or two variables.

    Catalan ift over fp:7 at 120 and over fp:1000003 at 200, an ift in two
    parameters over fp:7 at 16, parser powers at precision 10^9 ((x+1)^300
    in norm, x*(x+1)^299 inside an ift, a power of a two-variable sum over
    fp:7 in norm) and a deep split over fp:1000003 at 60.
    """
    catalan = ["--vars", "x,y", "--split-vars", "y"]
    return [
        ("ift-catalan-fp7-N120",
         ["ift", "--field", "fp:7", *catalan, "--precision", "120", "y - x - y^2"], {}),
        ("ift-catalan-fp1000003-N200",
         ["ift", "--field", "fp:1000003", *catalan, "--precision", "200", "y - x - y^2"], {}),
        ("ift-fp7-two-parameters-N16",
         ["ift", "--field", "fp:7", "--vars", "x,z,y", "--split-vars", "y", "--precision",
          "16", "y - x - 2*z - y^2 + 3*x*z*y"], {}),
        ("ift-fp1000003-parser-power-N300",
         ["ift", "--field", "fp:1000003", *catalan, "--precision", "300",
          "y - x*(x + 1)^299"], {}),
        ("norm-fp1000003-power-300",
         ["norm", "--field", "fp:1000003", "--vars", "x", "(x+1)^300"], {}),
        ("norm-fp7-power-of-two-variable-sum",
         ["norm", "--field", "fp:7", "--vars", "x,y", "--epsilon", "1/2,1/3",
          "(1 + x + 2*y + 3*x*y)^40"], {}),
        ("split-fp1000003-deep-N60",
         ["split", "--field", "fp:1000003", "--vars", "x,y", "--precision", "60",
          "x^2+x^2*y+x*y^3+y^3"], {}),
    ]


# transport inputs in split shape or not, as (tag, field, variables, f0, f1)
TRANSPORT_EDGE_INPUTS = [
    ("not-diagonal", "q", "x,y", "x*y + y^3", "x*y + y^3"),
    ("not-leading", "q", "x,y", "y^2 + x^3", "y^2 + x^3"),
    ("pairs-not-consecutive", "fp:2", "x1,x2,x3", "x1*x3 + x2^3", "x1*x3 + x2^3"),
    ("middle-not-1", "f2k:2", "x1,x2,x3", "t*x1*x2 + x3^3", "t*x1*x2 + x3^3"),
    ("head-in-residual", "q", "x,y", "x^2 + x*y^2", "x^2 + x*y^2"),
    ("linear-term", "q", "x,y", "x + y^2", "x + y^2"),
    ("other-diagonal", "q", "x,y", "x^2 + y^3", "2*x^2 + y^3"),
    ("other-square-tail", "fp:2", "x1,x2,x3", "x1*x2 + x3^2 + x3^3", "x1*x2 + x3^3"),
    ("phi-does-not-map", "q", "x,y", "x^2 + y^3", "x^2 + y^3 + y^4"),
    ("no-tail", "q", "x,y", "x^2 + y^2", "x^2 + y^2"),
]


def edge_cases():
    """Rejected inputs and edge cases: exit 2 with one error line, or exit 0."""
    cases = []
    for tag, spec, names, f0, f1 in TRANSPORT_EDGE_INPUTS:
        identity = "".join(v + "\n" for v in names.split(","))
        cases.append((f"transport-{tag}",
                      ["transport", "--field", spec, "--vars", names, "--precision", "4",
                       "file:f0.txt", "file:f1.txt", "file:phi.txt"],
                      {"f0.txt": f0 + "\n", "f1.txt": f1 + "\n", "phi.txt": identity}))
    for spec, names, f in [("q", "x,y", "x^2 + y^3"), ("fp:2", "x1,x2,x3", "x1*x2 + x3^2")]:
        identity = "".join(v + "\n" for v in names.split(","))
        cases.append((f"transport-precision-1-{spec.replace(':', '')}",
                      ["transport", "--field", spec, "--vars", names, "--precision", "1",
                       "file:f0.txt", "file:f1.txt", "file:phi.txt"],
                      {"f0.txt": f + "\n", "f1.txt": f + "\n", "phi.txt": identity}))
    # phi(f0) = f1 holds, but phi's tail rows take x1 linearly beside the square x3^2
    cases.append(("transport-fp2-tail-takes-head",
                  ["transport", "--field", "fp:2", "--vars", "x1,x2,x3", "--precision", "5",
                   "file:f0.txt", "file:f1.txt", "file:phi.txt"],
                  {"f0.txt": "x1*x2 + x3^2 + x3^3\n", "f1.txt": "x1*x2 + x3^2 + x3^3\n",
                   "phi.txt": "x1\nx2 + x1 + x1^2 + x1*x3 + x3^2\nx3 + x1\n"}))
    cases.append(("split-linear-term", ["split", "--field", "q", "--vars", "x,y",
                                        "--precision", "4", "x + y^2"], {}))
    return cases


# Parser inputs, as (tag, field, variables, precision, expression).  At rank 0
# `split` prints its input back as the residual, so most of these echo the
# parsed jet.
PARSER_INPUTS = [
    ("nested-parens", "q", "x,y,z", 6,
     "x^3 - (y*(z - (x + (y - 2*z))))^2*(((x))) + ((((z))))^3"),
    ("power-of-sum", "fp:7", "x,y", 7, "x^2 + (x + 2*y)^3 - (y - x^2)^4 + (1*x*y)^2"),
    ("chained-power", "q", "x,y", 8, "x^2^1 + y^3^2 - (x + y)^2^2*x + 3^2^2*y^4*x^0"),
    ("signs", "q", "x,y", 6, "-x^2 + (-y + x)^3 - (-(x*y))^2 - y^2"),
    ("cancel-to-zero-q", "q", "x,y", 5,
     "x*y^2 + (x + y)^2 - x^2 - 2*x*y - y^2 - y^2*x"),
    ("cancel-to-zero-fp2", "fp:2", "x,y", 5, "(x + y)^2 + x^2 + y^2"),
    ("above-precision", "q", "x,y", 3, "x^2 + y^3 + x^4 + (x + y)^5 - x^2*y^2 + y^7"),
    ("t-literals", "f2k:4", "x1,x2,x3", 5,
     "t*x1*x2 + (t+1)*x1^2 + x3^3*(t^2 + t) + t^3*x1^2*x2 + (t*x3 + 1*x2)^4"),
    ("rational-literals", "q", "x,y", 4,
     "1/2*x^2 - 3/4*y^2 + 5/6*x*y^2 - 10/4*y^3 + 0/3*x^3 + 7*y^4"),
    # flat sums in the bench's text style, every coefficient in parentheses;
    # the quadratic terms cancel, so the residual echoes the parsed jet
    ("paren-literals-q", "q", "x,y", 4,
     "(-3)*x^2 + ( 3 ) * x ^ 2 + (-3/7)*x^3 + (2/5)*x*y^2 + (0)*y^3 - (2/5)*x*y^2"
     " + (5/3)*x^2*y^3 + (-1)*y^4 + (-3/7)*x^2*y"),
    ("paren-literals-fp7", "fp:7", "x,y", 5,
     "(9)*x^3 + (0)*x*y^2 + (3)*y^3 + (4)*x*y^2 + (3)*x*y^2 + (-2)*y^4 + (6)*x^6"
     " + (9)*x^2*y^2"),
    ("paren-literals-f2k4", "f2k:4", "x1,x2", 5,
     "(t^3 + t)*x1^3 + (t)*x1^2*x2 + (t^3 + t)*x2^3 + (1)*x2^4 + (t^2 + 1)*x1^3*x2^3"
     " + (t^3 + t)*x2^3 + (t^2)*x1*x2^2"),
]

# Rejected parser inputs (exit 2), as (tag, field, variables, precision, expression):
# every syntax error is reported before an unknown variable or a literal
# outside the field.
PARSER_ERRORS = [
    ("unknown-variable", "q", "x,y", 4, "x^2 + z^3"),
    ("fraction-over-fp7", "fp:7", "x", 4, "1/2*x^2"),
    ("literal-over-f2k2", "f2k:2", "x", 4, "2*x^2"),
    ("operator-for-operand", "q", "x,y", 4, "x + * y"),
    ("bad-character", "q", "x,y", 4, "x # y"),
    ("empty", "q", "x,y", 4, ""),
    ("empty-before-suffix", "q", "x,y", 4, "  + O(deg 3)"),
    ("syntax-before-semantic", "q", "x,y", 4, "z + * y"),
    ("bad-character-after-syntax-error", "q", "x,y", 4, "x + * y # z"),
    ("unclosed-paren", "q", "x,y", 4, "(x + y^2"),
    ("stray-paren", "q", "x,y", 4, "x^2)"),
    ("missing-operator", "q", "x,y", 4, "x^2 y^2"),
    ("exponent-not-number", "q", "x,y", 4, "x^y"),
    ("exponent-fraction", "q", "x,y", 4, "x^1/2"),
    ("reserved-t", "f2k:4", "t,x", 4, "x^2 + t"),
    ("semantic-in-source-order", "fp:7", "x,y", 4, "x^2 + z*1/2 + w"),
    ("variable-at-precision-0", "q", "x", 0, "x^2"),
    ("unknown-variable-after-zero-factor", "fp:2", "x,y", 4, "x^2 + 2*x*z"),
    ("paren-fraction-over-fp7", "fp:7", "x", 4, "x^2 + (1/2)*x"),
    ("paren-literal-over-f2k2", "f2k:2", "x", 4, "x^2 + (t^2 + 2)*x"),
]


def parser_case(prefix, tag, spec, names, N, expr):
    return (f"{prefix}-{tag}", ["split", "--field", spec, "--vars", names,
                                "--precision", str(N), expr], {})


def build():
    rng = random.Random(20260)
    specs = (readme_cases() + split_cases(rng) + ift_cases(rng) + transport_cases()
             + quadform_cases() + norm_cases() + milnor_cases() + large_coefficient_cases()
             + deep_ift_cases() + char2_pair_cases() + quadform_branch_cases()
             + tail_block_cases() + arf_reduction_cases() + dense_product_cases())
    parsed = [parser_case("parse", *row) for row in PARSER_INPUTS]
    parsed += [
        ("parse-zero-powers-norm",
         ["norm", "--field", "q", "--vars", "x,y", "--valuation", "abs",
          "--epsilon", "1/2,1/3", "--format", "json",
          "0^0 + x^0*(x-x)^0 - 2*(3*x)^2*y + 1/3*y"], {}),
        ("parse-precision-override-norm",
         ["norm", "--field", "q", "--vars", "x", "--precision", "3", "--valuation", "abs",
          "--epsilon", "2", "x + x^5 + O(deg 6)"], {}),
    ]
    rejected = [parser_case("parse-error", *row) for row in PARSER_ERRORS]
    failing, refused = verify_failure_cases()
    corpus = []
    for name, argv, files in specs + edge_cases() + parsed + rejected + failing + refused:
        code, out, err = run_case(argv, files)
        corpus.append({"name": name, "argv": argv, "files": files,
                       "exit": code, "stdout": out, "stderr": err})
    exits = {c["name"]: c["exit"] for c in corpus}
    failed = [name for name, _, _ in specs + parsed if exits[name] != 0]
    accepted = [name for name, _, _ in rejected + refused if exits[name] != 2]
    passed = [name for name, _, _ in failing if exits[name] != 1]
    if failed or accepted or passed:
        raise SystemExit(f"cases exited nonzero: {failed}; refused inputs not exit 2: "
                         f"{accepted}; failed checks not exit 1: {passed}")
    return corpus


def check(corpus, path):
    """0 when corpus equals the stored one case for case, else 1 after naming,
    on stderr, every case that differs and which of its entries differ, every
    case only one side holds, or a change of order."""
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle)
    rebuilt = {case["name"]: case for case in corpus}
    kept = {case["name"]: case for case in stored}
    lines = []
    for name, old in kept.items():
        new = rebuilt.get(name)
        if new is None:
            lines.append(f"golden case {name} is not rebuilt")
        elif new != old:
            keys = [key for key in ("argv", "files", "exit", "stdout", "stderr")
                    if new.get(key) != old.get(key)]
            lines.append(f"golden case {name} differs in {', '.join(keys)}")
    lines += [f"rebuilt case {name} is not in the corpus" for name in rebuilt if name not in kept]
    if not lines and corpus != stored:
        lines.append("the rebuild holds the stored cases in another order or repeats one")
    if lines:
        print("\n".join(lines), file=sys.stderr)
        print(f"{len(lines)} differences; the corpus holds {len(stored)} cases, "
              f"the rebuild {len(corpus)}", file=sys.stderr)
        return 1
    print(f"all {len(corpus)} cases match")
    return 0


if __name__ == "__main__":
    corpus = build()
    path = os.path.join(HERE, "corpus.json")
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(check(corpus, path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {len(corpus)} cases")
