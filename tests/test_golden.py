"""Byte-identical CLI output on the golden corpus (tests/golden/corpus.json).

The corpus holds README examples and seeded split/verify, ift, transport,
quadform, norm, milnor and determinacy calls over every field, split, ift
and transport with large denominators over q and large residues over
fp:1000000007, rejected transport and split inputs, `verify` on tampered
split results (exit 1) and on a forged rank (exit 2), quadform through
every congruence branch and dense 8-variable forms, characteristic-2 quadform in up to 16 variables, calls
whose truncated products are dense in one or two variables (Catalan ift,
parser powers at precision 10^9, a deep split over fp:1000003), and
parser inputs (nesting, powers, signs, truncation, literals bare and in
parentheses, and syntax and semantic errors), with the exit code, stdout and
stderr recorded by ``tests/golden/make_corpus.py``.  A refactor or kernel change that alters
any byte of any output fails here.
"""

import json
import os

import pytest

from jetsplit import SplitResult
from jetsplit.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "corpus.json")
FILE_PREFIX = "file:"

with open(CORPUS, encoding="utf-8") as _handle:
    CASES = json.load(_handle)


def replay(case, tmp_path):
    """The case's exit code, with its input files written to tmp_path."""
    for name, text in case["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a[len(FILE_PREFIX):]) if a.startswith(FILE_PREFIX) else a
            for a in case["argv"]]
    return main(argv)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, tmp_path, capsys):
    code = replay(case, tmp_path)
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out.encode("utf-8") == case["stdout"].encode("utf-8")
    assert captured.err.encode("utf-8") == case["stderr"].encode("utf-8")


def test_corpus_covers_every_field_and_command():
    specs = {c["argv"][c["argv"].index("--field") + 1] for c in CASES}
    assert {"q", "fp:7", "fp:2", "f2k:4"} <= specs
    commands = {c["argv"][0] for c in CASES}
    assert commands == {"split", "verify", "quadform", "milnor", "determinacy",
                        "norm", "ift", "transport"}


def test_recoordinated_transport_work_is_pinned(tmp_path, capsys, kernel_work):
    # phi's tail block is not the identity, so the problem recoordinates the
    # tail; the hypothesis phi(f0) = f1 is substituted once, before that, and
    # a second check on the recoordinated problem would raise both counts;
    # Horner nests its dense levels and builds one-term parts' powers without
    # a product, so these counts also move with the substitution kernel
    case, = [c for c in CASES if c["name"] == "transport-tail-block-fp2-n4-json"]
    work = kernel_work()
    assert replay(case, tmp_path) == 0
    assert capsys.readouterr().out == case["stdout"]
    assert work == {"calls": 74, "pairs": 171, "ift_calls": 44, "ift_pairs": 70,
                    "expr_calls": 0, "expr_pairs": 0, "kronecker": 0}


SPLIT_JSON = [c for c in CASES if c["argv"][0] == "split" and c["exit"] == 0
              and "--format" in c["argv"] and c["argv"][c["argv"].index("--format") + 1] == "json"]


@pytest.mark.parametrize("case", SPLIT_JSON, ids=[c["name"] for c in SPLIT_JSON])
def test_split_json_output_round_trips(case):
    # verify reads back what split writes: a genuine result file is never refused
    data = json.loads(case["stdout"])
    names = case["argv"][case["argv"].index("--vars") + 1].split(",")
    back = SplitResult.from_json(data, names).to_json(names)
    assert back == {key: data[key] for key in
                    ("rank", "quad", "field", "precision", "residual", "change")}
