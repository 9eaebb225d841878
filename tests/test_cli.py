import importlib
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jetsplit import Jet, RationalField, parse_jet
from jetsplit.cli import main

# the package re-exports functions named like these modules
cli_module = importlib.import_module("jetsplit.cli")
expr_module = importlib.import_module("jetsplit.expr")
field_module = importlib.import_module("jetsplit.field")
ift_module = importlib.import_module("jetsplit.ift")
jacobian_module = importlib.import_module("jetsplit.jacobian")
split_module = importlib.import_module("jetsplit.split")
transport_module = importlib.import_module("jetsplit.transport")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_command_json(capsys):
    code, out, _ = run(capsys, "split", "--field", "q", "--vars", "x,y",
                       "--precision", "4", "--format", "json", "x^2 + x*y^2")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["rank"] == 1
    assert data["residual"] == "-1/4*y^4 + O(deg 4)"
    assert data["change"][0] == "x - 1/2*y^2 + O(deg 4)"
    assert data["verified"] is True


def test_usage_errors_exit_2_alike_on_the_shared_parser(capsys):
    from jetsplit.cli import _build_parser
    assert _build_parser() is _build_parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--vars", "x", "--precision", "2", "x^2"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
        assert run(capsys, "split", "--field", "q", "--vars", "x", "--precision", "2",
                   "x^2")[0] == 0
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: jetsplit split")
    assert "the following arguments are required: --field" in errors[0]


def test_split_command_text(capsys):
    code, out, _ = run(capsys, "split", "--field", "q", "--vars", "x,y",
                       "--precision", "4", "x^2 + x*y^2")
    assert code == 0
    assert "residual: -1/4*y^4 + O(deg 4)" in out
    assert "verified: true" in out


def test_quadform_char2_arf_report(capsys):
    code, out, _ = run(capsys, "quadform", "--field", "fp:2",
                       "--vars", "x1,x2,x3", "--format", "json",
                       "x1^2+x1*x2+x2^2+x3^2")
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"]["variant"] == "arf"
    assert data["normal_form"]["rank"] == 2
    assert data["normal_form"]["pairs"] == [["1", "1"]]
    assert data["normal_form"]["tail"] == ["1"]
    assert data["solvable_reduction"] is None
    assert data["verified"] is True


def test_quadform_solvable_over_gf4(capsys):
    code, out, _ = run(capsys, "quadform", "--field", "f2k:2",
                       "--vars", "x1,x2", "--format", "json",
                       "x1^2+x1*x2+x2^2")
    assert code == 0
    data = json.loads(out)
    assert data["solvable_reduction"]["variant"] == "char2_solvable_b"


def test_quadform_signs_over_q(capsys):
    code, out, _ = run(capsys, "quadform", "--field", "q", "--vars", "x,y",
                       "--format", "json", "2*x^2 - 3*y^2")
    assert code == 0
    data = json.loads(out)
    assert data["unit_diagonal"] is None
    assert data["signs"] == "+-"


def test_milnor_command(capsys):
    code, out, _ = run(capsys, "milnor", "--field", "q", "--vars", "x,y",
                       "--format", "json", "x^2+y^2")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 1
    assert data["verified"] is True


def test_milnor_with_jet_precision_needs_determinacy(capsys):
    code, out, _ = run(capsys, "milnor", "--field", "q", "--vars", "x",
                       "--precision", "3", "--format", "json", "x^9")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] is None
    assert "note" in data


def test_milnor_with_sufficient_jet_precision(capsys):
    code, out, _ = run(capsys, "milnor", "--field", "q", "--vars", "x,y",
                       "--precision", "4", "--format", "json", "x^2+y^2")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 1


def test_milnor_checks_the_bound_against_the_jets_own_precision(capsys):
    # an O(deg 3) marker overrides --precision 6, so both calls read the same
    # jet at precision 3, below the determinacy bound 4
    marked = run(capsys, "milnor", "--field", "q", "--vars", "x,y", "--precision", "6",
                 "x^2 + y^3 + O(deg 3)")
    assert marked == run(capsys, "milnor", "--field", "q", "--vars", "x,y",
                         "--precision", "3", "x^2 + y^3")
    assert marked[0] == 0 and marked[1].startswith("mu: unknown\n")
    # a marker alone makes a jet, and a marker above --precision lifts it
    assert run(capsys, "milnor", "--field", "q", "--vars", "x,y",
               "x^2 + y^3 + O(deg 3)") == marked
    code, out, _ = run(capsys, "milnor", "--field", "q", "--vars", "x,y", "--precision", "3",
                       "x^2 + y^3 + O(deg 4)")
    assert code == 0 and out.startswith("mu: 2\n") and "\nbound: 4\n" in out


def test_determinacy_command(capsys):
    code, out, _ = run(capsys, "determinacy", "--field", "q", "--vars", "x",
                       "--format", "json", "x^3")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 3
    assert data["stabilization_degree"] == 2


def test_norm_command(capsys):
    code, out, _ = run(capsys, "norm", "--field", "q", "--vars", "x",
                       "--valuation", "padic:2", "--format", "json", "12*x")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1/4"


def test_norm_archimedean(capsys):
    code, out, _ = run(capsys, "norm", "--field", "q", "--vars", "x",
                       "--valuation", "abs", "--epsilon", "1/2", "1 + 2*x")
    assert code == 0
    assert "value: 2.0" in out


@pytest.mark.parametrize("options, expr", [([], "10^400*x"), (["--epsilon", "1e400"], "x")],
                         ids=["coefficient", "radius"])
def test_norm_too_large_for_a_float_exits_2(capsys, options, expr):
    code, out, err = run(capsys, "norm", "--field", "q", "--vars", "x",
                         "--valuation", "abs", *options, expr)
    assert code == 2
    assert out == ""
    assert err == "error: the archimedean norm exceeds the float range\n"


@pytest.mark.parametrize("epsilon, entry", [("1/0", "1/0"), ("1,,2", ""), ("abc", "abc"),
                                            ("1/2, 2/x", "2/x")])
def test_norm_bad_epsilon_entry_exits_2_naming_it(capsys, epsilon, entry):
    code, out, err = run(capsys, "norm", "--field", "q", "--vars", "x,y", "--valuation", "abs",
                         "--epsilon", epsilon, "x + y")
    assert code == 2
    assert out == ""
    assert err == f"error: --epsilon entry {entry!r} is not a rational number\n"


# the interpreter's int-to-str digit limit, 0 where it has none or it is lifted
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_split_prints_a_coefficient_above_the_digit_limit(capsys):
    # (x + c/2*y^2)^2 - c^2/4*y^4 with c = 3^5000: c^2 has 4772 digits
    code, out, err = run(capsys, "split", "--field", "q", "--vars", "x,y", "--precision", "4",
                         "x^2 + 3^5000*x*y^2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "verified: true"
    numerator = lines[4][len("residual: -"):lines[4].index("/4*y^4 + O(deg 4)")]
    assert len(numerator) == 4772 and numerator.endswith(str(pow(3, 10000, 10 ** 20)))
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == DIGIT_LIMIT


def test_a_5000_digit_literal_is_read_by_the_cli_only(capsys):
    literal = "7" * 5000
    code, out, err = run(capsys, "split", "--field", "q", "--vars", "x,y", "--precision", "3",
                         f"x*y^2 + {literal}*y^3")
    assert code == 0 and err == ""
    assert f"residual: x*y^2 + {literal}*y^3 + O(deg 3)\n" in out
    if 0 < DIGIT_LIMIT < 5000:  # a library caller keeps the interpreter's limit
        with pytest.raises(ValueError, match=f"^bad rational literal '{literal}'"):
            parse_jet(f"{literal}*y", RationalField(), ["y"], 3)


def test_padic_norm_strips_a_large_prime_power_by_squaring(capsys):
    # v_3(3^100000) from 3^(2^k), k = 0..16 and back: one division per
    # factor took 4.4 s; the lines run in _vp bound its steps
    lines = {"vp": 0}
    vp = field_module.PAdicValuation._vp.__code__

    def trace(frame, event, arg):
        if frame.f_code is not vp:
            return None

        def count(frame, event, arg):
            lines["vp"] += event == "line"
            return count
        return count

    start = time.perf_counter()
    sys.settrace(trace)
    try:
        code, out, err = run(capsys, "norm", "--field", "q", "--vars", "x",
                             "--valuation", "padic:3", "3^100000*x")
    finally:
        sys.settrace(None)
    assert time.perf_counter() - start < 3.0
    assert lines["vp"] < 200
    assert code == 0 and err == ""
    value, verified = out.splitlines()
    assert verified == "verified: true"
    assert value.startswith("value: 1/") and len(value) == len("value: 1/") + 47713
    assert value.endswith(str(pow(3, 100000, 10 ** 20)))


def test_ift_command(capsys):
    code, out, _ = run(capsys, "ift", "--field", "q", "--vars", "x,y",
                       "--split-vars", "y", "--precision", "5",
                       "--format", "json", "y - x - y^2")
    assert code == 0
    data = json.loads(out)
    assert data["solution"]["y"] == "x + x^2 + 2*x^3 + 5*x^4 + 14*x^5 + O(deg 5)"
    assert data["verified"] is True


@pytest.mark.parametrize("variables, equation, solution", [
    (["--field", "fp:7", "--vars", "x,z,y"], "y - x^2 - x*z", "x^2 + x*z"),
    (["--field", "fp:7", "--vars", "x,z,y"], "y - x", "x"),
    (["--field", "q", "--vars", "y"], "y+y^2", "0"),
])
def test_ift_at_precision_10_9_is_fast(capsys, kernel_work, variables, equation, solution):
    # about 30 Newton steps, where solving one degree at a time takes 10^9 rounds
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "ift", *variables, "--split-vars", "y",
                         "--precision", "1000000000", equation)
    assert time.perf_counter() - start < 2.0
    # parsing and substitution: a few products per Newton step
    assert work["calls"] <= 80 and work["pairs"] <= 120, work
    assert code == 0 and err == ""
    assert out == f"y: {solution} + O(deg 1000000000)\nverified: true\n"


def test_transport_command(tmp_path, capsys):
    f0 = tmp_path / "f0.txt"
    f1 = tmp_path / "f1.txt"
    phi = tmp_path / "phi.txt"
    f0.write_text("x^2 + y^4\n")
    f1.write_text("x^2 + y^4 + 4*y^5 + 6*y^6 + 4*y^7 + y^8\n")
    phi.write_text("x\ny + y^2\n")
    code, out, _ = run(capsys, "transport", "--field", "q", "--vars", "x,y",
                       "--precision", "8", "--format", "json",
                       str(f0), str(f1), str(phi))
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    assert data["change"][0] == "y + y^2 + O(deg 8)"
    assert data["verified"] is True


def test_verify_command_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "split", "--field", "q", "--vars", "x,y",
                       "--precision", "4", "--format", "json", "x^2 + x*y^2")
    assert code == 0
    result = tmp_path / "result.json"
    result.write_text(out)
    code2, out2, _ = run(capsys, "verify", "--field", "q", "--vars", "x,y",
                         "x^2 + x*y^2", str(result))
    assert code2 == 0
    assert "verified: true" in out2


ROOT = Path(__file__).resolve().parents[1]


def run_process(*argv):
    """``python -m jetsplit`` in a fresh interpreter on the checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "jetsplit", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert "Traceback" not in done.stderr
    return done.returncode, done.stdout, done.stderr


def test_process_entry_point_exit_codes(tmp_path, capsys):
    golden = json.loads((ROOT / "tests" / "golden" / "corpus.json").read_text())
    case = next(c for c in golden if c["name"] == "readme-split")
    assert run_process(*case["argv"]) == (0, case["stdout"], "")
    # a result whose residual was changed fails its check: exit 1, nothing on stderr
    data = json.loads(run(capsys, *case["argv"][:-1], "--format", "json", case["argv"][-1])[1])
    data["residual"] = "-1/3*y^4 + O(deg 4)"
    result = tmp_path / "result.json"
    result.write_text(json.dumps(data))
    code, out, err = run_process("verify", "--field", "q", "--vars", "x,y", "x^2 + x*y^2",
                                 str(result))
    assert (code, err) == (1, "") and out.endswith("verified: false\n")
    # bad input: exit 2 with one line on stderr
    code, out, err = run_process("split", "--field", "bogus", "--vars", "x", "--precision", "3",
                                 "x^2")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1 and err.startswith("error:")


def test_closed_stdout_exits_141_without_a_message(tmp_path):
    # the output (a 300 x 300 transition matrix) is larger than a pipe's buffer
    names = ",".join(f"x{i}" for i in range(1, 301))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "jetsplit", "split", "--field", "fp:7",
                             "--vars", names, "--precision", "3", "x1^2 + x2^3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")
    finally:
        proc.kill()
        proc.wait()
    # an unreadable input file is still bad input
    code, out, err = run_process("transport", "--field", "q", "--vars", "x,y", "--precision", "4",
                                 *(str(tmp_path / name) for name in ("f0", "f1", "phi")))
    assert (code, out) == (2, "") and err.startswith("error: [Errno 2] ")


def test_verify_command_detects_mismatch(tmp_path, capsys):
    code, out, _ = run(capsys, "split", "--field", "q", "--vars", "x,y",
                       "--precision", "4", "--format", "json", "x^2 + x*y^2")
    result = tmp_path / "result.json"
    result.write_text(out)
    code2, out2, _ = run(capsys, "verify", "--field", "q", "--vars", "x,y",
                         "x^2 + x*y^2 + y^3", str(result))
    assert code2 == 1
    assert "verified: false" in out2


def test_verify_rejects_a_char2_head_that_reads_the_tail(tmp_path, capsys):
    # the head is the Arf pair x*y with the square tail z^2 under the identity
    # change; z^2 sits on the tail variable z, so it belongs to the residual,
    # and a head jet that kept it would make the difference 0
    f = "x*y + z^2 + z^3"
    code, out, _ = run(capsys, "split", "--field", "fp:2", "--vars", "x,y,z",
                       "--precision", "4", "--format", "json", f)
    assert code == 0
    data = json.loads(out)
    identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    data["quad"] = {"variant": "arf", "rank": 2, "nvars": 3, "pairs": [["0", "0"]],
                    "tail": ["1"], "transition_matrix": identity}
    data["residual"] = "z^3 + O(deg 4)"
    result = tmp_path / "result.json"
    result.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--field", "fp:2", "--vars", "x,y,z", f,
                         str(result))
    assert (code, err) == (1, "")
    assert "difference: z^2 + O(deg 4)\n" in out and out.endswith("verified: false\n")


IDENTITY_3 = [["1" if i == j else "0" for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("spec, quad, message", [
    # x*y is an Arf pair under the identity; over q it is no split head
    ("q", {"variant": "arf", "pairs": [["0", "0"]], "tail": ["0"]},
     "variant 'arf' is not the one split writes in characteristic 0"),
    ("fp:2", {"variant": "diagonal", "diagonal": ["1"]},
     "variant 'diagonal' is not the one split writes in characteristic 2"),
    # split writes the Arf form; quadform alone writes its solvable reductions
    ("fp:2", {"variant": "char2_solvable_b", "half_rank": 1, "has_square": True},
     "variant 'char2_solvable_b' is not the one split writes in characteristic 2"),
    ("fp:2", {"variant": "char2_solvable_a", "half_rank": 1, "has_square": False},
     "variant 'char2_solvable_a' is not the one split writes in characteristic 2"),
    # a key split does not write for its head
    ("q", {"variant": "diagonal", "diagonal": ["1"], "has_square": True},
     "result file key 'quad' is not what split writes for its head"),
    ("q", {"variant": "squares", "diagonal": ["1"]},
     "variant 'squares' is not the one split writes in characteristic 0"),
], ids=["arf_over_q", "diagonal_over_fp2", "solvable_b_with_square",
        "solvable_a_without_square", "diagonal_with_square", "unknown"])
def test_verify_refuses_a_variant_outside_the_characteristic(tmp_path, capsys, spec, quad,
                                                            message):
    data = {"rank": 2, "field": spec, "precision": 4, "residual": "z^3",
            "change": ["x", "y", "z"],
            "quad": {"rank": 2, "nvars": 3, "transition_matrix": IDENTITY_3, **quad}}
    result = tmp_path / "result.json"
    result.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--field", spec, "--vars", "x,y,z", "x*y + z^3",
                         str(result))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.fixture
def serialized(monkeypatch):
    """The texts of every jet serialization from here on.  ``SplitResult.to_json``
    looks ``serialize_jet`` up in ``jetsplit.expr``, the commands in ``jetsplit.cli``."""
    texts = []
    serialize = expr_module.serialize_jet

    def counted(*args, **kwargs):
        texts.append(serialize(*args, **kwargs))
        return texts[-1]

    monkeypatch.setattr(cli_module, "serialize_jet", counted)
    monkeypatch.setattr(expr_module, "serialize_jet", counted)
    return texts


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_printed_jet_is_serialized_once(tmp_path, capsys, serialized, fmt):
    def printed(jets, *argv):
        serialized.clear()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == ""
        assert len(serialized) == jets, (argv[0], serialized)
        assert all(text in out for text in serialized)
        return out

    split = ["split", "--field", "q", "--vars", "x,y", "--precision", "4", "x^2 + x*y^2"]
    _, result, _ = run(capsys, *split, "--format", "json")
    (tmp_path / "result.json").write_text(result)
    # split: the residual and one change component per variable
    printed(3, *split)
    # verify: the difference
    printed(1, "verify", "--field", "q", "--vars", "x,y", "x^2 + x*y^2",
            str(tmp_path / "result.json"))
    # ift: one solution per unknown
    printed(2, "ift", "--field", "fp:7", "--vars", "x,y,z", "--split-vars", "y,z",
            "--precision", "5", "y - x^2", "z - x*y")
    # transport: the change of each tail variable, and g0 and g1 in JSON
    for name, text in [("f0", "x^2 + y^4\n"), ("f1", "x^2 + y^4 + 4*y^5 + 6*y^6 + 4*y^7 + y^8\n"),
                       ("phi", "x\ny + y^2\n")]:
        (tmp_path / name).write_text(text)
    printed(1 if fmt == "text" else 3, "transport", "--field", "q", "--vars", "x,y",
            "--precision", "8", *(str(tmp_path / name) for name in ("f0", "f1", "phi")))


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "split", "--field", "q", "--vars", "x",
                       "--precision", "4", "x +")
    assert code == 2
    assert "error:" in err
    code2, _, err2 = run(capsys, "split", "--field", "fp:6", "--vars", "x",
                         "--precision", "4", "x^2")
    assert code2 == 2


P, Q2 = 1000000007, 1000000009


@pytest.mark.parametrize("command", [["quadform"], ["split", "--precision", "3"]])
def test_large_squarefree_coefficient_is_fast(capsys, kernel_work, command):
    work = kernel_work()
    start = time.perf_counter()
    code, out, _ = run(capsys, *command, "--field", "q", "--vars", "x", f"{P}*{Q2}*x^2")
    assert time.perf_counter() - start < 3.0
    if command[0] == "split":
        # three one-term products (measured), one to spare
        assert work["calls"] <= 4 and work["pairs"] <= 4, work
    assert code == 0
    assert str(P * Q2) in out


# every monomial x_i x_j of 40 variables, with a coefficient in 1..6 over fp:7
DENSE_40 = ["--field", "fp:7", "--vars", ",".join(f"x{i}" for i in range(1, 41)),
            " + ".join(f"{1 + (3 * i + 5 * j + i * j) % 6}*x{i}*x{j}"
                       for i in range(1, 41) for j in range(i, 41))]


@pytest.mark.parametrize("command", [["quadform"], ["split", "--precision", "3"]])
def test_dense_quadratic_form_in_40_variables_is_fast(capsys, kernel_work, command):
    # each elementary congruence touches O(n) entries; one n x n matrix
    # product per congruence took over 4 s here
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, *command, *DENSE_40)
    assert time.perf_counter() - start < 1.5
    if command[0] == "split":
        # 2,577 calls and 156,441 term pairs measured, about 15% to spare
        assert work["calls"] <= 3000 and work["pairs"] <= 180000, work
    assert code == 0 and err == ""
    assert out.endswith("verified: true\n")


def test_dense_quadratic_form_in_80_variables_over_gf2_is_fast(capsys, kernel_work,
                                                               monkeypatch):
    # the same pattern over fp:2 in 80 variables: the Arf reduction reads each
    # polar value from the polar matrix it reduces in place (0.3 s); taking it
    # as a dot product of vectors took 0.5 s, and one O(n^2) bilinear pass per
    # candidate pair took 6 s.  Work: 2360 congruences (quadform._add), 772,000
    # field products, and 780 kernel calls and 21,660 term pairs for the
    # transition check, measured, about 5% to spare
    names = ",".join(f"x{i}" for i in range(1, 81))
    expr = " + ".join(f"{1 + (3 * i + 5 * j + i * j) % 6}*x{i}*x{j}"
                      for i in range(1, 81) for j in range(i, 81))
    counts = {"congruences": 0, "products": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return call

    quadform_module = importlib.import_module("jetsplit.quadform")
    monkeypatch.setattr(quadform_module, "_add", counted("congruences", quadform_module._add))
    monkeypatch.setattr(field_module.PrimeField, "mul",
                        counted("products", field_module.PrimeField.mul))
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "quadform", "--field", "fp:2", "--vars", names, expr)
    assert time.perf_counter() - start < 2.0
    assert counts["congruences"] <= 2480 and counts["products"] <= 811_000, counts
    assert work["calls"] <= 820 and work["pairs"] <= 22_800, work
    assert code == 0 and err == ""
    assert "\nrank: 40\n" in out and out.endswith("verified: true\n")


@pytest.mark.parametrize("spec, precision, calls, pairs", [
    ("q", "200", 1285, 170_000),
    ("fp:1000003", "1600", 11_150, 11_100_000),
], ids=["q-200", "fp:1000003-1600"])
def test_deep_split_is_fast(capsys, kernel_work, spec, precision, calls, pairs):
    # the mixed order runs 3, 4, 6, 10, ..., 130 (q) or 1026 (fp); each pass
    # applies only the correction that sets the next order, the last is one
    # Taylor step, and the change is carried modulo m^N: 1225 calls and
    # 162,144 pairs (q), 10,636 and 10,572,675 (fp), measured, about 5% to
    # spare; whole corrections and a substitution in every pass took 2275 and
    # 295,045, and 24,878 and 30,899,655
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "split", "--field", spec, "--vars", "x,y",
                         "--precision", precision, "x^2+x^2*y+x*y^3+y^3")
    assert time.perf_counter() - start < 6.0
    assert code == 0 and err == "" and out.endswith("\nverified: true\n")
    assert work["calls"] <= calls and work["pairs"] <= pairs, work


SHARED_FACTOR = "(x+y-z)^2*((x-y+2*z)^2 + x*y*z)"


def test_milnor_on_shared_factor_input_is_fast(capsys, echelon_work):
    # the partials share the factor x+y-z, so most rows of the search lie in
    # the span of earlier ones; inserting every row as beta*g took 5.4 s
    work = echelon_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "milnor", "--field", "q", "--vars", "x,y,z",
                         "--max-degree", "24", SHARED_FACTOR)
    assert time.perf_counter() - start < 3.5
    assert code == 0 and err == ""
    assert out == ("mu: infinite-or-unknown\nstabilization_degree: None\nbound: None\n"
                   "order: 4\nmax_degree_searched: 24\nverified: true\n")
    # 6072 rows offered and 5898 steps (measured), about 15% to spare
    counts = work()
    assert counts["offered"] <= 7000 and counts["steps"] <= 6800, counts


BIG_PRIME = 9223372036854775837  # above 2^63


@pytest.mark.parametrize("command", [["quadform"], ["split", "--precision", "3"]])
@pytest.mark.parametrize("coeff, diagonal", [(f"{BIG_PRIME}", f"{BIG_PRIME}"),
                                             (f"{BIG_PRIME}^2", "1")])
def test_prime_coefficient_above_2_63_is_decided(capsys, kernel_work, command, coeff, diagonal):
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--field", "q", "--vars", "x", f"{coeff}*x^2")
    assert time.perf_counter() - start < 3.0
    if command[0] == "split":
        # three one-term products (measured), one to spare
        assert work["calls"] <= 4 and work["pairs"] <= 4, work
    assert code == 0 and err == ""
    assert f'"diagonal": ["{diagonal}"]' in out


def test_composite_minor_ratio_still_exits_2(capsys):
    # the second diagonal entry 4000292005641012732/4000144000387 leaves the
    # composite non-square 620359215642592015573 after trial division
    start = time.perf_counter()
    code, out, err = run(capsys, "quadform", "--field", "q", "--vars", "x,y,z",
                         "1000003*x^2 + 3*x*y + 1000033*y^2 + 5*y*z + 7*x*z + 1000037*z^2")
    assert time.perf_counter() - start < 3.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "620359215642592015573" in err


@pytest.mark.parametrize("command", [["quadform"], ["split", "--precision", "3"]])
def test_undecidable_squarefree_coefficient_exits_2(capsys, kernel_work, command):
    coeff = P * Q2 * 998244353  # no prime factor below 2^21, above 2^63
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--field", "q", "--vars", "x,y",
                         f"{coeff}*x^2 + y^3")
    assert time.perf_counter() - start < 3.0
    # the classification refuses the head before any product (measured)
    assert not any(work.values()), work
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(coeff) in err


def test_byte_identical_reruns(capsys):
    argv = ["split", "--field", "f2k:2", "--vars", "x1,x2,x3",
            "--precision", "5", "--format", "json", "x1*x2 + (t+1)*x3^3 + x1*x3^2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def split_json(capsys, expr="x^2 + x*y^2", spec="q", names="x,y"):
    code, out, _ = run(capsys, "split", "--field", spec, "--vars", names,
                       "--precision", "4", "--format", "json", expr)
    assert code == 0
    return json.loads(out)


def verify(capsys, tmp_path, data, expr="x^2 + x*y^2", spec="q", names="x,y"):
    result = tmp_path / "result.json"
    result.write_text(json.dumps(data))
    return run(capsys, "verify", "--field", spec, "--vars", names, expr, str(result))


@pytest.mark.parametrize("spec, names, expr", [
    ("q", "x,y", "x^2 + x*y^2 + x*y^3"),
    ("fp:7", "x,y,z", "x^2 + 3*y^2 + x*y*z + z^3"),
    ("fp:2", "x1,x2,x3", "x1*x2 + x1*x3^2 + x3^3"),
    ("f2k:4", "x1,x2,x3", "t*x1*x2 + x1*x3^2 + (t+1)*x3^3"),
])
def test_verify_never_reads_the_change_at_degree_n(tmp_path, capsys, spec, names, expr):
    # f in m^2 reads its change modulo m^N only: a result file whose change
    # has degree-N terms, as split printed before it carried the change
    # modulo m^N, verifies unchanged
    data = split_json(capsys, expr, spec, names)
    variables, N = names.split(","), data["precision"]
    marker = f" + O(deg {N})"
    for i, text in enumerate(data["change"]):
        assert text.endswith(marker)
        extra = f"{variables[i]}*{variables[-1]}^{N - 1}"
        data["change"][i] = f"{text.removesuffix(marker)} + {extra}{marker}"
    code, out, err = verify(capsys, tmp_path, data, expr, spec, names)
    assert (code, err) == (0, "")
    assert out == f"difference: 0{marker}\nverified: true\n"


def test_verify_rejects_forged_zero_change(tmp_path, capsys):
    # f(0) = 0 = x^2 + (-x^2): the identity holds, but the change is not invertible
    data = split_json(capsys)
    data["change"] = ["0", "0"]
    data["residual"] = "-x^2"
    code, out, err = verify(capsys, tmp_path, data)
    assert code == 1
    assert "verified: false" in out
    assert "automorphism" in out
    assert err == ""


@pytest.mark.parametrize("forge, reason", [
    ("residual_in_head", "the residual involves head variables"),
    ("degenerate_head", "the quadratic head is degenerate"),
    ("low_rank_head", "the series has Hessian rank 2"),
], ids=["residual_in_head", "degenerate_head", "low_rank_head"])
def test_verify_rejects_other_forgeries(tmp_path, capsys, forge, reason):
    expr = "x^2 + x*y^2"
    data = split_json(capsys)
    if forge == "residual_in_head":
        # the identity change leaves x*y^2, which involves the head variable x
        data["change"] = ["x", "y"]
        data["residual"] = "x*y^2"
    elif forge == "degenerate_head":
        # f = x^2; the change swaps x and y and claims a zero head of rank 1
        expr = "x^2"
        data["change"] = ["y", "x"]
        data["residual"] = "y^2"
        data["quad"]["diagonal"] = ["0"]
    else:
        # f = x^2 + y^2 has Hessian rank 2; y^2 stays in the residual
        expr = "x^2 + y^2"
        data["change"] = ["x", "y"]
        data["residual"] = "y^2"
    code, out, _ = verify(capsys, tmp_path, data, expr)
    assert code == 1
    assert f"reason: split: {reason}" in out
    assert "verified: false" in out


@pytest.mark.parametrize("forge, reason", [
    ("matrix", "the change's linear part is not the transition"),
    ("tail", "the residual's 2-jet is not the square tail"),
    ("head", "the series has terms of degree < 2"),
], ids=["matrix", "tail", "head"])
def test_verify_rejects_a_head_that_is_not_the_classified_2_jet(tmp_path, capsys, forge,
                                                                reason):
    # each forgery keeps f(change) = head + residual: only the head's link to
    # f's 2-jet is false
    spec, names, expr = "q", "x,y", "x^2 + x*y^2"
    if forge == "tail":
        spec, names, expr = "fp:2", "x,y,z", "x*y + z^2 + z^3"
    code, out, _ = run(capsys, "split", "--field", spec, "--vars", names, "--precision", "4",
                       "--format", "json", expr)
    assert code == 0
    data = json.loads(out)
    if forge == "matrix":
        data["quad"]["transition_matrix"] = [["5", "7"], ["0", "0"]]
    elif forge == "tail":
        assert data["quad"]["tail"] == ["1"]
        data["quad"]["tail"] = ["0"]
    else:
        # quadform reads 2*x^2 from y + 2*x^2; the change moves x^2 into y
        expr = "y + 2*x^2"
        data["quad"] = {"variant": "diagonal", "rank": 1, "nvars": 2, "diagonal": ["1"],
                        "transition_matrix": [["1", "0"], ["0", "1"]]}
        data["residual"] = "y + O(deg 4)"
        data["change"] = ["x + O(deg 4)", "y - x^2 + O(deg 4)"]
    result = tmp_path / "result.json"
    result.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--field", spec, "--vars", names, expr, str(result))
    assert (code, err) == (1, "")
    assert f"reason: split: {reason}\n" in out and out.endswith("verified: false\n")


def test_verify_refuses_a_tail_past_the_variables(tmp_path, capsys):
    # the head leaves the tail out, so a tail entry past the variables is refused on reading
    f = "x*y + z^2 + z^3"
    code, out, _ = run(capsys, "split", "--field", "fp:2", "--vars", "x,y,z", "--precision", "4",
                       "--format", "json", f)
    assert code == 0
    data = json.loads(out)
    data["quad"]["tail"] = ["1", "1"]
    result = tmp_path / "result.json"
    result.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--field", "fp:2", "--vars", "x,y,z", f, str(result))
    assert (code, out, err) == (2, "", "error: result file key 'quad' does not fit the variables\n")


@pytest.mark.parametrize("expr, forge, reason", [
    ("x^2 + x*y^2 + O(deg 3)", {"residual": "7*y^4 + O(deg 4)"}, "series has precision 3"),
    ("x^2 + x*y^2", {"residual": "0 + O(deg 3)"}, "residual has precision 3"),
    ("x^2 + x*y^2 + O(deg 2)", {"change": ["x + O(deg 2)", "y + O(deg 2)"]},
     "series has precision 2"),
    ("x^2 + x*y^2", {"change": ["x + O(deg 2)", "y + O(deg 2)"]}, "change has precision 2"),
], ids=["series_marker", "residual_marker", "change_and_series_markers", "change_marker"])
def test_verify_rejects_a_marker_below_the_file_precision(tmp_path, capsys, expr, forge, reason):
    # each difference vanishes at the lowest precision among the jets
    data = split_json(capsys)
    data.update(forge)
    code, out, err = verify(capsys, tmp_path, data, expr)
    assert code == 1 and err == ""
    assert out == f"reason: split: the {reason}, below 4\nverified: false\n"


@pytest.mark.parametrize("keys, reason", [
    (["residual", "change"], "residual has precision 6"),
    (["change"], "change has precision 6"),
], ids=["residual_and_change", "change"])
def test_verify_rejects_a_marker_above_the_file_precision(tmp_path, capsys, keys, reason):
    # raised to O(deg 6), the residual -1/4*y^4 would omit the true -1/2*y^5
    expr = "x^2 + x*y^2 + x*y^3"
    data = split_json(capsys, expr)
    code, out, _ = verify(capsys, tmp_path, data, expr + " + O(deg 6)")
    assert code == 0 and out.endswith("verified: true\n")   # the series may be longer
    for key in keys:
        data[key] = json.loads(json.dumps(data[key]).replace("O(deg 4)", "O(deg 6)"))
    code, out, err = verify(capsys, tmp_path, data, expr + " + O(deg 6)")
    assert code == 1 and err == ""
    assert out == f"reason: split: the {reason}, above 4\nverified: false\n"


@pytest.mark.parametrize("key", ["field", "precision", "change", "residual", "quad", "rank"])
def test_verify_missing_key_is_input_error(tmp_path, capsys, key):
    data = split_json(capsys)
    del data[key]
    code, out, err = verify(capsys, tmp_path, data)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("options, message", [
    (["--field", "bogus", "--precision", "99"], "unknown field spec 'bogus'"),
    (["--field", "fp:7"], "--field fp:7 is not the result file's field q"),
    (["--field", "q", "--precision", "99"], "--precision 99 is not the result file's precision 4"),
], ids=["field_unparsed", "field_other", "precision_other"])
def test_verify_refuses_other_field_or_precision(tmp_path, capsys, options, message):
    result = tmp_path / "result.json"
    result.write_text(json.dumps(split_json(capsys)))
    code, out, err = run(capsys, "verify", *options, "--vars", "x,y", "x^2 + x*y^2", str(result))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    code, out, err = run(capsys, "verify", "--field", "q", "--precision", "4", "--vars", "x,y",
                         "x^2 + x*y^2", str(result))
    assert code == 0 and err == ""
    assert out.endswith("verified: true\n")


@pytest.mark.parametrize("damage", ["not_object", "change_not_list", "precision_text",
                                    "quad_no_variant", "quad_wrong_nvars", "quad_float_nvars",
                                    "quad_bool_nvars", "quad_claims_rank_7", "quad_short_pair",
                                    "forged_rank"])
def test_verify_malformed_result_is_input_error(tmp_path, capsys, damage):
    expr, spec, names = "x^2 + x*y^2", "q", "x,y"
    if damage == "quad_short_pair":
        expr, spec, names = "x*y + z^2 + z^3", "fp:2", "x,y,z"
    data = split_json(capsys, expr, spec, names)
    if damage == "not_object":
        data = [data]
    elif damage == "change_not_list":
        data["change"] = "x"
    elif damage == "precision_text":
        data["precision"] = "4"
    elif damage == "quad_no_variant":
        del data["quad"]["variant"]
    elif damage == "quad_float_nvars":
        data["quad"]["nvars"] = 2.0  # equals 2, but multiplies no list
    elif damage == "quad_bool_nvars":
        data["quad"]["nvars"] = True
    elif damage == "quad_claims_rank_7":
        data["quad"].update(rank=7, half_rank=3)  # the head x^2 has rank 1
    elif damage == "quad_short_pair":
        assert data["quad"]["pairs"] == [["0", "0"]]
        data["quad"]["pairs"] = [["0"]]
    elif damage == "forged_rank":
        data["rank"] = 2  # the head x^2 has rank 1
    else:
        data["quad"]["nvars"] = 3
    code, out, err = verify(capsys, tmp_path, data, expr, spec, names)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if damage.startswith("quad_"):
        assert "'quad'" in err
    if damage in ("quad_float_nvars", "quad_bool_nvars", "quad_claims_rank_7", "forged_rank"):
        key = "rank" if damage == "forged_rank" else "quad"
        assert err == f"error: result file key {key!r} is not what split writes for its head\n"


def test_verify_non_json_result_is_input_error(tmp_path, capsys):
    result = tmp_path / "result.json"
    result.write_text("x^2 + x*y^2\n")
    code, out, err = run(capsys, "verify", "--field", "q", "--vars", "x,y", "x^2 + x*y^2",
                         str(result))
    assert code == 2
    assert out == ""
    assert err == "error: result file is not JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_failed_split_check_exits_1_without_traceback(monkeypatch, capsys):
    # a mixed part whose order never rises trips the iteration's progress check
    monkeypatch.setattr(split_module, "_mixed_order", lambda gs, shift: 3)
    code, out, err = run(capsys, "split", "--field", "q", "--vars", "x,y",
                         "--precision", "4", "x^2 + x*y^2")
    assert code == 1
    assert out == ""
    assert err == "verification failed: split iteration: mixed part order did not " \
                  "increase past 3\n"


def test_failed_split_check_on_a_wrong_2_jet_exits_1_without_traceback(monkeypatch, capsys):
    # the input's 2-jet was classified and its transition checked before the
    # loop, so a moved series that gains x*y is the program's fault, not bad input
    substitute = split_module._substitute_packed

    def gains_xy(sources, source, bases, packing, route):
        moved, *rest = substitute(sources, source, bases, packing, route)
        moved[packing.weights[0] + packing.weights[1]] = Fraction(1)
        return [moved, *rest]

    monkeypatch.setattr(split_module, "_substitute_packed", gains_xy)
    code, out, err = run(capsys, "split", "--field", "q", "--vars", "x,y,z",
                         "--precision", "4", "x^2 + y^2 + x*z^2 + y*z^2")
    assert code == 1
    assert out == ""
    assert err == "verification failed: split iteration: 2-jet does not match the " \
                  "declared quadratic head\n"


def test_failed_split_check_on_a_dropped_cofactor_exits_1_without_traceback(monkeypatch, capsys):
    # without y's cofactor z^2 the iteration moves x*z^2 but never y*z^2,
    # so the residual keeps the head variable y
    cofactors = split_module._cofactors
    monkeypatch.setattr(split_module, "_cofactors",
                        lambda *args: [g if i != 1 else {}
                                       for i, g in enumerate(cofactors(*args))])
    code, out, err = run(capsys, "split", "--field", "q", "--vars", "x,y,z",
                         "--precision", "4", "x^2 + y^2 + x*z^2 + y*z^2")
    assert code == 1
    assert out == ""
    assert err == "verification failed: split: the residual involves head variables\n"


def drop_newton_corrections(monkeypatch):
    # every packed Newton correction is zero, so y stays 0
    monkeypatch.setattr(ift_module, "_correction",
                        lambda u, res, limit, packing, route: [[] for _ in res])


def test_failed_ift_check_exits_1_without_traceback(monkeypatch, capsys):
    # y = 0 leaves the residual of y - x - y^2 nonzero
    drop_newton_corrections(monkeypatch)
    code, out, err = run(capsys, "ift", "--field", "q", "--vars", "x,y",
                         "--split-vars", "y", "--precision", "5", "y - x - y^2")
    assert code == 1
    assert out == ""
    assert err == "verification failed: ift: the solution leaves a nonzero residual\n"


def test_failed_ift_check_in_transport_exits_1_without_traceback(monkeypatch, tmp_path, capsys):
    # phi's head component x + y^4 makes the implicit system 2*x + y^4 = 0,
    # whose solution x = -y^4/2 the dropped corrections never reach
    drop_newton_corrections(monkeypatch)
    files = {"f0.txt": "x^2 + y^3", "f1.txt": "x^2 + y^3", "phi.txt": "x + y^4\ny"}
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    code, out, err = run(capsys, "transport", "--field", "q", "--vars", "x,y",
                         "--precision", "4", *(str(tmp_path / name) for name in files))
    assert code == 1
    assert out == ""
    assert err == "verification failed: ift: the solution leaves a nonzero residual\n"


def test_failed_transport_check_exits_1_without_traceback(monkeypatch, tmp_path, capsys):
    # tail coordinates y -> y + y^2 while phi' is built: g0(phi') is no longer g1
    class ShiftedJet(Jet):
        @classmethod
        def variable(cls, field, nvars, i, prec):
            x = Jet.variable(field, nvars, i, prec)
            return x + x * x

    monkeypatch.setattr(transport_module, "Jet", ShiftedJet)
    files = {"f0.txt": "x^2 + y^4", "f1.txt": "x^2 + y^4 + 4*y^5 + 6*y^6 + 4*y^7 + y^8",
             "phi.txt": "x\ny + y^2"}
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    code, out, err = run(capsys, "transport", "--field", "q", "--vars", "x,y",
                         "--precision", "8", *(str(tmp_path / name) for name in files))
    assert code == 1
    assert out == ""
    assert err == "verification failed: transport: g0(change) differs from g1\n"


def test_failed_quadform_check_exits_1_without_traceback(monkeypatch, capsys):
    # a wrong square root of 1 rescales x^2 + y^2 to (x^2 + y^2)/4
    monkeypatch.setattr(RationalField, "sqrt", lambda self, a: Fraction(2))
    code, out, err = run(capsys, "quadform", "--field", "q", "--vars", "x,y", "x^2 + 4*y^2")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: quadform: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, condition", [
    ("milnor", "no cover at degree 1: m^1 is not in J + m^2"),
    ("determinacy", "no cover at degree 2: m^2 is not in m^2 J + m^3"),
], ids=["milnor", "determinacy"])
def test_failed_jacobian_check_exits_1_without_traceback(monkeypatch, capsys, command, condition):
    # a search that claims coverage at its first degree certifies too early
    monkeypatch.setattr(jacobian_module._Echelon, "covers", lambda self, degree: True)
    code, out, err = run(capsys, command, "--field", "q", "--vars", "x,y", "x^3 + y^4")
    assert code == 1
    assert out == ""
    assert err == f"verification failed: {command}: {condition}\n"


def test_split_then_verify_in_1200_variables(tmp_path, capsys, kernel_work):
    # substitution walks Horner on a work list, so no number of variables is
    # refused; every part here has one term, so Horner has no level
    names = ",".join(f"x{i}" for i in range(1, 1201))
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "split", "--field", "fp:7", "--vars", names,
                         "--precision", "3", "--format", "json", "x1^2 + x2^3")
    split_s = time.perf_counter() - start
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["rank"] == 1 and data["residual"] == "x2^3 + O(deg 3)"
    start = time.perf_counter()
    code, out, err = verify(capsys, tmp_path, data, "x1^2 + x2^3", "fp:7", names)
    verify_s = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out == "difference: 0 + O(deg 3)\nverified: true\n"
    # a one-term part's power is one term, built without a product, so the
    # kernel is never called; the split took 2.8-4.2 s and the verify 2.5-3.7 s
    # in process on a two-core VM, bounded at about three times the slowest
    assert work["calls"] == work["pairs"] == 0 and work["kronecker"] == 0, work
    assert split_s < 12.0 and verify_s < 12.0, (split_s, verify_s)


def test_ift_in_513_variables(capsys, kernel_work):
    # ift packs its own substitutions: 0.05-0.06 s in process, 4 kernel calls
    # with 8 term pairs through jet and 4 with 7 through ift (measured)
    names = ",".join(f"x{i}" for i in range(1, 514))
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "ift", "--field", "q", "--vars", names, "--split-vars", "x513",
                         "--precision", "3", "x513 - x1 - x513^2")
    assert time.perf_counter() - start < 3.0
    assert (code, err) == (0, "")
    assert out == "x513: x1 + x1^2 + 2*x1^3 + O(deg 3)\nverified: true\n"
    assert work["calls"] <= 4 and work["pairs"] <= 8, work
    assert work["ift_calls"] <= 4 and work["ift_pairs"] <= 7, work


LONG_EXPRESSIONS = {
    "sum": " - ".join(["x"] * 1500),
    "product": "*".join(["x"] * 1500),
    "power-chain": "x" + "^1" * 1500,
    "nested": "(" * 600 + "x" + ")" * 600,
}


@pytest.mark.parametrize("shape", sorted(LONG_EXPRESSIONS))
def test_long_and_deep_expressions_run_without_traceback(capsys, shape, token_loop):
    loop = token_loop()
    start = time.perf_counter()
    code, out, err = run(capsys, "norm", "--field", "q", "--vars", "x", "--valuation",
                         "padic:3", LONG_EXPRESSIONS[shape])
    assert time.perf_counter() - start < 3.0
    # flat sums are read term by term; only the nested text needs the token loop
    assert loop["entries"] == (shape == "nested")
    assert code == 0 and err == ""
    assert out.startswith("value: ")


def test_split_and_verify_a_1267_term_jet(tmp_path, capsys, kernel_work):
    names = [f"x{i}" for i in range(1, 7)]
    terms = ["x1^2"] + ["*".join(m) for d in range(3, 9)
                        for m in itertools.combinations_with_replacement(names[1:], d)]
    assert len(terms) == 1267
    expr = " + ".join(terms)
    common = ["--field", "fp:7", "--vars", ",".join(names)]
    work = kernel_work()
    start = time.perf_counter()
    code, out, err = run(capsys, "split", *common, "--precision", "8", "--format", "json", expr)
    assert code == 0 and err == ""
    result = tmp_path / "result.json"
    result.write_text(out)
    code, out, err = run(capsys, "verify", *common, expr, str(result))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert "verified: true" in out
    # the head x1^2 has no mixed part: the work is the two checks' substitutions
    assert work["calls"] <= 109 and work["pairs"] <= 109, work
