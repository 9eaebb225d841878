"""Smoke run of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json twice untraced and twice traced, with
``--tiny`` and one seed, and fails (exit 1) when a run exits non-zero, when
its last line is not the result object, when a metric declared in
BENCHMARK.json is missing or carries another unit, when an output check
failed, or when the two runs disagree on the determinism digest or on any
count of the traced run.  It also checks that the benchmark refuses to run
(non-zero exit, no result) without the program's sources beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run(cwd, workload, trace):
    args = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace), "--tiny"]
    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return done.returncode, done.stdout.splitlines(), done.stderr


def check_result(workload, trace, code, lines, stderr):
    """The run's problems, and its (digest, counts) for the repeat comparison."""
    where = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        return [f"{where}: exit {code}: {stderr.strip()[-300:]}"], None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [f"{where}: last line is not JSON"], None
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: outputs failed the checks")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} not printed")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {metric['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    digest = next((line.split(": ", 1)[1] for line in lines if line.startswith("digest: ")), None)
    counts = {k: v["value"] for k, v in metrics.items() if v.get("unit") == "count"}
    return problems, (digest, counts)


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            seen = []
            for _ in range(2):
                found, repeat = check_result(workload, trace, *run(ROOT, workload, trace))
                problems += found
                seen.append(repeat)
            if None not in seen and seen[0] != seen[1]:
                problems.append(f"{workload} --trace {trace}: two runs of one seed differ "
                                f"in digest or counts")
            print(f"{workload} --trace {trace}: checked", flush=True)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bare, SPEC["workloads"][0]["name"], 0)
        if code == 0 or lines:
            problems.append("without the program's sources the benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke run passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
