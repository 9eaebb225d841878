"""jetsplit benchmark: one workload, one closed-loop caller, in-process CLI calls.

    python3 bench/run.py --workload split-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Every input is generated from ``--seed`` before
timing starts.  The caller then issues ``jetsplit.cli.main(argv)`` calls one
after another (no threads, no subprocesses), in whole passes over the
workload's fixed list of calls, until the calls took ``--seconds`` at
reference speed (below).  Each timed call is the user's whole path: argument
parsing, computation, the program's own verification and serialization,
with stdout captured.  After the loop, untimed, the benchmark checks every
distinct output itself (``checks.py``) and requires repeated calls to print
the same bytes.

Times are reported at a fixed reference speed.  Shared hosts change the
speed of a CPU by up to 1.8x for seconds at a time, the same for wall and
CPU time.  So every timed interval is followed by a fixed pure-Python
reference kernel; the interval is divided by the kernel's mean time on its
two sides and multiplied by REFERENCE_S.  A time in ms is the time the call
takes on a machine where the kernel takes 2 ms.  The unscaled wall times
are printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop for half the time untraced, for the per-command medians, then one more
pass with spans and counters installed (``tracing.py``) and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it are a readable report with the run context and the determinism
digest.  A JSON record of the run, and the spans of a traced run, are
written to ``.bench_out/`` in the checkout.  Exit code 2 means the program
could not be imported or the arguments are wrong.
"""

from __future__ import annotations

# jetsplit's standard-library imports come first, so that every timed
# set-up repeat imports the same modules
import argparse
import dataclasses  # noqa: F401
import gc
import hashlib
import io
import json
import math  # noqa: F401
import os
import platform
import random
import re  # noqa: F401
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from checks import CHECKS
from tracing import COMMANDS, PER_LAYER, Tracer, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
REFERENCE_S = 0.002

END_TO_END = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def reference_kernel():
    """Fixed work of the program's kind: Fraction arithmetic, tuple keys, dict updates."""
    acc, total = {}, Fraction(0)
    for i in range(1, 600):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + i
        total += Fraction(i % 11 + 1, i % 13 + 1)
    return total


def reference_seconds():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls in wall seconds and in seconds at the reference speed."""

    def __init__(self):
        self.last_reference = reference_seconds()

    def time(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        reference = reference_seconds()
        scaled = wall * REFERENCE_S * 2 / (self.last_reference + reference)
        self.last_reference = reference
        return wall, scaled, result


def import_jetsplit():
    """A fresh import of the checkout's jetsplit package."""
    for name in [n for n in sys.modules if n == "jetsplit" or n.startswith("jetsplit.")]:
        del sys.modules[name]
    import jetsplit
    import jetsplit.cli

    return jetsplit


def invoke(cli, argv):
    """One CLI call with stdout captured: (exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as stop:  # argparse rejects its input by exiting
        code = stop.code if isinstance(stop.code, int) else 2
    except Exception as error:  # the loop must go on; the failure is reported
        exc = f"{type(error).__name__}: {error}"
    return code, out.getvalue(), exc


def set_up(workload):
    """Import jetsplit, build the workload's fields and make one warm-up call."""
    js = import_jetsplit()
    for spec in workload.fields:
        field = js.parse_field_spec(spec)
        field.mul(field.one, field.one)  # builds the GF(2^k) log tables
    code, _, exc = invoke(js.cli, workload.warmup)
    if code != 0 or exc:
        raise RuntimeError(f"warm-up call failed: exit {code} {exc or ''}")
    return js


class Results:
    """Latencies of every call, and the first output of every call of the pass."""

    def __init__(self, calls):
        self.calls = calls
        self.latencies = []  # (call index, wall seconds, reference-speed seconds)
        self.first = {}  # call index -> (exit code, stdout, exception)
        self.drift = set()  # call indices whose output changed between repeats

    def record(self, k, timed):
        wall, scaled, output = timed
        self.latencies.append((k, wall, scaled))
        seen = self.first.get(k)
        if seen is None:
            self.first[k] = output
            save_to = self.calls[k].save_to
            if save_to and not os.path.exists(save_to):
                with open(save_to, "w", encoding="utf-8") as handle:
                    handle.write(output[1])
        elif seen != output:
            self.drift.add(k)


def closed_loop(clock, cli, results, seconds):
    """Run whole passes over the calls until they took `seconds` at reference speed.

    Stopping only between passes keeps every call's share of the sample
    fixed, so the median and the tail do not depend on where time ran out;
    counting reference-speed time keeps the number of passes independent of
    the host's speed.  Returns the wall time of the loop.
    """
    start = time.perf_counter()
    spent = 0.0
    while not results.latencies or spent < seconds:
        for k, call in enumerate(results.calls):
            timed = clock.time(invoke, cli, call.argv)
            spent += timed[1]
            results.record(k, timed)
    return time.perf_counter() - start


def find_problems(js, results):
    """Call index -> reason, for every call whose output is wrong."""
    problems = {}
    for k, (code, out, exc) in results.first.items():
        call = results.calls[k]
        if exc:
            problems[k] = f"raised {exc}"
        elif code != 0:
            problems[k] = f"exit code {code}"
        elif '"verified": false' in out or "verified: false" in out:
            problems[k] = "printed verified: false"
        else:
            try:
                reason = CHECKS[call.command](js, call.inst, out)
            except Exception as error:  # a malformed output must not stop the report
                reason = f"output check raised {type(error).__name__}: {error}"
            if reason:
                problems[k] = reason
    for k in results.drift:
        problems.setdefault(k, "output differs between repeats of the same call")
    return problems


def digest(results):
    h = hashlib.sha256()
    for k in sorted(results.first):
        code, out, _ = results.first[k]
        call = results.calls[k]
        h.update(f"{call.label}\0{call.command}\0{code}\0{out}\0".encode())
    return h.hexdigest()


def call_medians(results):
    """Median reference-speed latency of each call of the pass, in milliseconds."""
    per_call = {}
    for k, _, t in results.latencies:
        per_call.setdefault(k, []).append(t)
    return {f"{results.calls[k].label} {results.calls[k].command}": statistics.median(ts) * 1e3
            for k, ts in sorted(per_call.items())}


def tail_percentile(n):
    """The highest percentile of n samples with at least ten samples beyond it."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def tail(values):
    """The value at tail_percentile: the 11th largest, or the largest of fewer."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(latencies, ok, setup, peak_rss_mb):
    return {
        "throughput_per_s": ok / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def run_context(gen_seconds):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "input_generation_s": gen_seconds,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "jetsplit").glob("*.py"))),
    }


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke run of the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "jetsplit" / "__init__.py").is_file():
        print(f"error: no jetsplit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    start = time.perf_counter()
    js = import_jetsplit()
    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = WORKLOADS[args.workload](js, rng, str(workdir), args.tiny)
    gen_seconds = time.perf_counter() - start

    clock = Clock()
    setup_wall, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        wall, scaled, js = clock.time(set_up, workload)
        setup_wall.append(wall)
        setup_scaled.append(scaled)
    cli = js.cli

    results = Results(workload.calls)
    n = len(workload.calls)
    if args.trace:
        loop_wall = closed_loop(clock, cli, results, args.seconds / 2)
        untraced = results.latencies[:n]
        tracer = Tracer()
        tracer.install(js)
        try:
            for k, call in enumerate(workload.calls):
                results.record(k, clock.time(invoke, cli, call.argv))
        finally:
            tracer.uninstall()
        traced = results.latencies[-n:]
    else:
        loop_wall = closed_loop(clock, cli, results, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = find_problems(js, results)
    attempted = len(results.latencies)
    failed = sum(1 for k, _, _ in results.latencies if k in problems)
    timed = results.latencies[:-n] if args.trace else results.latencies
    ok = sum(1 for k, _, _ in timed if k not in problems)
    metrics = end_to_end([t for _, _, t in timed], ok, setup_scaled, peak_rss_mb)
    wall_metrics = end_to_end([t for _, t, _ in timed], ok, setup_wall, peak_rss_mb)
    pct = tail_percentile(len(timed))

    if args.trace:
        by_command = {c: [] for c in COMMANDS}
        for k, _, t in timed:
            by_command[workload.calls[k].command].append(t)
        layers = {}
        for name in PER_LAYER:
            if name.startswith("cli."):
                times = by_command[name.split(".")[1]]
                layers[name] = statistics.median(times) * 1e3 if times else 0.0
            elif name == "trace.overhead_frac":
                layers[name] = sum(t for _, _, t in traced) / sum(t for _, _, t in untraced) - 1
            else:
                layers[name] = tracer.value(name)
        reported = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
    else:
        reported = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}

    context = run_context(gen_seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "context": context,
        "calls_per_pass": n, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "digest": digest(results),
        "latency_tail_percentile": pct, "end_to_end": metrics, "end_to_end_wall": wall_metrics,
        "setup_s_samples": setup_scaled, "call_median_ms": call_medians(results),
        "failures": [{"call": workload.calls[k].label, "command": workload.calls[k].command,
                      "reason": reason} for k, reason in sorted(problems.items())],
        "metrics": reported,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"spans-{tag}.tsv.gz")

    print(f"workload {args.workload}, seed {args.seed}, {n} calls per pass, "
          f"{attempted} calls in {loop_wall:.2f} s")
    for key, value in context.items():
        print(f"context {key}: {value}")
    print(f"digest: {record['digest']}")
    for name, value in metrics.items():
        note = f"  (p{pct:.1f} of {len(timed)} calls)" if name == "latency_tail_ms" else ""
        print(f"{name}: {value:.6g} {END_TO_END[name]}{note}"
              f"  [unscaled wall: {wall_metrics[name]:.6g}]")
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    if args.trace:
        for name, value in layers.items():
            print(f"{name}: {value:.6g} {unit_of(name)}")
    for item in record["failures"]:
        print(f"FAILED {item['call']} {item['command']}: {item['reason']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
