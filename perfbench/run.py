"""The toricwidth benchmark: closed-loop CLI calls, one client, no threads.

    python3 perfbench/run.py --workload volume --seed 1 --seconds 30 --trace 0

Every call goes through toricwidth.cli.main(argv) in this process with its
output captured, and every output is checked outside the timed region.
Times are CPU times at reference speed: a call's CPU time (time.thread_time)
scaled by how fast a fixed reference task ran around it.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it runs each pass
untraced and then traced, and reports per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
report.  See README.md for the workloads and for why wall time alone does
not repeat on a shared machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

# Passes in a 30-second run, about what fits on a 2-core VM with Python
# 3.11.7; other --seconds scale it.  The count is fixed rather than timed so
# that every run of a workload takes the same samples.  It is odd, and every
# workload has an odd number of inputs, so the median and the tail (the
# sample with ten beyond it) fall in the middle of one input's samples
# rather than between two inputs.
PASSES_PER_30_S = {"volume": 7, "facets": 7, "verify": 7, "roadmap": 1}
SETUP_PROBES = 7
# CPU seconds reference_task() takes at the speed the numbers are quoted at
# (its median on the 2-core VM the benchmark was tuned on)
REFERENCE_S = 0.0043
REFERENCE_WINDOW = 2  # reference runs on each side of a call that set its speed
WARMUP_INPUT = "cpn:2:1"
TAIL_BEYOND = 10


def import_program():
    """toricwidth from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import toricwidth.cli
    except ImportError as e:
        sys.exit(f"perfbench: cannot import toricwidth from {SRC}: {e}")
    if not Path(toricwidth.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: toricwidth was imported from outside {SRC}")
    return toricwidth.cli


def reference_task() -> None:
    """Fixed pure-Python work like the program's: exact rational elimination
    and sorting tuples.  It shares no code with toricwidth, so a change to
    the program cannot change it."""
    n = 7
    A = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c:
                f = A[r][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    len(set(sorted(((i * 37) % 101, (i * 53) % 97, i) for i in range(3000))))


def reference_seconds() -> float:
    start = time.thread_time()
    reference_task()
    return time.thread_time() - start


@dataclass
class Call:
    sub: str
    label: str
    seconds: float  # CPU time at reference speed
    cpu: float
    wall: float
    failure: str | None  # why the call counts as failed
    mismatch: bool  # the failure is a wrong output


def argv_for(sub: str, inp, seed: int) -> list[str]:
    if sub == "verify":
        return [sub, inp.spec, "--seed", str(seed), "--format", "json"]
    return [sub, inp.spec]


def timed_call(cli, argv):
    """One CLI call with stdout and stderr captured; only the call is timed.
    Returns (CPU seconds, wall seconds, exit code, exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # an escaping exception is a failed call
            error = e
        cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
    return cpu, wall, rc, error, out.getvalue(), err.getvalue()


def run_pass(cli, inputs, order, seed, expected, tracer=None) -> list[Call]:
    """One pass in the given order, each call checked after it returns.  A
    reference run precedes every call and follows the last; a call's CPU time
    is scaled by the median of the reference runs nearest to it."""
    calls, refs = [], []
    for i in order:
        inp = inputs[i]
        for sub in inp.subcommands:
            if tracer is not None:
                tracer.call_id = f"{sub} {inp.label}"
            refs.append(reference_seconds())
            cpu, wall, rc, error, out, err = timed_call(cli, argv_for(sub, inp, seed))
            failure = checks.outcome_problem(rc, error, err)
            mismatch = False
            if failure is None:
                check = lambda: checks.output_mismatch(sub, inp, rc, out, expected)
                failure = tracer.untraced(check) if tracer is not None else check()
                mismatch = failure is not None
            calls.append(Call(sub, inp.label, cpu, cpu, wall, failure, mismatch))
    refs.append(reference_seconds())
    for k, c in enumerate(calls):
        window = refs[max(0, k - REFERENCE_WINDOW + 1): k + REFERENCE_WINDOW + 1]
        c.seconds = c.cpu * REFERENCE_S / statistics.median(window)
    return calls


def measure_setup(workload: str, seed: int, passes: int, workdir: Path) -> float:
    """Median CPU time a fresh interpreter spends to import toricwidth and
    build the workload's inputs, up to the point where a first call could be
    made.  Each probe reports its main thread's CPU time at that point."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-probe-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(probe_dir),
               "--workload", workload, "--seed", str(seed), "--passes", str(passes)]
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        word, *seconds = probe.stdout.split()
        if probe.returncode != 0 or word != "ready":
            sys.exit(f"perfbench: set-up probe failed (exit {probe.returncode})")
        cpu, reference = map(float, seconds)
        times.append(cpu * REFERENCE_S / reference)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def build_inputs(workload: str, seed: int, passes: int, workdir: Path):
    """Every pass's inputs; generated polygons are drawn afresh per pass."""
    return [workloads.workload_inputs(workload, seed, workdir / f"pass{k}", k)
            for k in range(passes)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: list[list[Call]], inputs: int, setup_s: float, report) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    calls = [c for p in passes for c in p]
    for sub in ("analyze", "width", "embed", "verify"):
        # a failed call misses any latency limit, so it ranks above every success
        ms = [math.inf if c.failure else 1000 * c.seconds for c in calls if c.sub == sub]
        if not ms:
            continue
        value, pct = tail(ms)
        for name, v in ((f"{sub}_p50_ms", statistics.median(ms)), (f"{sub}_tail_ms", value)):
            if math.isinf(v):
                report.append(f"{name} falls on a failed call; not reported")
            else:
                metrics[name] = (v, "ms")
        cpu = statistics.median(c.cpu for c in calls if c.sub == sub)
        wall = statistics.median(c.wall for c in calls if c.sub == sub)
        report.append(f"{sub}: {len(ms)} calls, {ms.count(math.inf)} failed; "
                      f"tail is p{pct:.1f}; unscaled p50 {1000 * cpu:.3f} ms CPU, "
                      f"{1000 * wall:.3f} ms wall")
    metrics["polytopes_per_s"] = (
        statistics.median(inputs / sum(c.seconds for c in p) for p in passes), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    failed = sum(c.failure is not None for c in calls)
    metrics["ok_frac"] = (1 - failed / len(calls), "1")
    report.append(f"failed_frac: {failed / len(calls):.6f} ({failed} of {len(calls)} calls)")
    report.append("median per call, ms:")
    by_call: dict[str, list[float]] = {}
    for c in calls:
        by_call.setdefault(f"{c.sub} {c.label}", []).append(1000 * c.seconds)
    report += [f"  {k:<34} {statistics.median(v):12.3f}" for k, v in sorted(by_call.items())]
    return metrics


def traced_run(cli, inputs_by_pass, seed, expected, rng, report):
    """Run each pass untraced, then traced in the same order; per-layer
    metrics come from the traced passes."""
    plain, traced, layers, spans = [], [], [], []
    for inputs in inputs_by_pass:
        order = rng.sample(range(len(inputs)), len(inputs))
        plain.append(run_pass(cli, inputs, order, seed, expected))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(cli, inputs, order, seed, expected, tracer))
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer.spans, len(inputs))
        # span times are CPU seconds; scale them like the pass's calls
        scale = sum(c.seconds for c in traced[-1]) / sum(c.cpu for c in traced[-1])
        layers.append({k: v * scale if k.endswith("self_s") else v for k, v in layer.items()})
        spans = tracer.spans
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("self_s") else "1" if name.endswith(("ratio", "per_input")) \
            else "count"
        metrics[name] = (statistics.median(m[name] for m in layers), unit)
    untraced_s = statistics.median(sum(c.seconds for c in p) for p in plain)
    traced_s = statistics.median(sum(c.seconds for c in p) for p in traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "1")

    report.append("per call in the last traced pass: CPU time, top self time, fano rrefs")
    for call_id, c in tracing.per_call_breakdown(spans).items():
        top = max(c["self_s"], key=c["self_s"].get)
        report.append(f"  {call_id:<34} {c['total_s']:8.4f} s  {top} "
                      f"{c['self_s'][top]:.4f} s  rref {c['fano_rref_calls']}")
    return plain + traced, metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        # the main thread's CPU time, without the reference runs around the
        # set-up (numpy's idle BLAS threads are not set-up either)
        before = [reference_seconds() for _ in range(3)]
        import_program()
        build_inputs(args.workload, args.seed, args.passes, Path(args.setup_probe))
        cpu = time.thread_time() - sum(before)
        after = [reference_seconds() for _ in range(3)]
        print("ready", cpu, statistics.median(before + after), flush=True)
        return 0

    cli = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    passes = max(1, round(PASSES_PER_30_S[args.workload] * args.seconds / 30))
    if args.trace:
        passes = max(1, passes // 2)  # each one run untraced and traced
    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, passes,
                                                        workdir)
        inputs = build_inputs(args.workload, args.seed, passes, workdir / "inputs")
        expected = json.loads((HERE / "expected.json").read_text())
        for sub in workloads.SUBCOMMANDS:
            timed_call(cli, argv_for(sub, workloads.Input(WARMUP_INPUT, WARMUP_INPUT, ()), 0))

        rng = random.Random(args.seed)
        report = [f"workload {args.workload}, seed {args.seed}: {len(inputs[0])} inputs, "
                  f"{sum(len(i.subcommands) for i in inputs[0])} calls per pass"]
        if args.trace:
            report.append(f"{passes} untraced and {passes} traced passes")
            runs, metrics, spans = traced_run(cli, inputs, args.seed, expected, rng, report)
            trace_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(spans))
            report.append(f"spans of the last traced pass: {trace_file.relative_to(ROOT)}")
        else:
            report.append(f"{passes} passes")
            runs = [run_pass(cli, pass_inputs, rng.sample(range(len(pass_inputs)),
                                                          len(pass_inputs)), args.seed, expected)
                    for pass_inputs in inputs]
            metrics = end_to_end(runs, len(inputs[0]), setup_s, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [c for p in runs for c in p]
    failures = [c for c in calls if c.failure is not None]
    for c in {(c.sub, c.label, c.failure): c for c in failures}.values():
        report.append(f"FAILED {c.sub} {c.label}: {c.failure}")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<48} {value:>14.6f} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": not any(c.mismatch for c in calls),
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
