#!/usr/bin/env python3
"""Benchmark of cmlink: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload linkage --seed 1 --seconds 20 --trace 0

The program is imported from `src/` of that checkout.  Set-up builds the
seeded inputs; the timed part repeats whole passes over the workload's
operations, in this process and on one thread, until `--seconds` have
passed; then every output of the first pass is checked against sympy and
every later pass must reproduce it exactly.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end:
  setup_s      median over 5 fresh interpreters of the time until the first
               operation is ready (import, inputs, fixtures)
  pass_s       one pass: the sum over operations of each one's median time
  op_gmean_ms  geometric mean over operations of each one's median time
  peak_rss_mb  peak resident memory of this process after the passes
Times are wall times scaled to nominal machine speed (see speed.py).  With `--trace 1` the program's functions are wrapped and the metrics are per
layer (`<layer>.<function>.calls` and `.self_s` for one pass, and the import
times of sympy and cmlink).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_LAUNCHES = 5
# an operation without a budget of its own is still stopped after this long
SAFETY_BUDGET_S = 60.0


class OverBudget(BaseException):
    """Raised by the timer signal; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise OverBudget


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit (times set-up)")
    return p.parse_args(argv)


def import_program():
    """Import cmlink from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cmlink", "__init__.py")):
        raise SystemExit(f"perfbench: no cmlink sources under {SRC}")
    sys.path.insert(1, SRC)
    import cmlink

    if not os.path.realpath(cmlink.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: cmlink imported from {cmlink.__file__}, not {SRC}")


def setup(workload, seed):
    """The timed set-up: import the program and build one pass of operations."""
    import workloads

    import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    try:
        return workdir, workloads.build(workload, seed, workdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


def time_setup(workload, seed):
    """Time from launching a fresh interpreter until it reports 'ready'.

    Wall time, scaled to nominal speed by the reference run on either side.
    """
    ref_before = speed.reference_time()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up launch failed ({proc.returncode})")
    return speed.scaled(elapsed, [ref_before, speed.reference_time()])


def clear_sympy_cache():
    """Start every operation with sympy's cache empty, as a fresh process does."""
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()


def run_op(op, sampler=None):
    """(output, wall seconds); output is None when the operation hit its budget."""
    budget = op.budget if op.budget is not None else SAFETY_BUDGET_S
    signal.setitimer(signal.ITIMER_REAL, budget)
    if sampler is not None:
        sampler.start()
    try:
        start = time.perf_counter()
        out = op.run()
        elapsed = time.perf_counter() - start
    except OverBudget:
        return None, budget
    finally:
        if sampler is not None:
            sampler.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, elapsed


def measure(ops, seconds, tracer=None):
    """Whole passes over `ops` until `seconds` have passed.

    The reference computation runs before the first operation, after each
    one and, unless traced, inside each one (see speed.py); an operation's
    time is its wall time scaled by those reference times.  An operation
    stopped at its budget counts at exactly its budget.
    """
    times = [[] for _ in ops]
    first = [None] * len(ops)
    problems = []
    failed = passes = 0
    calls = {}
    self_per_pass = []
    spans = []
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = speed.Sampler() if tracer is None else None
    speed.warm_up()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        pass_self = {}
        gc.collect()
        refs = [speed.reference_time()]
        done = []  # (op index, wall time, time in samples, samples)
        for i, op in enumerate(ops):
            clear_sympy_cache()
            if tracer is not None:
                tracer.begin(i, recording=passes == 0)
            out, elapsed = run_op(op, sampler)
            refs.append(speed.reference_time())
            if out is None:
                times[i].append(elapsed)
                failed += 1
                continue
            if sampler is None:
                done.append((i, elapsed, 0.0, []))
            else:
                done.append((i, elapsed, sampler.spent, sampler.samples))
            if tracer is not None:
                op_calls, op_self, op_spans = tracer.end()
                for name, value in op_self.items():
                    pass_self[name] = pass_self.get(name, 0.0) + value
                if passes == 0:
                    for name, n in op_calls.items():
                        calls[name] = calls.get(name, 0) + n
                    spans.extend(op_spans)
            if first[i] is None:
                first[i] = out
            elif repr(out) != repr(first[i]):
                problems.append(f"{op.name}: pass {passes + 1} output differs from the first")
        for i, elapsed, spent, samples in done:
            times[i].append(speed.scaled(elapsed, [refs[i], *samples, refs[i + 1]], spent))
        self_per_pass.append(pass_self)
        passes += 1
    return {
        "times": times, "first": first, "problems": problems, "passes": passes,
        "attempted": passes * len(ops), "failed": failed,
        "calls": calls, "self_per_pass": self_per_pass, "spans": spans,
    }


def check_outputs(ops, first):
    from oracles import CheckFailure

    problems = []
    for op, out in zip(ops, first):
        if out is None:
            continue
        try:
            op.check(out)
        except (CheckFailure, KeyError, ValueError, TypeError) as exc:
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return problems


def op_times(result):
    """Each operation's median scaled time over the run's passes."""
    return [statistics.median(t) for t in result["times"]]


def end_to_end(result, setup_samples):
    times = op_times(result)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "pass_s": {"value": sum(times), "unit": "s"},
        "op_gmean_ms": {
            "value": math.exp(statistics.fmean(math.log(t * 1e3) for t in times)),
            "unit": "ms",
        },
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(result, import_s):
    import tracing

    metrics = {}
    for name, unit in tracing.metric_names():
        if name in import_s:
            value = import_s[name]
        elif name.endswith(".calls"):
            value = result["calls"].get(name[: -len(".calls")], 0)
        else:
            key = name[: -len(".self_s")]
            value = statistics.median(p.get(key, 0.0) for p in result["self_per_pass"])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        workdir, _ = setup(args.workload, args.seed)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_samples = []
    if not args.trace:
        setup_samples = [time_setup(args.workload, args.seed) for _ in range(SETUP_LAUNCHES)]
    t0 = time.perf_counter()
    workdir, ops = setup(args.workload, args.seed)
    in_process_setup = time.perf_counter() - t0
    try:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result = measure(ops, args.seconds, tracer)
        if args.trace:
            metrics = per_layer(result, tracing.import_times(SRC))
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracing.write_spans(spans_path, result["spans"])
        else:
            metrics = end_to_end(result, setup_samples)
        t0 = time.perf_counter()
        problems = result["problems"] + check_outputs(ops, result["first"])
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops x {result['passes']} passes, pass_s {sum(op_times(result)):.4f}, "
          f"in-process set-up {in_process_setup:.3f} s, checks {check_s:.1f} s")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
