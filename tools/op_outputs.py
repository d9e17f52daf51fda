#!/usr/bin/env python3
"""Write the output of every benchmark operation, for diffing two checkouts.

    python3 tools/op_outputs.py ROOT OUT

Builds the four workloads of `ROOT/perfbench/workloads.py` at seeds 1 and 2,
with cmlink imported from `ROOT/src`, runs each operation once and writes
one line per operation to OUT: `workload seed op-name` and the `repr` of
its output, tab-separated, in workload, seed and pass order.  An operation
stopped at its budget (or at 60 s when it has none) is written as
`<over budget>`.  Outputs of two checkouts are the same exactly when

    python3 tools/op_outputs.py PARENT parent.txt
    python3 tools/op_outputs.py CHANGE change.txt
    diff parent.txt change.txt

prints nothing.  Run each checkout in its own process, as above: the
program is imported once per process.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile

SEEDS = (1, 2)
SAFETY_BUDGET_S = 60.0


class _OverBudget(BaseException):
    """Raised by the timer signal; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise _OverBudget


def _run(op):
    signal.setitimer(signal.ITIMER_REAL, op.budget or SAFETY_BUDGET_S)
    try:
        return repr(op.run())
    except _OverBudget:
        return "<over budget>"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: op_outputs.py ROOT OUT")
    root, out = os.path.abspath(argv[0]), argv[1]
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import cmlink
    import workloads

    if not os.path.realpath(cmlink.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"op_outputs: cmlink imported from {cmlink.__file__}, not {src}")
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = tempfile.mkdtemp(prefix="op-outputs-")
    lines = []
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = workloads.build(name, seed, tempfile.mkdtemp(dir=workdir))
                for op in ops:
                    if "sympy" in sys.modules:
                        sys.modules["sympy"].core.cache.clear_cache()
                    lines.append(f"{name}\t{seed}\t{op.name}\t{_run(op)}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} outputs written to {out}")


if __name__ == "__main__":
    main()
