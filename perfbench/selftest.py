#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a corrupted output.

    python3 perfbench/selftest.py

For each workload one real cmlink output is computed and checked, which must
pass; then the output is altered in one way a faulty program could alter it
(a dropped Groebner basis element, a flipped membership verdict, a wrong
rank, a sign-flipped resultant, ...) and the check must fail.  Exits 1 if a
check accepts an altered output or rejects a real one.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def _edit_report(out, edit):
    code, text = out
    report = json.loads(text)
    edit(report)
    return code, json.dumps(report)


def _drop_last(key):
    return lambda r: r[key].pop()


def _bump_rank(r):
    r["ranks"][-1] += 1


def _replace_top_entry(r):
    r["L_top_entries"][0] = "x"


def _wrong_n2(r):
    r["N2"] += 1


def _flip(key):
    def edit(verdicts):
        altered = dict(verdicts)
        altered[key] = not altered[key]
        return altered

    return edit


def _negate(text):
    return f"-({text})"


# workload -> [(operation name, corruption of its output, what it alters)]
CASES = {
    "linkage": [
        ("gb-lex:curve", lambda o: _edit_report(o, _drop_last("groebner_basis")),
         "dropped GB element"),
        ("link:curve-ci", lambda o: _edit_report(o, _replace_top_entry),
         "replaced top entry"),
    ],
    "membership": [
        ("member:det:p0", _flip("det"), "flipped det verdict"),
        ("member:curve-ci:m24", _flip("link"), "flipped link verdict"),
    ],
    "resolution": [
        ("resolve:curve", lambda o: _edit_report(o, _bump_rank), "wrong rank"),
        ("resolve:rnc3", lambda o: _edit_report(o, _drop_last("differentials")),
         "dropped differential"),
    ],
    "params": [
        ("sylvester:", _negate, "sign-flipped resultant"),
        ("recipe:0", lambda o: _edit_report(o, _wrong_n2), "wrong N2"),
    ],
}


def main():
    from oracles import CheckFailure

    failures = 0
    for workload, cases in CASES.items():
        workdir, ops = run.setup(workload, 0)
        try:
            for prefix, corrupt, what in cases:
                op = next(op for op in ops if op.name.startswith(prefix)
                          and (prefix != "sylvester:" or op.run() != "0"))
                out = op.run()
                op.check(out)
                try:
                    op.check(corrupt(out))
                except CheckFailure as exc:
                    print(f"ok   {workload} {op.name}: {what} caught ({exc})")
                else:
                    failures += 1
                    print(f"FAIL {workload} {op.name}: {what} passed the check")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
