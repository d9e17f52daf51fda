"""The traced benchmark's view of cmlink: every traced name must still exist.

`perfbench/tracing.py` wraps cmlink functions by module and attribute name,
so renaming or removing one breaks the traced run.  This test only reads
`perfbench/`; it never writes there.
"""

import importlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _layers():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing.LAYERS


def test_every_traced_name_resolves():
    entries = [entry for layer in _layers().values() for entry in layer]
    assert entries
    for short, modname, attr in entries:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            pattern = re.compile(meth.replace("*", r"\w*") + r"\Z")
            assert any(
                callable(v) and pattern.match(k) for k, v in vars(cls).items()
            ), f"{modname}.{attr} matches no method"
        else:
            assert callable(getattr(module, attr)), f"{modname}.{attr} is not callable"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
