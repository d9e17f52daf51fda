"""`tools/unused_imports.py`, the CI check that `src/cmlink` imports nothing it leaves unused."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _tool():
    sys.path.insert(0, TOOLS)
    try:
        import unused_imports
    finally:
        sys.path.remove(TOOLS)
    return unused_imports


def test_the_package_imports_nothing_unused(capsys):
    assert _tool().main([]) == 0
    assert capsys.readouterr().out == ""


def test_unused_names_are_listed_and_re_exported_ones_are_not(tmp_path, capsys):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import gcd, lcm as least\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "def f(x: gcd) -> int:\n"
        "    from itertools import chain\n"
        "    return os.sep\n",
        encoding="utf-8")
    assert _tool().unused_imports(str(module)) == [(3, "json"), (4, "least"), (8, "chain")]
    assert _tool().main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{module}:3: json", f"{module}:4: least", f"{module}:8: chain"]
