"""`tools/unused_defs.py`, the CI check that `src/cmlink` defines nothing it leaves unused."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _tool():
    sys.path.insert(0, TOOLS)
    try:
        import unused_defs
    finally:
        sys.path.remove(TOOLS)
    return unused_defs


def test_the_package_defines_nothing_unused(capsys):
    assert _tool().main([]) == 0
    assert capsys.readouterr().out == ""


def test_dead_definitions_are_listed_and_used_ones_are_not(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "def dead():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
        "def exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    pass\n"
        "class Reached:\n"
        "    pass\n"
        "class Dead:\n"
        "    pass\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import imported\n"
        "from . import a\n"
        "x = a.Reached\n",
        encoding="utf-8")
    a = str(tmp_path / "a.py")
    assert _tool().unused_defs(str(tmp_path)) == [(a, 2, "dead"), (a, 12, "Dead")]
    assert _tool().main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{a}:2: dead", f"{a}:12: Dead"]
