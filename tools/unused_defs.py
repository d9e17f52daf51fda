#!/usr/bin/env python3
"""List the module-level functions and classes of a package that nothing uses.

    python3 tools/unused_defs.py [DIR]

Reads every `*.py` file directly in DIR (default: `src/cmlink` beside this
script's directory) with `ast`, stdlib only.  A function or class defined at
the top level of one of them is used when some module of DIR, its own
included, reads its name as a plain name anywhere (a call, a decorator, an
annotation, a default), imports it by name (`from .mod import name`),
reaches it as an attribute (`mod.name`; any attribute of that name counts),
or lists it in an `__all__`, which exports it.  Prints `path:line: name` for
each unused definition and exits 1 if there is one; prints nothing and exits
0 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys


def _names_used(tree):
    """The names a module reads, imports, reaches as attributes or exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return used


def unused_defs(folder):
    """(path, line, name) of each top-level def or class in `folder` that no module uses."""
    defined = []
    used = set()
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(folder, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        defined += [(path, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        used |= _names_used(tree)
    return [(path, line, name) for path, line, name in defined if name not in used]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        raise SystemExit("usage: unused_defs.py [DIR]")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = unused_defs(argv[0] if argv else os.path.join(root, "src", "cmlink"))
    for path, line, name in found:
        print(f"{path}:{line}: {name}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
