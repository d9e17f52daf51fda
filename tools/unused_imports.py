#!/usr/bin/env python3
"""List the names imported into a package's modules that the modules never use.

    python3 tools/unused_imports.py [DIR]

Reads every `*.py` file directly in DIR (default: `src/cmlink` beside this
script's directory) with `ast`, stdlib only.  A name bound by an `import`
or `from ... import` statement, anywhere in a module, is used when the
module reads it anywhere as a plain name (an attribute access `name.attr`
reads `name`; annotations are parsed, so a name in one counts), or when the
module's `__all__` lists it, which re-exports it.  `from __future__`
imports and star imports are skipped.  Prints `path:line: name` for each
unused name and exits 1 if there is one; prints nothing and exits 0
otherwise.
"""

from __future__ import annotations

import ast
import os
import sys


def unused_imports(path):
    """(line, name) of each name imported into the module at `path` and never used."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        raise SystemExit("usage: unused_imports.py [DIR]")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    folder = argv[0] if argv else os.path.join(root, "src", "cmlink")
    found = False
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            path = os.path.join(folder, name)
            for line, unused in unused_imports(path):
                print(f"{path}:{line}: {unused}")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
