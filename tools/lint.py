"""Two static checks on the Python files of the repository.

    python3 tools/lint.py [imports] [names]

``imports``: no unused imports in src/modext, tests and tools, the
package ``__init__.py`` included.  ``names``: every module-level or
class-level definition in src/modext and in the test helper modules
(``HELPERS``) is referenced from src/modext, tests, tools or perfbench,
as a loaded name, an attribute, an imported name or a string constant
(``__version__`` and dunders exempt).  With
no argument both run.  Each check prints its findings, or one line
saying there are none; the script exits 1 when any check found
something.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELPERS = ("tests/oracles.py", "tests/families.py", "tests/cases.py")  # checked as src/modext


def _files(root: Path, dirs):
    """(directory, path relative to root) of each .py file directly in dirs."""
    for d in dirs:
        for path in sorted((root / d).glob("*.py")):
            yield d, path.relative_to(root)


def unused_imports(root: Path = ROOT) -> list:
    bad = []
    for _, path in _files(root, ("src/modext", "tests", "tools")):
        tree = ast.parse((root / path).read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        bad.append("%s:%d: %s is imported but unused" % (path, node.lineno, name))
    return bad


def unreferenced_names(root: Path = ROOT) -> list:
    defined, used = [], set()
    for d, path in _files(root, ("src/modext", "tests", "tools", "perfbench")):
        tree = ast.parse((root / path).read_text())
        if d == "src/modext" or path.as_posix() in HELPERS:
            body = tree.body + [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((path, node.lineno, node.name))
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                defined += [(path, node.lineno, n.id) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
        for node in ast.walk(tree):  # a load, an attribute, an imported name or a string
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return ["%s:%d: %s is defined but never referenced" % (path, line, name)
            for path, line, name in defined
            if name not in used and name != "__version__" and not name.startswith("__")]


CHECKS = {
    "imports": (unused_imports, "no unused imports"),
    "names": (unreferenced_names,
              "every name defined in src/modext and the test helpers is referenced"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checks", nargs="*", metavar="CHECK", help=" or ".join(CHECKS))
    checks = parser.parse_args(argv).checks or list(CHECKS)
    if not set(checks) <= CHECKS.keys():
        parser.error("unknown check: %s" % ", ".join(sorted(set(checks) - CHECKS.keys())))
    found = False
    for check in checks:
        find, clean = CHECKS[check]
        bad = find()
        print("\n".join(bad) or clean)
        found = found or bool(bad)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
