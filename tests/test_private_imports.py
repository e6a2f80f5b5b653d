"""Modules of the package call each other's public names, not their _private
helpers.

The allowlist holds the two private crossings that perfbench patches to time
the selection and the batched pipeline: ``smoother._lepski_batch`` as imported
by ``deconv``, and ``deconv._estimate_all`` as imported by ``sim``. ROADMAP
item 6b replaces both with one public entry point and empties the list.
"""

import ast
from pathlib import Path

import lapdeconv

PACKAGE = Path(lapdeconv.__file__).parent

# (importing module, defining module, name)
ALLOWED = {
    ("deconv", "smoother", "_lepski_batch"),
    ("sim", "deconv", "_estimate_all"),
}


def private_imports() -> set[tuple[str, str, str]]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("lapdeconv."):
                    continue
                module = module[len("lapdeconv."):]
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.startswith("__"):
                    found.add((path.stem, module, name))
    return found


def test_no_private_names_cross_modules():
    assert private_imports() == ALLOWED
