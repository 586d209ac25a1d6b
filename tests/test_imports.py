"""Every package module uses each name it imports.

No linter runs on the package, so this stands in for the unused-import
check: a name imported and never read is usually a leftover from code
that was deleted.  ``__init__`` is exempt, since its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

import casimir_cutoff

MODULES = sorted(
    p for p in Path(casimir_cutoff.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
