"""Every package module uses each name it imports.

No linter runs on the package, so this stands in for the unused-import
check: a name imported and never read is usually a leftover from code
that was deleted.  As in pyflakes and ruff (F401), a name the module
lists in its ``__all__`` counts as used: that is a deliberate
re-export.  ``__init__`` is exempt, since its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

import casimir_cutoff

MODULES = sorted(
    p for p in Path(casimir_cutoff.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> dict[str, int]:
    """Imported names that are neither read nor listed in ``__all__``, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_only_names_in_all_count_as_reexports():
    source = (
        "from .params import FourVector, SeparationVector, _rdot\n"
        "__all__ = ['FourVector']\n"
    )
    assert unused_imports(source) == {"SeparationVector": 1, "_rdot": 1}
