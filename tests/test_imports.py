"""No module imports a name it never reads.

Every ``.py`` file under ``src/loctrack``, ``tests`` and ``demos`` is
parsed with ``ast``. A name bound by an import (outside ``__future__``)
must be read somewhere in the file as a plain name, or be listed in the
file's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/loctrack", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def _bound_names(tree: ast.Module) -> set[str]:
    """Names that the file's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """Strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(_bound_names(tree) - read - _exported(tree))
    assert not unused, f"{path.name} imports {unused} and never reads them"
