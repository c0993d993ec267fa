"""No module imports a name it never reads, the Cholesky factorisations
stay in ``blocks``, and no package module imports another's private name.

Every ``.py`` file under ``src/loctrack``, ``tests`` and ``demos`` is
parsed with ``ast``. A name bound by an import (outside ``__future__``)
must be read somewhere in the file as a plain name, or be listed in the
file's ``__all__``. In ``src/loctrack`` only ``blocks.py`` (``spd_solve``
and the dense oracle ``inverse_diag_blocks``) may reach scipy's
``cho_factor``/``cho_solve`` or LAPACK (``scipy.linalg.lapack``,
``dposv``, ``dpotrf``, ``dpotrs``, ``dtrtri``), and no module imports an underscore
name from another ``loctrack`` module.
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


CHOLESKY_NAMES = {"cho_factor", "cho_solve", "dposv", "dpotrf", "dpotrs", "dtrtri", "lapack"}
CHOLESKY_MODULES = {"blocks.py"}
PACKAGE = [path for path in FILES if path.parent.name == "loctrack"]


def _cholesky_uses(tree: ast.Module) -> set[str]:
    """Names of ``CHOLESKY_NAMES`` imported (as a name or a module part) or
    read as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(CHOLESKY_NAMES.intersection((node.module or "").split(".")))
            used.update(alias.name for alias in node.names if alias.name in CHOLESKY_NAMES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                used.update(CHOLESKY_NAMES.intersection(alias.name.split(".")))
        elif isinstance(node, ast.Attribute) and node.attr in CHOLESKY_NAMES:
            used.add(node.attr)
    return used


@pytest.mark.parametrize(
    "path",
    [path for path in PACKAGE if path.name not in CHOLESKY_MODULES],
    ids=lambda path: path.name,
)
def test_dense_cholesky_only_in_blocks_and_fim(path):
    used = _cholesky_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not used, f"{path.name} uses {sorted(used)}; read blocks.spd_solve"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_private_name_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("loctrack"))
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not private, f"{path.name} imports private names {private}"
