"""Every module-level definition and method in the engine must be used somewhere.

A module-level `def`, `class` or assigned name (a constant or a type
alias) of `src/superpi/*.py`, and every method of a module-level class
but the dunder ones, counts as used when its name is read (as a name or
an attribute) outside its own definition, in any module of `src/superpi`
but `__init__.py` (whose re-exports use nothing) or in any file under
`scripts/`.  The functions and methods that `perfbench/layers.py` traces
by name are exempt, read from its TRACED table as
`tests/test_traced_names.py` reads it; shrinking that table makes this
test demand that an untraced, unused definition leave `src`.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_traced_names import traced_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superpi"


def _names_read(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def or class, or the
    plain names bound by an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def _units(tree: ast.Module) -> list[tuple[ast.stmt, ast.AST, set[str]]]:
    """(module-level statement, node, names the node reads) for each part of
    tree whose reads count apart: a class is split into its header (bases,
    keywords and decorators) and each statement of its body, so that a
    method's own body does not count as a read of its name."""
    units = []
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            header = statement.bases + statement.keywords + statement.decorator_list
            units.append((statement, statement, set().union(*map(_names_read, header))))
            units += [(statement, item, _names_read(item)) for item in statement.body]
        else:
            units.append((statement, statement, _names_read(statement)))
    return units


def _methods(statement: ast.stmt) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The non-dunder methods of a module-level class, else nothing."""
    if not isinstance(statement, ast.ClassDef):
        return []
    return [
        item
        for item in statement.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def unused_definitions(package: Path, scripts: Path) -> list[str]:
    """`module.name` of every module-level def, class or assigned name and
    `module.Class.method` of every non-dunder method of a module-level
    class of package that nothing in package (but __init__.py) outside its
    own definition or under scripts reads."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set()
    for path in sorted(scripts.rglob("*.py")):
        outside |= _names_read(ast.parse(path.read_text()))
    units = [unit for tree in modules.values() for unit in _units(tree)]

    def read_outside(name: str, own: ast.AST) -> bool:
        return name in outside or any(
            name in names for statement, node, names in units if own not in (statement, node)
        )

    unused = []
    for module, tree in modules.items():
        for definition in tree.body:
            for name in _defined_names(definition):
                if not read_outside(name, definition):
                    unused.append(f"{module}.{name}")
            for method in _methods(definition):
                if not read_outside(method.name, method):
                    unused.append(f"{module}.{definition.name}.{method.name}")
    return unused


def test_every_definition_is_used_or_traced():
    traced = {
        f"{module}.{name}" for module, path in traced_names() for name in (path.split(".")[0], path)
    }
    assert [name for name in unused_definitions(PACKAGE, ROOT / "scripts") if name not in traced] == []


def _planted(tmp_path: Path, source: str) -> list[str]:
    """The unused definitions of a copy of the package with source appended
    to its builders.py."""
    package = tmp_path / "superpi"
    package.mkdir()
    for path in PACKAGE.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    with open(package / "builders.py", "a") as handle:
        handle.write(source)
    return unused_definitions(package, ROOT / "scripts")


def test_a_planted_unused_helper_is_found(tmp_path):
    found = _planted(tmp_path, "\n\ndef _planted_helper():\n    return _planted_helper()\n")
    assert "builders._planted_helper" in found


def test_a_planted_unused_method_is_found(tmp_path):
    found = _planted(
        tmp_path,
        "\n\nclass _PlantedCell:\n"
        "    def planted_rows(self):\n        return self.planted_rows()\n\n"
        "    def __len__(self):\n        return 0\n",
    )
    assert "builders._PlantedCell.planted_rows" in found
    assert "builders._PlantedCell.__len__" not in found


def test_a_planted_unused_constant_is_found(tmp_path):
    found = _planted(tmp_path, "\n\n_PLANTED_LIMIT: int = 7\n_PLANTED_ALIAS = tuple[int, ...]\n")
    assert {"builders._PLANTED_LIMIT", "builders._PLANTED_ALIAS"} <= set(found)
