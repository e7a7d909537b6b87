"""Every module-level definition in the engine must be used somewhere.

A module-level `def`, `class` or assigned name (a constant or a type
alias) of `src/superpi/*.py` counts as used when its name is read (as a
name or an attribute) outside its own definition, in any module of `src/superpi` but `__init__.py` (whose re-exports use
nothing) or in any file under `scripts/`.  The functions that
`perfbench/layers.py` traces by name are exempt, read from its TRACED
table as `tests/test_traced_names.py` reads it; shrinking that table
makes this test demand that an untraced, unused definition leave `src`.
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


def unused_definitions(package: Path, scripts: Path) -> list[str]:
    """`module.name` of every module-level def, class or assigned name of
    package that nothing in package (but __init__.py) or under scripts
    reads."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set()
    for path in sorted(scripts.rglob("*.py")):
        outside |= _names_read(ast.parse(path.read_text()))
    statements = [statement for tree in modules.values() for statement in tree.body]
    reads = [_names_read(statement) for statement in statements]
    unused = []
    for module, tree in modules.items():
        for definition in tree.body:
            for name in _defined_names(definition):
                if name not in outside and not any(
                    name in names
                    for statement, names in zip(statements, reads)
                    if statement is not definition
                ):
                    unused.append(f"{module}.{name}")
    return unused


def test_every_definition_is_used_or_traced():
    traced = {f"{module}.{path.split('.')[0]}" for module, path in traced_names()}
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


def test_a_planted_unused_constant_is_found(tmp_path):
    found = _planted(tmp_path, "\n\n_PLANTED_LIMIT: int = 7\n_PLANTED_ALIAS = tuple[int, ...]\n")
    assert {"builders._PLANTED_LIMIT", "builders._PLANTED_ALIAS"} <= set(found)
