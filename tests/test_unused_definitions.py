"""Every module-level definition in the engine must be used somewhere.

A module-level `def` or `class` of `src/superpi/*.py` counts as used when
its name is read (as a name or an attribute) outside its own definition,
in any module of `src/superpi` but `__init__.py` (whose re-exports use
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


def unused_definitions(package: Path, scripts: Path) -> list[str]:
    """`module.name` of every module-level def or class of package that
    nothing in package (but __init__.py) or under scripts reads."""
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
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = definition.name
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


def test_a_planted_unused_helper_is_found(tmp_path):
    package = tmp_path / "superpi"
    package.mkdir()
    for path in PACKAGE.glob("*.py"):
        (package / path.name).write_text(path.read_text())
    with open(package / "builders.py", "a") as handle:
        handle.write("\n\ndef _planted_helper():\n    return _planted_helper()\n")
    found = unused_definitions(package, ROOT / "scripts")
    assert "builders._planted_helper" in found
