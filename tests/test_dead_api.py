"""No public API that only tests call, no private name across modules.

Every public module-level function and class of ``src/stablepi1`` and every
public method must be referenced, as a name or an attribute, somewhere in
``src/`` or ``perfbench/`` other than its own definition.  No module of the
package may import another module's ``_private`` name, by name or as an
attribute of the imported module.  Names kept for a stated reason are
allowlisted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablepi1"

ALLOWED = {
    "cli.entrypoint": "the console script in pyproject.toml",
}

# importer -> module.name of a private name it imports
ALLOWED_PRIVATE = {
    "cli -> scenarios._int_token": "the snf command and --max-cosets parse ASCII integers as scenario files do",
}


def public_definitions():
    """(qualified name, bare name) of every public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names():
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    used = referenced_names()
    unused = [q for q, name in public_definitions() if name not in used and q not in ALLOWED]
    assert unused == []


def test_allowlist_names_only_defined_names_without_a_caller():
    defined = dict(public_definitions())
    used = referenced_names()
    assert set(ALLOWED) <= set(defined)
    assert [q for q in ALLOWED if defined[q] in used] == []


def private_imports():
    """'importer -> module.name' for every private name a package module
    takes from another: ``from .m import _x`` or ``m._x`` after ``from . import m``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add(f"{path.stem} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                found.add(f"{path.stem} -> {node.value.id}.{node.attr}")
    return found


def test_no_private_name_crosses_a_module_boundary_unlisted():
    assert private_imports() == set(ALLOWED_PRIVATE)
