"""No public API that only tests call, no private name across modules.

Every public module-level function and class of ``src/stablepi1``, every
public method and every module-level ``X = namedtuple(...)`` record must be
referenced, as a name or an attribute, somewhere in ``src/`` or
``perfbench/`` other than its own definition.  No module of the
package may import another module's ``_private`` name, by name or as an
attribute of the imported module.  Names kept for a stated reason are
allowlisted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablepi1"

ALLOWED = {}

# importer -> module.name of a private name it imports
ALLOWED_PRIVATE = {
    "cli -> scenarios._int_token": "the snf command and --max-cosets parse ASCII integers as scenario files do",
}


def namedtuple_records(node):
    """The names bound by a module-level ``X = namedtuple(...)``, else ()."""
    if (
        isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "namedtuple"
    ):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return ()


def public_definitions():
    """(qualified name, bare name) of every public function, class and
    method, and of every namedtuple record."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in namedtuple_records(node):
                yield f"{path.stem}.{name}", name
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
            # a name bound here (a namedtuple record's own definition) is no reference
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    used = referenced_names()
    unused = [q for q, name in public_definitions() if name not in used and q not in ALLOWED]
    assert unused == []


def test_namedtuple_records_are_guarded():
    defined = dict(public_definitions())
    records = {"Scenario", "VanKampenPayload", "BiTriPayload", "ReduciblePayload",
               "CoverPayload", "IsogenyPayload", "ConstantPayload"}
    assert {f"scenarios.{r}" for r in records} | {"vankampen.GluingMap"} <= set(defined)


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
