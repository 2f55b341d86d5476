"""No public API that only tests call.

Every public module-level function and class of ``src/stablepi1`` and every
public method must be referenced, as a name or an attribute, somewhere in
``src/`` or ``perfbench/`` other than its own definition.  Names kept for a
stated reason are allowlisted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablepi1"

ALLOWED = {
    "cli.entrypoint": "the console script in pyproject.toml",
    "torus.map_order": "acceptance test 3",
    "torus.is_free_action": "acceptance test 3",
    "torus.glue_subgroup_pair": "acceptance test 4",
    "vankampen.glue_fundamental_group": "the reference route of acceptance test 5d",
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
