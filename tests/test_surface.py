"""Every name that `tcm` exports is used by the program itself.

A name counts as used when code in `src/tcm`, `scripts/` or `perfbench/`
mentions it outside its own `def` or `class`: as an identifier, an attribute,
an imported name, or a string equal to the name (the benchmark tracer lists
the functions it wraps as strings). Tests do not count, so a name that only
tests reach is reported as dead surface.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tcm"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _mentions(node: ast.AST, enclosing: frozenset) -> set[str]:
    """Names mentioned under node, leaving out those inside their own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.alias):
        found.add(node.name.rpartition(".")[2])
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        found.add(node.value)
    for child in ast.iter_child_nodes(node):
        found |= _mentions(child, enclosing)
    return found - enclosing


def program_files() -> list[Path]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [p for p in files if not p.name.startswith("test_")]


def test_every_export_is_used_outside_tests():
    used = set()
    for path in program_files():
        used |= _mentions(ast.parse(path.read_text()), frozenset())
    unused = sorted(exported_names() - used)
    assert not unused, f"exported from tcm but used only by tests or by nothing: {unused}"
