"""Checks on the Python source of the package, its tests and tools, read with the
standard-library parser."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy.linalg as la\nimport sys\nsys.exit()\n"
    assert _unused_imports(source) == ["la", "os"]
    source = "from __future__ import annotations\nfrom math import pi as p\np\n"
    assert _unused_imports(source) == []


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports only to re-export the public API
    dirs = [ROOT / "src" / "lindbladsim", ROOT / "tests", ROOT / "tools"]
    assert all(any(d.glob("*.py")) for d in dirs)
    modules = sorted(p for d in dirs for p in d.glob("*.py") if p.name != "__init__.py")
    unused = {str(p.relative_to(ROOT)): names for p in modules
              if (names := _unused_imports(p.read_text()))}
    assert unused == {}
