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


# Exports that no program path reads, each kept for the reason given; any other
# export that only tests read belongs in a tests/ reference module.
UNREAD_EXPORTS = {
    "bound_composite": "the error bound of a Taylor-substituted chain, the form in which a "
                       "certified time-dependent contract is to count its Dyson term",
    "ordered_propagator": "the time-ordered drift propagator of one interval, a documented "
                          "entry point and the comparator for td_simulate's propagators",
    "save_model": "the model-file writer, the inverse of load_model for library users",
}


def test_every_export_is_read_by_a_program_path_or_pinned():
    init = ast.parse((ROOT / "src" / "lindbladsim" / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    programs = [p for d in ("src/lindbladsim", "tools", "perfbench")
                for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"]
    assert len({p.parent for p in programs}) == 3
    read = set()
    for path in programs:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert exported - read == set(UNREAD_EXPORTS)
