"""The package's import graph: the three routes to r(1, n) stay independent.

The closed forms, the reduction engine and the Laplacian oracles agree as a
check only while none of them reads another.  Each module of src/twotree
may import only the package modules listed for it here, at any depth of
its source (a function-level import counts too).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twotree"

ALLOWED = {
    "__init__": {"formulas", "graphs", "identities", "rational", "reduction", "resistance", "sequences"},
    "cli": {"formulas", "graphs", "identities", "rational", "reduction", "resistance"},
    "formulas": {"sequences"},
    "graphs": {"rational"},
    "identities": {"formulas", "rational", "sequences"},
    "rational": set(),
    "reduction": {"graphs", "rational"},
    "resistance": {"graphs"},
    "sequences": set(),
}


def package_imports(source: str) -> set[str]:
    """The twotree modules that `source` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                found.add(module.split(".")[0])
            elif node.level == 1 or module == "twotree":
                found.update(alias.name for alias in node.names)
            elif module.startswith("twotree."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("twotree."))
    return found


def test_reader_sees_every_form_of_import():
    source = "from .a import x\nfrom . import b\nfrom twotree import c\nfrom twotree.d import y\nimport twotree.e\n"
    source += "def f():\n    from .g import z\n"
    assert package_imports(source) == {"a", "b", "c", "d", "e", "g"}


def test_each_module_imports_only_its_allowed_modules():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(ALLOWED), "a module was added or removed: give it a row in ALLOWED"
    for name, path in modules.items():
        extra = package_imports(path.read_text(encoding="utf-8")) - ALLOWED[name]
        assert not extra, f"{name} imports {sorted(extra)}"
