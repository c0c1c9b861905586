import ast
import pathlib

import pytest

import rareis

PACKAGE = pathlib.Path(rareis.__file__).parent
# __init__.py's imports are the package's exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name the module imports and never reads, except
    on lines marked "# noqa: F401"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def function_level_package_imports(source):
    """Sorted line numbers of the imports of a rareis module made inside a
    function; a lazy import of another package is allowed."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                own = node.level > 0 or node.module.split(".")[0] == "rareis"
            elif isinstance(node, ast.Import):
                own = any(alias.name.split(".")[0] == "rareis"
                          for alias in node.names)
            else:
                continue
            if own:
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imported_at_module_level(path):
    assert function_level_package_imports(path.read_text()) == []


def test_finds_unused_and_honours_noqa():
    source = ("import os\nimport numpy as np\nfrom . import a, b as c\n"
              "from .d import e  # noqa: F401\nnp.zeros(c)\n")
    assert unused_imports(source) == [(1, "os"), (3, "a")]


def test_finds_function_level_package_imports():
    source = ("from . import a\nimport rareis\n"
              "def f():\n    from .accel import g\n    import rareis.gauss\n"
              "    from scipy.stats import qmc\n    import numpy\n"
              "    def h():\n        from rareis import tgmm\n"
              "async def k():\n    import os, rareis.cli as c\n"
              "class C:\n    def m(self):\n        from .. import x\n")
    assert function_level_package_imports(source) == [4, 5, 9, 11, 14]
