"""The package runs on the standard library alone."""

import ast
import pathlib
import sys

import linestab


def test_package_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(linestab.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "linestab", (path.name, name)
