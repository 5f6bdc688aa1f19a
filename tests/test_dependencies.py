"""The package runs on the standard library alone, and every name a
module exports exists."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import linestab


def imported_modules():
    """(file name, top-level module) for every absolute import in the package."""
    sources = sorted(pathlib.Path(linestab.__file__).parent.rglob("*.py"))
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
                yield path.name, name.partition(".")[0]


def test_package_imports_only_the_standard_library():
    for source, top in imported_modules():
        assert top in sys.stdlib_module_names or top == "linestab", (source, top)


def test_package_computes_over_integers_only():
    """Exact rationals and decimals have no place in an integer pipeline."""
    for source, top in imported_modules():
        assert top not in ("fractions", "decimal"), (source, top)


def test_package_reports_through_data_not_the_warnings_module():
    """Boundary cases travel as DecoratedGraph.warnings, which the CLI
    prints; the process-wide warnings machinery stays out of the package."""
    for source, top in imported_modules():
        assert top != "warnings", (source, top)


def test_every_exported_name_exists():
    """A name deleted from a module leaves its __all__ entry with it."""
    for info in pkgutil.iter_modules(linestab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("linestab." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    for name in linestab.__all__:
        assert hasattr(linestab, name), name
