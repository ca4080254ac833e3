"""The package's modules share only public names: no module imports a
name starting with an underscore from another eulerfan module.  Tests
may still import private names."""

import ast
from pathlib import Path

import eulerfan

PACKAGE = Path(eulerfan.__file__).resolve().parent


def private_imports(source: str):
    """(line, name) for every private name imported from eulerfan."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "eulerfan":
            continue
        found += [(node.lineno, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_detector_flags_relative_and_absolute_forms():
    source = ("from .eos import Eos, _check\n"
              "from eulerfan.subsolution import _window_arrays\n"
              "from . import _private\n"
              "from __future__ import annotations\n"
              "from numpy import _globals\n")
    assert private_imports(source) == [(1, "_check"), (2, "_window_arrays"),
                                       (3, "_private")]


def test_package_modules_import_no_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offences = [f"{path.name}:{line} imports {name}"
                for path in modules
                for line, name in private_imports(path.read_text(encoding="utf-8"))]
    assert offences == []
