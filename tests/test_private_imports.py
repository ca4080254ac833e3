"""The package's public surface: the modules share only public names
(no module imports a name starting with an underscore from another
eulerfan module; tests may still import private names), and
eulerfan.__all__ is pinned, every exported function and class with a
docstring.  Adding a public name takes an edit of PUBLIC below."""

import ast
import inspect
from pathlib import Path

import eulerfan

PACKAGE = Path(eulerfan.__file__).resolve().parent

# Each name serves the CLI, the README, the benchmark or a paper-facing
# computation.
PUBLIC = {
    "Eos", "RiemannData", "DataFunctionals", "data_functionals",
    "pressure", "internal_energy", "p_dissipation", "two_shock_T",
    "WaveKind", "WaveFan", "wave_curve", "solve_middle_state", "classify",
    "FanSubsolution", "FeasibilityRecord", "VerificationReport",
    "eps2_window", "reconstruct", "witness_at", "verify_subsolution",
    "epsilon1_sign_change", "limit_quantities",
    "ThresholdResult", "ThresholdRow", "feasible_for_gap", "feasibility_scan",
    "threshold_V", "threshold_table", "subsolution_witness",
    "Nonuniq", "RegionCell", "region_map_sweep", "region_map_csv",
    "parse_region_map_csv", "witness_document", "parse_witness",
    "write_witness", "read_witness",
    "EulerFanError", "DomainError", "DegenerateDensityError",
    "VelocityGapError", "ConstraintError", "NumericalError",
    "__version__",
}


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


def test_public_names_are_pinned():
    assert sorted(eulerfan.__all__) == sorted(PUBLIC)


def test_every_exported_function_and_class_has_a_docstring():
    """A class's own docstring, not one inherited or the field signature
    that dataclass writes when there is none."""
    undocumented = []
    for name in eulerfan.__all__:
        obj = getattr(eulerfan, name)
        if inspect.isfunction(obj):
            doc = obj.__doc__
        elif inspect.isclass(obj):
            doc = vars(obj).get("__doc__")
            if doc and doc.startswith(f"{name}("):
                doc = None
        else:
            continue
        if not (doc or "").strip():
            undocumented.append(name)
    assert undocumented == []
