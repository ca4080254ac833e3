"""Subsolution feasibility and non-uniqueness thresholds for the
two-dimensional isentropic interface (Riemann) problem.

The package decides, for piecewise-constant two-state data, whether the
classical self-similar solution coexists with wild solutions seeded by
a piecewise-constant fan subsolution, computes the velocity-gap
threshold above which that happens, and maps regions of the data plane.
"""

from .classifier import WaveFan, WaveKind, classify, solve_middle_state, wave_curve
from .eos import Eos, internal_energy, p_dissipation, pressure, two_shock_T
from .errors import (ConstraintError, DegenerateDensityError, DomainError,
                     EulerFanError, NumericalError, VelocityGapError)
from .functionals import DataFunctionals, RiemannData, data_functionals
from .reporting import (Nonuniq, RegionCell, parse_region_map_csv,
                        parse_witness, read_witness, region_map_csv,
                        region_map_sweep, witness_document, write_witness)
from .subsolution import (FanSubsolution, FeasibilityRecord, VerificationReport,
                          eps2_window, epsilon1_sign_change, limit_quantities,
                          reconstruct, verify_subsolution, witness_at)
from .threshold import (ThresholdResult, ThresholdRow, feasibility_scan,
                        feasible_for_gap, subsolution_witness, threshold_V,
                        threshold_table)

__version__ = "0.9.0"

__all__ = [
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
]
