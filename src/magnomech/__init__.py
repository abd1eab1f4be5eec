"""Probe spectroscopy of a two-cavity magnomechanical system."""

from .analysis import (CrossingReport, Window, WindowReport,
                       delay_sign_crossings, fano_asymmetry, find_windows)
from .errors import (ConfigError, ConvergenceError, OracleError,
                     ResponseError, SimulatorError)
from .oracle import (FluctuationSystem, OracleSolution, build_fluctuation_matrix,
                     cross_validate, solve_fluctuations)
from .params import (SystemParams, apply_override, parse_config,
                     rabi_frequency, serialize_config)
from .presets import PRESETS, baseline_params, get_preset, microscopic_params
from .response import Spectrum, evaluate_spectrum
from .steady_state import SteadyState, magnon_number_sweep, solve_steady_state

__all__ = [
    "ConfigError", "ConvergenceError", "CrossingReport", "FluctuationSystem",
    "OracleError", "OracleSolution", "PRESETS", "ResponseError",
    "SimulatorError", "Spectrum", "SteadyState", "SystemParams", "Window",
    "WindowReport", "apply_override", "baseline_params",
    "build_fluctuation_matrix", "cross_validate", "delay_sign_crossings",
    "evaluate_spectrum", "fano_asymmetry", "find_windows", "get_preset",
    "magnon_number_sweep", "microscopic_params", "parse_config",
    "rabi_frequency", "serialize_config", "solve_fluctuations",
    "solve_steady_state",
]

__version__ = "0.1.0"
