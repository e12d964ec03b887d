"""Numerical toolkit for stochastic recursive optimal control with mixed
delay: forward simulation, backward (recursive-cost) solution, adjoint and
Hamiltonian machinery, a finite-difference value-function solver, and
executable checkers for the duality and verification theorems.

The public names below load their module on first access (PEP 562), so
``import delaycontrol`` and ``from delaycontrol import cli`` import only
what they use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module: the public names it exports (each module is exported too)
_EXPORTS = {
    "core": ("ConfigurationError", "ControlDomain", "HistoryPath", "HypothesisViolation",
             "Instance", "LinearDriver", "TimeGrid", "eval_G", "eval_H"),
    "coeffs": ("CoefficientSet", "FAMILIES", "make_coefficients"),
    "smdde": ("ComparisonReport", "MomentReport", "NoiseSource", "TrajectoryBundle",
              "estimate_moment_bound", "simulate_coupled_pair", "simulate_smdde"),
    "bsde": ("BackwardSolution", "RegressionBasis", "cost_functional_J",
             "linear_driver_oracle", "solve_bsde_lsmc"),
    "adjoint": ("AdjointBundle", "MPReport", "check_sufficient_mp", "compute_p3_pathwise",
                "solve_adjoint_p", "solve_adjoints", "solve_gamma"),
    "variational": ("ScalingReport", "duality_processes", "scaling_reports",
                    "simulate_variation"),
    "hjb": ("GridValueFunction", "HjbGrid", "Jet", "check_x2_independence", "feedback_control",
            "jet_membership", "solve_hjb", "viscosity_residual"),
    "connect": ("DualityReport", "GirsanovReduction", "VerificationReport",
                "check_duality_inclusion", "girsanov_reduce", "start_state",
                "verify_optimality"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module,) + names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
