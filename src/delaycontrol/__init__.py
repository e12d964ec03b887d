"""Numerical toolkit for stochastic recursive optimal control with mixed
delay: forward simulation, backward (recursive-cost) solution, adjoint and
Hamiltonian machinery, a finite-difference value-function solver, and
executable checkers for the duality and verification theorems.
"""

__version__ = "0.1.0"

from .core import (ConfigurationError, ControlDomain, HistoryPath, HypothesisViolation,
                   Instance, LinearDriver, TimeGrid, eval_G, eval_H, eval_X1_quadrature)
from .coeffs import CoefficientSet, FAMILIES, make_coefficients
from .smdde import (ComparisonReport, MomentReport, NoiseSource, TrajectoryBundle,
                    estimate_moment_bound, simulate_coupled_pair, simulate_smdde)
from .bsde import (BackwardSolution, RegressionBasis, cost_functional_J,
                   linear_driver_oracle, solve_bsde_lsmc)
from .adjoint import (AdjointBundle, MPReport, check_sufficient_mp,
                      compute_p3_pathwise, solve_adjoint_p, solve_adjoints,
                      solve_gamma, solve_transformed_direct)
from .variational import (PerturbationRun, ScalingReport, duality_processes,
                          scaling_reports, simulate_variation)
from .hjb import (GridValueFunction, HjbGrid, Jet, check_x2_independence,
                  extract_jet, feedback_control, jet_membership, solve_hjb,
                  viscosity_residual)
from .connect import (DualityReport, GirsanovReduction, VerificationReport,
                      check_duality_inclusion, control_tournament, girsanov_reduce,
                      start_state, verify_optimality)

__all__ = [name for name in dir() if not name.startswith("_")]
