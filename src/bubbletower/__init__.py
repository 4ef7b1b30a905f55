"""Bubble-tower constructions for -Delta u = u^p - V(|y|) u^q.

The power p lies on the other side of p* from q: p = p* + eps for q < p*
(concentrating towers) and p = p* - eps for q > p* (flat towers).

Closed-form profiles and constants, the reduced finite-dimensional model,
a discretized Lyapunov-Schmidt reduction producing genuine multi-spike
solutions, and an independent shooting verifier.
"""

__version__ = "0.1.0"

from .errors import (AssemblyError, BubbleTowerError, ConditioningError,
                     ConvergenceError, HypothesisViolationError,
                     LapackUnavailableError, QuadratureConvergenceError,
                     RegimeMismatchError, WindowViolationError)
from .profiles import (ModelParams, PotentialSpec, Regime, bubble_w,
                       critical_exponents, ef_forward, ef_inverse, ef_r_of_x,
                       ef_x_of_r, model_constants, profile_U, profile_d2U,
                       profile_dU)
from .quadrature import (EnergyConstants, energy_constants, integrate_line,
                         profile_log_moment_closed_form,
                         profile_moment_closed_form)
from .reduced_model import (EnergyBreakdown, TowerConfig, critical_scales,
                            energy_expansion, predicted_solution,
                            predicted_tower, reduced_functional,
                            reduced_functional_grad,
                            reduced_functional_hess_diag, spike_locations,
                            tower_amplitudes)
from .field import (Grid, GridFunction, SpikeFrame, TowerField, ansatz_residual,
                    default_sigma, energy, full_operator, grid_for_spikes,
                    kernel_directions, linearized_matrix, nonlinear_remainder,
                    star_norm, tower_ansatz)
from .reduction import (ProjectedSolver, RadialSolution, ReductionConfig,
                        ReductionState, assemble_solution, reduced_energy,
                        solve_correction, solve_reduced, sweep_point)
from .verifier import (Classification, CompareMetrics, ShotProfile, compare,
                       find_tower, shoot)
