"""Relaxation of finite-support stochastic programs under weight ambiguity.

The library evaluates bivariate relaxations of scenario programs, solves
them by a grid or gradient decision step on the objective with the
perturbation minimized out (for the support-shift variant, per scenario on a
weight grid and then polished by the exact weight step), and certifies the
results against brute-force oracles and convergence-rate bounds.
"""
from .analysis import (EmpiricalRateReport, RateCertificate, RateRow,
                       ResidualReport, empirical_rate_check,
                       epi_distance_estimate, eta_bound, optimality_residual,
                       rate_constants, theta_schedule, verify_rate_inequality)
from .divergence import FAMILIES, PhiFamily, get_family, phi_divergence, phi_eval
from .extreal import (INF, CompositeBlock, ImproperFunctionError,
                      ScenarioFunction, StochasticProgram, check_simplex,
                      ext_add, ext_mul, weighted_objective)
from .instances import (BUILTIN_NAMES, ConfigError, ExampleBundle, InstanceDef,
                        build_example, build_from_config, instantiate,
                        perturbed_weights)
from .regularizer import (RegularizerContext, RegularizerResult,
                          negative_regularizer, negative_regularizer_gradient,
                          smoothed_constraint, smoothed_constraint_generic)
from .rockafellian import (CertificateReport, CompositePenalty, ExactIndicator,
                           L1Penalty, PerturbationPoint, PhiDivergencePenalty,
                           QuadraticPenalty, SupportPerturbation,
                           check_exactness_certificate, default_u_samples,
                           eval_approx, eval_exact)
from .simplex import (GENERATOR_ID, normal_cone_distance, project_to_simplex,
                      sample_empirical)
from .solver import (GridMethod, InfeasibleAtResolution, OracleResult,
                     ProjectedGradientMethod, SolveConfig, SolveReport,
                     brute_force_oracle, composite_u_step,
                     make_min_value_oracle, simplex_grid, solve_joint, u_step,
                     u_step_grid_oracle, x_step)

__version__ = "0.1.0"
