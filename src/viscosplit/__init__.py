"""Viscosity forward-backward splitting for coupled inclusion and
common-fixed-point problems in R^d, with per-iteration inequality audits."""

from .hilbert import (AffineSet, Ball, Box, ConvexSet, DimensionMismatch,
                      HalfSpace, NonFiniteError, WholeSpace, as_vector,
                      hilbert_identity_check, inner, norm, project)
from .monotone import (L1Subdifferential, LinearMonotone, MaxMonotone,
                       NormalCone, SingleOp, ZeroOperator, affine_op,
                       check_forward_nonexpansive,
                       check_inverse_strongly_monotone, check_lipschitz,
                       check_resolvent_firmly_nonexpansive,
                       check_wang_contraction, fixed_point_residual,
                       forward_backward_step, identity_op, resolvent,
                       wang_tau, zero_op)
from .problems import (catalog, default_schedule_for, flip_map, grid_points,
                       load_instance, make_ball_instance, make_box_instance,
                       make_example1, make_example3,
                       make_inclusion_instance, make_oscillation_instance,
                       make_trivial_instance, scaling_map)
from .schedules import (InfeasibleScheduleError, ParamSeq, Schedule,
                        ValidationReport, ViscosityParams, default_schedule,
                        validate)
from .setvalued import (AuditResult, BallImage, FiniteSet, MultiMap,
                        SelectionRule, Singleton, UnsupportedPairing,
                        check_demicontractive, check_quasi_nonexpansive,
                        check_strictly_pseudocontractive, distance_to_set,
                        hausdorff, select_from)
from .solvers import (ALGORITHMS, DIVERGENCE_LIMIT, FejerAudit, IterState,
                      ProblemInstance, RunReport, ScheduleValidationError,
                      Trajectory, UncertifiedPointError, audit_fejer_chain,
                      audit_instance, boundedness_radius, initial_state, run,
                      step_fc, step_forward_backward, step_main, step_sow,
                      vi_residual)

__version__ = "0.1.0"
