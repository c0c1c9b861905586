"""Rare-event probability estimation with truncated Gaussian mixtures,
monotone set learning, and dominating-point importance sampling."""

from .gauss import (DegenerateTruncationError, GaussComponent, Rect,
                    log_densities, rect_prob, sample, sample_truncated,
                    trunc_moments)
from .tgmm import (AffineStandardizer, DyingComponentError, FitReport,
                   TruncatedGMM, bic, em_step, fit, gmm_log_density,
                   gmm_sample, model_from_json, model_to_json,
                   responsibilities, standardize)
from .frontier import (DirectionMask, FrontierStore, NonMonotoneOutcomeError,
                       PieceBlowupError, bound_indicators, frontier_to_json,
                       insert, outer_pieces)
from .dompoints import (DominatingPoint, SolverError, inner_dominating,
                        outer_dominating, solve_piece)
from .accel import (EstimateReport, ProcedureState, build_is, crude_equiv_n,
                    estimate, likelihood_ratio, run_procedure, sample_is,
                    thin_frontier)
from .scenario import (AVConfig, analytic_scenario, lane_change_coords,
                       lane_change_indicator, lane_change_mask, simulate)

__version__ = "0.1.0"
