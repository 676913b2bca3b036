"""Exact half-line exclusion-process transition probabilities and hard-wall
Bose-gas propagators, as signed-permutation sums of contour/line integrals,
validated against independent Markov-chain and Monte Carlo oracles."""

__version__ = "0.1.0"

from .asep_exact import (AsepEvalReport, evaluate_extended,
                         master_equation_residual, prob_fullline,
                         prob_halfline, prob_n1_closed, total_mass,
                         tuned_radii)
from .bose_exact import (BoseEvalReport, DampedTime, bc1_residual,
                         fermion_limit_cinf, free_limit_c0, images_kernel,
                         propagator_fullline, propagator_halfline,
                         wall_residual)
from .contour_quad import (CircleContour, LineGrid, QuadOptions, RadiiScheme,
                           adaptive_eval, adaptive_trace, circle_nodes,
                           line_nodes)
from .errors import ConvergenceError, SingularityError, SizeLimitError
from .oracles import (GeneratorMatrix, LatticeWindow, McConfig,
                      build_generator, ctmc_distribution, ctmc_prob,
                      mc_estimate)
from .scattering import (AsepParams, BoseParams, amplitude_asep,
                         amplitude_bose, eps_asep, k_signed, r_factor,
                         s_asep, s_bose, s_product, xi_signed)
from .signed_perm import (Inversion, SignedPermutation, ab_pair,
                          apply_adjacent_transposition, enumerate_bn,
                          enumerate_sn, identity, inversions, neg_count,
                          negate_first)

__all__ = [name for name in dir() if not name.startswith("_")]
