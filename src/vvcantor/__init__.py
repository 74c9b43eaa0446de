"""Random V-type Cantor measures and Krein-Feller spectral asymptotics.

Pipeline: a catalog of weighted affine contraction systems feeds a random
tree construction; tree generations induce piecewise-uniform approximating
measures; the energy/mass form pair is discretized into symmetric
tridiagonal pencils; inertia counting delivers eigenvalue counting functions
whose growth exponent is compared against exact and Monte Carlo roots.
"""

__version__ = "0.1.0"

from .catalog import (Catalog, ContractionMap, ScaleExtrema, ValidationReport,
                      WeightedIFS, catalog_from_dict, catalog_to_dict,
                      scale_extrema, validate_catalog)
from .errors import (DepthExhaustedError, EmptyCatalogError,
                     InsufficientDataError, InvalidInputError, NeckTimeoutError,
                     NoisyRootError, SingularMassError, TreeTooLargeError,
                     VVCantorError)
from .rng import Xoshiro256StarStar, stream_seed
from .vtree import (CutSet, Environment, NeckSums, VTree, build_tree, cut_set,
                    neck_subtree, sample_environment, scale_sum_at_neck)
from .measure import (CellDecomposition, cell_mass, cells_from_csv, cells_to_csv,
                      decompose, gaps_to_csv, measure_of_interval)
from .assembly import (DIRICHLET, NEUMANN, Pencil, assemble, pencil_to_csv,
                       refine_uniform)
from .condense import condensed_counts
from .eigensolve import (CountingSample, counting_function, eigenvalue,
                         first_eigenvalue_bounds, inertia_count, inertia_counts,
                         spectral_upper_bound)
from .spectral import (BracketingResult, CutsetStatsRow, EmpiricalFit,
                       ExponentReport, FEval,
                       MonteCarloNeckEvaluator, bracketing_check, center_counts,
                       cutset_stats_check, empirical_exponent,
                       f_exact_homogeneous, gamma_exact_homogeneous, solve_gamma,
                       solve_gamma_recursive)

__all__ = [name for name in dir() if not name.startswith("_")]
