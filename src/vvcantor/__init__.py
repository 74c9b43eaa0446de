"""Random V-type Cantor measures and Krein-Feller spectral asymptotics.

Pipeline: a catalog of weighted affine contraction systems feeds a random
tree construction; tree generations induce piecewise-uniform approximating
measures; the energy/mass form pair is discretized into symmetric
tridiagonal pencils, and the condensation of the tree's environment table
(``condense``) counts their eigenvalues without assembling them. The
counting functions' growth exponent is compared against exact and Monte
Carlo roots. Every export is read by a subcommand, the benchmark or the
README example, or is listed with its reason in ``tests/test_imports.py``.
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
from .vtree import (CutSet, Environment, VTree, build_tree, cut_set,
                    neck_subtree, sample_environment)
from .measure import CellDecomposition, cells_to_csv, decompose, gaps_to_csv
from .pencil import (DIRICHLET, NEUMANN, Pencil, assemble, inertia_counts,
                     pencil_to_csv, refine_uniform)
from .condense import condensed_counts
from .spectral import (BracketingResult, ClosedForm, CutsetStatsRow, EmpiricalFit,
                       ExponentReport, FEval,
                       MonteCarloNeckEvaluator, bracketing_check, center_counts,
                       cutset_stats_check, empirical_exponent,
                       f_exact_homogeneous, gamma_exact_homogeneous, solve_gamma,
                       solve_gamma_recursive)

__all__ = [name for name in dir() if not name.startswith("_")]
