"""Time-varying sparse network structure estimation via learned basis
structures and per-time sparse combination codes."""

from .basis import (BasisSet, FitConfig, FitResult, StructureCode, fit,
                    infer_codes, init_bases_pca, objective)
from .elastic_net import ElasticNetConfig, QuadraticProblem, solve_elastic_net
from .kernels import KernelSpec, weight_profile
from .moments import local_moments
from .keller import (EdgeSet, NetworkEstimate, estimate_structure_at,
                     fit_sequence, precision_to_partial_corr,
                     regression_to_partial_corr, symmetrize_edges)
from .supervised import (LinearClassifier, SupervisedConfig, fit_supervised,
                         logistic_loss, supervised_code_gradient,
                         supervised_dict_gradient)
from .synth import (GroundTruth, generate_sequence, make_ground_truth,
                    make_labels, random_sparse_covariance,
                    smooth_simplex_trajectories, standardize)
from .evaluate import (SimilarityReport, accumulate_evidence, best_match_score,
                       classification_error, matrix_correlation,
                       pca_projection_features)

__version__ = "0.1.0"
