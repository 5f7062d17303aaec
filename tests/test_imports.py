"""Every name a module of src/tvnet imports is used in that module, apart
from the bindings listed here. Entries that are no longer unused fail too,
so the lists stay exact."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tvnet"

# bench/spans.py replaces these callables in the namespace where their
# callers look them up, so a traced benchmark run raises AttributeError
# when one of the bindings is missing
BENCH_WRAPPED = {
    "basis.py": {"solve_elastic_net", "weight_profile"},
    "keller.py": {"solve_elastic_net", "weight_profile"},
    "supervised.py": {"_coding_problem", "solve_elastic_net",
                      "weight_profile"},
    "evaluate.py": {"fit_logistic"},
}

# the package's public names, re-exported by tvnet/__init__.py
PUBLIC = {
    "BasisSet", "FitConfig", "FitResult", "LineSearchConfig",
    "StructureCode", "fit", "infer_codes", "init_bases_pca", "objective",
    "ElasticNetConfig", "QuadraticProblem", "solve_elastic_net",
    "KernelSpec", "weight_profile", "local_moments",
    "EdgeSet", "NetworkEstimate", "estimate_structure_at", "fit_sequence",
    "precision_to_partial_corr", "regression_to_partial_corr",
    "symmetrize_edges",
    "LinearClassifier", "SupervisedConfig", "fit_supervised",
    "logistic_loss", "supervised_code_gradient", "supervised_dict_gradient",
    "GroundTruth", "generate_sequence", "make_ground_truth", "make_labels",
    "random_sparse_covariance", "smooth_simplex_trajectories", "standardize",
    "SimilarityReport", "accumulate_evidence", "best_match_score",
    "classification_error", "matrix_correlation", "pca_projection_features",
}

ALLOWED = dict(BENCH_WRAPPED, **{"__init__.py": PUBLIC})


def unused_imports(path):
    """Names bound by the module's import statements that no expression in
    the module reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_used(path):
    assert unused_imports(path) == ALLOWED.get(path.name, set())
