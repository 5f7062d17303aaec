"""
Learning basis structures jointly
=================================

Generates a sequence from four sparse covariance bases with smoothly drifting
mixture weights, learns six basis structures with the block-coordinate fit,
and scores them against the generating precision matrices. The fit starts
from the principal structures of keller self-regression estimates, as the
pipeline's pca stage does.
"""

import numpy as np

from tvnet import (FitConfig, KernelSpec, best_match_score, fit, fit_sequence,
                   generate_sequence, init_bases_pca, make_ground_truth,
                   standardize)
from tvnet.basis import init_times

truth = make_ground_truth(n=8, T=1200, smoothness=50.0, seed=7)
X = standardize(generate_sequence(truth))

config = FitConfig(k=6, lambda_beta=0.1, alpha=0.5, lambda_A=0.01,
                   kernel=KernelSpec(bandwidth=25.0), batch_size=150,
                   max_outer_iters=15, seed=7)
estimates = fit_sequence(X, config.kernel, 0.1, init_times(len(X)))
init = init_bases_pca(estimates, config.k, seed=config.seed)
result = fit(X, config, init=init)

print("objective trace (first / last):",
      f"{result.objective_trace[0]:.2f} -> {result.objective_trace[-1]:.2f}")
print("converged:", result.converged)

report = best_match_score(result.bases, truth.precision_bases)
for record in report.per_true_basis:
    print(f"true structure {record.true_index} best matched by learned basis "
          f"{record.learned_index} (correlation {record.score:+.3f})")
print(f"mean similarity: {report.mean_score:.3f}")

# the code trajectory mirrors the generating mixture weights
codes = np.stack([c.code for c in result.codes])
active = np.abs(codes) > 1e-8
print("mean active codes per time point:", float(active.sum(axis=1).mean()))
