"""
Task-driven codes and evidence accumulation
===========================================

Fits bases twice on the same labeled sequence: purely unsupervised (gamma=1)
and with a logistic task signal mixed in (gamma=0.75). Both code sets feed a
logistic classifier; per-time outputs are then summed over a window to give a
single accumulated decision.
"""

import numpy as np

from tvnet import (FitConfig, KernelSpec, SupervisedConfig,
                   accumulate_evidence, classification_error, fit_supervised,
                   generate_sequence, make_ground_truth, standardize)
from tvnet.basis import random_hollow_bases
from tvnet.logistic import fit_logistic

truth = make_ground_truth(n=8, T=900, smoothness=40.0, seed=3)
X = standardize(generate_sequence(truth))
y = truth.labels
train = 600

base = FitConfig(k=5, lambda_beta=0.1, alpha=0.5, lambda_A=0.005,
                 kernel=KernelSpec(bandwidth=20.0), batch_size=120,
                 max_outer_iters=12, seed=3)
init = random_hollow_bases(8, 5, seed=30)

for gamma in (1.0, 0.75):
    config = SupervisedConfig(gamma=gamma, base=base, nu=0.01)
    result, _ = fit_supervised(X[:train], y[:train], config, init)
    from tvnet import infer_codes
    train_codes = np.stack([c.code for c in result.codes])
    test_codes = np.stack([c.code for c in
                           infer_codes(result.bases, X[train:], base.kernel,
                                       base.lambda_beta, base.alpha,
                                       range(900 - train))])
    w, b = fit_logistic(train_codes, y[:train], ridge=0.01, intercept=True)
    err = classification_error(w, test_codes, y[train:], intercept=b)
    print(f"gamma={gamma:.2f}  test error {err:.3f}")

    # accumulated decision over the first 100 held-out time points
    scores = test_codes[:100] @ w + b
    decision, trace = accumulate_evidence(scores, range(100))
    majority = 1.0 if (y[train:train + 100] == 1.0).mean() >= 0.5 else -1.0
    print(f"           accumulated decision {decision:+d} "
          f"(window majority label {majority:+.0f}, "
          f"final evidence {trace[-1]:+.1f})")
