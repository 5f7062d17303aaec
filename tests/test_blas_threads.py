"""Pipeline outputs must not depend on the BLAS thread count.

A two-seed experiment runs in fresh interpreters under
OPENBLAS_NUM_THREADS=1 and =2; every output byte must agree, except the
cache stamps and the fit logs (which hold wall times).
"""

import json
import os
import subprocess
import sys

import tvnet

MANIFEST = {
    "n": 10, "T": 400, "train_len": 250, "test_len": 150,
    "k_true": 4, "k_learned": 4, "seeds": [0, 1],
    "kernel": {"family": "gaussian", "bandwidth": 15.0,
               "truncation": 3.0, "normalize": True},
    "lambda_beta": 0.1, "alpha": 0.5, "lambda_A": 0.01,
    "lambda_keller": 0.1, "gamma": 0.75, "nu": 0.01,
    "batch_size": 100, "max_outer_iters": 6, "smoothness": 15.0,
}
SKIPPED = ("stamp.json", "fitlog.json")


def outputs(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in SKIPPED:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def run_experiment(tmp_path, threads):
    root = tmp_path / f"threads{threads}"
    manifest = tmp_path / f"manifest{threads}.json"
    manifest.write_text(json.dumps(dict(MANIFEST, output_dir=str(root))))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvnet.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "tvnet.cli", "experiment",
                    "--manifest", str(manifest)],
                   env=env, check=True, capture_output=True)
    return outputs(root)


def test_outputs_independent_of_blas_threads(tmp_path):
    one = run_experiment(tmp_path, 1)
    two = run_experiment(tmp_path, 2)
    assert one.keys() == two.keys()
    assert "report/aggregate.csv" in one
    assert [name for name in one if one[name] != two[name]] == []
