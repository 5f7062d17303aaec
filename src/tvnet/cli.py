"""Command-line pipeline: synthetic data generation, per-method fits,
evaluation, and the aggregated multi-seed experiment.

Commands are deterministic given (manifest, seed) and every stage is cached
by a content hash of its inputs, so re-running a finished experiment is a
no-op and interrupted runs resume where they stopped.
"""

import argparse
import concurrent.futures
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import storage
from .basis import BasisSet, FitConfig, fit, infer_codes, init_bases_pca
from .errors import InvalidInputError, TvnetError
from .evaluate import (as_projection_basis, best_match_score,
                       classification_error, pca_projection_features,
                       train_logistic_l2)
from .keller import NetworkEstimate, fit_sequence
from .kernels import KernelSpec
from .supervised import SupervisedConfig, fit_supervised
from .synth import generate_sequence, make_ground_truth

METHODS = ("keller", "pca", "basis", "basis-supervised")
SCHEMA_VERSION = 1
REPORT_HEADER = "n,method,seed,error,similarity"
AGGREGATE_HEADER = "n,method,error_mean,error_sd,similarity_mean,similarity_sd"
# at most this many training-time estimates feed the principal-structure
# initialization of the adaptive fits
MAX_INIT_ESTIMATES = 200

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class ExperimentManifest:
    n: int
    T: int
    train_len: int
    test_len: int
    k_true: int
    k_learned: int
    seeds: tuple
    kernel: KernelSpec
    lambda_beta: float
    alpha: float
    lambda_A: float
    lambda_keller: float
    gamma: float
    nu: float
    batch_size: int
    max_outer_iters: int
    smoothness: float
    output_dir: str

    @classmethod
    def from_dict(cls, d):
        problems = []
        required = ["n", "T", "train_len", "test_len", "k_true", "k_learned",
                    "seeds", "kernel", "lambda_beta", "alpha", "lambda_A",
                    "lambda_keller", "gamma", "nu", "batch_size",
                    "max_outer_iters", "smoothness", "output_dir"]
        for key in required:
            if key not in d:
                problems.append(f"missing field {key!r}")
        if problems:
            raise InvalidInputError("invalid manifest: " + "; ".join(problems))

        def check(cond, msg):
            if not cond:
                problems.append(msg)

        check(int(d["n"]) >= 2, "n must be >= 2")
        check(int(d["T"]) >= 1, "T must be >= 1")
        check(int(d["train_len"]) >= 1 and int(d["test_len"]) >= 0,
              "train_len must be >= 1 and test_len >= 0")
        check(int(d["train_len"]) + int(d["test_len"]) <= int(d["T"]),
              "train_len + test_len must not exceed T")
        check(int(d["k_true"]) >= 2, "k_true must be >= 2")
        check(int(d["k_learned"]) >= 1, "k_learned must be >= 1")
        seeds = d["seeds"]
        check(isinstance(seeds, (list, tuple)) and len(seeds) >= 1
              and all(int(s) == s for s in seeds),
              "seeds must be a non-empty list of integers")
        for key in ("lambda_beta", "lambda_A", "lambda_keller", "nu"):
            check(float(d[key]) >= 0.0, f"{key} must be nonnegative")
        check(0.0 <= float(d["alpha"]) <= 1.0, "alpha must lie in [0, 1]")
        check(0.0 <= float(d["gamma"]) <= 1.0, "gamma must lie in [0, 1]")
        check(int(d["batch_size"]) >= 1, "batch_size must be >= 1")
        check(int(d["max_outer_iters"]) >= 1, "max_outer_iters must be >= 1")
        check(float(d["smoothness"]) > 0.0, "smoothness must be positive")
        if problems:
            raise InvalidInputError("invalid manifest: " + "; ".join(problems))
        try:
            kernel = KernelSpec.from_dict(d["kernel"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"invalid manifest: bad kernel spec ({exc})")
        return cls(n=int(d["n"]), T=int(d["T"]), train_len=int(d["train_len"]),
                   test_len=int(d["test_len"]), k_true=int(d["k_true"]),
                   k_learned=int(d["k_learned"]),
                   seeds=tuple(int(s) for s in seeds), kernel=kernel,
                   lambda_beta=float(d["lambda_beta"]), alpha=float(d["alpha"]),
                   lambda_A=float(d["lambda_A"]),
                   lambda_keller=float(d["lambda_keller"]),
                   gamma=float(d["gamma"]), nu=float(d["nu"]),
                   batch_size=int(d["batch_size"]),
                   max_outer_iters=int(d["max_outer_iters"]),
                   smoothness=float(d["smoothness"]),
                   output_dir=str(d["output_dir"]))

    def to_dict(self):
        d = {k: getattr(self, k) for k in
             ("n", "T", "train_len", "test_len", "k_true", "k_learned",
              "lambda_beta", "alpha", "lambda_A", "lambda_keller", "gamma",
              "nu", "batch_size", "max_outer_iters", "smoothness",
              "output_dir")}
        d["seeds"] = list(self.seeds)
        d["kernel"] = self.kernel.to_dict()
        return d


def load_manifest(path, out_override=None):
    try:
        raw = storage.read_json(path)
    except FileNotFoundError:
        raise
    except ValueError as exc:
        raise InvalidInputError(f"invalid manifest: not valid JSON ({exc})")
    if out_override is not None:
        raw = dict(raw)
        raw["output_dir"] = out_override
    return ExperimentManifest.from_dict(raw)


# ---------------------------------------------------------------------------
# layout and caching

def seed_tag(seed):
    return f"seed{seed:04d}"


def data_dir(m, seed):
    return os.path.join(m.output_dir, "data", seed_tag(seed))


def fit_dir(m, seed, method):
    return os.path.join(m.output_dir, "fits", seed_tag(seed), method)


def eval_dir(m, seed):
    return os.path.join(m.output_dir, "eval", seed_tag(seed))


def report_dir(m):
    return os.path.join(m.output_dir, "report")


def _stamp_path(directory):
    return os.path.join(directory, "stamp.json")


def stage_fresh(directory, key, outputs):
    """True when the stage's stamp matches `key` and its outputs exist."""
    try:
        stamp = storage.read_json(_stamp_path(directory))
    except (FileNotFoundError, ValueError):
        return False
    if stamp.get("key") != key:
        return False
    return all(os.path.exists(os.path.join(directory, f)) for f in outputs)


def write_stamp(directory, key, outputs):
    storage.write_json(_stamp_path(directory), {"key": key, "outputs": outputs})


# the manifest fields each stage reads; a stage's cache key covers only
# these, its input files and its algorithm version
STAGE_FIELDS = {
    "generate": ("n", "T", "k_true", "smoothness"),
    "keller": ("T", "train_len", "kernel", "lambda_keller"),
    "pca": ("train_len", "k_learned"),
    "basis": ("train_len", "k_learned", "kernel", "lambda_beta", "alpha",
              "lambda_A", "batch_size", "max_outer_iters"),
    "basis-supervised": ("train_len", "k_learned", "kernel", "lambda_beta",
                         "alpha", "lambda_A", "batch_size", "max_outer_iters",
                         "gamma", "nu"),
    "eval": ("n", "train_len", "test_len", "kernel", "lambda_beta", "alpha",
             "nu"),
    "aggregate": ("seeds",),
}
# bump a stage's version whenever its numerics change, so that artifacts of
# the older algorithm are not taken as up-to-date
ALGO_VERSION = {"generate": 1, "keller": 2, "pca": 1, "basis": 2,
                "basis-supervised": 2, "eval": 2, "aggregate": 1}


def stage_key(stage, manifest, seed=None, input_files=()):
    d = manifest.to_dict()
    fields = {name: d[name] for name in STAGE_FIELDS[stage]}
    return storage.hash_obj([stage, ALGO_VERSION[stage], seed, fields,
                             [storage.hash_file(p) for p in input_files]])


# ---------------------------------------------------------------------------
# generate

def cmd_generate(manifest, echo=print):
    ran = 0
    for seed in manifest.seeds:
        if generate_one(manifest, seed):
            ran += 1
            echo(f"generated {seed_tag(seed)}")
        else:
            echo(f"{seed_tag(seed)} data up-to-date")
    return ran


def generate_one(manifest, seed):
    d = data_dir(manifest, seed)
    os.makedirs(d, exist_ok=True)
    key = stage_key("generate", manifest, seed)
    outputs = ["sequence.csv", "labels.csv", "trajectories.csv",
               "truth.json", "meta.json"]
    if stage_fresh(d, key, outputs):
        return False
    truth = make_ground_truth(manifest.n, manifest.T, manifest.smoothness,
                              seed, k_true=manifest.k_true)
    X = generate_sequence(truth)
    storage.write_csv_matrix(os.path.join(d, "sequence.csv"), X)
    storage.write_csv_matrix(os.path.join(d, "labels.csv"),
                             truth.labels[:, None])
    storage.write_csv_matrix(os.path.join(d, "trajectories.csv"),
                             truth.trajectories)
    storage.write_json(os.path.join(d, "truth.json"), {
        "n": manifest.n, "T": manifest.T, "seed": seed,
        "label_file": "labels.csv",
        "cov_bases": storage.matrices_to_dict(truth.cov_bases),
        "precision_bases": storage.matrices_to_dict(truth.precision_bases),
    })
    storage.write_json(os.path.join(d, "meta.json"),
                       {"n": manifest.n, "T": manifest.T, "seed": seed,
                        "label_file": "labels.csv"})
    write_stamp(d, key, outputs)
    return True


# ---------------------------------------------------------------------------
# fit

def _load_standardized(manifest, seed):
    """Sequence with the training-segment mean removed from every row."""
    path = os.path.join(data_dir(manifest, seed), "sequence.csv")
    X = storage.read_csv_matrix(path)
    return X - X[:manifest.train_len].mean(axis=0)


def _load_labels(manifest, seed):
    path = os.path.join(data_dir(manifest, seed), "labels.csv")
    return storage.read_csv_matrix(path).ravel()


def _load_keller_estimates(manifest, seed):
    path = os.path.join(fit_dir(manifest, seed, "keller"), "estimates.json")
    mats = storage.matrices_from_dict(storage.read_json(path))
    return [NetworkEstimate(coefficients=M, time=t, lam=manifest.lambda_keller)
            for t, M in enumerate(mats)]


def _fit_config(manifest, seed):
    return FitConfig(k=manifest.k_learned, lambda_beta=manifest.lambda_beta,
                     alpha=manifest.alpha, lambda_A=manifest.lambda_A,
                     kernel=manifest.kernel, batch_size=manifest.batch_size,
                     max_outer_iters=manifest.max_outer_iters, seed=seed)


def _init_from_keller(manifest, seed):
    estimates = _load_keller_estimates(manifest, seed)[:manifest.train_len]
    step = max(1, len(estimates) // MAX_INIT_ESTIMATES)
    return init_bases_pca(estimates[::step], manifest.k_learned, seed=seed)


def cmd_fit(manifest, seed, method, echo=print):
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}; "
                                f"choose one of {', '.join(METHODS)}")
    if seed not in manifest.seeds:
        raise InvalidInputError(f"seed {seed} is not listed in the manifest")
    ran = fit_one(manifest, seed, method)
    echo(f"fit {method} {seed_tag(seed)}"
         + ("" if ran else " up-to-date"))
    return ran


def fit_one(manifest, seed, method):
    d = fit_dir(manifest, seed, method)
    os.makedirs(d, exist_ok=True)
    seq = os.path.join(data_dir(manifest, seed), "sequence.csv")
    if not os.path.exists(seq):
        raise FileNotFoundError(f"missing data file {seq}; run generate first")
    inputs = [seq]
    if method in ("pca", "basis", "basis-supervised"):
        est = os.path.join(fit_dir(manifest, seed, "keller"), "estimates.json")
        if not os.path.exists(est):
            raise FileNotFoundError(f"missing fit artifact {est}; "
                                    "fit method=keller first")
        inputs.append(est)
    if method == "basis-supervised":
        inputs.append(os.path.join(data_dir(manifest, seed), "labels.csv"))

    outputs = {"keller": ["estimates.json", "fitlog.json"],
               "pca": ["bases.json", "fitlog.json"],
               "basis": ["bases.json", "codes.csv", "trace.csv",
                         "fitlog.json"],
               "basis-supervised": ["bases.json", "codes.csv", "trace.csv",
                                    "classifier.json", "fitlog.json"]}[method]
    key = stage_key(method, manifest, seed, inputs)
    if stage_fresh(d, key, outputs):
        return False

    started = time.perf_counter()
    X = _load_standardized(manifest, seed)
    if method == "keller":
        ests = fit_sequence(X, manifest.kernel, manifest.lambda_keller,
                            range(manifest.T))
        storage.write_json(os.path.join(d, "estimates.json"),
                           storage.matrices_to_dict(
                               [e.coefficients for e in ests]))
        log = {"method": method, "seed": seed, "iterations": len(ests),
               "converged": all(bool(np.all(e.row_converged)) for e in ests)}
    elif method == "pca":
        bases = _init_from_keller(manifest, seed)
        storage.write_json(os.path.join(d, "bases.json"),
                           storage.basis_set_to_dict(bases))
        log = {"method": method, "seed": seed, "iterations": 1,
               "converged": True}
    else:
        init = _init_from_keller(manifest, seed)
        config = _fit_config(manifest, seed)
        Xtrain = X[:manifest.train_len]
        if method == "basis":
            result = fit(Xtrain, config, init=init)
        else:
            labels = _load_labels(manifest, seed)[:manifest.train_len]
            sup = SupervisedConfig(gamma=manifest.gamma, base=config,
                                   nu=manifest.nu)
            result, classifier = fit_supervised(Xtrain, labels, sup, init)
            storage.write_json(os.path.join(d, "classifier.json"),
                               classifier.to_dict())
        storage.write_json(os.path.join(d, "bases.json"),
                           storage.basis_set_to_dict(result.bases))
        storage.write_codes_csv(os.path.join(d, "codes.csv"), result.codes)
        storage.write_csv_matrix(os.path.join(d, "trace.csv"),
                                 np.asarray(result.objective_trace)[:, None])
        log = {"method": method, "seed": seed,
               "iterations": result.iterations,
               "tol_checks": result.tol_checks,
               "converged": bool(result.converged)}
    log["wall_time_s"] = time.perf_counter() - started
    storage.write_json(os.path.join(d, "fitlog.json"), log)
    write_stamp(d, key, outputs)
    return True


# ---------------------------------------------------------------------------
# eval

def _offdiag_features(estimates, n):
    mask = ~np.eye(n, dtype=bool)
    return np.stack([e.coefficients[mask] for e in estimates])


def _method_features(manifest, seed, method, X):
    """(train_features, test_features) for one method."""
    tr, te = manifest.train_len, manifest.test_len
    if method in ("keller", "pca"):
        estimates = _load_keller_estimates(manifest, seed)
        if method == "keller":
            F = _offdiag_features(estimates, manifest.n)
        else:
            d = fit_dir(manifest, seed, "pca")
            principal = as_projection_basis(storage.basis_set_from_dict(
                storage.read_json(os.path.join(d, "bases.json"))))
            F = np.stack([pca_projection_features(e, principal)
                          for e in estimates])
        return F[:tr], F[tr:tr + te]
    # adaptive codes: training codes come from the fit artifact, test codes
    # are inferred on the held-out segment under the fitted bases
    d = fit_dir(manifest, seed, method)
    bases = storage.basis_set_from_dict(
        storage.read_json(os.path.join(d, "bases.json")))
    _, train_codes = storage.read_codes_csv(os.path.join(d, "codes.csv"))
    test_codes = infer_codes(bases, X[tr:tr + te], manifest.kernel,
                             manifest.lambda_beta, manifest.alpha, range(te))
    return train_codes[:tr], np.stack([c.code for c in test_codes])


def _method_similarity(manifest, seed, method):
    if method == "keller":
        return float("nan")
    d = fit_dir(manifest, seed, method)
    bases = storage.basis_set_from_dict(
        storage.read_json(os.path.join(d, "bases.json")))
    truth = storage.read_json(os.path.join(data_dir(manifest, seed),
                                           "truth.json"))
    precisions = storage.matrices_from_dict(truth["precision_bases"])
    return best_match_score(bases, precisions).mean_score


def cmd_eval(manifest, seed, oracle=False, echo=print):
    if seed not in manifest.seeds:
        raise InvalidInputError(f"seed {seed} is not listed in the manifest")
    ran = eval_one(manifest, seed, oracle=oracle)
    echo(f"eval {seed_tag(seed)}" + ("" if ran else " up-to-date"))
    return ran


def eval_one(manifest, seed, oracle=False):
    d = eval_dir(manifest, seed)
    os.makedirs(d, exist_ok=True)
    inputs = [os.path.join(data_dir(manifest, seed), "sequence.csv"),
              os.path.join(data_dir(manifest, seed), "labels.csv"),
              os.path.join(data_dir(manifest, seed), "truth.json")]
    artifact_map = {"keller": "estimates.json", "pca": "bases.json",
                    "basis": "bases.json", "basis-supervised": "bases.json"}
    for method, name in artifact_map.items():
        path = os.path.join(fit_dir(manifest, seed, method), name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing fit artifact {path}; "
                                    f"fit method={method} first")
        inputs.append(path)
    for method in ("basis", "basis-supervised"):
        inputs.append(os.path.join(fit_dir(manifest, seed, method),
                                   "codes.csv"))
    if oracle:
        inputs.append(os.path.join(data_dir(manifest, seed),
                                   "trajectories.csv"))
    # the oracle's extra input gives it a key of its own
    key = stage_key("eval", manifest, seed, inputs)
    outputs = ["report.json", "rows.csv"]
    if stage_fresh(d, key, outputs):
        return False

    X = _load_standardized(manifest, seed)
    labels = _load_labels(manifest, seed)
    tr, te = manifest.train_len, manifest.test_len
    y_train, y_test = labels[:tr], labels[tr:tr + te]

    results = []
    for method in METHODS:
        F_train, F_test = _method_features(manifest, seed, method, X)
        w, b = train_logistic_l2(F_train, y_train, ridge=manifest.nu)
        error = classification_error(w, F_test, y_test, intercept=b)
        results.append({"method": method, "error": error,
                        "similarity": _method_similarity(manifest, seed,
                                                         method)})
    if oracle:
        traj = storage.read_csv_matrix(
            os.path.join(data_dir(manifest, seed), "trajectories.csv"))
        margin = (traj[tr:tr + te, 0] + traj[tr:tr + te, 1]
                  - traj[tr:tr + te, 2] - traj[tr:tr + te, 3])
        pred = np.where(margin >= 0.0, 1.0, -1.0)
        results.append({"method": "oracle",
                        "error": float(np.mean(pred != y_test)),
                        "similarity": float("nan")})

    storage.write_json(os.path.join(d, "report.json"),
                       {"schema_version": SCHEMA_VERSION, "n": manifest.n,
                        "seed": seed, "results": results})
    lines = [REPORT_HEADER]
    for r in results:
        lines.append(",".join([str(manifest.n), r["method"], str(seed),
                               storage.fmt_float(r["error"]),
                               storage.fmt_float(r["similarity"])]))
    storage.atomic_write_text(os.path.join(d, "rows.csv"),
                              "\n".join(lines) + "\n")
    write_stamp(d, key, outputs)
    return True


# ---------------------------------------------------------------------------
# experiment

def _seed_pipeline(manifest_dict, seed):
    """All stages for one seed; module-level so worker processes can run it.
    Returns the number of stages that actually executed."""
    manifest = ExperimentManifest.from_dict(manifest_dict)
    ran = int(generate_one(manifest, seed))
    for method in METHODS:
        ran += int(fit_one(manifest, seed, method))
    ran += int(eval_one(manifest, seed))
    return ran


def cmd_experiment(manifest, jobs=1, echo=print):
    failures = []
    ran = 0
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_seed_pipeline, manifest.to_dict(), s): s
                       for s in manifest.seeds}
            for fut in concurrent.futures.as_completed(futures):
                seed = futures[fut]
                try:
                    ran += fut.result()
                except Exception as exc:
                    failures.append((seed, exc))
    else:
        for seed in manifest.seeds:
            try:
                ran += _seed_pipeline(manifest.to_dict(), seed)
            except Exception as exc:
                failures.append((seed, exc))

    if failures:
        rd = report_dir(manifest)
        os.makedirs(rd, exist_ok=True)
        storage.write_json(os.path.join(rd, "failures.json"),
                           [{"seed": s, "error": repr(e)} for s, e in failures])
        for seed, exc in failures:
            echo(f"{seed_tag(seed)} failed: {exc}")
        raise failures[0][1]

    ran += int(aggregate(manifest))
    if ran == 0:
        echo("up-to-date")
    else:
        echo(f"experiment complete ({ran} stages ran)")
    return ran


def aggregate(manifest):
    rd = report_dir(manifest)
    os.makedirs(rd, exist_ok=True)
    inputs = [os.path.join(eval_dir(manifest, s), "rows.csv")
              for s in manifest.seeds]
    key = stage_key("aggregate", manifest, None, inputs)
    outputs = ["aggregate.csv", "report.json"]
    if stage_fresh(rd, key, outputs):
        return False

    rows = []
    for path in inputs:
        with open(path) as fh:
            for line in fh.read().splitlines()[1:]:
                n, method, seed, error, similarity = line.split(",")
                rows.append((int(n), method, int(seed), float(error),
                             float(similarity)))

    lines = [AGGREGATE_HEADER]
    agg = []
    for method in METHODS + ("oracle",):
        sub = [r for r in rows if r[1] == method]
        if not sub:
            continue
        n = sub[0][0]
        errors = np.array([r[3] for r in sub])
        sims = np.array([r[4] for r in sub])
        entry = {"n": n, "method": method, "seeds": len(sub),
                 "error_mean": float(errors.mean()),
                 "error_sd": float(errors.std()),
                 "similarity_mean": float(sims.mean()),
                 "similarity_sd": float(sims.std())}
        agg.append(entry)
        lines.append(",".join([str(n), method,
                               storage.fmt_float(entry["error_mean"]),
                               storage.fmt_float(entry["error_sd"]),
                               storage.fmt_float(entry["similarity_mean"]),
                               storage.fmt_float(entry["similarity_sd"])]))
    storage.atomic_write_text(os.path.join(rd, "aggregate.csv"),
                              "\n".join(lines) + "\n")
    storage.write_json(os.path.join(rd, "report.json"),
                       {"schema_version": SCHEMA_VERSION,
                        "seeds": list(manifest.seeds), "methods": agg})
    write_stamp(rd, key, outputs)
    return True


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvnet",
        description="time-varying network structure estimation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, method=False):
        p.add_argument("--manifest", required=True,
                       help="path to the experiment manifest JSON")
        p.add_argument("--out", default=None,
                       help="override the manifest's output_dir")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for multi-seed stages")
        if seed:
            p.add_argument("--seed", type=int, required=True)
        if method:
            p.add_argument("--method", required=True, choices=METHODS)

    common(sub.add_parser("generate", help="write synthetic data files"))
    common(sub.add_parser("fit", help="fit one method for one seed"),
           seed=True, method=True)
    p_eval = sub.add_parser("eval", help="evaluate all methods for one seed")
    common(p_eval, seed=True)
    p_eval.add_argument("--oracle", action="store_true",
                        help="add a truth-derived oracle row")
    common(sub.add_parser("experiment",
                          help="run every stage for every seed and aggregate"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        manifest = load_manifest(args.manifest, out_override=args.out)
        if args.command == "generate":
            cmd_generate(manifest)
        elif args.command == "fit":
            cmd_fit(manifest, args.seed, args.method)
        elif args.command == "eval":
            cmd_eval(manifest, args.seed, oracle=args.oracle)
        else:
            cmd_experiment(manifest, jobs=args.jobs)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TvnetError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
