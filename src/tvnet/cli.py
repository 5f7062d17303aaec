"""Command-line pipeline: synthetic data generation, per-method fits,
evaluation, and the aggregated multi-seed experiment.

Commands are deterministic given (manifest, seed) and every stage is cached
by a content hash of its inputs, so re-running a finished experiment is a
no-op and interrupted runs resume where they stopped. `STAGES` holds the
one record of each stage; `run_stage` runs any of them.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import blas, storage
from .basis import FitConfig, fit, infer_codes, init_bases_pca, init_times
from .errors import InvalidInputError, TvnetError
from .evaluate import (best_match_score, classification_error,
                       pca_projection_features)
from .keller import fit_sequence
from .kernels import KernelSpec
from .logistic import fit_logistic
from .moments import local_moments
from .supervised import SupervisedConfig, fit_supervised
from .synth import generate_sequence, make_ground_truth

SCHEMA_VERSION = 1
REPORT_HEADER = "n,method,seed,error,similarity"
AGGREGATE_HEADER = "n,method,error_mean,error_sd,similarity_mean,similarity_sd"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _integer(value):
    """An integral JSON number; 5.0 is read as 5, a bool is refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _finite(value):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _seed_list(value):
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("expected a non-empty list of integers")
    return tuple(_integer(s) for s in value)


# how a manifest field of each annotated type is read from its JSON value
_READERS = {int: _integer, float: _finite, str: str, tuple: _seed_list,
            KernelSpec: KernelSpec.from_dict}


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
        if not isinstance(d, dict):
            raise InvalidInputError("invalid manifest: not a JSON object")
        problems = [f"missing field {f.name!r}" for f in fields(cls)
                    if f.name not in d]
        if problems:
            raise InvalidInputError("invalid manifest: " + "; ".join(problems))
        v = {}
        for f in fields(cls):
            try:
                v[f.name] = _READERS[f.type](d[f.name])
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                problems.append(f"bad {f.name}: {exc}")
        if problems:
            raise InvalidInputError("invalid manifest: " + "; ".join(problems))

        def check(cond, msg):
            if not cond:
                problems.append(msg)

        check(v["n"] >= 2, "n must be >= 2")
        check(v["T"] >= 1, "T must be >= 1")
        check(v["train_len"] >= 1 and v["test_len"] >= 1,
              "train_len and test_len must be >= 1")
        check(v["train_len"] + v["test_len"] <= v["T"],
              "train_len + test_len must not exceed T")
        check(v["k_true"] >= 2, "k_true must be >= 2")
        check(v["k_learned"] >= 1, "k_learned must be >= 1")
        for key in ("lambda_beta", "lambda_A", "lambda_keller", "nu"):
            check(v[key] >= 0.0, f"{key} must be nonnegative")
        check(0.0 <= v["alpha"] <= 1.0, "alpha must lie in [0, 1]")
        check(0.0 <= v["gamma"] <= 1.0, "gamma must lie in [0, 1]")
        check(v["batch_size"] >= 1, "batch_size must be >= 1")
        check(v["max_outer_iters"] >= 1, "max_outer_iters must be >= 1")
        check(v["smoothness"] > 0.0, "smoothness must be positive")
        if problems:
            raise InvalidInputError("invalid manifest: " + "; ".join(problems))
        return cls(**v)

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["seeds"] = list(self.seeds)
        d["kernel"] = self.kernel.to_dict()
        return d


def load_manifest(path, out_override=None):
    try:
        raw = storage.read_json(path)
    except ValueError as exc:
        raise InvalidInputError(f"invalid manifest: not valid JSON ({exc})")
    if out_override is not None:
        raw = dict(raw)
        raw["output_dir"] = out_override
    return ExperimentManifest.from_dict(raw)


# ---------------------------------------------------------------------------
# layout

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


# ---------------------------------------------------------------------------
# what each stage computes

def _generate(manifest, seed, d):
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


def _load_standardized(manifest, seed):
    """Sequence with the training-segment mean removed from every row."""
    path = os.path.join(data_dir(manifest, seed), "sequence.csv")
    X = storage.read_csv_matrix(path)
    return X - X[:manifest.train_len].mean(axis=0)


def _load_labels(manifest, seed):
    path = os.path.join(data_dir(manifest, seed), "labels.csv")
    return storage.read_csv_matrix(path).ravel()


def _load_keller_estimates(manifest, seed):
    """The (T, n, n) keller coefficients, one matrix per time."""
    path = os.path.join(fit_dir(manifest, seed, "keller"), "estimates.npy")
    A = storage.read_array(path)
    shape = (manifest.T, manifest.n, manifest.n)
    if A.shape != shape:
        raise InvalidInputError(f"{path} has shape {A.shape}, not {shape}")
    return A


def _load_bases(manifest, seed, method):
    path = os.path.join(fit_dir(manifest, seed, method), "bases.json")
    return storage.basis_set_from_dict(storage.read_json(path))


def _fit_keller(manifest, seed, d):
    X = _load_standardized(manifest, seed)
    seq = fit_sequence(X, manifest.kernel, manifest.lambda_keller,
                       range(manifest.T))
    storage.write_array(os.path.join(d, "estimates.npy"), seq.coefficients)
    return {"iterations": len(seq.times),
            "rows_nonconverged": int(np.sum(~seq.row_converged)),
            "sweeps": int(np.sum(seq.row_sweeps))}


def _init_from_keller(manifest, seed):
    """The pca stage: principal structures of the training-time keller
    estimates, which the basis stages start from."""
    A = _load_keller_estimates(manifest, seed)[:manifest.train_len]
    return init_bases_pca(A[init_times(len(A))], manifest.k_learned,
                          seed=seed)


def _fit_pca(manifest, seed, d):
    bases = _init_from_keller(manifest, seed)
    storage.write_json(os.path.join(d, "bases.json"),
                       storage.basis_set_to_dict(bases))
    return {"iterations": 1, "converged": True}


def _fit_bases(manifest, seed, d, supervised):
    """The basis fit, or with `supervised` its task-specific variant, from
    the pca stage's principal structures."""
    X = _load_standardized(manifest, seed)
    init = _load_bases(manifest, seed, "pca")
    config = FitConfig(k=manifest.k_learned, lambda_beta=manifest.lambda_beta,
                       alpha=manifest.alpha, lambda_A=manifest.lambda_A,
                       kernel=manifest.kernel, batch_size=manifest.batch_size,
                       max_outer_iters=manifest.max_outer_iters, seed=seed)
    Xtrain = X[:manifest.train_len]
    if supervised:
        labels = _load_labels(manifest, seed)[:manifest.train_len]
        sup = SupervisedConfig(gamma=manifest.gamma, base=config,
                               nu=manifest.nu)
        result, classifier = fit_supervised(Xtrain, labels, sup, init)
        storage.write_json(os.path.join(d, "classifier.json"),
                           classifier.to_dict())
    else:
        result = fit(Xtrain, config, init=init)
    storage.write_json(os.path.join(d, "bases.json"),
                       storage.basis_set_to_dict(result.bases))
    storage.write_codes_csv(os.path.join(d, "codes.csv"), result.codes)
    storage.write_csv_matrix(os.path.join(d, "trace.csv"),
                             np.asarray(result.objective_trace)[:, None])
    return {"iterations": result.iterations, "tol_checks": result.tol_checks,
            "converged": bool(result.converged)}


def _method_features(manifest, seed, method, X, A, bases, S_test):
    """(train_features, test_features) of one method, from the (T, n, n)
    keller coefficients `A`, the method's `bases` (None for keller) and the
    local moments `S_test` of the test segment."""
    tr, te = manifest.train_len, manifest.test_len
    if method == "keller":
        F = A[:, ~np.eye(manifest.n, dtype=bool)]
    elif method == "pca":
        F = pca_projection_features(A, bases)
    else:
        # adaptive codes: training codes come from the fit artifact, test
        # codes are inferred on the held-out segment under the fitted bases
        _, train_codes = storage.read_codes_csv(
            os.path.join(fit_dir(manifest, seed, method), "codes.csv"))
        test_codes = infer_codes(bases, X[tr:tr + te], manifest.kernel,
                                 manifest.lambda_beta, manifest.alpha,
                                 range(te), moments=S_test)
        return train_codes[:tr], np.stack([c.code for c in test_codes])
    return F[:tr], F[tr:tr + te]


def _evaluate(manifest, seed, d, oracle=False):
    """Each input artifact is read once."""
    X = _load_standardized(manifest, seed)
    labels = _load_labels(manifest, seed)
    tr, te = manifest.train_len, manifest.test_len
    y_train, y_test = labels[:tr], labels[tr:tr + te]
    A = _load_keller_estimates(manifest, seed)
    truth = storage.read_json(os.path.join(data_dir(manifest, seed),
                                           "truth.json"))
    precisions = storage.matrices_from_dict(truth["precision_bases"])
    # both basis methods infer test codes from the same moments
    S_test = local_moments(X[tr:tr + te], manifest.kernel)

    results = []
    for method in METHODS:
        bases = None if method == "keller" else _load_bases(manifest, seed,
                                                            method)
        F_train, F_test = _method_features(manifest, seed, method, X, A,
                                           bases, S_test)
        w, b = fit_logistic(F_train, y_train, ridge=manifest.nu,
                            intercept=True)
        error = classification_error(w, F_test, y_test, intercept=b)
        similarity = (float("nan") if bases is None
                      else best_match_score(bases, precisions).mean_score)
        results.append({"method": method, "error": error,
                        "similarity": similarity})
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


def _aggregate(manifest, seed, d):
    rows = []
    for s in manifest.seeds:
        with open(os.path.join(eval_dir(manifest, s), "rows.csv")) as fh:
            rows += [line.split(",") for line in fh.read().splitlines()[1:]]

    lines = [AGGREGATE_HEADER]
    agg = []
    for method in METHODS + ("oracle",):
        sub = [r for r in rows if r[1] == method]
        if not sub:
            continue
        n = int(sub[0][0])
        errors = np.array([float(r[3]) for r in sub])
        sims = np.array([float(r[4]) for r in sub])
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
    storage.atomic_write_text(os.path.join(d, "aggregate.csv"),
                              "\n".join(lines) + "\n")
    storage.write_json(os.path.join(d, "report.json"),
                       {"schema_version": SCHEMA_VERSION,
                        "seeds": list(manifest.seeds), "methods": agg})


# ---------------------------------------------------------------------------
# the stage table and its runner

class Stage(NamedTuple):
    """One pipeline stage. Its cache key covers the manifest `fields` it
    reads, its `version` (raised whenever its numerics change, so that
    artifacts of the older algorithm rerun), the seed and its `inputs`."""

    fields: tuple
    version: int
    inputs: tuple      # (stage, file) pairs, in key order
    outputs: tuple
    directory: object  # (manifest, seed, stage name) -> path
    run: object        # (manifest, seed, directory, **options) -> fitlog


_BASIS_FIELDS = ("train_len", "k_learned", "kernel", "lambda_beta", "alpha",
                 "lambda_A", "batch_size", "max_outer_iters")
_BASES_OUT = ("bases.json", "codes.csv", "trace.csv")

# pipeline order; the fits read each other's artifacts as a chain, and the
# basis stages start from the principal structures of the pca stage
STAGES = {
    "generate": Stage(
        ("n", "T", "k_true", "smoothness"), 1, (),
        ("sequence.csv", "labels.csv", "trajectories.csv", "truth.json"),
        lambda m, seed, _: data_dir(m, seed), _generate),
    "keller": Stage(
        ("T", "train_len", "kernel", "lambda_keller"), 4,
        (("generate", "sequence.csv"),), ("estimates.npy", "fitlog.json"),
        fit_dir, _fit_keller),
    "pca": Stage(
        ("train_len", "k_learned"), 2, (("keller", "estimates.npy"),),
        ("bases.json", "fitlog.json"), fit_dir, _fit_pca),
    "basis": Stage(
        _BASIS_FIELDS, 3,
        (("generate", "sequence.csv"), ("pca", "bases.json")),
        _BASES_OUT + ("fitlog.json",), fit_dir,
        lambda m, seed, d: _fit_bases(m, seed, d, supervised=False)),
    "basis-supervised": Stage(
        _BASIS_FIELDS + ("gamma", "nu"), 4,
        (("generate", "sequence.csv"), ("pca", "bases.json"),
         ("generate", "labels.csv")),
        _BASES_OUT + ("classifier.json", "fitlog.json"), fit_dir,
        lambda m, seed, d: _fit_bases(m, seed, d, supervised=True)),
    "eval": Stage(
        ("n", "train_len", "test_len", "kernel", "lambda_beta", "alpha",
         "nu"), 4,
        (("generate", "sequence.csv"), ("generate", "labels.csv"),
         ("generate", "truth.json"), ("keller", "estimates.npy"),
         ("pca", "bases.json"), ("basis", "bases.json"),
         ("basis-supervised", "bases.json"), ("basis", "codes.csv"),
         ("basis-supervised", "codes.csv")),
        ("report.json", "rows.csv"),
        lambda m, seed, _: eval_dir(m, seed), _evaluate),
    # once over every seed's evaluation
    "aggregate": Stage(
        ("seeds",), 1, (("eval", "rows.csv"),),
        ("aggregate.csv", "report.json"),
        lambda m, seed, _: report_dir(m), _aggregate),
}
# the fits: the stages that keep a fitlog
METHODS = tuple(name for name, stage in STAGES.items()
                if "fitlog.json" in stage.outputs)


def run_stage(manifest, name, seed=None, extra_inputs=(), **options):
    """Run one stage for one seed (every seed when None) unless its stamp
    matches its key and its outputs exist; True when it ran. The
    `extra_inputs` pairs are keyed after the stage's own, and `options` go
    to its run function."""
    stage = STAGES[name]
    d = stage.directory(manifest, seed, name)
    os.makedirs(d, exist_ok=True)
    inputs = []
    for s in (manifest.seeds if seed is None else (seed,)):
        for upstream, filename in stage.inputs + tuple(extra_inputs):
            path = os.path.join(
                STAGES[upstream].directory(manifest, s, upstream), filename)
            if not os.path.exists(path):
                hint = (f"fit method={upstream}" if upstream in METHODS
                        else f"run {upstream}")
                raise FileNotFoundError(f"missing input {path}; {hint} first")
            inputs.append(path)
    values = manifest.to_dict()
    key = storage.hash_obj([name, stage.version, seed,
                            {f: values[f] for f in stage.fields},
                            [storage.hash_file(p) for p in inputs]])
    stamp_path = os.path.join(d, "stamp.json")
    try:
        stamp = storage.read_json(stamp_path)
    except (FileNotFoundError, ValueError):
        stamp = {}
    if stamp.get("key") == key and all(
            os.path.exists(os.path.join(d, f)) for f in stage.outputs):
        return False

    started = time.perf_counter()
    with blas.single_thread():
        log = stage.run(manifest, seed, d, **options)
    if log is not None:
        log.update(method=name, seed=seed,
                   wall_time_s=time.perf_counter() - started)
        storage.write_json(os.path.join(d, "fitlog.json"), log)
    storage.write_json(stamp_path, {"key": key,
                                    "outputs": list(stage.outputs)})
    return True


def generate_one(manifest, seed):
    return run_stage(manifest, "generate", seed)


def fit_one(manifest, seed, method):
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}; "
                                f"choose one of {', '.join(METHODS)}")
    return run_stage(manifest, method, seed)


def eval_one(manifest, seed, oracle=False):
    # the oracle's extra input gives it a key of its own
    extra = (("generate", "trajectories.csv"),) if oracle else ()
    return run_stage(manifest, "eval", seed, extra, oracle=oracle)


def aggregate(manifest):
    return run_stage(manifest, "aggregate")


# ---------------------------------------------------------------------------
# commands

def cmd_generate(manifest, echo=print):
    ran = 0
    for seed in manifest.seeds:
        if generate_one(manifest, seed):
            ran += 1
            echo(f"generated {seed_tag(seed)}")
        else:
            echo(f"{seed_tag(seed)} data up-to-date")
    return ran


def cmd_fit(manifest, seed, method, echo=print):
    if seed not in manifest.seeds:
        raise InvalidInputError(f"seed {seed} is not listed in the manifest")
    ran = fit_one(manifest, seed, method)
    echo(f"fit {method} {seed_tag(seed)}"
         + ("" if ran else " up-to-date"))
    return ran


def cmd_eval(manifest, seed, oracle=False, echo=print):
    if seed not in manifest.seeds:
        raise InvalidInputError(f"seed {seed} is not listed in the manifest")
    ran = eval_one(manifest, seed, oracle=oracle)
    echo(f"eval {seed_tag(seed)}" + ("" if ran else " up-to-date"))
    return ran


def cmd_experiment(manifest, echo=print):
    """Every stage for every seed, then the aggregate. A stage that runs
    prints its wall time; one that is up to date prints nothing."""
    def run(name, seed=None):
        started = time.perf_counter()
        if not run_stage(manifest, name, seed):
            return 0
        where = "" if seed is None else f" {seed_tag(seed)}"
        echo(f"{name}{where} ran in {time.perf_counter() - started:.2f} s")
        return 1

    ran = 0
    failures = []
    for seed in manifest.seeds:
        try:
            for name in STAGES:
                if name != "aggregate":
                    ran += run(name, seed)
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

    ran += run("aggregate")
    if ran == 0:
        echo("up-to-date")
    else:
        echo(f"experiment complete ({ran} stages ran)")
    return ran


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
            cmd_experiment(manifest)
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
