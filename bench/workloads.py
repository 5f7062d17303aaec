"""The benchmark's workloads.

Each drives the tvnet pipeline only through its public stage functions
(``cli.generate_one``, ``fit_one``, ``eval_one``, ``aggregate``): one caller
in one process, a closed loop with ``jobs=1``. Every stage call is one
operation; a call that raises is counted as failed and the run goes on, as
the next stage of that seed would see it.

Inputs are the generated data of fixed data seeds. The workload seed picks a
permutation of the n variables that is applied to every generated sequence
(and to the generating bases used for scoring), so each workload seed hands
the program different bytes for the same estimation problem. Fitting time
and test error depend strongly on the data seed itself (see README.md), far
more than any regression bound could absorb.
"""

import hashlib
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np

from tvnet import cli

STAGES = ("generate",) + cli.METHODS + ("eval",)
# stages whose outputs do not depend on gamma
GAMMA_FREE = ("generate", "keller", "pca", "basis")
REGAMMA = 0.5
# set-up samples per sampling point; every run samples at its start, middle
# and end, so that one busy moment of the machine does not set setup_s
SETUP_REPEATS = 5
# cached reruns, a fixed number so that every run does the same work:
# desk-seed 50 after the cold pass and 50 after the gamma edit; small-sweep 3
# per seed right after its gamma-edit pass, then 60 rounds over all seeds,
# so that the samples span the phase rather than one short burst
DESK_RERUNS = 50
SMALL_RERUNS = 3
SMALL_RERUN_ROUNDS = 60
REPEAT_SEEDS = 4

# the acceptance manifest (criterion 6) at desk scale
DESK = {
    "n": 10, "T": 5000, "train_len": 3000, "test_len": 2000,
    "k_true": 4, "k_learned": 6,
    "kernel": {"family": "gaussian", "bandwidth": 25.0,
               "truncation": 3.0, "normalize": True},
    "lambda_beta": 0.1, "alpha": 0.5, "lambda_A": 0.01,
    "lambda_keller": 0.1, "gamma": 0.75, "nu": 0.01,
    "batch_size": 300, "max_outer_iters": 15, "smoothness": 60.0,
}
# the small criterion-9 shape; batch_size >= train_len, so full batch
SMALL = dict(DESK, n=5, T=150, train_len=90, test_len=60, smoothness=15.0,
             kernel=dict(DESK["kernel"], bandwidth=8.0), max_outer_iters=4)
SMALL_SEEDS = range(16)

OUTPUTS = {
    "generate": ("sequence.csv", "labels.csv", "trajectories.csv",
                 "truth.json", "meta.json"),
    "keller": ("estimates.json",),
    "pca": ("bases.json",),
    "basis": ("bases.json", "codes.csv", "trace.csv"),
    "basis-supervised": ("bases.json", "codes.csv", "trace.csv",
                         "classifier.json"),
    "eval": ("report.json", "rows.csv"),
    "aggregate": ("aggregate.csv", "report.json"),
}
QUALITY = ("basis_similarity", "basis_error", "supervised_error",
           "keller_error", "pca_error", "basis_objective")


def stage_dir(m, seed, stage):
    if stage == "generate":
        return cli.data_dir(m, seed)
    if stage == "eval":
        return cli.eval_dir(m, seed)
    if stage == "aggregate":
        return cli.report_dir(m)
    return cli.fit_dir(m, seed, stage)


def relabel(m, seed, workload_seed):
    """Reorder the n variables of one generated data seed by the workload
    seed's permutation: sequence columns and generating-basis rows and
    columns. Labels and trajectories do not depend on the order."""
    perm = np.random.default_rng([workload_seed, seed]).permutation(m.n)
    d = cli.data_dir(m, seed)
    path = os.path.join(d, "sequence.csv")
    X = np.loadtxt(path, delimiter=",", ndmin=2)[:, perm]
    with open(path, "w") as fh:
        fh.writelines(",".join(format(v, ".17g") for v in row) + "\n"
                      for row in X)
    path = os.path.join(d, "truth.json")
    with open(path) as fh:
        truth = json.load(fh)
    for key in ("cov_bases", "precision_bases"):
        mats = np.asarray(truth[key]["bases"]).reshape(-1, m.n, m.n)
        truth[key]["bases"] = [M[np.ix_(perm, perm)].ravel().tolist()
                               for M in mats]
    with open(path, "w") as fh:
        fh.write(json.dumps(truth, indent=1, sort_keys=True) + "\n")


def digests(m, seed, stages):
    """sha256 of every existing output file of the given stages."""
    out = {}
    for stage in stages:
        for name in OUTPUTS[stage]:
            path = os.path.join(stage_dir(m, seed, stage), name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[stage, name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def quality(m, seed):
    with open(os.path.join(cli.eval_dir(m, seed), "report.json")) as fh:
        res = {r["method"]: r for r in json.load(fh)["results"]}
    trace = np.loadtxt(os.path.join(cli.fit_dir(m, seed, "basis"),
                                    "trace.csv"), ndmin=1)
    return {"basis_similarity": res["basis"]["similarity"],
            "basis_error": res["basis"]["error"],
            "supervised_error": res["basis-supervised"]["error"],
            "keller_error": res["keller"]["error"],
            "pca_error": res["pca"]["error"],
            "basis_objective": float(trace[-1])}


def reimport_seconds():
    """Time one import of tvnet.cli from scratch (numpy stays loaded). The
    fresh modules are dropped again: the run keeps the ones it started
    with, tracing wrappers included."""
    def ours():
        return [n for n in sys.modules
                if n == "tvnet" or n.startswith("tvnet.")]
    saved = {n: sys.modules.pop(n) for n in ours()}
    start = time.perf_counter()
    importlib.import_module("tvnet.cli")
    elapsed = time.perf_counter() - start
    for n in ours():
        del sys.modules[n]
    sys.modules.update(saved)
    return elapsed


def tail_percentile(samples):
    """(p, value) for the highest whole percentile with at least ten
    samples above it (nearest rank); None with ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, -(-p * n // 100))
    return p, xs[rank - 1]


class Run:
    """One benchmark run: stage calls with their outcomes and timings, the
    metrics derived from them, and the output checks."""

    def __init__(self, work, workload_seed, tracer):
        self.work = work
        self.workload_seed = workload_seed
        self.tracer = tracer
        self.attempted = 0
        self.stage_counts = {"ran": 0, "cached": 0, "failed": 0}
        self.failures = []
        self.checks = []
        self.metrics = {}
        self.notes = []
        self.setup = {"import": [], "generate": []}

    def manifest(self, base, name, seeds, **changes):
        d = dict(base, seeds=list(seeds),
                 output_dir=os.path.join(self.work, name), **changes)
        return cli.ExperimentManifest.from_dict(d)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def stage(self, m, seed, stage):
        """One stage call: (ran, seconds), ran None when the call raised."""
        if stage == "generate":
            call = lambda: cli.generate_one(m, seed)
        elif stage == "eval":
            call = lambda: cli.eval_one(m, seed)
        elif stage == "aggregate":
            call = lambda: cli.aggregate(m)
        else:
            call = lambda: cli.fit_one(m, seed, stage)
        start = time.perf_counter()
        try:
            with self.tracer.span("cli." + stage):
                ran = call()
        except Exception as exc:
            # a failed stage is an outcome to count, not a benchmark error
            ran = None
            why = type(exc).__name__
            if not isinstance(exc, OSError):
                why += f": {exc}"
            self.failures.append((seed, stage, why))
        seconds = time.perf_counter() - start
        self.attempted += 1
        self.stage_counts[{True: "ran", False: "cached",
                           None: "failed"}[ran]] += 1
        if stage == "generate" and ran:
            relabel(m, seed, self.workload_seed)
        return ran, seconds

    def seed_pass(self, m, seed):
        """The six stages of one data seed, in pipeline order."""
        return {stage: self.stage(m, seed, stage) for stage in STAGES}

    def no_failures(self, what):
        """Record a check that no stage call so far has failed."""
        ok = not self.failures
        self.check(f"{what} fails no stage", ok,
                   "; ".join(f"seed {s} {st}: {why}"
                             for s, st, why in self.failures)
                   or f"{self.attempted} calls")
        return ok

    def timing(self, name, samples, what):
        value = statistics.median(samples)
        self.metrics[name] = value
        line = f"{name}: median {value:.6g} s of {len(samples)} {what}"
        tail = tail_percentile(samples)
        if tail:
            line += f", p{tail[0]} {tail[1]:.6g} s"
        self.notes.append(line)

    def sample_setup(self, base, seed):
        """Set-up samples: fresh imports of tvnet.cli and generate_one calls
        for one data seed into new directories."""
        for _ in range(SETUP_REPEATS):
            self.setup["import"].append(reimport_seconds())
            i = len(self.setup["generate"])
            m = self.manifest(base, f"setup{i}", [seed])
            start = time.perf_counter()
            cli.generate_one(m, seed)
            self.setup["generate"].append(time.perf_counter() - start)

    def finish_setup(self):
        imp = statistics.median(self.setup["import"])
        gen = statistics.median(self.setup["generate"])
        self.metrics["setup_s"] = imp + gen
        self.notes.append(
            f"setup_s: median import {imp:.6g} s + median generate "
            f"{gen:.6g} s, {len(self.setup['generate'])} samples each")

    def rerun_check(self, passes, unchanged, files):
        ran = sum(1 for p in passes for ran, _ in p.values() if ran)
        self.check("cached reruns run no stage", ran == 0,
                   f"{len(passes)} reruns, {ran} stages ran")
        self.check("cached reruns leave report bytes unchanged", unchanged,
                   f"{files} files compared")


def seconds_of(p):
    return sum(sec for _, sec in p.values())


def all_ran(p):
    return all(ran is not None for ran, _ in p.values())


def desk_seed(run):
    """One desk-scale seed: cold through every stage, repeated cached
    reruns, then the same output directory with only gamma changed."""
    seed = 0
    run.sample_setup(DESK, seed)
    m = run.manifest(DESK, "desk", [seed])

    cold = run.seed_pass(m, seed)
    run.stage(m, None, "aggregate")
    run.metrics["seed_s"] = seconds_of(cold)
    for metric, stage in (("keller_s", "keller"), ("basis_s", "basis"),
                          ("supervised_s", "basis-supervised"),
                          ("eval_s", "eval")):
        run.metrics[metric] = cold[stage][1]
    if not run.no_failures("desk-seed cold pass"):
        # no report to read quality from or to compare reruns against
        run.finish_setup()
        return
    run.metrics.update(quality(m, seed))

    before = digests(m, seed, STAGES)
    passes = []

    def reruns(m):
        reports = desk_reports(m, seed)
        for _ in range(DESK_RERUNS):
            passes.append(run.seed_pass(m, seed))
            run.stage(m, None, "aggregate")
        return reports == desk_reports(m, seed), len(reports)

    unchanged, files = reruns(m)
    run.sample_setup(DESK, seed)

    m2 = run.manifest(DESK, "desk", [seed], gamma=REGAMMA)
    regamma = run.seed_pass(m2, seed)
    run.stage(m2, None, "aggregate")
    run.metrics["regamma_s"] = seconds_of(regamma)
    if not run.no_failures("desk-seed gamma-edit pass"):
        run.finish_setup()
        return
    same = digests(m2, seed, GAMMA_FREE) == {
        k: v for k, v in before.items() if k[0] in GAMMA_FREE}
    run.check("gamma-free stages reproduce their bytes after a gamma edit",
              same, "generate, keller, pca, basis outputs")
    q2 = quality(m2, seed)
    run.check("quality repeats exactly for the gamma-free methods",
              all(q2[k] == run.metrics[k] for k in QUALITY
                  if k != "supervised_error"), str(q2))

    unchanged2, files2 = reruns(m2)
    run.timing("rerun_s", [seconds_of(p) for p in passes], "reruns")
    run.rerun_check(passes, unchanged and unchanged2, files + files2)
    run.sample_setup(DESK, seed)
    run.finish_setup()


def desk_reports(m, seed):
    return {**digests(m, seed, ("eval",)), **digests(m, None, ("aggregate",))}


def small_sweep(run):
    """Many small criterion-9 seeds: cold, gamma changed, cached rerun."""
    seeds = list(SMALL_SEEDS)
    run.sample_setup(SMALL, seeds[0])
    m = run.manifest(SMALL, "sweep", seeds)

    cold = {s: run.seed_pass(m, s) for s in seeds}
    good = [s for s in seeds if all_ran(cold[s])]
    if len(good) == len(seeds):
        # cli's experiment aggregates only when every seed succeeded
        run.stage(m, None, "aggregate")
    failed_calls = len(run.failures)
    run.notes.append(
        f"cold pass: {failed_calls} of {6 * len(seeds)} stage calls failed; "
        f"seeds {sorted({s for s, _, _ in run.failures})}; "
        + "; ".join(sorted({f"{st} {err}" for _, st, err in run.failures})))
    run.check("some seed runs all six stages", good, f"{len(seeds)} seeds")
    if not good:
        run.finish_setup()
        return
    run.timing("seed_s", [seconds_of(cold[s]) for s in good],
               "seeds, six stages each")
    for metric, stage in (("keller_s", "keller"), ("basis_s", "basis"),
                          ("supervised_s", "basis-supervised"),
                          ("eval_s", "eval")):
        run.metrics[metric] = statistics.median(cold[s][stage][1]
                                                for s in good)
    per_seed = [quality(m, s) for s in good]
    for key in QUALITY:
        run.metrics[key] = statistics.fmean(q[key] for q in per_seed)

    fitted = [s for s in seeds if cold[s]["basis"][0] is not None]
    if len(fitted) < len(seeds):
        run.notes.append("objective trace check skips seeds whose basis "
                         f"stage failed: {sorted(set(seeds) - set(fitted))}")
    increasing = []
    for s in fitted:
        trace = np.loadtxt(os.path.join(cli.fit_dir(m, s, "basis"),
                                        "trace.csv"), ndmin=1)
        if np.any(np.diff(trace) > 0.0):
            increasing.append(s)
    run.check("full-batch objective traces are non-increasing",
              not increasing, f"{len(fitted)} basis fits, rising: {increasing}")

    run.sample_setup(SMALL, seeds[0])
    before = {s: digests(m, s, STAGES) for s in seeds}
    rep = run.manifest(SMALL, "repeat", seeds[:REPEAT_SEEDS])
    for s in rep.seeds:
        run.seed_pass(rep, s)
    run.check("a fresh repeat of a seed reproduces every output byte",
              all(digests(rep, s, STAGES) == before[s] for s in rep.seeds),
              f"seeds {list(rep.seeds)}, all six stages")

    m2 = run.manifest(SMALL, "sweep", seeds, gamma=REGAMMA)
    regamma, reports, passes, samples = {}, {}, [], []

    def rerun(s):
        p = run.seed_pass(m2, s)
        passes.append(p)
        if s in good:
            samples.append(seconds_of(p))

    for s in seeds:
        regamma[s] = run.seed_pass(m2, s)
        reports[s] = digests(m2, s, ("eval",))
        for _ in range(SMALL_RERUNS):
            rerun(s)
    for _ in range(SMALL_RERUN_ROUNDS):
        for s in seeds:
            rerun(s)
    # seeds that succeed both before and after the gamma edit
    good2 = [s for s in good if all_ran(regamma[s])]
    run.check("the gamma edit fails no seed that succeeded before it",
              good2 == good, f"{len(good)} seeds")
    run.timing("regamma_s", [seconds_of(regamma[s]) for s in good],
               "seeds after a gamma edit")
    run.timing("rerun_s", samples, "seed reruns")
    run.rerun_check(passes, reports == {s: digests(m2, s, ("eval",))
                                        for s in seeds}, len(seeds))
    same = all(digests(m2, s, GAMMA_FREE) == {
        k: v for k, v in before[s].items() if k[0] in GAMMA_FREE}
        for s in seeds)
    run.check("gamma-free stages reproduce their bytes after a gamma edit",
              same, f"{len(seeds)} seeds")
    run.check("quality repeats exactly for the gamma-free methods",
              all(quality(m2, s)[k] == q[k] for s, q in zip(good, per_seed)
                  if s in good2 for k in QUALITY if k != "supervised_error"),
              f"{len(good2)} seeds")
    run.sample_setup(SMALL, seeds[0])
    run.finish_setup()


WORKLOADS = {"desk-seed": desk_seed, "small-sweep": small_sweep}
