"""Span tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps public callables of the tvnet modules from outside, in the
namespace where each caller looks them up, so nothing under ``src/``
changes. Every wrapped call becomes a span: name, start, end, parent span
and root span (the pipeline stage call that caused it). Spans stay in memory
as packed rows and are written out once, at the end of the run. A span's
self time is its duration minus the part covered by its child spans.

Counts come from the arguments and results at the same boundaries (sweeps
from ``ElasticNetResult``, bytes from file sizes), so they repeat exactly
between runs of one seed. Quantities the program does not report itself are
marked "computed" in ``PER_LAYER``.
"""

import contextlib
import functools
import os
import time
from array import array

import numpy as np


SPAN_FIELDS = ("idx", "parent", "root", "name", "start", "end")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = []          # per name id
        self.self_time = []
        self.counts = {}
        # one row of SPAN_FIELDS per finished span (ids are exact in doubles)
        self.spans = array("d")
        self._stack = []         # [span idx, name id, start, child seconds]
        self._next = 0
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self._name_ids[name]

    def _enter(self, nid):
        self._stack.append([self._next, nid, time.perf_counter(), 0.0])
        self._next += 1

    def _exit(self):
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        duration = end - start
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_idx, root_idx = parent[0], stack[0][0]
        else:
            parent_idx, root_idx = -1, idx
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        self.spans.extend((idx, parent_idx, root_idx, nid, start, end))

    @contextlib.contextmanager
    def span(self, name):
        self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr, name, on_call=None, on_result=None):
        """Replace ``owner.attr`` by a traced wrapper. ``on_call(args)``
        may return replacement positional arguments; ``on_result(args,
        result)`` records counts after the span has closed."""
        fn = getattr(owner, attr)
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(args)
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def stat(self, name, field):
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_time}[field][nid]

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = np.frombuffer(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            fields=np.array(SPAN_FIELDS), spans=rows)


class NullTracer:
    """Stand-in for untraced runs: stage spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# the tvnet layers

def install(tracer):
    """Wrap each layer's public callables where their callers look them up."""
    from tvnet import basis, cli, evaluate, keller, storage, supervised
    t = tracer

    def solve_counts(from_keller):
        def on_result(args, res):
            t.count("elastic_net.sweeps", res.n_sweeps)
            t.count("elastic_net.coord_updates", res.n_sweeps * args[0].k)
            if not res.converged:
                t.count("elastic_net.nonconverged")
                if from_keller:
                    t.count("keller.rows_nonconverged")
        return on_result

    for mod in (basis, keller, supervised):
        t.wrap(mod, "solve_elastic_net", "elastic_net",
               on_result=solve_counts(mod is keller))
        t.wrap(mod, "weight_profile", "kernels.weight_profile")

    def window_terms(args, _):
        bases, codes, X, config = args[:4]
        times = np.array([c.time for c in codes], dtype=float)
        radius = config.kernel.truncation * config.kernel.bandwidth
        lo = np.maximum(0, np.ceil(times - radius))
        hi = np.minimum(len(X), np.floor(times + radius) + 1)
        t.count("basis.objective.window_terms", int(np.sum(hi - lo)))

    def codes_nonconverged(args, codes):
        t.count("basis.codes_nonconverged",
                sum(1 for c in codes if not c.converged))

    def count_trials(args):
        evaluate_step = args[1]

        def trial(step):
            t.count("basis.line_search.trials")
            return evaluate_step(step)
        return (args[0], trial) + tuple(args[2:])

    t.wrap(basis, "objective", "basis.objective", on_result=window_terms)
    for mod in (basis, supervised):
        t.wrap(mod, "_coding_problem", "basis.coding_problem")
    for mod in (basis, cli):
        t.wrap(mod, "infer_codes", "basis.infer_codes",
               on_result=codes_nonconverged)
    t.wrap(basis, "unsupervised_basis_gradient", "basis.gradient")
    t.wrap(basis, "line_search", "basis.line_search", on_call=count_trials)
    t.wrap(cli, "fit", "basis.fit")

    hook = supervised._SupervisedHook
    t.wrap(hook, "resolve_and_loss", "supervised.resolve")
    t.wrap(hook, "basis_gradient", "supervised.gradient")
    t.wrap(hook, "refit", "supervised.refit")
    t.wrap(cli, "fit_supervised", "supervised.fit")
    for mod in (supervised, evaluate):
        t.wrap(mod, "fit_logistic", "logistic")

    for mod in (cli, keller):
        t.wrap(mod, "fit_sequence", "keller.fit_sequence")
    t.wrap(keller, "estimate_structure_at", "keller.point")

    t.wrap(cli, "best_match_score", "evaluate.best_match")
    t.wrap(cli, "pca_projection_features", "evaluate.pca_features")
    for attr in ("make_ground_truth", "generate_sequence"):
        t.wrap(cli, attr, "synth.generate")

    def file_bytes(key, files=None):
        def on_result(args, _):
            t.count(key, os.path.getsize(args[0]))
            if files:
                t.count(files)
        return on_result

    # formatting and parsing count as storage time: the outer helpers are
    # spans of the same name, and bytes are counted once, at the file
    t.wrap(storage, "atomic_write_text", "storage.write",
           on_result=file_bytes("storage.write.bytes_written",
                                "storage.write.files_written"))
    for attr in ("write_json", "write_csv_matrix", "write_codes_csv"):
        t.wrap(storage, attr, "storage.write")
    for attr in ("read_json", "read_csv_matrix"):
        t.wrap(storage, attr, "storage.read",
               on_result=file_bytes("storage.read.bytes_read"))
    t.wrap(storage, "read_codes_csv", "storage.read")
    t.wrap(storage, "hash_file", "storage.hash",
           on_result=file_bytes("storage.hash.bytes_hashed"))
    t.wrap(storage, "hash_obj", "storage.hash")


# name and how it is derived; units and directions are in BENCHMARK.json.
# "computed" marks quantities the program does not report itself
PER_LAYER = [
    ("elastic_net.calls", "solve_elastic_net calls"),
    ("elastic_net.self_s", "self time"),
    ("elastic_net.us_per_call", "self time / calls"),
    ("elastic_net.sweeps", "sum of n_sweeps"),
    ("elastic_net.coord_updates", "computed: sum of n_sweeps * k"),
    ("elastic_net.nonconverged", "results with converged=False"),
    ("kernels.weight_profile.calls", "calls"),
    ("kernels.weight_profile.self_s", "self time"),
    ("basis.objective.calls", "calls"),
    ("basis.objective.self_s", "self time"),
    ("basis.objective.window_terms",
     "computed: sum of truncated window lengths over the codes"),
    ("basis.coding_problem.calls", "calls"),
    ("basis.coding_problem.self_s", "self time"),
    ("basis.infer_codes.self_s", "self time"),
    ("basis.codes_nonconverged",
     "StructureCode.converged=False in infer_codes results"),
    ("basis.gradient.self_s", "self time"),
    ("basis.line_search.self_s", "self time"),
    ("basis.line_search.trials", "candidate evaluations"),
    ("basis.outer_iters", "line_search calls"),
    ("supervised.resolve.calls", "calls"),
    ("supervised.resolve.self_s", "self time"),
    ("supervised.gradient.self_s", "self time"),
    ("supervised.refit.calls", "calls"),
    ("supervised.refit.self_s", "self time"),
    ("logistic.calls", "fit_logistic calls"),
    ("logistic.self_s", "self time"),
    ("keller.points", "estimate_structure_at calls"),
    ("keller.self_s", "self time of fit_sequence and points"),
    ("keller.rows_nonconverged", "keller row solves with converged=False"),
    ("evaluate.best_match.self_s", "self time"),
    ("evaluate.pca_features.self_s", "self time"),
    ("storage.write.self_s", "self time incl. formatting"),
    ("storage.write.bytes_written", "sizes of files written"),
    ("storage.write.files_written", "atomic writes"),
    ("storage.read.self_s", "self time incl. parsing"),
    ("storage.read.bytes_read", "sizes of files read"),
    ("storage.hash.self_s", "self time"),
    ("storage.hash.bytes_hashed", "sizes of files hashed"),
    ("cli.generate.self_s", "generate stage self time"),
    ("cli.pca.self_s", "pca stage self time"),
    ("cli.aggregate.self_s", "aggregate stage self time"),
    ("cli.stages_ran", "stage calls that returned True"),
    ("cli.stages_cached", "stage calls that returned False (up-to-date)"),
    ("cli.stages_failed", "stage calls that raised"),
    ("synth.generate.self_s",
     "make_ground_truth + generate_sequence self time"),
    ("trace.seed_s",
     "seed_s measured with tracing on; minus untraced seed_s = overhead"),
]


def per_layer_metrics(tracer, stage_counts, traced_seed_s):
    """Values for every PER_LAYER name, from spans, counts and the
    workload's own stage accounting."""
    stat, counts = tracer.stat, tracer.counts
    solves = stat("elastic_net", "calls")
    values = {
        "elastic_net.calls": solves,
        "elastic_net.self_s": stat("elastic_net", "self_s"),
        "elastic_net.us_per_call": (1e6 * stat("elastic_net", "self_s")
                                    / solves if solves else 0.0),
        "keller.points": stat("keller.point", "calls"),
        "keller.self_s": (stat("keller.fit_sequence", "self_s")
                          + stat("keller.point", "self_s")),
        "basis.outer_iters": stat("basis.line_search", "calls"),
        "cli.stages_ran": stage_counts["ran"],
        "cli.stages_cached": stage_counts["cached"],
        "cli.stages_failed": stage_counts["failed"],
        "trace.seed_s": traced_seed_s,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = stat(span, field)
        else:
            values[name] = counts.get(name, 0)
    return values

