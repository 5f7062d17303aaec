"""tvnet benchmark.

Run from the repository root:

    python3 bench/run.py --workload desk-seed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures and prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` repeats the workload with every tvnet layer wrapped in spans
and prints the per-layer metrics instead. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. ``--record FILE``
also appends the result, with the environment, to a JSON-lines file.
"""

import argparse
import json
import os
import platform
import resource
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": threads or "unset",
            "commit": git_commit()}


def git_commit():
    """HEAD of the repository around the benchmark, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "tvnet")):
        print(f"error: no tvnet sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))

    env = environment()
    print("env", json.dumps(env, sort_keys=True))
    # outputs stay under WORK: on a disk mounted with discard, deleting
    # them costs more than the run's own I/O
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    run = workloads.Run(work, args.seed, tracer)
    if args.trace:
        spans.install(tracer)
    try:
        # every workload does a fixed amount of work; --seconds is
        # accepted for the benchmark interface and does not change it
        workloads.WORKLOADS[args.workload](run)
    finally:
        if args.trace:
            tracer.restore()

    if args.trace:
        values = spans.per_layer_metrics(tracer, run.stage_counts,
                                         run.metrics.get("seed_s"))
        wanted = spec["per_layer"]
        tracer.write(os.path.join(
            WORK, f"spans-{args.workload}-s{args.seed}.npz"))
    else:
        values = dict(run.metrics)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        wanted = spec["end_to_end"]
    # a metric that a failed stage left unmeasured is null; such a run
    # also fails a check
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}

    for note in run.notes:
        print("note", note)
    for name, ok, detail in run.checks:
        print("check", "ok  " if ok else "FAIL", name, f"({detail})")
    how = dict(spans.PER_LAYER) if args.trace else {}
    for name, m in metrics.items():
        value = m["value"]
        shown = (value if value is None or isinstance(value, int)
                 else f"{value:.6g}")
        print(f"metric {name} = {shown} {m['unit']}"
              + (f"  ({how[name]})" if name in how else ""))
    correct = all(ok for _, ok, _ in run.checks)
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.stage_counts["failed"], "metrics": metrics}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "notes": run.notes,
                                 **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
