"""Summarize benchmark records written with ``run.py --record FILE``.

    python3 bench/summarize.py RECORDS.jsonl [BASELINE.jsonl]

For each workload and metric: the median of the recorded runs, the
quartiles, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json ("!" marks a spread above a third of the bound, "WIDE" one
above the bound). With a baseline file, each median is also compared with
the baseline median: "worse" is the share by which it moved in the metric's
bad direction.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    groups = {}
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            key = (r["workload"], "traced" if r["trace"] else "untraced")
            for name, m in r["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, []).append(
                    m["value"])
    return groups


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs = load(argv[0])
    base = load(argv[1]) if len(argv) > 1 else {}
    for key in sorted(runs):
        n = len(next(iter(runs[key].values())))
        print(f"== {key[0]} ({key[1]}, {n} runs)")
        for name, values in runs[key].items():
            med, q1, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = info[name].get("bound")
            flag = ""
            if bound is not None:
                flag = ("WIDE" if spread > bound
                        else "!" if spread > bound / 3 else "")
            line = (f"{name:32s} median {med:<12.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} spread {spread:.4f}")
            if bound is not None:
                line += f" bound {bound} {flag}"
            if key in base and name in base[key]:
                b = statistics.median(base[key][name])
                sign = 1 if info[name]["better"] == "lower" else -1
                worse = sign * (med - b) / b if b else 0.0
                line += f" worse {worse:+.4f}"
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
