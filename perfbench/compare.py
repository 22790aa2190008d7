#!/usr/bin/env python3
"""Compare saved benchmark runs of two trees, metric by metric.

    python3 perfbench/compare.py --base base/*.txt --new new/*.txt

Each file is the stdout of one `perfbench/run.py` run (its `# env` line and
final JSON line are read). Runs are grouped by workload; for every metric the
table shows each side's median and quartiles, the change of the medians, and
a verdict against the metric's bound in BENCHMARK.json: "worse" when the new
median is worse than the base median by more than the bound, "unresolved"
when the base runs' own spread (interquartile range over median) exceeds the
bound, "ok" otherwise. Results from different build types or pool widths are
refused: their numbers do not compare.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import manifest  # noqa: E402


def read_run(path):
    env, result = None, None
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    if lines:
        result = json.loads(lines[-1])
    if env is None or result is None:
        raise ValueError(f"{path}: no '# env' line or result line")
    return env, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()

    doc = manifest.load(os.path.dirname(HERE))
    specs = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    runs = {"base": [read_run(p) for p in args.base],
            "new": [read_run(p) for p in args.new]}
    for key in ("build_type", "pool_width", "trace"):
        seen = {str(env.get(key)) for side in runs.values() for env, _ in side}
        if len(seen) > 1:
            print(f"refusing to compare runs with different {key}: "
                  f"{sorted(seen)}", file=sys.stderr)
            return 2

    workloads = sorted({env["workload"] for side in runs.values()
                        for env, _ in side})
    worse = 0
    for wl in workloads:
        print(f"== {wl}")
        print(f"  {'metric':44s} {'base median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
        values = {side: {} for side in runs}
        for side, side_runs in runs.items():
            for env, result in side_runs:
                if env["workload"] != wl:
                    continue
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        for name, spec in specs.items():
            b, n = values["base"].get(name), values["new"].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            verdict = ""
            if "bound" in spec:
                spread = (bq[2] - bq[0]) / bq[1] if bq[1] else float("inf")
                loss = change if spec["better"] == "lower" else -change
                if loss > spec["bound"]:
                    verdict = "worse"
                    worse += 1
                elif spread > spec["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(f"  {name:44s} {bq[1]:12.5g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{nq[1]:12.5g} [{nq[0]:9.4g}, {nq[2]:9.4g}] "
                  f"{change:+8.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
