"""Run the benchmark over many seeds and record a BENCH_<label>.json file.

Usage (from the root of a checkout):

    python3 bench/baseline.py --label 2446c61 [--seeds 10]

For each workload it makes one untraced run per seed (seeds 1..N) and
reports, per end-to-end metric, the median, the quartiles and the spread
(quartile distance over the median), against the metric's bound in
BENCHMARK.json.  It then makes two traced runs on seed 1 and checks that
every count metric repeats exactly.  The record goes to
bench/results/BENCH_<label>.json; later commits add a file rather than
overwrite one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
COUNT_UNITS = ("count", "words")
TRACED_RUNS = 2


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d): %s"
                           % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    info = next(json.loads(l[len("bench-info "):]) for l in lines
                if l.startswith("bench-info "))
    return {"seed": seed, "trace": trace, "run_s": time.perf_counter() - start,
            "result": json.loads(lines[-1]), "info": info}


def summarize(runs, specs):
    out = {}
    for spec in specs:
        values = [r["result"]["metrics"][spec["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1,
                             "q3": q3, "spread": (q3 - q1) / med,
                             "bound": spec["bound"], "values": values}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    record = {"label": args.label, "benchmark": bench, "workloads": {}}
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(one_run(name, seed, bench["run_seconds"], 0))
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in
                 runs[-1]["result"]["metrics"].items()})), flush=True)
        traced = [one_run(name, 1, bench["run_seconds"], 1)
                  for _ in range(TRACED_RUNS)]
        counts = [{k: v["value"] for k, v in r["result"]["metrics"].items()
                   if v["unit"] in COUNT_UNITS} for r in traced]
        summary = summarize(runs, bench["end_to_end"])
        record["workloads"][name] = {
            "end_to_end": summary,
            "per_layer": [r["result"]["metrics"] for r in traced],
            "counts_repeat": all(c == counts[0] for c in counts),
            "failed": sum(r["result"]["failed"] for r in runs + traced),
            "attempted": sum(r["result"]["attempted"] for r in runs + traced),
            "runs": runs + traced,
        }
        for metric, s in summary.items():
            print("%s %-12s median %.4g %s  spread %.3f (bound %.2f)"
                  % (name, metric, s["median"], s["unit"], s["spread"], s["bound"]))
        print("%s counts repeat exactly over %d traced runs: %s"
              % (name, len(traced), record["workloads"][name]["counts_repeat"]))
    record["machine"] = record["workloads"][names[0]]["runs"][0]["info"]["machine"]
    record["git_sha"] = record["workloads"][names[0]]["runs"][0]["info"]["git_sha"]
    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
