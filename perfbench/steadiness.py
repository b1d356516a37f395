"""Steadiness mode: two sets of runs of the same code, compared.

    python3 perfbench/steadiness.py [--workloads W ...]

Each of the two sets runs ``run.py`` once per seed 1..10 on every
workload, with the run length from BENCHMARK.json.  For each end-to-end
metric and workload it prints both sets' medians and quartiles, the spread
(distance between the quartiles over the median), the share of failed
operations, and whether the sets agree: every spread within the metric's
bound, and the two medians apart by at most the bound, as a share of the
first.  The code is steady when the sets agree on every metric and
workload, every run is correct, and every run fails the same share of
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

SETS = 2
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    bench = json.loads(Path(ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        sets = []
        for k in range(SETS):
            results = []
            for seed in SEEDS:
                results.append(one_run(workload, seed, bench["run_seconds"]))
                r = results[-1]
                print(f"{workload} set {k + 1} seed {seed}: {r['failed']}/{r['attempted']} failed, "
                      + json.dumps({n: round(v["value"], 4) for n, v in r["metrics"].items()}),
                      file=sys.stderr, flush=True)
            sets.append(results)
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        print(f"{workload}: failed share per set {[sorted(s) for s in shares]}")
        steady &= all(s == shares[0] and len(s) == 1 for s in shares) and all(r["correct"] for s in sets for r in s)
        for name, bound in bounds.items():
            row, medians = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                row.append(f"median {med:.4f} [{q1:.4f}, {q3:.4f}] spread {100 * spread:5.1f}%")
                if spread > bound:
                    steady = False
            agree = abs(medians[1] - medians[0]) <= bound * medians[0]
            steady &= agree
            print(f"  {name:12s} bound {100 * bound:4.1f}%  " + "  |  ".join(row)
                  + f"  agree: {'yes' if agree else 'NO'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
