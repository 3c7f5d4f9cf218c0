#!/usr/bin/env python3
"""Quick self-test of the benchmark.

Runs every workload at toy size (--quick), untraced and traced, for two
seeds, and checks that:
  - the last output line is a result with exactly the contract's keys;
  - the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (trace 0) or per_layer (trace 1) metrics;
  - every run is correct, including the digests recorded for the seed in
    perfbench/digests.json (both seeds must have recorded digests).

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        for seed in SEEDS:
            if str(seed) not in recorded.get(w + ".quick", {}):
                problems.append(f"{w}: no digests recorded for quick seed {seed}")
            for trace in (0, 1):
                tag = f"{w} seed {seed} trace {trace}"
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", w, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--quick"],
                    capture_output=True, text=True, cwd=ROOT)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    problems.append(f"{tag}: exit {proc.returncode}\n"
                                    f"{proc.stderr[-2000:]}")
                    continue
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                    continue
                if result["correct"] is not True:
                    problems.append(f"{tag}: not correct")
                if result["attempted"] < 1 or result["failed"] != 0:
                    problems.append(f"{tag}: attempted {result['attempted']}"
                                    f" failed {result['failed']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    wrong = sorted(k for k in set(got) & set(expected[trace])
                                   if got[k] != expected[trace][k])
                    problems.append(f"{tag}: missing {missing} extra {extra} "
                                    f"wrong units {wrong}")
                print(f"ok   {tag}" if not problems else f"...  {tag}",
                      flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
