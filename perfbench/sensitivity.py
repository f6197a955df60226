"""Sensitivity check: an injected cloud delay must fail the benchmark's gate.

Runs equality-paced on several seeds, alternating runs without and with a
loopback proxy that holds every client->cloud chunk for a fixed delay (about
20% of the median round by default), and checks that the median
search_p50_ms moves by more than the bound BENCHMARK.json gives that metric.
Exits 1 when it does not.

    python3 perfbench/sensitivity.py [--delay 1.8ms] [--seeds 1,2,3,4,5] [--seconds 8]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(seed, seconds, extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", "equality-paced", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + extra
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"seed {seed} {extra}: run reported incorrect outputs")
    return res["metrics"]["search_p50_ms"]["value"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--delay", default="1.8ms")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=8)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "search_p50_ms")
    base, slow = [], []
    for seed in [int(s) for s in args.seeds.split(",")]:
        base.append(run(seed, args.seconds, []))
        slow.append(run(seed, args.seconds, ["-cloud-delay", args.delay]))
        print(f"seed {seed}: search_p50_ms {base[-1]:.4f} -> {slow[-1]:.4f} with {args.delay} cloud delay")
    change = statistics.median(slow) / statistics.median(base) - 1
    print(f"median search_p50_ms {statistics.median(base):.4f} -> {statistics.median(slow):.4f}: "
          f"{100 * change:+.1f}% against a bound of {100 * bound:.0f}%")
    if change <= bound:
        sys.exit("injected delay NOT detected")
    print("injected delay detected")


if __name__ == "__main__":
    main()
