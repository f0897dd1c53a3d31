#!/usr/bin/env python3
"""Check which counts of the benchmark repeat exactly under a fixed seed.

Runs every workload twice with the same seed and a fixed number of
operations (`--ops`), once traced (per-layer counts) and once untraced
(`view_use_rate`), and prints each count with whether the two runs agree.
A count that does not repeat can only be compared within a bound.

    python3 e2ebench/repeat_check.py [--ops 400] [--seed 7]

Run it from the repository root; it builds the benchmark with cargo first.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["views10k-adhoc", "hot-templates", "writes-strict"]
COUNTS = [
    ("0", "view_use_rate"),
    ("1", "optimizer.groups_per_read"),
    ("1", "optimizer.alternatives_per_read"),
    ("1", "core.invocations_per_read"),
    ("1", "core.candidate_fraction"),
    ("1", "core.pass_fraction"),
    ("1", "core.cache_hit_rate"),
    ("1", "core.cache_invalidations"),
    ("1", "exec.rows_out_per_read"),
    ("1", "maintain.maintained_per_delta"),
    ("1", "maintain.dirtied_per_delta"),
    ("1", "maintain.refreshes_per_round"),
    ("1", "publish.rows_copied_per_round"),
    ("1", "trace.spans"),
]


def run(workload, seed, ops, trace):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--",
        "--workload", workload, "--seed", str(seed), "--ops", str(ops),
        "--trace", trace,
    ]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=400)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    differs = 0
    for workload in WORKLOADS:
        runs = {t: [run(workload, args.seed, args.ops, t) for _ in range(2)]
                for t in ("0", "1")}
        for trace, name in COUNTS:
            a, b = (r[name]["value"] for r in runs[trace])
            same = a == b
            differs += not same
            print(f"{workload:15} {name:34} {a:>14.6g} {b:>14.6g} "
                  f"{'repeats' if same else 'DIFFERS'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
