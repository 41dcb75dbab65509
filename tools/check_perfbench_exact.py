#!/usr/bin/env python3
"""Compare perfbench's seed-1 exact records with the committed copy.

Run from the repository root, after a seed-1, --trace 0 perfbench run of
every workload:

    python3 perfbench/run.py --workload als_network --seed 1 --seconds 2 --trace 0
    ...
    python3 tools/check_perfbench_exact.py

For each workload in tests/data/perfbench_exact_seed1.json, the "exact"
object of .bench_out/<workload>-seed1-trace0.json must equal the committed
one field for field.  Those fields do not depend on the machine: the result
digest, the simulated makespan and p99, and the event, solve and transfer
counts.  A change that moves any of them changes what the simulator computes;
commit the new record only together with a CHANGES.md entry that explains
it.

Exit codes: 0 every record equal; 1 a record differs or is missing.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(ROOT, "tests", "data", "perfbench_exact_seed1.json")


def main():
    with open(COMMITTED) as f:
        committed = json.load(f)
    problems = []
    for workload, want in sorted(committed.items()):
        path = os.path.join(ROOT, ".bench_out", "%s-seed1-trace0.json" % workload)
        try:
            with open(path) as f:
                got = json.load(f)["exact"]
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: no exact record in %s (%s)" % (workload, path, e))
            continue
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                problems.append("%s: %s = %s, committed %s"
                                % (workload, key, got.get(key), want.get(key)))
    for p in problems:
        print("check_perfbench_exact: " + p, file=sys.stderr)
    if not problems:
        print("check_perfbench_exact: %d workloads equal the committed records"
              % len(committed))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
