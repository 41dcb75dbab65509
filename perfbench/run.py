#!/usr/bin/env python3
"""Layered end-to-end benchmark of the FRIEDA simulator.

Run from the repository root:

    python3 perfbench/run.py --workload blast_batch --seed 7 --seconds 20 --trace 0

The script builds perfbench/ in Release (the simulator libraries come from
src/ with their own CMake files) into .bench_build/perfbench, clears the
FRIEDA_* environment knobs so no stray setting changes what is measured,
runs the driver and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Workloads, metrics and checks are described in
perfbench/perfbench.cpp.

Every result is also written to .bench_out/ together with a machine and build
stamp (nproc, CPU model, compiler, build type, git revision, source digest).
The simulated results and counts of a (workload, seed) must repeat exactly
across processes built from the same sources: a second run of the same seed
is compared with the first one's record.

Counts that depend on how the two sweep threads interleave, and so may
differ between runs, are listed in INTERLEAVING_DEPENDENT; the driver checks
invariants on them that hold in every interleaving instead.

Exit codes: 0 correct result; 1 a correctness check failed (the result is
still printed, with "correct": false); 2 the benchmark could not be built or
run (nothing is printed).
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
DRIVER_TIMEOUT_S = 160

# Per-layer counts of service_sweep that vary with thread interleaving: two
# cells of one shape may both miss the template store and both capture (so
# builds is 1 or 2, and hits and patches follow), and steal batches depend on
# which thread runs dry first.
INTERLEAVING_DEPENDENT = ["frieda.tmpl_builds", "frieda.tmpl_hits", "frieda.tmpl_patches",
                          "exp.steals"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of a .git directory at the root, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], [w["name"] for w in spec["workloads"]]


def check_repeats(workload, seed, digest, exact):
    """Compare this run's exact values with an earlier process's, if any."""
    path = os.path.join(OUT_DIR, "exact", digest, "%s-seed%d.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        return ["%s = %s, an earlier process of the same sources read %s" % (k, exact.get(k), v)
                for k, v in sorted(earlier.items()) if exact.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(exact, f, indent=1, sort_keys=True)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    env = {k: v for k, v in os.environ.items() if not k.startswith("FRIEDA_")}
    build(env)
    try:
        spec, workloads = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads)))

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("driver exited with %d" % proc.returncode)
    try:
        out = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result")

    got = {name: m["unit"] for name, m in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        fail("driver metrics %s do not match BENCHMARK.json %s" % (sorted(got), sorted(want)))

    digest = source_digest()
    errors = list(out["errors"])
    errors += check_repeats(args.workload, args.seed, digest, out["exact"])
    correct = bool(out["correct"]) and proc.returncode == 0 and not errors
    failed = out["failed"]
    if not correct and failed == 0:
        failed = out["attempted"]
    for e in errors[len(out["errors"]):]:
        print("perfbench: CHECK FAILED: " + e, file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": out["attempted"],
        "failed": failed, "metrics": out["metrics"], "errors": errors,
        "repetitions": out["repetitions"], "exact": out["exact"],
        "wall_reps": out["wall_reps"], "setup_reps": out["setup_reps"],
        "host_ref_s_min": out["host_ref_s_min"], "host_ref_s_max": out["host_ref_s_max"],
        "interleaving_dependent": INTERLEAVING_DEPENDENT,
        "driver_s": time.time() - started,
        "stamp": {
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "kernel": platform.release(),
            "compiler": out["compiler"], "build_type": out["build_type"],
            "git_revision": git_revision(), "source_digest": digest,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": failed,
                      "metrics": out["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
