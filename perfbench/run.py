#!/usr/bin/env python3
"""Repository benchmark: build the harness, run one workload, print its results.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth_malec --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The harness (perfbench/src) is built from source into $CARGO_TARGET_DIR or
.bench_build, as a CMake package that pulls in the simulator from the
checkout. Each workload runs in its own process. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it carry the run's output fingerprints and a
`report` line with every metric plus the host and build fingerprint. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["synth_malec", "replay_base", "sampled_malec", "sweep_fig4"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure (once) and build `target`; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no simulator sources under {ROOT}; run from a full checkout")
        sys.exit(2)
    bdir = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            log("configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    left = max(1.0, deadline - time.monotonic())
    if subprocess.run(cmd, stdout=sys.stderr, timeout=left).returncode:
        log("build failed")
        sys.exit(2)
    return bdir


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the simulator sources and build file (path + bytes)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, contract, traced):
    """Parse the harness's last line and hold it to BENCHMARK.json."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    declared = contract["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if want != got:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise ValueError(f"{name} is not a number")
    if res["attempted"] < 1 or res["failed"] > res["attempted"]:
        raise ValueError("attempted/failed out of range")
    return res


def run_workload(bdir, contract, workload, seed, seconds, traced):
    """Run one workload process; returns (exit code, result dict or None)."""
    work = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-{os.getpid()}")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--work-dir", work,
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--commit", commit_id(), "--source-digest", source_digest()]
    try:
        # On timeout subprocess.run kills the child and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 3, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"{workload}: no output (exit {proc.returncode})")
        return proc.returncode or 1, None
    for line in lines[:-1]:
        print(line)
    try:
        res = check_result(lines[-1], contract, traced)
    except (ValueError, KeyError, TypeError) as e:
        log(f"{workload}: bad result line: {e}")
        return 1, None
    return proc.returncode, res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        bdir = build("perfbench_tests")
        return subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    contract = load_contract()
    bdir = build("perfbench")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    worst = 0
    for name in names:
        rc, res = run_workload(bdir, contract, name, args.seed, args.seconds,
                               args.trace == 1)
        if res is None:
            return rc or 1
        worst = worst or rc
        results[name] = res
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
