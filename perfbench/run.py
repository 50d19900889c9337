#!/usr/bin/env python3
"""Sweep benchmark entry point (see perfbench/BENCHMARK.md).

Run from the root of a source tree:

    python3 perfbench/run.py --workload catalogue --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seed

Builds libdrowsy and the driver from source into $CARGO_TARGET_DIR
(default .bench_build), runs the statistics self-tests, then the driver,
and prints the driver's metric lines followed by one JSON result line.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalogue", "warmup", "netsim-shard")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then build the driver and the self-tests (a no-op
    when nothing changed).  Compiler output goes to stderr; compiler
    temporaries stay inside the build directory."""
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def selftest(out):
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode != 0:
        fail("statistics self-tests failed")


def commit_id():
    """The git commit, or a digest of the sources when the tree is not a
    git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def expected_metrics(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(out, workload, seed, seconds, trace, commit):
    """Run one workload; returns (metric lines, result dict)."""
    with open(os.path.join(HERE, "digests.json")) as handle:
        digests = json.load(handle)
    cmd = [os.path.join(out, "perfbench_driver"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_work", workload), "--commit", commit]
    if seed == 0 and workload in digests:
        cmd += ["--expect-digest", digests[workload]]
    # The driver measures for about `seconds` (--trace 1 splits them
    # between an untraced and a traced series), plus a warm-up sweep, a
    # profiled pass and checks.  170 s at the default 30 s keeps a hung
    # run inside a 180 s limit.
    timeout_s = 2 * seconds + 110
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("%s: driver did not finish within %d s" % (workload, timeout_s))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s: driver exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(workload + ": malformed result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail("%s: driver metrics do not match BENCHMARK.json: %s" % (
            workload, sorted(set(got.items()) ^ set(want.items()))))
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a drowsy source tree (CMakeLists.txt and src/ missing)", 2)

    out = build()
    selftest(out)
    commit = commit_id()
    if args.workload != "all":
        lines, result = run_driver(out, args.workload, args.seed, args.seconds, args.trace,
                                   commit)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_driver(out, workload, args.seed, args.seconds, args.trace, commit)
        print("== " + workload)
        print("\n".join(lines))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
