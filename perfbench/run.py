#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload nytimes-tree --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the culda libraries
and culda_serve from source) into $CARGO_TARGET_DIR or .bench_build; later
runs rebuild incrementally. Each run then executes the benchmark's
self-tests, stamps the environment and runs perfbench_driver with the
workload's settings from perfbench/workloads.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: every end_to_end metric of BENCHMARK.json with
--trace 0, every per_layer metric with --trace 1. The exit code is 0 only
if the build, the self-tests and every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, what):
    with open(log_path, "w") as log:
        rc = subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"{what} failed (exit {rc}); log: {log_path}")


def build(build_dir):
    """Configures once, then builds the driver, its self-tests and the daemon."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release", "-DCULDA_SANITIZE=",
                    "-DCULDA_VALIDATE=OFF"],
                   os.path.join(build_dir, "configure.log"), "configure")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                "perfbench_driver", "perfbench_selftest", "culda_serve"],
               os.path.join(build_dir, "build.log"), "build")
    return {
        "driver": os.path.join(cmake_dir, "perfbench_driver"),
        "selftest": os.path.join(cmake_dir, "perfbench_selftest"),
        "serve": os.path.join(cmake_dir, "culda", "tools", "culda_serve"),
    }


def source_digest():
    """SHA-256 over the sources the benchmark builds (a checkout may not be
    a git repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable: not a git checkout"
    try:
        return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                       text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def check_result(line, names_units):
    """The result line must carry exactly the metric names and units that
    BENCHMARK.json lists for this mode."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    if not result["metrics"]:
        return None  # a failed run reports what it has
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names_units:
        missing = sorted(set(names_units) - set(got))
        extra = sorted(set(got) - set(names_units))
        units = sorted(k for k in got if k in names_units and got[k] != names_units[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {units}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools/culda_serve.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a culda checkout", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads)}", 2)
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(ROOT, build_dir), ROOT)
    exe = build(build_dir)
    run_logged([exe["selftest"]], os.path.join(build_dir, "selftest.log"),
               "benchmark self-test")

    affinity = len(os.sched_getaffinity(0))
    print("env " + json.dumps({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "why": why.get(args.workload, ""),
    }), flush=True)

    run_dir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [exe["driver"], f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve-bin={exe['serve']}", f"--run-dir={run_dir}"]
    cmd += [f"--{k}={v}" for k, v in workloads[args.workload].items()]
    # Its own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    kind = "per_layer" if args.trace else "end_to_end"
    problem = None
    try:
        problem = check_result(lines[-1], {m["name"]: m["unit"] for m in bench[kind]})
    except (ValueError, KeyError, TypeError) as e:
        problem = f"no result line ({e})"
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 0 and args.trace:
        # Keep a traced run's spans and daemon trace; drop models and logs.
        for f in os.listdir(run_dir):
            if f.endswith((".bin", ".jsonl", ".log")):
                os.remove(os.path.join(run_dir, f))
    elif proc.returncode == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
