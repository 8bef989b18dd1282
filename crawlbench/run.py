#!/usr/bin/env python3
"""End-to-end crawl benchmark: builds crawlbench from source, then runs it.

  python3 crawlbench/run.py --workload greedy-imdb --seed 1 --seconds 30 --trace 0
  python3 crawlbench/run.py --workload all       # every workload, one process each
  python3 crawlbench/run.py --self-test          # the benchmark's own tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). The last line of stdout is the JSON result; the exit code is
non-zero when the build fails or any output check fails. See README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["greedy-imdb", "mmmi-marginal", "tcp-flaky"]
# A crawl process that takes longer than this is stuck.
RUN_TIMEOUT_S = 170


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(bdir, tests):
    """Configures and builds the benchmark; returns False on failure."""
    needed = [ROOT / "src" / "CMakeLists.txt",
              ROOT / "tools" / "workload_setup.cc",
              ROOT / "tools" / "selector_factory.cc"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print("crawlbench: deepcrawl sources missing: " + ", ".join(missing),
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release",
         "-DCRAWLBENCH_TESTS=" + ("ON" if tests else "OFF")],
        ["cmake", "--build", str(bdir), "-j", jobs, "--target",
         "crawlbench_tests" if tests else "crawlbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("crawlbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def source_id():
    """The git commit measured or, outside git, a digest of the sources."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        lines = top.stdout.split()
        if len(lines) == 2 and pathlib.Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_workload(bdir, workload, args, source, capture):
    cmd = [str(bdir / "crawlbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(bdir / "scratch"),
           "--source", source]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"crawlbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def run_all(bdir, args, source):
    """Each workload in its own process; merged result, prefixed names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, out = run_workload(bdir, workload, args, source, capture=True)
        lines = (out or "").strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        code = code or rc or (0 if result["correct"] else 1)
        merged["correct"] = merged["correct"] and result["correct"] and rc == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    bdir = build_dir()
    if not build(bdir, tests=args.self_test):
        return 1
    if args.self_test:
        env = dict(os.environ, CRAWLBENCH_SCRATCH=str(bdir / "test-scratch"))
        return subprocess.run([str(bdir / "crawlbench_tests")], cwd=ROOT,
                              env=env).returncode
    source = source_id()
    if args.workload == "all":
        return run_all(bdir, args, source)
    return run_workload(bdir, args.workload, args, source, capture=False)[0]


if __name__ == "__main__":
    sys.exit(main())
