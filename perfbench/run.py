#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload ripple-paper-wf --seed 1 \
        --seconds 30 --trace 0

Builds the `spider` library and the perfbench driver (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when unset, then runs the workload in
one process with every ambient SPIDER_* variable removed from its environment.
Prints a provenance line, a correctness-check line, and as its last line one
JSON object with the keys correct, attempted, failed and metrics. --seconds
defaults to BENCHMARK.json's run_seconds. --trace 0
reports the end-to-end metrics; --trace 1 the per-layer ones, and writes the
spans as Chrome trace-event JSON beside the build.

Exit codes: 0 when every correctness check passed, 1 when a check failed (the
result line is still printed), 2 when the build or the run broke (no result).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    out = build_dir()
    # A configure that failed leaves a cache but no build system behind.
    if not any((out / name).exists() for name in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(nproc()),
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return out / "perfbench"


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unavailable"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SPIDER_")}


def run_perfbench(binary, args, extra=()):
    """Runs the driver; returns (returncode, stdout lines)."""
    out_dir = build_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir), *extra]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            env=scrubbed_env(), timeout=RUN_TIMEOUT_S)
    return result.returncode, result.stdout.splitlines()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2
    start = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2
    build_s = time.monotonic() - start

    try:
        code, lines = run_perfbench(binary, args)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    records = {}
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record:
            records["result" if "correct" in record else next(iter(record))] = record
    if code not in (0, 1) or "result" not in records:
        log(f"perfbench exited with {code} and no result")
        return 2

    provenance = records.get("provenance", {}).get("provenance", {})
    provenance.update({
        "nproc": nproc(),
        "thread_cap": nproc(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_s": round(build_s, 3),
        "trace": args.trace,
        "seconds": args.seconds,
    })
    result = records["result"]
    check = records.get("check", {}).get("check", {})
    if check.get("threads", 0) > nproc():
        result["correct"] = False
        result["failed"] = max(1, result["failed"])
        check.setdefault("errors", []).append("more threads than nproc")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"check": check}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
