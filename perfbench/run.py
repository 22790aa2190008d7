#!/usr/bin/env python3
"""Build and run the benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload s1-pipeline --seed 7 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
repository's libraries and the benchmark binary (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed. The binary's report goes to
stdout, followed by one `# env` line (the measured tree's git revision and
content hash, build type, pool width, nproc, seed, run length) and, last, the
JSON result. The exit status is non-zero when the build fails, an output
check fails, or the printed metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import manifest  # noqa: E402

BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", out, "--target", "mvs_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "mvs_perfbench")


def git_rev():
    """Revision of the measured tree, '+dirty' when it has local edits;
    None outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0:
            return None
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--",
             "src", "perfbench"], cwd=ROOT, capture_output=True, text=True,
            timeout=10)
        return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return None


def tree_sha256():
    """Content hash of everything the binary is built from (src/ and
    perfbench/), so results name the tree measured even without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, ROOT)
                h.update(rel.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        doc = manifest.load(ROOT)
    except (OSError, ValueError) as e:
        log(f"cannot load BENCHMARK.json: {e}")
        return 2
    problems = manifest.validate(doc, ROOT)
    if problems:
        for p in problems:
            log(f"BENCHMARK.json: {p}")
        return 2
    if args.workload not in [w["name"] for w in doc["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]
    if args.seed < 0 or seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    binary = build()
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"benchmark printed no result (exit {proc.returncode})")
        return 1
    problems = manifest.check_result(doc, args.trace, result)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            log(f"result does not match BENCHMARK.json: {p}")
        return 1

    env = {}
    for line in lines[:-1]:
        if line.startswith("# env ") or line.startswith("# run "):
            env.update(json.loads(line[len("# env "):]))
        else:
            print(line)
    env.update(git_rev=git_rev(), tree_sha256=tree_sha256())
    wanted = manifest.metrics_for(doc, args.trace)
    for name, (unit, better) in wanted.items():
        print(f"# {name:44s} {result['metrics'][name]['value']:14.6g} "
              f"{unit:9s} {better} is better")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"output checks failed (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
