#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark run.

Run from the root of the repository (or of a checkout of its files):

    python3 perfbench/run.py --workload bst-light --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the span files of traced runs go under
$CARGO_TARGET_DIR (default .bench_build) in the current directory, so the
run reads and writes nothing outside it. The last line of standard output
is the result JSON printed by the Go program; the exit code is its exit
code, or 1 when the build fails or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def source_digest(root):
    """sha256 over the Go sources and module files the binary is built from."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build"}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s; run from the repository root" % root, file=sys.stderr)
        return 1
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(build_dir, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build_dir, "gocache"),
               GOMODCACHE=os.path.join(build_dir, "gomodcache"),
               GOPATH=os.path.join(build_dir, "gopath"),
               XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
               GOTMPDIR=tmp_dir, TMPDIR=tmp_dir,
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly",
               GOWORK="off", GOTELEMETRY="off")
    binary = os.path.join(out_dir, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", git_commit(root), "-source", source_digest(root), "-out-dir", out_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
