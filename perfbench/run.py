#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 25 --trace 0

Run from the repository root. The benchmark program is built from source
(release profile, offline) into $CARGO_TARGET_DIR, or perfbench/target
when that is unset. Its table goes to stdout, the full record of the run
to perfbench/out/, and the last line of stdout is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("serve-mixed", "engine-wide", "distrib-durable")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when run from a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in (os.path.join(ROOT, "crates"), os.path.join(HERE, "src"), os.path.join(ROOT, "vendor")):
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"{ROOT} holds no crates/ to build; run from a full checkout")

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", OUT, "--source", source_id()]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        stdout, _ = child.communicate()
        print(stdout, file=sys.stderr)
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # The program removes its scratch directory itself; this covers a crash.
        shutil.rmtree(os.path.join(OUT, f"tmp-{a.workload}-{child.pid}"), ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if child.returncode != 0:
        print(stdout, file=sys.stderr)
        fail(f"{a.workload} exited with code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(stdout, file=sys.stderr)
        fail("the program's last line is not a result")
    print("\n".join(lines[:-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
