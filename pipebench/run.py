#!/usr/bin/env python3
"""Build and run the hwprof pipeline benchmark (see NOTES.md).

    python3 pipebench/run.py --workload stream_capture|pgo_analysis|fleet_ingest \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout. The first run configures and
builds pipebench (the hwprof libraries from src/ plus the benchmark binary,
Release) under $CARGO_TARGET_DIR, default .bench_build/ at the checkout
root; later runs rebuild only what changed. The binary's stdout passes
through unchanged: a human-readable report, then one JSON result line. The exit
status is non-zero when the sources are missing, the build fails, the run
times out or a correctness check fails.
"""

import argparse
import fcntl
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_capture", "pgo_analysis", "fleet_ingest")
# The whole command must end within 180 s once the build exists.
RUN_TIMEOUT_S = 170


def die(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout has one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build_step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build step failed: " + " ".join(cmd))


def build(build_root):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the hwprof sources (src/) are not next to pipebench/")
    build_dir = os.path.join(build_root, "pipebench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "pipebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            build_step(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
        build_step(["cmake", "--build", build_dir, "--target", "pipebench",
                    "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(build_dir, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        die("--seed must be >= 0 and --seconds in (0, 120]")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    # Relative to the checkout root, where the binary runs: that keeps the
    # fleet workload's AF_UNIX socket path short.
    workdir = os.path.relpath(os.path.join(build_root, "run"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # The binary removes its socket directory itself; this catches a crash.
        for leftover in glob.glob(os.path.join(ROOT, workdir, "fleet-*")):
            shutil.rmtree(leftover, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
