#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload laco_place --seed 1 --seconds 25 --trace 0

It verifies the checked-in model set against its SHA-256 list, builds
the benchmark binary from source (CMake, Release) under .bench_build/,
runs one workload, relays the binary's log, and prints the result object
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
With --trace 0 it first starts a few short processes that only time
set-ups; setup_s averages their medians with the measured run's.
Reports and Chrome traces are written under .bench_out/. The exit code
is 0 only when the run finished and every correctness check passed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("laco_place", "dreamplace_place", "serve_predict", "train_fg")
RUN_LIMIT_S = 175  # a measured run must end inside this
SETUP_PROBES = 8  # at most this many extra processes only time set-ups (setup_s),
PROBE_SHARE = 0.15  # and they stop once they took this share of --seconds
BUILD_LIMIT_S = 850  # the first run in a checkout also builds


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def verify_models(models_dir):
    """Refuses a model set whose files do not match SHA256SUMS."""
    sums = BENCH_DIR / "models" / "SHA256SUMS"
    if not sums.is_file():
        fail(f"missing {sums}")
    for line in sums.read_text().splitlines():
        if not line.strip():
            continue
        digest, name = line.split()
        path = models_dir / name
        if not path.is_file():
            fail(f"model file {path} is missing", 3)
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != digest:
            fail(f"checksum mismatch for {path}: {actual}, expected {digest}", 3)


def build(deadline):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "laco_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd[:2])} failed: {e}")
        if proc.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    binary = build_dir / "laco_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def probe_setups(binary, args):
    """Per-process set-up medians from up to SETUP_PROBES short processes."""
    medians = []
    deadline = time.monotonic() + PROBE_SHARE * args.seconds
    while len(medians) < SETUP_PROBES and (not medians or time.monotonic() < deadline):
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", "0", "--models", str(args.models),
               "--setup-only", "1"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True, timeout=60)
            medians.append(float(json.loads(proc.stdout.strip().split("\n")[-1])["setup_s"]))
        except (subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
            fail(f"set-up probe failed: {e}", 1)
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}", 1)
    return medians


def source_id():
    """Git commit when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test options (selftest.py): another model directory, and a
    # deliberately broken output that a correctness check must catch.
    parser.add_argument("--models", type=Path, default=BENCH_DIR / "models")
    parser.add_argument("--inject-fault", default="")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    started = time.monotonic()
    verify_models(args.models)
    binary = build(started + BUILD_LIMIT_S)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measured = time.monotonic()
    medians = probe_setups(binary, args) if args.trace == 0 else []
    # The probes count against the run's --seconds.
    seconds = max(1.0, args.seconds - (time.monotonic() - measured))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--models", str(args.models), "--commit", source_id(),
           "--report", str(out_dir / f"{stem}.json")]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.trace.json")]
    if medians:
        cmd += ["--setup-medians", ",".join(repr(m) for m in medians)]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s and was stopped")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                         "metrics"}:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark binary exited {proc.returncode} without a result")
    print("\n".join(lines[:-1]))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
