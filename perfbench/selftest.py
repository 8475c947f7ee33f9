#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

Checks, each through perfbench/run.py:
  * every workload prints exactly the metrics BENCHMARK.json names, each
    with its unit (end-to-end with --trace 0, per-layer with --trace 1);
  * a model set whose bytes do not match SHA256SUMS is refused;
  * each correctness check fires on a deliberately broken output
    (legality, served output, repeat determinism, training loss,
    train_fg's weights against Pipeline::train_models);
  * a placement whose WCS reads exactly 0 (no overflow) still passes;
  * a directory holding only BENCHMARK.json and perfbench/ exits
    nonzero without a result.
Exits 0 when every check passes. Takes a few minutes (short runs).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    """Runs run.py; returns (exit code, result object or None)."""
    proc = subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict) and set(result) == RESULT_KEYS):
        result = None
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    # Every named metric, with its unit, on every workload.
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            code, result = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", str(trace)])
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace}: clean run")
            got = {} if result is None else {k: v.get("unit")
                                             for k, v in result["metrics"].items()}
            check(got == want, f"{workload} --trace {trace}: metrics and units match {key}")
            if trace == 0 and result is not None:
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                check(not zero, f"{workload}: no end-to-end metric reads 0 {zero}")
            if workload == "dreamplace_place" and trace == 1 and result is not None:
                calls = [v["value"] for k, v in result["metrics"].items()
                         if k.startswith("nn.op.") and k.endswith(".calls")]
                check(calls and all(c == 0 for c in calls),
                      "dreamplace_place: traced run shows zero nn.op calls")

    # A model set that fails its checksum is refused before any run.
    corrupt = SCRATCH / "models"
    shutil.copytree(BENCH_DIR / "models", corrupt)
    data = bytearray((corrupt / "congestion.bin").read_bytes())
    data[len(data) // 2] ^= 0x01
    (corrupt / "congestion.bin").write_bytes(bytes(data))
    code, result = run(["--workload", "serve_predict", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--models", str(corrupt)])
    check(code != 0 and result is None, "corrupted model set is refused")

    # Each correctness check fires on a broken output.
    for workload, fault in (("laco_place", "legality"), ("serve_predict", "serve_output"),
                            ("train_fg", "quality"), ("train_fg", "loss"),
                            ("train_fg", "train_fork")):
        code, result = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--inject-fault", fault])
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1, f"{workload}: the {fault} check fires")

    # WCS is 0 on an overflow-free placement; that is a valid result.
    code, result = run(["--workload", "laco_place", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--inject-fault", "wcs_zero"])
    check(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
          "laco_place: WCS of exactly 0 passes the checks")

    # Without the library sources the benchmark exits nonzero, no result.
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result = run(["--workload", "laco_place", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, script=bare / BENCH_DIR.name / "run.py")
    check(code != 0 and result is None, "a checkout without sources exits nonzero")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
