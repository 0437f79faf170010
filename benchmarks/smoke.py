"""Smoke test of the benchmark at tiny input sizes.

Run from the checkout root: ``python3 benchmarks/smoke.py``.  It checks
that every workload, untraced and traced, emits exactly the metrics that
``BENCHMARK.json`` names, each with its unit, that nothing fails at the
development seed and at the holdout seed, and that the benchmark refuses
to run without the package sources.  Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = (1, 2)  # development seed, holdout seed


def run(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, seed: int, trace: int) -> None:
    done = run(ROOT, workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    if done.returncode != 0:
        raise SystemExit(f"{where}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{where}: failed {result['failed']} of {result['attempted']}\n"
                         f"{done.stdout}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise SystemExit(f"{where}: {name} = {m['value']!r}")
    if "failed_frac" not in done.stdout:
        raise SystemExit(f"{where}: failed_frac not printed")
    print(f"ok: {where}: {len(emitted)} metrics, {result['attempted']} items")


def check_refuses_without_sources(spec: dict) -> None:
    """In a directory holding only the benchmark, it must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], SEEDS[0], 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise SystemExit(f"benchmark ran without sources: exit {done.returncode}\n"
                         f"{done.stdout}")
    print(f"ok: refuses to run without sources (exit {done.returncode})")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            check_result(spec, workload, seed, 0)
        check_result(spec, workload, SEEDS[0], 1)
    check_refuses_without_sources(spec)


if __name__ == "__main__":
    main()
