"""Benchmark of spectratact: sensor chain, twin tracking and workspace map.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload sensor_chain --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

A run builds its inputs from ``--seed``, runs its workload's pipeline at
full size and the other two pipelines at probe size for ``--seconds``
seconds, checks every output, and prints every metric by name and unit.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
times untraced and traced passes in pairs and requires their outputs to
be byte-identical.  ``--workload all`` runs every workload both ways and
writes ``.bench_out/BENCH.json``.  See ``benchmarks/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sensor_chain", "twin_track", "workspace_map")

# Share of the measuring time given to the workload's own pipeline; the
# two probe pipelines split the rest.
PRIMARY_SHARE = 0.7
# Every pipeline runs at least this many passes (untraced/traced pairs
# when tracing), however long they take.
MIN_PASSES = {0: 3, 1: 1}
SETUP_PROBES = {"full": 7, "tiny": 1}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "chain_s": "s",
    "simulate_rows_per_s": "rows/s",
    "decode_rows_per_s": "rows/s",
    "position_mae_mm": "mm",
    "force_mae_n": "N",
    "track_samples_per_s": "samples/s",
    "step_p50_us": "us",
    "track_rms_mm": "mm",
    "map_jacobian_cells_per_s": "cells/s",
    "map_mc_cells_per_s": "cells/s",
}

# (label, module, attribute, per-item): the library functions the tracer
# wraps.  Per-item functions also report their median call time.
TRACED = (
    ("spectral.integrate_channels", "spectral", "integrate_channels", True),
    ("spectral.attenuate", "spectral", "attenuate", True),
    ("spectral.log_ratio", "spectral", "log_ratio", True),
    ("contact.coupled_fraction", "contact", "coupled_fraction", True),
    ("sensor.simulate_reading", "sensor", "simulate_reading", True),
    ("sensor.noise_free_channels", "sensor", "noise_free_channels", True),
    ("sensor.full_scale_intensity", "sensor", "full_scale_intensity", True),
    ("sensor.rng_substreams", "sensor", "rng_substreams", False),
    ("sensor.sweep", "sensor", "sweep", False),
    ("sensor.position_transmission", "sensor", "position_transmission", True),
    ("calibration.ForceCalibration.invert", "calibration", "ForceCalibration.invert", True),
    ("calibration.ForceCalibration.evaluate", "calibration", "ForceCalibration.evaluate",
     True),
    ("calibration.fit_position", "calibration", "fit_position", False),
    ("calibration.fit_force", "calibration", "fit_force", False),
    ("decoder.decode_position", "decoder", "decode_position", True),
    ("decoder.decode_force", "decoder", "decode_force", True),
    ("decoder.decode_joint_angle", "decoder", "decode_joint_angle", True),
    ("fivebar.inverse_kinematics", "fivebar", "inverse_kinematics", True),
    ("fivebar.forward_kinematics", "fivebar", "forward_kinematics", True),
    ("fivebar.working_branch", "fivebar", "working_branch", True),
    ("fivebar.reachable", "fivebar", "reachable", True),
    ("fivebar.fk_jacobian", "fivebar", "fk_jacobian", True),
    ("fivebar.deviation_map", "fivebar", "deviation_map", False),
    ("twin.calibrate_encoder", "twin", "calibrate_encoder", False),
    ("twin.track", "twin", "track", False),
    ("twin.generate_path", "twin", "generate_path", False),
)
CLI_COMMANDS = ("simulate", "calibrate", "decode", "track")
REPORTED_FLAGS = ("ok", "out_of_span", "no_contact", "saturated")


def per_layer_units() -> dict[str, str]:
    units = {}
    for label, _, _, per_item in TRACED:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
        if per_item:
            units[f"{label}.p50_us"] = "us"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.self_s"] = "s"
        units[f"cli.{command}.bytes_out"] = "bytes"
    units.update({
        "sensor.full_scale_intensity.calls_per_row": "count",
        "calibration.invert.evals_per_call": "count",
        "fivebar.ik_calls_per_cell": "count",
        "fivebar.map_finite_frac": "ratio",
        "twin.track.dropped": "count",
        **{f"decoder.flag.{flag}": "count" for flag in REPORTED_FLAGS},
        "decoder.ok_ratio": "ratio",
        "setup.import_s": "s",
        "setup.build_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.unaccounted_frac": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# environment


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Hash of every source file under ``src/``, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measuring


def measure_setup(probes: int) -> dict:
    """Median set-up time over fresh interpreters, in nominal seconds.

    Each probe times the reference kernel in its own process right after
    setting up.  Import time is only partly CPU work: over 210 probes on
    the 2-vCPU host, set-up slowed 1.37x when the kernel slowed 1.81x,
    the square root of the kernel's factor.  So each probe is scaled by
    the square root of its host-speed factor.
    """
    env = {k: v for k, v in os.environ.items() if k != "SPECTRATACT_THREADS"}
    samples = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py")],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probe["scale"] = math.sqrt(hostspeed.NOMINAL_REF_S / probe["kernel_s"])
        samples.append(probe)
    return {
        "setup_s": statistics.median((p["import_s"] + p["build_s"]) * p["scale"]
                                     for p in samples),
        "import_s": statistics.median(p["import_s"] * p["scale"] for p in samples),
        "build_s": statistics.median(p["build_s"] * p["scale"] for p in samples),
        "samples": samples,
    }


def tracer_targets() -> dict:
    targets = {}
    for label, module, attr, _ in TRACED:
        owner = importlib.import_module(f"spectratact.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets[label] = (owner, name)
    return targets


def summarize_tracer(tracer, speed: float) -> dict:
    """Counts and times of one traced pass, times in nominal nanoseconds."""
    return {
        "stats": {label: {"calls": s.calls, "raised": s.raised, "self_ns": s.self_ns * speed}
                  for label, s in tracer.stats.items()},
        "durations_ns": {label: [d * speed for d in s.durations_ns]
                         for label, s in tracer.stats.items()},
        "counters": dict(tracer.counters),
        "root_ns": tracer.root_ns() * speed,
    }


def schedule(pipes: dict, primary: str, seconds: float, trace: int, work: str) -> dict:
    """Run passes until the time is up, each pipeline getting its share.

    The next pass goes to the pipeline furthest behind its share of the
    time spent, so the pipelines interleave and see the same machine load.
    """
    from tracer import Tracer
    shares = {n: PRIMARY_SHARE if n == primary else (1 - PRIMARY_SHARE) / (len(pipes) - 1)
              for n in pipes}
    runs = {n: {"plain": [], "traced": [], "trace": []} for n in pipes}
    used = dict.fromkeys(pipes, 0.0)
    targets = tracer_targets() if trace else None
    last_tracers = {}
    deadline = time.perf_counter() + seconds
    while True:
        short = [n for n in pipes if len(runs[n]["plain"]) < MIN_PASSES[trace]]
        if not short and time.perf_counter() >= deadline:
            break
        name = min(short or pipes, key=lambda n: used[n] / shares[n])
        started = time.perf_counter()
        runs[name]["plain"].append(pipes[name].run(os.path.join(work, name, "plain")))
        if trace:
            tracer = Tracer(targets)
            with tracer.installed():
                traced = pipes[name].run(os.path.join(work, name, "traced"), tracer)
            runs[name]["traced"].append(traced)
            speed = traced.nominal_s / traced.wall_s if traced.steps else 1.0
            runs[name]["trace"].append(summarize_tracer(tracer, speed))
            last_tracers[name] = tracer
        used[name] += time.perf_counter() - started
    for name, tracer in last_tracers.items():
        tracer.write_spans(os.path.join(work, f"{name}.spans.csv"))
    return runs


def check_runs(pipes: dict, runs: dict) -> tuple[int, int, list[str], dict]:
    """Check every pass; every pass must also reproduce the first one's artifacts."""
    attempted = failed = 0
    errors, hashes = [], {}
    for name, pipe in pipes.items():
        passes = runs[name]["plain"] + runs[name]["traced"]
        reference = passes[0].artifacts
        hashes[name] = {k: hashlib.sha256(v).hexdigest() for k, v in reference.items()}
        for result in passes:
            attempted += pipe.items() + len(reference)
            failed += pipe.check(result)
            if result.error is not None:
                errors.append(f"{name}: {result.error.strip().splitlines()[-1]}")
            failed += sum(result.artifacts.get(k) != v for k, v in reference.items())
    return attempted, failed, errors, hashes


def steps_named(passes: list, name: str) -> list:
    return [step for r in passes for step in r.steps if step.name == name]


def end_to_end(pipes: dict, runs: dict) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, times in nominal seconds.

    Each timing is the median over the run's steady steps of one kind
    (see ``hostspeed``); ``chain_s`` sums the medians of its four commands.
    """
    chain, twin_, ws = (pipes["sensor_chain"], pipes["twin_track"], pipes["workspace_map"])
    cp, tp, wp = (runs["sensor_chain"]["plain"], runs["twin_track"]["plain"],
                  runs["workspace_map"]["plain"])

    def nominal(passes, name):
        return hostspeed.nominal_median(steps_named(passes, name))

    commands = {n: nominal(cp, n) for n in ("simulate_cal", "calibrate", "simulate_held",
                                            "decode")}
    chunks = [(step, latencies) for r in tp for step, latencies in
              zip(steps_named([r], "stream"), r.outcome["chunk_latencies_ns"])]
    steady = [c for c in chunks if c[0].steady] or chunks
    latencies = sorted(ns * step.factor for step, lat in chunks for ns in lat)
    accuracy = chain.accuracy(cp[0])
    metrics = {
        "chain_s": sum(commands.values()),
        "simulate_rows_per_s": (chain.cal_rows + len(chain.truth))
            / (commands["simulate_cal"] + commands["simulate_held"]),
        "decode_rows_per_s": len(chain.truth) / commands["decode"],
        "position_mae_mm": accuracy["position_mae_mm"],
        "force_mae_n": accuracy["force_mae_n"],
        "track_samples_per_s": twin_.n / nominal(tp, "batch"),
        "step_p50_us": statistics.median(
            statistics.median(lat) * step.factor for step, lat in steady) / 1e3,
        "track_rms_mm": twin_.report(tp[0])["rms_error_mm"],
        "map_jacobian_cells_per_s": ws.cells / nominal(wp, "jacobian"),
        "map_mc_cells_per_s": ws.cells / nominal(wp, "monte_carlo"),
    }
    extra = {
        "step_p99_us": latencies[int(0.99 * (len(latencies) - 1))] / 1e3,
        "step_samples": len(latencies),
        "passes": {n: len(runs[n]["plain"]) for n in runs},
        "steps": {n: [[s.name, s.raw_s, s.factor, s.steady] for r in runs[n]["plain"]
                      for s in r.steps] for n in runs},
        "decode_flags": accuracy["flags"],
    }
    return metrics, extra


def per_layer(pipes: dict, runs: dict, setup: dict) -> dict:
    """Per-layer numbers of one round of the workload (every pipeline once).

    Counts and self times are medians over each pipeline's traced passes,
    summed over the pipelines; call times pool every traced call.
    """
    med, low = statistics.median, statistics.median_low
    calls, raised, self_s, durations, counters = {}, {}, {}, {}, {}
    for name in pipes:
        traces = runs[name]["trace"]
        labels = {label for t in traces for label in t["stats"]}
        for label in labels:
            rows = [t["stats"].get(label, {"calls": 0, "raised": 0, "self_ns": 0})
                    for t in traces]
            calls[label] = calls.get(label, 0) + low(r["calls"] for r in rows)
            raised[label] = raised.get(label, 0) + low(r["raised"] for r in rows)
            self_s[label] = self_s.get(label, 0.0) + med(r["self_ns"] for r in rows) / 1e9
            durations.setdefault(label, []).extend(
                d for t in traces for d in t["durations_ns"].get(label, ()))
        keys = {k for t in traces for k in t["counters"]}
        for key in keys:
            counters[key] = counters.get(key, 0) + low(t["counters"].get(key, 0) for t in traces)

    out = {}
    for label, _, _, per_item in TRACED:
        out[f"{label}.calls"] = calls.get(label, 0)
        out[f"{label}.self_s"] = self_s.get(label, 0.0)
        if per_item:
            out[f"{label}.p50_us"] = med(durations[label]) / 1e3 if durations.get(label) else 0.0
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = self_s.get(f"cli.{command}", 0.0)
        out[f"cli.{command}.bytes_out"] = counters.get(f"cli.{command}.bytes_out", 0)

    invert = "calibration.ForceCalibration.invert"
    solved = calls.get(invert, 0) - raised.get(invert, 0)
    ws = pipes["workspace_map"]
    ws_trace = runs["workspace_map"]["trace"]
    ik_calls = med(t["stats"].get("fivebar.inverse_kinematics", {"calls": 0})["calls"]
                   for t in ws_trace)
    jac, _ = ws.maps(runs["workspace_map"]["plain"][0])
    twin_plain = runs["twin_track"]["plain"][0]
    flags = pipes["sensor_chain"].accuracy(runs["sensor_chain"]["plain"][0])["flags"]
    # every traced pass follows an untraced pass of the same pipeline
    paired_plain = [r for n in pipes for r in runs[n]["plain"][:len(runs[n]["traced"])]]
    all_traced = [r for n in pipes for r in runs[n]["traced"]]
    traced_s = sum(r.nominal_s for r in all_traced)
    root_s = sum(t["root_ns"] for n in pipes for t in runs[n]["trace"]) / 1e9
    out.update({
        "sensor.full_scale_intensity.calls_per_row":
            calls.get("sensor.full_scale_intensity", 0)
            / max(calls.get("sensor.simulate_reading", 0), 1),
        "calibration.invert.evals_per_call":
            calls.get("calibration.ForceCalibration.evaluate", 0) / max(solved, 1),
        "fivebar.ik_calls_per_cell": ik_calls / (2 * ws.cells),
        "fivebar.map_finite_frac": float(np.isfinite(jac).sum()) / ws.cells,
        "twin.track.dropped": pipes["twin_track"].report(twin_plain)["dropped"]
            + twin_plain.outcome["stream_failures"],
        **{f"decoder.flag.{flag}": flags[flag] for flag in REPORTED_FLAGS},
        "decoder.ok_ratio": flags["ok"] / sum(flags.values()),
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "trace.overhead_frac": traced_s / sum(r.nominal_s for r in paired_plain) - 1.0,
        "trace.unaccounted_frac": (traced_s - root_s) / traced_s,
    })
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    import pipelines  # imports spectratact, so only once src/ is on the path
    work = os.path.join(OUT, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup = measure_setup(SETUP_PROBES[scale])
    pipes = {}
    for name, cls in pipelines.PIPELINES.items():
        size = "tiny" if scale == "tiny" else ("full" if name == workload else "probe")
        os.makedirs(os.path.join(work, name))
        pipes[name] = cls(os.path.join(work, name), seed, **pipelines.SIZES[size][name])
    runs = schedule(pipes, workload, seconds, trace, work)
    attempted, failed, errors, hashes = check_runs(pipes, runs)
    e2e, extra = end_to_end(pipes, runs)
    e2e["setup_s"] = setup["setup_s"]
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["ok_frac"] = 1.0 - failed / attempted
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "environment": environment(),
        "sizes": {n: p.sizes for n, p in pipes.items()},
        "artifacts_sha256": hashes,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": errors[:20],
        "end_to_end": e2e, "extra": extra,
        "setup_samples": setup["samples"],
    }
    if trace:
        record["per_layer"] = per_layer(pipes, runs, setup)
    path = os.path.join(OUT, f"{workload}.trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    record["record_path"] = os.path.relpath(path, ROOT)
    return record


def report(record: dict) -> dict:
    """Print the run's metrics for people; return the result line's object."""
    trace = record["trace"]
    units = per_layer_units() if trace else END_TO_END
    values = record["per_layer"] if trace else record["end_to_end"]
    print(f"workload {record['workload']} seed {record['seed']} trace {trace} "
          f"passes {record['extra']['passes']}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]!r} {unit}")
    print(f"  failed_frac = {record['failed_frac']!r} ratio "
          f"({record['failed']} of {record['attempted']} items)")
    print(f"  step_p99_us = {record['extra']['step_p99_us']!r} us "
          f"(of {record['extra']['step_samples']} steps; not gated)")
    for error in record["errors"]:
        print(f"  error: {error}")
    print(f"  record: {record['record_path']}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results, summary = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--scale", args.scale],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(workload, {})[f"trace{trace}"] = line
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            if trace == 0:
                summary["metrics"].update(
                    {f"{workload}.{k}": v for k, v in line["metrics"].items()})
    bench = {"seed": args.seed, "seconds": args.seconds, "environment": environment(),
             "results": results}
    path = os.path.join(OUT, "BENCH.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spectratact", "__init__.py")):
        print(f"error: no spectratact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SPECTRATACT_THREADS", None)
    import spectratact
    if os.path.dirname(os.path.dirname(os.path.abspath(spectratact.__file__))) != SRC:
        print(f"error: imported spectratact from {spectratact.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
