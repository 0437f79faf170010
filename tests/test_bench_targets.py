"""What the benchmark uses of the library stays there.

``benchmarks/run.py --trace 1`` wraps every function in its ``TRACED``
table by module attribute, and the pipelines and the set-up probe call
library modules by attribute (``fivebar.working_branch``), so a rename
or removal in ``src/`` breaks the benchmark.  This checks both, and runs
each pipeline once in process at its tiny size, so that a changed call
shape or result fails here rather than as a failed benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


def test_every_tracer_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  os.path.join(BENCHMARKS, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.tracer_targets()
    assert set(targets) == {label for label, *_ in run.TRACED}
    for label, (owner, name) in targets.items():
        assert callable(getattr(owner, name, None)), label


# the library modules the benchmark scripts import by name
LIBRARY_MODULES = ("calibration", "cli", "fivebar", "sensor", "twin")


def library_attributes(path):
    """Dotted ``module.attr[.attr...]`` chains rooted at a library module name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in LIBRARY_MODULES:
            chains.add(".".join([node.id, *reversed(parts)]))
    return chains


@pytest.mark.parametrize("script", ["pipelines.py", "setup_probe.py"])
def test_every_library_attribute_the_benchmark_uses_exists(script):
    chains = library_attributes(os.path.join(BENCHMARKS, script))
    assert chains  # the walk found the benchmark's calls
    for chain in sorted(chains):
        module, *path = chain.split(".")
        owner = importlib.import_module(f"spectratact.{module}")
        for name in path:
            assert hasattr(owner, name), chain
            owner = getattr(owner, name)


@pytest.fixture(scope="module")
def pipelines():
    """``benchmarks/pipelines.py``, imported as the benchmark imports it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(BENCHMARKS)  # pipelines imports its sibling hostspeed
        spec = importlib.util.spec_from_file_location(
            "bench_pipelines", os.path.join(BENCHMARKS, "pipelines.py"))
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", ["sensor_chain", "twin_track", "workspace_map"])
def test_each_pipeline_passes_its_own_check_at_tiny_size(pipelines, name, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    pipeline = pipelines.PIPELINES[name](str(work), 1, **pipelines.SIZES["tiny"][name])
    result = pipeline.run(str(tmp_path / "pass"))
    assert result.error is None, result.error
    assert pipeline.items() > 0
    assert pipeline.check(result) == 0


def test_every_bench_record_holds_the_declared_metrics():
    """Each committed ``BENCH_<n>.json`` (``run.py --workload all``'s ``.bench_out/BENCH.json``)
    ran correct, names the code and host it ran on, and holds every end-to-end metric that
    ``BENCHMARK.json`` declares for every workload, untraced."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {metric["name"] for metric in declared["end_to_end"]}
    records = [name for name in os.listdir(ROOT) if re.fullmatch(r"BENCH_\d+\.json", name)]
    assert records  # BENCH_1.json starts the perf trajectory
    for name in sorted(records):
        with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
            bench = json.load(fh)
        environment = bench["environment"]
        for key in ("git_sha", "src_sha256", "numpy", "nproc"):
            assert environment.get(key), (name, key)
        for workload in (entry["name"] for entry in declared["workloads"]):
            lines = bench["results"][workload]
            assert lines and all(line["correct"] for line in lines.values()), (name, workload)
            untraced = lines["trace0"]["metrics"]
            assert metrics <= set(untraced), (name, workload, metrics - set(untraced))
            assert all(isinstance(untraced[m]["value"], (int, float)) for m in metrics), name
