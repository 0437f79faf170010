"""What the benchmark uses of the library stays there.

``benchmarks/run.py --trace 1`` wraps every function in its ``TRACED``
table by module attribute, and the pipelines and the set-up probe call
library modules by attribute (``fivebar.working_branch``), so a rename
or removal in ``src/`` breaks the benchmark.  This checks both without
running it.
"""

import ast
import importlib
import importlib.util
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


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
