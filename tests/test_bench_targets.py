"""The benchmark's traced functions stay attributes of the library.

``benchmarks/run.py --trace 1`` wraps every function in its ``TRACED``
table by module attribute, so a rename or removal in ``src/`` breaks the
traced run.  This checks the table without running the benchmark.
"""

import importlib.util
import os

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
