"""Every name ``spectratact`` exports pays for itself.

A name stays in ``__init__`` if a module of the package uses it (its own
module counts: a result type or a helper there has a caller in ``src/``), if
the benchmark names it (``benchmarks/run.TRACED`` or
``benchmarks/pipelines.py``), or if it is one of the paper's library entry
points.  Anything else is code that only its tests run.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "spectratact")
BENCHMARKS = os.path.join(ROOT, "benchmarks")

# library entry points with a role in the paper that nothing in the package calls
PAPER_ENTRY_POINTS = {"estimate_resolution", "deviation_map", "fk_jacobian",
                      "snr_db_for_angle_sigma"}


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def used_names(tree):
    """Every ``Name`` and ``Attribute`` the module reads or writes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def exported():
    """Every name of a ``from .module import name`` in ``__init__``."""
    return [alias.asname or alias.name
            for node in parse(os.path.join(PACKAGE, "__init__.py")).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def traced_names():
    """The attribute names of ``benchmarks/run.TRACED``'s (label, module, attribute, per-item)."""
    for node in parse(os.path.join(BENCHMARKS, "run.py")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return {attr.split(".")[0] for _, _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("benchmarks/run.py defines no TRACED table")


def test_every_exported_name_has_a_user():
    names = exported()
    assert names  # the parse found the exports
    used = set().union(*(used_names(parse(os.path.join(PACKAGE, f)))
                         for f in os.listdir(PACKAGE)
                         if f.endswith(".py") and f != "__init__.py"))
    used |= traced_names() | used_names(parse(os.path.join(BENCHMARKS, "pipelines.py")))
    assert sorted(set(names) - used - PAPER_ENTRY_POINTS) == []
