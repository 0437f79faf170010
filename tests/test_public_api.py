"""Every name ``spectratact`` exports pays for itself.

A name stays in ``__init__`` if a module of the package uses it (its own
module counts: a result type or a helper there has a caller in ``src/``), if
the benchmark names it (``benchmarks/run.TRACED`` or
``benchmarks/pipelines.py``), or if it is one of the paper's library entry
points.  Anything else is code that only its tests run.  The same holds for
every default an exported function or method declares: some call in ``src/``
or ``benchmarks/`` passes each defaulted parameter, or it is a constant.
The CLI keeps one write path: one table writer and one file writer.  It
calibrates and decodes through the library's two array calls alone.  Every
caller of the forward model passes it axes, not rows.
"""

import ast
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "spectratact")
BENCHMARKS = os.path.join(ROOT, "benchmarks")

# library entry points with a role in the paper that nothing in the package calls
PAPER_ENTRY_POINTS = {"estimate_resolution", "deviation_map", "fk_jacobian",
                      "snr_db_for_angle_sigma"}

# defaulted parameters that no call in src/ or benchmarks/ passes, kept on purpose
UNPASSED_KNOBS = {
    # paper entry points: the held-out accuracy and the Monte Carlo trial count
    ("estimate_resolution", "held_out_positions"), ("estimate_resolution", "held_out_forces"),
    ("deviation_map", "n_trials"),
    # the oracle of the reach tests: a strict interior at a given margin
    ("reachable", "margin"),
    # the scalar layer the benchmark pins, to be retired with it
    ("simulate_reading", "noise"), ("simulate_reading", "rng"),
}


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


def exported_defs():
    """``(name, def)`` per exported function and per method of an exported class.

    A method of a class is named as its callers name it: ``__init__`` by the class.
    """
    wanted = {}
    for node in parse(os.path.join(PACKAGE, "__init__.py")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            wanted.setdefault(node.module, set()).update(alias.name for alias in node.names)
    for module, names in wanted.items():
        for node in parse(os.path.join(PACKAGE, f"{module}.py")).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                yield node.name, node
            elif isinstance(node, ast.ClassDef) and node.name in names:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield node.name if item.name == "__init__" else item.name, item


def defaulted(func):
    """``(position or None, name)`` per defaulted parameter; positions skip self/cls."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 0 if any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list) \
        else 1 if positional and positional[0].arg in ("self", "cls") else 0
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            len(positional) - len(args.defaults)):
        yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def passed(trees):
    """``{callee name: (positions, keywords, rest)}`` over every call in ``trees``.

    Some call passes each of ``positions`` by position and each of ``keywords``
    by keyword, and every position from ``rest`` on: a ``*args`` passes every
    position from its own on, and a ``**kwargs`` every parameter that its call
    does not pass by position (its keyword is ``"**"``).
    """
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                positions, keywords, rest = calls.get(callee, (set(), set(), math.inf))
                plain = next((i for i, arg in enumerate(node.args)
                              if isinstance(arg, ast.Starred)), len(node.args))
                starred = plain < len(node.args) or any(k.arg is None for k in node.keywords)
                calls[callee] = (positions | set(range(plain)),
                                 keywords | {k.arg or "**" for k in node.keywords},
                                 min(rest, plain) if starred else rest)
    return calls


def test_every_defaulted_parameter_is_passed():
    """A default that no caller overrides is a knob: its value belongs in the body."""
    trees = [parse(os.path.join(folder, f)) for folder in (PACKAGE, BENCHMARKS)
             for f in os.listdir(folder) if f.endswith(".py")]
    calls = passed(trees)
    unpassed = set()
    for name, func in exported_defs():
        positions, keywords, rest = calls.get(name, (set(), set(), math.inf))
        for position, param in defaulted(func):
            by_keyword = param in keywords or "**" in keywords
            if not (by_keyword or position is not None and (position in positions
                                                            or position >= rest)):
                unpassed.add((name, param))
    assert sorted(unpassed - UNPASSED_KNOBS) == []
    assert sorted(UNPASSED_KNOBS - unpassed) == []  # the allowance names no passed knob


def writes_a_file(call):
    """Whether ``call`` opens or makes a file for writing."""
    name = ast.unparse(call.func)
    if name in ("os.open", "os.fdopen") or name.startswith("tempfile.") \
            or name.endswith((".write_text", ".write_bytes")):
        return True
    if name == "open" or name.endswith(".open"):
        mode = call.args[1] if len(call.args) > 1 else \
            next((k.value for k in call.keywords if k.arg == "mode"), None)
        return mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt"))
    return False


def test_cli_writes_through_one_table_writer_and_one_file_writer():
    """``cli._write_csv`` alone builds a ``csv.writer``, and ``cli._atomic_write`` alone opens
    a file for writing: no command brings back a row writer or a file with another mode."""
    owners = {"rows": set(), "files": set()}
    for node in parse(os.path.join(PACKAGE, "cli.py")).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for call in (c for c in ast.walk(node) if isinstance(c, ast.Call)):
            name = ast.unparse(call.func)
            if name.split(".")[-1] in ("writer", "DictWriter", "writerow", "writerows"):
                owners["rows"].add(owner)
            if writes_a_file(call):
                owners["files"].add(owner)
    assert owners == {"rows": {"_write_csv"}, "files": {"_atomic_write"}}


# calls that copy one axis entry per row; the forward model takes the axes themselves
ROW_EXPANSIONS = {"np.full", "np.repeat", "np.tile"}
FORWARD_MODEL = {"grid_intensities", "_readings"}


def expands_an_axis(node, expanded):
    """Whether ``node`` holds a row expansion, a list or tuple times a length, or a name in
    ``expanded``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and ast.unparse(sub.func) in ROW_EXPANSIONS \
                or isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult) \
                and any(isinstance(side, (ast.List, ast.Tuple)) for side in (sub.left, sub.right)) \
                or isinstance(sub, ast.Name) and sub.id in expanded:
            return True
    return False


def bound_names(target):
    """The names an assignment target binds: not those inside a subscript or an attribute."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(bound_names, target.elts))
    return set()


def forward_model_expansions(tree):
    """``(line, argument)`` per forward-model call argument built by a row expansion, directly
    or through a name its function assigned from one."""
    found = []
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        assigns = [n for n in ast.walk(func) if isinstance(n, ast.Assign)]
        expanded, grew = set(), True
        while grew:  # a name assigned from an expanded name is expanded too
            names = set().union(*(bound_names(target) for a in assigns
                                  if expands_an_axis(a.value, expanded) for target in a.targets))
            grew, expanded = not names <= expanded, expanded | names
        for call in (n for n in ast.walk(func) if isinstance(n, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if callee in FORWARD_MODEL:
                found += [(call.lineno, ast.unparse(arg))
                          for arg in call.args + [k.value for k in call.keywords]
                          if expands_an_axis(arg, expanded)]
    return found


def test_forward_model_callers_pass_axes():
    """No ``src/`` call of the forward model passes an argument built by ``np.full``,
    ``np.repeat``, ``np.tile`` or a list times a length: it reads the grid of two axes, so a
    caller passes ``[force]`` or ``[position]``, never one copy per row."""
    found = {f: forward_model_expansions(parse(os.path.join(PACKAGE, f)))
             for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    assert {f: hits for f, hits in found.items() if hits} == {}
    # the guard flags the forms it names, also through a name
    paired = ast.parse(
        "def f(sensor, xs, force_n):\n"
        "    _readings(sensor, xs, np.full(len(xs), force_n), None, None)\n"
        "    fs = [force_n] * len(xs)\n"
        "    grid_intensities(sensor, xs, fs)\n"
        "    ps = np.tile(xs, 2)\n"
        "    qs = ps\n"
        "    sensor.grid_intensities(sensor, qs, forces_n=[force_n])\n"
        "    grid_intensities(sensor, xs, [force_n])\n")
    assert [line for line, _ in forward_model_expansions(paired)] == [2, 4, 7]


def test_cli_calibrates_and_decodes_through_the_library_calls():
    """``cli.py`` imports no private name of ``calibration`` and none of the fitting steps
    that ``calibrate_samples`` and ``CalibrationFile.decode`` run, so the policy has one home."""
    tree = parse(os.path.join(PACKAGE, "cli.py"))
    from_calibration = {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.module == "calibration"
                        for alias in node.names}
    assert "calibrate_samples" in from_calibration
    assert sorted(name for name in from_calibration if name.startswith("_")) == []
    steps = {"fit_position", "fit_force", "transmission_factors", "Transmission"}
    assert sorted(used_names(tree) & steps) == []
