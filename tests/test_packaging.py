"""The package's import path stays free of scipy and of lazily loaded numpy modules.

scipy is a test dependency only (the oracle for the in-house PCHIP);
importing it would add about half a second and tens of MB to every
process that runs the CLI.  numpy loads ``numpy.random`` and ``numpy.ma``
lazily: the commands that draw no noise never need the first (about
14 ms per process), and nothing the package runs needs the second (about
19 ms and 1.3 MB).  A CLI process exits with the code
:func:`spectratact.cli.main` returns.
"""

import json
import os
import subprocess
import sys

import pytest

import spectratact
from spectratact import SensorConfig
from spectratact.twin import TwinAssembly


def python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectratact.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=check)


def loaded(package: str, run: str = "") -> str:
    """Modules of ``package`` loaded once the package and its CLI are imported and the
    statements ``run`` ran, as printed on the last line."""
    probe = (f"import spectratact, spectratact.cli, sys; {run}"
             f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    return python("-c", probe).stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert loaded("scipy") == "[]"


def test_cli_import_loads_no_numpy_random():
    # sensor.substreams builds its numpy.random seed type on first use, not at import
    assert loaded("numpy.random") == "[]"


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_noise_free_cli_run_loads_no_numpy_random(command, tmp_path):
    config = tmp_path / "config.json"
    doc = TwinAssembly() if command == "track" else SensorConfig.default()
    config.write_text(json.dumps(doc.to_dict()))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o"), *{
        "simulate": ["--positions", "0:85:18", "--forces", "0.1,2,10"],  # 54 rows
        "track": ["--generate", "circle:30:40:120:50"],  # 100 (sample, joint) rows
    }[command]]
    assert loaded("numpy.random", f"assert spectratact.cli.main({argv!r}) == 0; ") == "[]"


def test_setup_and_calibrate_load_no_numpy_module(tmp_path):
    # fit_position's np.unique imported all of numpy.ma in every set-up and calibrate
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SensorConfig.default().to_dict()))
    sim, cal = tmp_path / "sim", tmp_path / "cal"
    simulate = ["simulate", "--config", str(config), "--out", str(sim),  # noise-free
                "--positions", "0:85:18", "--forces", "0.1,2,10"]
    calibrate = ["calibrate", "--config", str(config), "--out", str(cal),
                 "--samples", str(sim / "sweep.csv")]
    probe = ("import sys, numpy; before = set(sys.modules); "
             "from spectratact import SensorConfig, cli; "
             "from spectratact.twin import TwinAssembly; "
             "SensorConfig.default().to_dict(); TwinAssembly().to_dict(); "
             f"assert cli.main({simulate!r}) == 0 and cli.main({calibrate!r}) == 0; "
             "print(sorted(m for m in set(sys.modules) - before "
             "if m.startswith('numpy.')))")
    assert python("-c", probe).stdout.strip().splitlines()[-1] == "[]"
    assert (cal / "calibration.json").exists()


@pytest.mark.parametrize("argv, code, printed", [
    (["--version"], 0, spectratact.__version__),
    (["simulate", "--forces", "-1e300,1"], 2, "usage:"),  # a usage error
])
def test_module_exits_with_the_code_main_returns(argv, code, printed):
    done = python("-m", "spectratact.cli", *argv, check=False)
    assert done.returncode == code
    assert printed in done.stdout + done.stderr
