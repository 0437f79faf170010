"""The package's import path stays free of scipy and of ``numpy.random``.

scipy is a test dependency only (the oracle for the in-house PCHIP);
importing it would add about half a second and tens of MB to every
process that runs the CLI.  numpy loads ``numpy.random`` lazily, and the
commands that draw no noise never need it (about 14 ms per process).
"""

import os
import subprocess
import sys

import spectratact


def loaded(package: str) -> str:
    """Modules of ``package`` that importing the package and its CLI loads, as printed."""
    probe = ("import spectratact, spectratact.cli, sys; "
             f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectratact.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert loaded("scipy") == "[]"


def test_cli_import_loads_no_numpy_random():
    # sensor.substreams registers its seed-word type with numpy.random on first use
    assert loaded("numpy.random") == "[]"
