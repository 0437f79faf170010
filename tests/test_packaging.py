"""The package's import path stays free of scipy.

scipy is a test dependency only (the oracle for the in-house PCHIP);
importing it would add about half a second and tens of MB to every
process that runs the CLI.
"""

import os
import subprocess
import sys

import spectratact

PROBE = ("import spectratact, spectratact.cli, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectratact.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
