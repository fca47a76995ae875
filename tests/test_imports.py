"""What importing the package loads."""

import os
import subprocess
import sys

import mheat


def test_import_loads_no_scipy_linalg():
    # scipy.linalg serves only the generic transport routes (the matrix
    # exponential of the Ricci operator), which import it where they run
    src = os.path.dirname(os.path.dirname(os.path.abspath(mheat.__file__)))
    code = "import sys, mheat; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
