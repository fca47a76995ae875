"""What importing the package loads."""

import importlib
import inspect
import os
import pkgutil
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


def test_import_adds_only_mheat_modules():
    # what `import mheat` costs beyond numpy, scipy.special and the standard
    # library modules the package uses: its own modules, nothing else
    src = os.path.dirname(os.path.dirname(os.path.abspath(mheat.__file__)))
    code = (
        "import sys\n"
        "import dataclasses, functools, math, os, typing, warnings\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import numpy, numpy.polynomial.legendre, scipy.special\n"
        "before = set(sys.modules)\n"
        "import mheat\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    added = out.stdout.split()
    assert "mheat" in added
    assert [name for name in added
            if name != "mheat" and not name.startswith("mheat.")] == []


def test_public_names_resolve():
    # every exported name of the package and of each submodule is there,
    # and the single-path API is not: walks go through transport.ChunkWalk,
    # Q through q_decay_factor and W through w_update
    for name in mheat.__all__:
        assert hasattr(mheat, name), name
    for sub in pkgutil.iter_modules(mheat.__path__, "mheat."):
        module = importlib.import_module(sub.name)
        for name in module.__all__:
            assert hasattr(module, name), f"{sub.name}.{name}"
    for name in ("PathRecord", "sample_path", "damped_transport", "w_process",
                 "w_step"):
        assert not hasattr(mheat, name), name
        assert not hasattr(mheat.transport, name), name
    # the bismut profiles are fixed in closed form, and the Euclidean
    # quadrature box has one half-width
    for name in ("default_kdot", "default_ldot"):
        assert not hasattr(mheat, name), name
        assert not hasattr(mheat.semigroup, name), name
    for name in ("kdot", "ldot", "validate_profiles"):
        assert not hasattr(mheat.HessianEstimatorConfig, name), name
    assert "half_width" not in inspect.signature(mheat.quadrature_grid).parameters
    # no per-point wrappers: kernels, steps, distances and volumes and field
    # oracles are the batched calls, and the curvature package reads only
    # its model
    for module, names in [
            (mheat.oracle, ("KernelEval", "heat_kernel")),
            (mheat.geometry, ("geodesic_step", "distance_volume",
                              "OrthonormalFrame", "_frame_at"))]:
        for name in names:
            assert not hasattr(mheat, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("eval", "grad", "hess", "laplacian", "support_radius"):
        assert not hasattr(mheat.ScalarField, name), name
    assert "support_radius" not in inspect.signature(mheat.ScalarField).parameters
    assert "model_kind" not in inspect.signature(mheat.QuadratureGrid).parameters
    assert not hasattr(mheat.transport.ChunkWalk, "group_step")
    assert list(inspect.signature(mheat.curvature_package).parameters) == ["m"]
    assert len(mheat.__all__) == 31
