"""The package namespace: what a star import binds, and what importing
the package loads."""

import inspect
import os
import subprocess
import sys

import lambda_spectra


def test_all_names_classes_functions_and_constants():
    for name in lambda_spectra.__all__:
        value = getattr(lambda_spectra, name)
        assert (inspect.isclass(value) or inspect.isfunction(value)
                or isinstance(value, (bool, int, float, str))), name


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from lambda_spectra import *", namespace)
    assert not [name for name, value in namespace.items()
                if inspect.ismodule(value)]
    assert "population_differences" in namespace
    assert "susceptibility_analytic" not in namespace


def test_import_loads_no_ode_solver():
    # the benchmark's setup_s includes import time; the drive's depletion
    # is a quadrature, so nothing needs scipy.integrate
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, lambda_spectra; "
         "print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env).stdout
    assert loaded.strip() == "False"
