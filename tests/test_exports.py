"""The package namespace: what a star import binds."""

import inspect

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
