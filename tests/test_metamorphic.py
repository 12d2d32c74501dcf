"""Metamorphic tests of the whole sweep point (Chen, Cheung and Yiu 1998,
"Metamorphic testing: a new approach for generating next test cases").

The model is exactly symmetric under (Delta, delta, v) -> (-Delta, -delta,
-v), and the cell enters only through kappa L, so a point at -Delta mirrors
the point at +Delta, and (N, L) -> (2N, L/2) changes nothing.  Measured on
`ne_30torr` and `vacuum` at |Delta| = 50 to 1000 MHz: the mirrored grid
agrees to 1.6e-15 of its span and T to 3.9e-11; A, B (on the scale D),
C, gamma_tilde and delta0 (on the scale gamma_tilde) to 2e-14.  The
rescaled cell gives identical grids, spectra and descriptors, also for
`vacuum` at 3x density and Delta = 0, where the z rule climbs its ladder
to GL-32.  The bounds below leave a margin over these figures; a sign slip
in a pole branch, or a z rule (order choice or drive solve) that reads L
outside kappa L, fails them.

The pipeline is first order in the probe, so the probe amplitude omega_p
enters no output: a point without probe is bitwise the point with one.
"""

from functools import lru_cache

import numpy as np
import pytest

from lambda_spectra import ScanConfig, preset_config, scan_point
from lambda_spectra.units import mhz

MIRROR_GRID = 1e-14  # of the grid's span
MIRROR_T = 1e-9
MIRROR_FIT = 1e-12  # each descriptor on its scale, as in fit_errors
RESCALED = 1e-13  # relative, on T and the descriptors

POINTS = [(preset, dl) for preset in ("ne_30torr", "vacuum")
          for dl in (50.0, 200.0, 1000.0)]
# (preset, Delta in MHz, density over the preset's)
RESCALED_POINTS = ([pytest.param(p, dl, 1.0, id=f"{p}-{dl}") for p, dl in POINTS]
                   + [pytest.param("vacuum", 0.0, 3.0, id="vacuum-0.0-3N")])


def rescaled(cfg, density=2.0, length=0.5):
    values = dict(cfg.values)
    values["medium", "density_cm3"] *= density
    values["medium", "length_cm"] *= length
    return ScanConfig(values=values)


@lru_cache(maxsize=None)
def point(preset, dl_mhz, scaled=False, density=1.0):
    cfg = rescaled(preset_config(preset), density, 1.0)
    return scan_point(rescaled(cfg) if scaled else cfg, mhz(dl_mhz))


def fit_errors(p, ref, sign):
    """Differences of the fitted line p against sign-mirrored ref, each on
    its scale."""
    d, gt = ref.D, ref.gamma_tilde
    return {"A": abs(p.A - ref.A) / d,
            "B": abs(p.B - sign * ref.B) / d,
            "C": abs(p.C - ref.C) / abs(ref.C),
            "gamma_tilde": abs(p.gamma_tilde - gt) / gt,
            "delta0": abs(p.delta0 - sign * ref.delta0) / gt}


@pytest.mark.parametrize("preset, dl", POINTS)
def test_negative_detuning_mirrors(preset, dl):
    spec, row = point(preset, dl)
    mirror, mrow = point(preset, -dl)
    span = np.ptp(spec.delta_grid)
    grid_error = np.max(np.abs(mirror.delta_grid + spec.delta_grid[::-1]))
    assert grid_error <= MIRROR_GRID * span
    t_error = np.max(np.abs(mirror.transmission - spec.transmission[::-1]))
    assert t_error <= MIRROR_T
    assert row.converged and mrow.converged
    errors = fit_errors(mrow.params, row.params, sign=-1.0)
    assert max(errors.values()) <= MIRROR_FIT, errors


@pytest.mark.parametrize("preset, dl, density", RESCALED_POINTS)
def test_double_density_half_length_is_identical(preset, dl, density):
    spec, row = point(preset, dl, density=density)
    other, orow = point(preset, dl, scaled=True, density=density)
    assert np.array_equal(other.delta_grid, spec.delta_grid)
    assert np.all(np.abs(other.transmission - spec.transmission)
                  <= RESCALED * spec.transmission)
    errors = fit_errors(orow.params, row.params, sign=1.0)
    assert max(errors.values()) <= RESCALED, errors


@pytest.mark.parametrize("dl", [0.0, 1400.0])
def test_probe_amplitude_enters_no_output(dl):
    cfg = preset_config("ne_30torr")
    assert cfg.get("fields", "omega_p_mhz") == 0.5
    no_probe = ScanConfig(values={**cfg.values, ("fields", "omega_p_mhz"): 0.0})
    spec, row = point("ne_30torr", dl)
    other, orow = scan_point(no_probe, mhz(dl))
    for name in ("delta_grid", "transmission", "gain_flag"):
        assert np.array_equal(getattr(other, name), getattr(spec, name))
    assert (other.baseline, other.z_error) == (spec.baseline, spec.z_error)
    assert repr(orow) == repr(row)
