"""CSV schemas, round trips, and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_spectra import (DescriptorCurve, DescriptorRow, LineshapeParams,
                            ParseError, SchemaMismatch, Spectrum, export_csv,
                            fit_lineshape, load_spectrum_csv)
from lambda_spectra.csvio import DESCRIPTOR_HEADER, SPECTRUM_HEADER
from lambda_spectra.units import khz, mhz


def test_spectrum_round_trip(tmp_path):
    grid = mhz(1.0) * np.linspace(-1.23456789, 1.23456789, 57)
    trans = 1.0 + 0.1 * np.sin(np.linspace(0, 7, 57))
    spec = Spectrum(delta_grid=grid, transmission=trans)
    path = tmp_path / "s.csv"
    export_csv(spec, path)
    back = load_spectrum_csv(path)
    # full printed precision: 12 significant digits
    assert np.max(np.abs(back.delta_grid - grid)) < 1e-11 * np.max(np.abs(grid))
    assert np.max(np.abs(back.transmission - trans)) < 1e-11


# half a unit in the 12th significant digit, plus the MHz conversion's
# rounding; a value that is subnormal in MHz keeps only the float's own
# resolution there
_TWELVE_DIGITS = 5e-12 + 1e-15
_SUBNORMAL_STEP = mhz(np.finfo(float).smallest_subnormal)


@settings(max_examples=100, deadline=None)
@given(points=st.integers(2, 3201), centre_khz=st.floats(-1100.0, 1100.0),
       half_span_khz=st.floats(50.0, 60000.0),
       seed=st.integers(0, 2**32 - 1))
def test_spectrum_round_trip_keeps_twelve_digits(tmp_path_factory, points,
                                                 centre_khz, half_span_khz,
                                                 seed):
    # the presets' auto grids over |Delta| <= 2 GHz have centres within
    # +-1.05 MHz and half-spans of 52 kHz to 57 MHz; transmissions span
    # many decades in a thick cell
    grid = khz(centre_khz) + np.linspace(-khz(half_span_khz),
                                         khz(half_span_khz), points)
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.0, 1.5, points) * 10.0 ** rng.uniform(-300, 0, points)
    path = tmp_path_factory.mktemp("prop") / "s.csv"
    export_csv(Spectrum(delta_grid=grid, transmission=trans), path)
    back = load_spectrum_csv(path)
    assert np.all(np.abs(back.delta_grid - grid)
                  <= _TWELVE_DIGITS * np.abs(grid) + _SUBNORMAL_STEP)
    assert np.all(np.abs(back.transmission - trans) <= _TWELVE_DIGITS * trans)


def test_export_is_byte_deterministic(tmp_path):
    grid = mhz(1.0) * np.linspace(-2, 2, 33)
    spec = Spectrum(delta_grid=grid, transmission=np.exp(-grid**2 / mhz(1)**2))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(spec, a)
    export_csv(spec, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(SPECTRUM_HEADER.encode())
    assert b"\r" not in a.read_bytes()


def test_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("delta,transmission\n0,1\n1,1\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        load_spectrum_csv(p)


def test_malformed_row_names_the_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(f"{SPECTRUM_HEADER}\n0,1\n0.5,oops\n1,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 3"):
        load_spectrum_csv(p)
    p.write_text(f"{SPECTRUM_HEADER}\n0,1\n0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 3"):
        load_spectrum_csv(p)


def test_non_monotone_grid_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(f"{SPECTRUM_HEADER}\n0,1\n2,1\n1,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="increasing"):
        load_spectrum_csv(p)


def test_dispersion_fixture_fits_as_quarter_turn(tmp_path):
    # synthetic stand-in for an externally measured dispersion-shaped
    # resonance (e.g. a generated-field spectrum near zero detuning)
    d_mhz = np.linspace(-1.0, 1.0, 401)
    gt = 0.05
    t = 1.0 + gt * (0.8 * d_mhz) / (gt**2 + d_mhz**2)
    p = tmp_path / "stokes_like.csv"
    p.write_text(
        "\n".join([SPECTRUM_HEADER] +
                  [f"{d:.12g},{v:.12g}" for d, v in zip(d_mhz, t)]) + "\n",
        encoding="utf-8")
    fit = fit_lineshape(load_spectrum_csv(p))
    assert fit.converged
    assert fit.params.phi == pytest.approx(math.pi / 2, abs=0.02)


def test_descriptor_curve_round_trip(tmp_path):
    rows = [
        DescriptorRow(big_delta=mhz(0),
                      params=LineshapeParams(A=1.5, B=0.0, C=1.0,
                                             gamma_tilde=mhz(0.04),
                                             delta0=0.0),
                      residual_rms=1e-3, converged=True, gain_flag=False),
        DescriptorRow(big_delta=mhz(100),
                      params=LineshapeParams(A=-0.5, B=-0.5, C=1.0,
                                             gamma_tilde=mhz(0.01),
                                             delta0=mhz(0.002)),
                      residual_rms=2e-3, converged=True, gain_flag=False),
        DescriptorRow(big_delta=mhz(200),
                      params=LineshapeParams(*[math.nan] * 5),
                      residual_rms=0.0, converged=False, gain_flag=False),
    ]
    curve = DescriptorCurve(rows=rows)
    path = tmp_path / "d.csv"
    export_csv(curve, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == DESCRIPTOR_HEADER
    assert len(lines) == 4
    assert lines[1].split(",")[9] == "true"
    assert lines[3].split(",")[1] == "nan"
    assert lines[3].split(",")[9] == "false"



@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.6, 0.8),
                                  (math.nan, math.nan)])
def test_descriptor_row_polar_form_is_the_lineshape_rule(a, b):
    row = DescriptorRow(big_delta=0.0,
                        params=LineshapeParams(A=a, B=b, C=1.0,
                                               gamma_tilde=1.0, delta0=0.0),
                        residual_rms=0.0, converged=True, gain_flag=False)
    params = LineshapeParams(A=a, B=b, C=1.0, gamma_tilde=1.0, delta0=0.0)
    np.testing.assert_array_equal([row.params.D, row.params.phi],
                                  [params.D, params.phi])
    assert math.isnan(row.params.phi) == math.isnan(a)
