"""CSV schemas, round trips, and diagnostics."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lambda_spectra import (DescriptorCurve, DescriptorRow, LineshapeParams,
                            ParseError, SchemaMismatch, Spectrum, export_csv,
                            fit_lineshape, load_spectrum_csv)
from lambda_spectra import csvio
from lambda_spectra.cli import main
from lambda_spectra.csvio import DESCRIPTOR_HEADER, SPECTRUM_HEADER
from lambda_spectra.units import khz, mhz

from oracles import RejectedRow, read_spectrum_body


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


def _row_loop_refused(path, _lines):
    raise AssertionError(f"{path} went through the row loop")


@settings(max_examples=50, deadline=None)
@given(points=st.integers(2, 3201), centre_khz=st.floats(-1100.0, 1100.0),
       half_span_khz=st.floats(50.0, 60000.0),
       seed=st.integers(0, 2**32 - 1))
def test_exported_spectra_load_in_one_array_pass(tmp_path_factory, points,
                                                 centre_khz, half_span_khz,
                                                 seed):
    # what export writes must never need the row loop: a loader that sent
    # every file down it would still load them, only slower
    grid = khz(centre_khz) + np.linspace(-khz(half_span_khz),
                                         khz(half_span_khz), points)
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.0, 1.5, points) * 10.0 ** rng.uniform(-300, 0, points)
    trans[rng.random(points) < 0.1] = 0.0
    path = tmp_path_factory.mktemp("fast") / "s.csv"
    export_csv(Spectrum(delta_grid=grid, transmission=trans), path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_parse_rows", _row_loop_refused)
        back = load_spectrum_csv(path)
    assert back.delta_grid.size == points


@st.composite
def _number_text(draw, x):
    """x written in one of the forms a spectrum file may hold, each of
    which float() reads back to x exactly, padded with whitespace."""
    r = repr(x)
    forms = [r, f"{x:.17e}", f"{x:.17E}"]
    if r.startswith("0."):
        forms.append(r[1:])
    if r.startswith("-0."):
        forms.append("-" + r[2:])
    if not r.startswith("-"):
        forms.append("+" + r)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return draw(pad) + draw(st.sampled_from(forms)) + draw(pad)


@st.composite
def _spectrum_rows(draw, min_rows=2):
    """(grid, transmission) float lists: the grid is distinct integers
    times one power of ten, so it stays strictly increasing in rad/s."""
    ints = draw(st.lists(st.integers(-10**6, 10**6), min_size=min_rows,
                         max_size=30, unique=True))
    scale = 10.0 ** draw(st.integers(-300, 3))
    grid = [k * scale for k in sorted(ints)]
    trans = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=len(grid), max_size=len(grid)))
    return grid, trans


# loadtxt skips empty lines but refuses whitespace-only ones, which send
# a file down the row loop: half the files hold only empty ones
_BLANK_KINDS = st.sampled_from([[""], ["", " ", "\t", " \t "]])


def _write_body(path, data, rows, eol):
    blank = st.lists(st.sampled_from(data.draw(_BLANK_KINDS)), max_size=2)
    lines = [SPECTRUM_HEADER]
    for row in rows:
        lines += data.draw(blank)
        lines.append(",".join(row))
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), eol=st.sampled_from(["\n", "\r\n"]))
def test_loader_agrees_with_oracle_on_valid_text(tmp_path_factory, data, eol):
    grid, trans = data.draw(_spectrum_rows())
    rows = [[data.draw(_number_text(d)), data.draw(_number_text(t))]
            for d, t in zip(grid, trans)]
    path = tmp_path_factory.mktemp("valid") / "s.csv"
    _write_body(path, data, rows, eol)
    ref_grid, ref_trans = read_spectrum_body(path)
    back = load_spectrum_csv(path)
    assert back.delta_grid.tobytes() == (mhz(1.0) * np.array(ref_grid)).tobytes()
    assert back.transmission.tobytes() == np.array(ref_trans).tobytes()


# "width" gives every row 1 or 3 columns, "short" keeps 0 or 1 rows; the
# others each spoil one data row
_DEFECTS = ("field", "columns", "width", "non-finite", "comment", "order",
            "short")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), eol=st.sampled_from(["\n", "\r\n"]),
       defects=st.lists(st.sampled_from(_DEFECTS), min_size=1, max_size=2))
def test_loader_names_the_oracles_row_on_malformed_text(tmp_path_factory, data,
                                                        eol, defects):
    grid, trans = data.draw(_spectrum_rows(min_rows=3))
    rows = [[repr(d), repr(t)] for d, t in zip(grid, trans)]
    if "width" in defects:
        rows = [data.draw(st.sampled_from([r[:1], r + ["1"]])) for r in rows]
    # from the last row up, so that each defect sees the rows before it
    # as drawn
    ks = data.draw(st.permutations(range(1, len(rows))))
    for k, defect in sorted(zip(ks, defects), reverse=True):
        column = data.draw(st.integers(0, len(rows[k]) - 1))
        if defect == "field":
            rows[k][column] = data.draw(st.sampled_from(
                ["oops", "", "1e", "0x10", "1d5", ".", "--1", "1 2", "'1'"]))
        elif defect == "columns":
            rows[k] = data.draw(st.sampled_from([rows[k][:1], rows[k] + ["1"]]))
        elif defect == "non-finite":
            rows[k][column] = data.draw(st.sampled_from(
                ["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"]))
        elif defect == "comment":
            rows.insert(k, [data.draw(st.sampled_from(["# note", "#1", " #"]))])
        elif defect == "order":
            rows[k][0] = data.draw(st.sampled_from(
                [rows[k - 1][0], repr(grid[0] - 1.0)]))
    if "short" in defects:
        rows = rows[:data.draw(st.integers(0, 1))]
    path = tmp_path_factory.mktemp("bad") / "s.csv"
    _write_body(path, data, rows, eol)
    with pytest.raises(RejectedRow) as ref:
        read_spectrum_body(path)
    expected = ("need at least 2 data rows" if ref.value.row is None
                else f": row {ref.value.row}: ")
    with pytest.raises(ParseError, match=re.escape(expected)):
        load_spectrum_csv(path)


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
    with pytest.raises(ParseError, match="row 4: .*increasing"):
        load_spectrum_csv(p)
    # the row named is the file line, blank lines included
    p.write_text(f"{SPECTRUM_HEADER}\n1,0.5\n\n3,0.5\n2,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 5: .*increasing"):
        load_spectrum_csv(p)


@pytest.mark.parametrize("body, row", [
    # adjacent doubles in MHz that are one double in rad/s
    ("0,1\n1000000.0000000002,1\n1000000.0000000003,1\n", 4),
    # finite in MHz, past the float range in rad/s
    ("0,1\n1e303,1\n", 3),
    ("-1e303,1\n0,1\n1,1\n", 2),
])
def test_grid_checked_in_rad_per_s(tmp_path, capsys, body, row):
    # a ParseError naming the line, and no RuntimeWarning (an error here)
    p = tmp_path / "s.csv"
    p.write_text(f"{SPECTRUM_HEADER}\n{body}", encoding="utf-8")
    with pytest.raises(ParseError, match=f"row {row}: "):
        load_spectrum_csv(p)
    assert main(["fit", str(p)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_export_refuses_a_grid_load_would_refuse(tmp_path):
    # 12 digits write the first two points as the same row
    grid = mhz(1.0) * np.array([1.0, 1.0 + 1e-12, 2.0])
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="would not load"):
        export_csv(Spectrum(delta_grid=grid, transmission=np.ones(3)), path)
    assert not path.exists()


@st.composite
def _near_colliding_grid(draw):
    """2-3 grid points in rad/s, each 1e4 to 2e5 ulps or 3e-13 to 3e-11
    of itself above the last (12 digits keep neighbours apart from about
    1e-11 relative), from subnormal to the top of the float range."""
    sign = draw(st.sampled_from([-1.0, 1.0]))
    x = sign * 10.0 ** draw(st.floats(-323.0, 308.25))
    grid = [x]
    for _ in range(draw(st.integers(1, 2))):
        x = grid[-1]
        if draw(st.booleans()):
            step = int(10.0 ** draw(st.floats(4.0, 5.3))) * np.spacing(abs(x))
        else:
            step = abs(x) * 10.0 ** draw(st.floats(-12.5, -10.5))
        grid.append(float(x + step))
    return np.array(grid)


@settings(max_examples=300, deadline=None)
@given(grid=_near_colliding_grid())
# at the top of the float range, 12 digits round the first grid up to
# inf in rad/s, and the second not
@example(grid=np.array([1e308, 1.7976931348623155e308]))
@example(grid=np.array([1e308, 1.7976931348423573e308]))
def test_export_refuses_exactly_what_load_refuses(tmp_path_factory, grid):
    assume(np.isfinite(grid).all() and (np.diff(grid) > 0).all())
    spec = Spectrum(delta_grid=grid, transmission=np.ones(grid.size))
    tmp = tmp_path_factory.mktemp("edge")
    # the file the schema describes, written without export_csv
    written = tmp / "written.csv"
    written.write_text(SPECTRUM_HEADER + "\n" + "".join(
        f"{d / mhz(1.0):.12g},1\n" for d in grid), encoding="utf-8")
    try:
        load_spectrum_csv(written)
        loads = True
    except ParseError:
        loads = False
    exported = tmp / "exported.csv"
    if loads:
        export_csv(spec, exported)
        assert exported.read_bytes() == written.read_bytes()
    else:
        with pytest.raises(ValueError, match="would not load"):
            export_csv(spec, exported)
        assert not exported.exists()


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
