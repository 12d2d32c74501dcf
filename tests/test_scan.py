"""Config parsing, presets, scan pipeline, CLI, determinism."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lambda_spectra import (ConfigError, LambdaSpectraError, Spectrum,
                            initial_guess, parse_config, preset_config,
                            run_scan, transmit)
from lambda_spectra.cli import main
from lambda_spectra.csvio import SPECTRUM_HEADER
from lambda_spectra.scan import (_SCHEMA, ScanConfig, auto_delta_grid,
                                 config_text, preset_names, scan_point)
from lambda_spectra.units import khz, mhz

from oracles import grid_refine_fit

CHEAP_CONFIG = """
[medium]
density_cm3 = 2.5e11
length_cm = 2.5
wavelength_nm = 794.979
ku_mhz = 250

[rates]
gamma_r_mhz = 3
gamma_deph_mhz = 150
gamma_bc_khz = 0.7

[fields]
omega_d_mhz = 2.5
omega_p_mhz = 0.5

[delta_grid]
mode = auto
points = 201

[sweep]
start_mhz = 0
stop_mhz = 1600
points = 3

[output]
directory = out
write_spectra = true
"""


# configs that passed validation and then crashed a run: the edits to
# CHEAP_CONFIG and the error they must raise instead
RUN_CRASHES = [
    pytest.param([("length_cm = 2.5", "length_cm = 0")],
                 r"\[medium\] length_cm", id="zero_length"),
    pytest.param([("omega_d_mhz = 2.5\nomega_p_mhz = 0.5",
                   "omega_d_mhz = 0\nomega_p_mhz = 0"),
                  ("gamma_bc_khz = 0.7", "gamma_bc_khz = 0")],
                 r"\[fields\] omega_d_mhz", id="no_drive_no_relaxation"),
    pytest.param([("gamma_r_mhz = 3", "gamma_r_mhz = 0"),
                  ("gamma_deph_mhz = 150", "gamma_deph_mhz = 0")],
                 r"\[rates\] gamma_r_mhz", id="zero_linewidth"),
    # np.linspace gives [1, 1, 1]
    pytest.param([("start_mhz = 0\nstop_mhz = 1600",
                   "start_mhz = 1\nstop_mhz = 1.0000000000000002")],
                 r"\[sweep\] stop_mhz: .*stop > start",
                 id="sweep_below_float_resolution"),
    pytest.param([("density_cm3 = 2.5e11", "density_cm3 = nan")],
                 r"\[medium\] density_cm3: must be finite", id="nan_density"),
    pytest.param([("ku_mhz = 250", "ku_mhz = nan")],
                 r"\[medium\] ku_mhz: must be finite", id="nan_doppler_width"),
    pytest.param([("gamma_bc_khz = 0.7", "gamma_bc_khz = inf")],
                 r"\[rates\] gamma_bc_khz: must be finite",
                 id="infinite_ground_relaxation"),
    # 1e-323 cm is 0 m
    pytest.param([("length_cm = 2.5", "length_cm = 1e-323")],
                 r"\[medium\] length_cm", id="length_underflows_to_zero"),
    # finite in the config, not in rad/s, 1/m^3 or (rad/s)^2
    pytest.param([("density_cm3 = 2.5e11", "density_cm3 = 1e305")],
                 r"\[medium\] density_cm3: .*finite", id="density_overflows"),
    pytest.param([("omega_d_mhz = 2.5", "omega_d_mhz = 1e303")],
                 r"\[fields\] omega_d_mhz: .*finite", id="drive_overflows"),
    pytest.param([("ku_mhz = 250", "ku_mhz = 1e305")],
                 r"\[medium\] ku_mhz: .*finite",
                 id="doppler_width_overflows"),
    pytest.param([("omega_d_mhz = 2.5", "omega_d_mhz = 1e160")],
                 r"\[fields\] omega_d_mhz: must be 0 or within",
                 id="drive_squared_overflows"),
]


def edited(edits):
    text = CHEAP_CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


def refused_or_runs(values, edits):
    """A config validate accepts must not crash a run: either it is
    refused, naming an edited key, or every sweep point returns or raises
    a package error (warnings are errors here)."""
    try:
        cfg = parse_config(config_text(ScanConfig(values=values)))
    except ConfigError as exc:
        assert any(f"[{s}] {k}" in str(exc) for s, k in edits), exc
        return
    for big_delta in cfg.sweep_deltas():
        try:
            scan_point(cfg, float(big_delta))
        except LambdaSpectraError:
            pass


def far_from_the_presets(seed):
    """400 seeded (values, edits) draws that set several keys far from the
    presets at once: each key below is 0 with probability 0.2, else
    log-uniform over 1e-38 to 1e24 in config units; no probe, and one
    sweep point at +-1e-30 to 1e23 MHz."""
    keys = [("medium", "ku_mhz"), ("rates", "gamma_r_mhz"),
            ("rates", "gamma_deph_mhz"), ("rates", "gamma_bc_khz"),
            ("fields", "omega_d_mhz"), ("medium", "density_cm3"),
            ("medium", "length_cm")]
    base = {**parse_config(CHEAP_CONFIG).values, ("sweep", "points"): 1,
            ("fields", "omega_p_mhz"): 0.0}
    rng = np.random.default_rng(seed)
    for _ in range(400):
        edits = {k: 0.0 if rng.random() < 0.2
                 else float(10.0 ** rng.uniform(-38, 24)) for k in keys}
        at = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-30, 23))
        edits["sweep", "start_mhz"] = edits["sweep", "stop_mhz"] = at
        yield {**base, **edits}, edits


def transmit_or_error(rates, fields, medium, grid):
    """`transmit`'s spectrum, or the package error it raised."""
    try:
        return transmit(rates, fields, medium, delta_grid=grid)
    except LambdaSpectraError as exc:
        return exc


_FLOAT_KEYS = sorted(k for k, (typ, _) in _SCHEMA.items() if typ is float)
_CHEAP_FLOATS = {k: parse_config(CHEAP_CONFIG).get(*k) for k in _FLOAT_KEYS}


def _magnitude_sweep():
    """(base, edits): each float key at magnitudes from subnormal to near
    overflow, one key at a time on a one-point sweep; the grid centre and
    the sweep ends take both signs, and the sweep ends also span a
    two-point sweep."""
    explicit = {("delta_grid", "mode"): "explicit",
                ("delta_grid", "span_khz"): 50.0}
    start, stop = ("sweep", "start_mhz"), ("sweep", "stop_mhz")
    for m in (1e-320, 1e-300, 1e-200, 1e-100, 1e-30, 1e30, 1e60, 1e100,
              1e150, 1e200, 1e300, 1e305):
        for section, key in _FLOAT_KEYS:
            if section in ("medium", "rates", "fields"):
                edits = {(section, key): m}
                if key == "omega_d_mhz":  # keeps omega_p <= omega_d
                    edits["fields", "omega_p_mhz"] = min(m, 0.5)
                yield pytest.param({}, edits, id=f"{key}={m:g}")
        for x in (m, -m):
            yield pytest.param(explicit, {("delta_grid", "center_khz"): x},
                               id=f"center_khz={x:g}")
            yield pytest.param({}, {start: x, stop: x}, id=f"sweep_at={x:g}")
        yield pytest.param(explicit, {("delta_grid", "span_khz"): m},
                           id=f"span_khz={m:g}")
        yield pytest.param({("sweep", "points"): 2}, {start: -m, stop: m},
                           id=f"sweep_over=+-{m:g}")


def _rad_s(lo, hi, unit):
    """Config values x with lo <= unit(x) <= hi rad/s."""
    return st.floats(lo / unit(1.0), hi / unit(1.0)).filter(
        lambda x: lo <= unit(x) <= hi)


@st.composite
def float_values(draw):
    """A value for every float key of the schema, valid as a set: the grid
    centre and the sweep may lie below zero, the cell length is > 0 in
    metres, everything else is >= 0, the rates, Rabi frequencies and
    Doppler width are 0 or within [1e-30, 1e30] rad/s, density, length
    and wavelength are at most 1e50 with kappa*L at most 1e30 rad/s (the
    density is drawn last, within what the others leave), omega_p <=
    omega_d, there is a drive or a ground-state relaxation,
    gamma_r + gamma_deph > 0, and the sweep's detunings lie within 1e30
    rad/s and strictly increase."""
    finite = dict(allow_nan=False, allow_infinity=False)
    density = ("medium", "density_cm3")

    def values_of(k):
        if k == ("delta_grid", "center_khz"):
            return st.floats(**finite)
        if k[0] in ("rates", "fields") or k == ("medium", "ku_mhz"):
            unit = khz if k[1].endswith("_khz") else mhz
            return st.just(0.0) | _rad_s(1e-30, 1e30, unit)
        return st.floats(min_value=0.0, exclude_min=k == ("medium", "length_cm"),
                         max_value=1e50 if k[0] == "medium" else None, **finite)

    drawn = {k: draw(values_of(k))
             for k in _FLOAT_KEYS if k[0] != "sweep" and k != density}
    one_per_cm3 = ScanConfig(values={**parse_config(CHEAP_CONFIG).values,
                                     **drawn, density: 1.0})
    per_density = one_per_cm3.medium().kappa_L(one_per_cm3.rates().gamma_r)
    drawn[density] = draw(st.floats(0.0, min(1e50, 0.5e30 / per_density)
                                    if per_density > 0 else 1e50))
    p, d = ("fields", "omega_p_mhz"), ("fields", "omega_d_mhz")
    drawn[p], drawn[d] = sorted((drawn[p], drawn[d]))
    assume(drawn[d] > 0 or drawn["rates", "gamma_bc_khz"] > 0)
    assume(drawn["rates", "gamma_r_mhz"] > 0
           or drawn["rates", "gamma_deph_mhz"] > 0)
    ends = draw(st.lists(_rad_s(-1e30, 1e30, mhz), min_size=2, max_size=2,
                         unique=True))
    drawn["sweep", "start_mhz"], drawn["sweep", "stop_mhz"] = sorted(ends)
    sweep = ScanConfig(values={**parse_config(CHEAP_CONFIG).values, **drawn})
    assume(sweep.medium().length > 0)
    with np.errstate(all="ignore"):
        assume(np.all(np.diff(sweep.sweep_deltas()) > 0))
    return drawn


class TestConfig:
    def test_valid_document(self):
        cfg = parse_config(CHEAP_CONFIG)
        assert cfg.get("rates", "gamma_deph_mhz") == 150.0
        assert cfg.rates().gamma == pytest.approx(mhz(153))
        assert cfg.medium().length == pytest.approx(0.025)
        assert cfg.fields().omega_p == pytest.approx(mhz(0.5))
        assert len(cfg.sweep_deltas()) == 3

    def test_unknown_key_is_error(self):
        typo = CHEAP_CONFIG.replace("[rates]", "[rates]\ngama_r_mhz = 3")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(typo)

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(CHEAP_CONFIG + "\n[ratez]\nx = 1\n")

    def test_missing_required_key(self):
        broken = CHEAP_CONFIG.replace("ku_mhz = 250\n", "")
        with pytest.raises(ConfigError, match="ku_mhz"):
            parse_config(broken)

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] points"):
            parse_config(CHEAP_CONFIG.replace("points = 3", "points = three"))

    def test_weak_probe_guard(self):
        bad = CHEAP_CONFIG.replace("omega_p_mhz = 0.5", "omega_p_mhz = 5.0")
        with pytest.raises(ConfigError, match="weak-probe"):
            parse_config(bad)

    def test_negative_physical_value(self):
        # every medium, rate and field key, named in the error
        for section, key in _FLOAT_KEYS:
            if section in ("medium", "rates", "fields"):
                values = {**parse_config(CHEAP_CONFIG).values,
                          (section, key): -1.0}
                with pytest.raises(ConfigError,
                                   match=rf"\[{section}\] {key}: .*>= 0"):
                    parse_config(config_text(ScanConfig(values=values)))
        with pytest.raises(ConfigError, match="span_khz"):
            parse_config(CHEAP_CONFIG.replace("mode = auto",
                                              "mode = auto\nspan_khz = -1"))

    def test_explicit_grid_must_survive_the_csv(self):
        # strictly increasing in rad/s, but 1e-12 relative steps that 12
        # significant digits would write as equal rows
        fine = CHEAP_CONFIG.replace(
            "mode = auto", "mode = explicit\ncenter_khz = 1000\nspan_khz = 1e-7")
        with pytest.raises(ConfigError, match=r"\[delta_grid\] span_khz: .*12"):
            parse_config(fine)
        parse_config(fine.replace("span_khz = 1e-7", "span_khz = 1e-3"))

    def test_sweep_of_several_points_needs_width(self):
        flat = CHEAP_CONFIG.replace("start_mhz = 0\nstop_mhz = 1600",
                                    "start_mhz = 100\nstop_mhz = 100")
        with pytest.raises(ConfigError, match="stop > start"):
            parse_config(flat)
        assert len(parse_config(flat.replace("points = 3", "points = 1"))
                   .sweep_deltas()) == 1

    @pytest.mark.parametrize("edits, error", [
        pytest.param([("mode = auto", "mode = grid")],
                     r"\[delta_grid\] mode", id="grid_mode"),
        pytest.param([("points = 201", "points = 6")],
                     r"\[delta_grid\] points", id="six_grid_points"),
        pytest.param([("points = 3", "points = 0")],
                     r"\[sweep\] points", id="no_sweep_points"),
        pytest.param([("ku_mhz = 250", "ku_mhz = 250\nku_mhz = 300")],
                     "ku_mhz", id="duplicate_key"),
    ])
    def test_refusals_name_the_key(self, edits, error):
        with pytest.raises(ConfigError, match=error):
            parse_config(edited(edits))

    @pytest.mark.parametrize("edits, error", RUN_CRASHES)
    def test_configs_that_cannot_run(self, edits, error):
        with pytest.raises(ConfigError, match=error):
            parse_config(edited(edits))

    @pytest.mark.parametrize("base, edits", _magnitude_sweep())
    def test_config_magnitudes_are_refused_or_run(self, base, edits):
        values = {**parse_config(CHEAP_CONFIG).values, ("sweep", "points"): 1,
                  **base, **edits}
        refused_or_runs(values, edits)

    def test_configs_far_from_the_presets_are_refused_or_run(self):
        for values, edits in far_from_the_presets(0):
            refused_or_runs(values, edits)

    def test_a_doppler_width_below_1e_8_gamma_is_none(self):
        # of seeds 0-5, 525 accepted draws have 0 < ku < 1e-8 gamma, where
        # the Maxwell average is the ku = 0 value to about (ku/gamma)^2; the
        # exact kernel's partial fractions miss it on 13 of them, by up to
        # 3.8e-13 in T, so the z rule takes such a ku as none
        seen = 0
        for seed in range(6):
            for values, _ in far_from_the_presets(seed):
                try:
                    cfg = parse_config(config_text(ScanConfig(values=values)))
                except ConfigError:
                    continue
                rates, medium = cfg.rates(), cfg.medium()
                if not 0.0 < medium.ku < 1e-8 * rates.gamma:
                    continue
                seen += 1
                fields = cfg.fields(float(cfg.sweep_deltas()[0]))
                grid = auto_delta_grid(rates, fields, medium)
                at_ku, at_zero = (
                    transmit_or_error(rates, fields, m, grid)
                    for m in (medium, replace(medium, ku=0.0)))
                if isinstance(at_ku, Spectrum):
                    assert np.array_equal(at_ku.transmission,
                                          at_zero.transmission)
                    assert at_ku.baseline == at_zero.baseline
                else:
                    assert type(at_ku) is type(at_zero)
        assert seen == 525

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("yes", True), ("1", True), ("on", True),
        ("false", False), ("no", False), ("0", False), ("OFF", False)])
    def test_boolean_spellings(self, word, value):
        cfg = parse_config(CHEAP_CONFIG.replace("write_spectra = true",
                                                f"write_spectra = {word}"))
        assert cfg.get("output", "write_spectra") is value

    @settings(max_examples=200, deadline=None)
    @given(float_values())
    @example({**_CHEAP_FLOATS, ("rates", "gamma_deph_mhz"): 150.1234567})
    def test_round_trip_through_text(self, floats):
        cfg = ScanConfig(values={**parse_config(CHEAP_CONFIG).values,
                                 **floats})
        again = parse_config(config_text(cfg))
        assert again.digest() == cfg.digest()


class TestPresets:
    def test_names(self):
        assert preset_names() == ("kr_0.12torr", "ne_100torr", "ne_30torr",
                                  "vacuum")

    def test_buffered_values(self):
        cfg = preset_config("ne_30torr")
        assert cfg.get("rates", "gamma_deph_mhz") == 150.0
        assert cfg.get("rates", "gamma_bc_khz") == 0.7
        assert cfg.get("medium", "ku_mhz") == 250.0
        assert cfg.get("fields", "omega_d_mhz") == 2.5
        assert cfg.get("fields", "omega_p_mhz") == 0.5
        assert not cfg.warning

    def test_vacuum_uses_narrow_capable_quadrature(self):
        # every point runs the exact Doppler average, which resolves a bare
        # radiative line, so quadrature and slabs are not configurable
        cfg = preset_config("vacuum")
        assert cfg.get("rates", "gamma_deph_mhz") == 0.0
        assert cfg.get("rates", "gamma_bc_khz") == 30.0
        for section, key in (("quadrature", "scheme"), ("slabs", "slab_count")):
            for name in preset_names():
                assert all(s != section for s, _ in preset_config(name).values)
            with pytest.raises(ConfigError, match="unknown section"):
                parse_config(CHEAP_CONFIG + f"\n[{section}]\n{key} = 1\n")

    def test_ballistic_cell_flagged(self):
        assert preset_config("kr_0.12torr").warning

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("ne_1bar")


class TestAutoGrid:
    @pytest.mark.parametrize("no_doppler", [False, True],
                             ids=["ne_30torr", "ne_30torr_ku0"])
    def test_centered_and_resolving(self, no_doppler):
        cfg = preset_config("ne_30torr")
        rates, med = cfg.rates(), cfg.medium()
        if no_doppler:
            med = replace(med, ku=0.0)
        for dl_mhz in (0.0, 400.0, 1700.0):
            f = cfg.fields(mhz(dl_mhz))
            grid = auto_delta_grid(rates, f, med)
            from lambda_spectra import ac_stark_shift
            d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
            assert grid[0] < d0 < grid[-1]
            # the narrowest expected structure is sampled by several points
            w_true = rates.gamma_bc + rates.gamma * f.omega_d**2 / (
                rates.gamma**2 + f.big_delta**2)
            spacing = grid[1] - grid[0]
            assert spacing < w_true


class TestScanPipeline:
    def test_single_point_descriptor(self):
        cfg = parse_config(CHEAP_CONFIG)
        spec, row = scan_point(cfg, mhz(1600.0))
        assert row.converged
        p = row.params
        assert p.D == pytest.approx(math.hypot(p.A, p.B), rel=1e-12)
        assert p.phi == pytest.approx(math.atan2(p.B, p.A), rel=1e-12)
        assert abs(p.phi) > 0.6 * math.pi  # absorption-dominated here
        assert spec.baseline == 1.0

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
    def test_resonant_point_converges(self, preset):
        # the Delta = 0 EIT line, the paper's starting point: the fit must
        # terminate on a tolerance and sit at the least-squares optimum
        spec, row = scan_point(preset_config(preset), 0.0)
        assert row.converged
        g = initial_guess(spec)
        *_, sse_oracle = grid_refine_fit(spec.delta_grid, spec.transmission,
                                         g.A, g.B, g.C, g.gamma_tilde,
                                         g.delta0)
        sse = row.residual_rms**2 * spec.delta_grid.size
        assert sse <= sse_oracle * (1 + 1e-9)

    def test_explicit_grid_centred_below_zero(self):
        # below Delta = 0 the ac-Stark shift is negative (-16.5 kHz at
        # -300 MHz here), so an explicit grid must be able to follow it
        cfg = parse_config(CHEAP_CONFIG.replace(
            "mode = auto", "mode = explicit\ncenter_khz = -20\nspan_khz = 50"))
        spec, row = scan_point(cfg, mhz(-300.0))
        grid = spec.delta_grid
        assert grid[grid.size // 2] == pytest.approx(khz(-20.0), rel=1e-12)
        assert grid[0] == pytest.approx(khz(-70.0), rel=1e-12)
        assert grid[-1] == pytest.approx(khz(30.0), rel=1e-12)
        assert row.converged and row.params.delta0 < 0

    def test_empty_cell_records_degenerate_fit(self):
        cfg = parse_config(CHEAP_CONFIG.replace("density_cm3 = 2.5e11",
                                                "density_cm3 = 0"))
        _, row = scan_point(cfg, 0.0)
        assert not row.converged
        assert math.isnan(row.params.A)

    def test_run_scan_outputs_and_determinism(self, tmp_path):
        cfg = parse_config(CHEAP_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_scan(cfg, out_dir=out1)
        run_scan(cfg, out_dir=out2)
        files = sorted(p.name for p in out1.iterdir())
        assert "descriptors.csv" in files
        assert "spectrum_000.csv" in files
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_resume_safety(self, tmp_path):
        cfg = parse_config(CHEAP_CONFIG)
        out = tmp_path / "r"
        run_scan(cfg, out_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_scan(cfg, out_dir=out)  # identical config: reproduces
        for p in out.iterdir():
            assert p.read_bytes() == before[p.name]
        other = parse_config(CHEAP_CONFIG.replace("stop_mhz = 1600",
                                                  "stop_mhz = 1000"))
        with pytest.raises(OSError, match="different config"):
            run_scan(other, out_dir=out)
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "junk.txt").write_text("x", encoding="utf-8")
        with pytest.raises(OSError, match="no manifest"):
            run_scan(cfg, out_dir=stray)

    def test_svg_emission(self, tmp_path):
        # the trailing key continues the [output] section
        cfg = parse_config(CHEAP_CONFIG + "svg = true\n")
        out = tmp_path / "plots"
        run_scan(cfg, out_dir=out)
        svg = (out / "descriptors.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert (out / "spectrum_000.svg").exists()

    def test_scans_leave_warning_filters_alone(self, tmp_path):
        # the process-wide filter list belongs to the caller, so no scan
        # may push to or pop from it
        cfg = parse_config(CHEAP_CONFIG)
        before = list(warnings.filters)
        for i in range(10):
            run_scan(cfg, out_dir=tmp_path / f"r{i}")
            assert warnings.filters == before, f"changed by run {i}"


class TestCli:
    def test_validate_and_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(CHEAP_CONFIG, encoding="utf-8")
        assert main(["validate", str(cfgfile)]) == 0
        out = tmp_path / "run_out"
        assert main(["run", str(cfgfile), "--output", str(out)]) == 0
        assert (out / "descriptors.csv").exists()
        text = capsys.readouterr().out
        assert "3 sweep points" in text

    def test_fit_command(self, tmp_path, capsys):
        d = np.linspace(-1, 1, 101)
        t = 1.0 + 0.04 * 0.2 / (0.04**2 + d**2) * 0.04
        body = "\n".join([SPECTRUM_HEADER] +
                         [f"{x:.12g},{y:.12g}" for x, y in zip(d, t)]) + "\n"
        p = tmp_path / "spec.csv"
        p.write_text(body, encoding="utf-8")
        assert main(["fit", str(p)]) == 0
        assert "gamma_tilde" in capsys.readouterr().out

    def test_fit_of_too_few_rows_exits_3(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text(f"{SPECTRUM_HEADER}\n-1,1\n0,0.5\n1,1\n",
                         encoding="utf-8")
        assert main(["fit", str(short)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[rates]\nnope = 1\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert main(["validate", str(tmp_path / "missing.ini")]) == 3
        malformed = tmp_path / "m.csv"
        malformed.write_text("delta_mhz,transmission\n0,x\n", encoding="utf-8")
        assert main(["fit", str(malformed)]) == 3

    def test_non_utf8_spectrum_exits_3(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes(f"{SPECTRUM_HEADER}\n0,1\n1,0.5\xff\n".encode("latin-1"))
        assert main(["fit", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(p) in err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.ini"
        cfgfile.write_bytes(CHEAP_CONFIG.encode("utf-8") + b"# \xff\n")
        out = tmp_path / "out"
        assert main(["validate", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert main(["run", str(cfgfile), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [b"not json", b"[1, 2]", b"\xff"])
    def test_corrupt_manifest_is_refused(self, tmp_path, capsys, manifest):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(CHEAP_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "scan_manifest.json").write_bytes(manifest)
        assert main(["run", str(cfgfile), "--output", str(out)]) == 3
        assert "refusing to mix results" in capsys.readouterr().err
        assert [(p.name, p.read_bytes()) for p in out.iterdir()] == [
            ("scan_manifest.json", manifest)]

    def test_sweep_without_width_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "flat.ini"
        cfgfile.write_text(CHEAP_CONFIG.replace(
            "start_mhz = 0\nstop_mhz = 1600", "start_mhz = 100\nstop_mhz = 100"),
            encoding="utf-8")
        out = tmp_path / "flat_out"
        assert main(["validate", str(cfgfile)]) == 2
        assert main(["run", str(cfgfile), "--output", str(out)]) == 2
        assert not out.exists()
        assert "stop > start" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, error", RUN_CRASHES)
    def test_configs_that_cannot_run_exit_2(self, tmp_path, capsys, edits,
                                            error):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(edited(edits), encoding="utf-8")
        assert main(["validate", str(cfgfile)]) == 2
        assert re.search(error, capsys.readouterr().err)

    def test_run_of_a_preset(self, tmp_path, capsys):
        out = tmp_path / "kr"
        assert main(["run", "--preset", "kr_0.12torr", "--output",
                     str(out)]) == 0
        assert "ballistic" in capsys.readouterr().err
        assert (out / "descriptors.csv").exists()

    def test_preset_digest_ignores_how_output_is_spelled(self, tmp_path,
                                                         monkeypatch, capsys):
        # the digest covers the config, not --output: the same preset into
        # the same directory, spelled three ways, rewrites its files, and
        # they match those of the run into the preset's own scan_<name>
        monkeypatch.chdir(tmp_path)

        def contents(name):
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        assert main(["run", "--preset", "ne_30torr"]) == 0
        own = contents("scan_ne_30torr")
        for spelling in ("D", "./D", "D/"):
            assert main(["run", "--preset", "ne_30torr", "--output",
                         spelling]) == 0, capsys.readouterr().err
            assert contents("D") == own

    def test_run_needs_a_config_or_preset(self, capsys):
        assert main(["run"]) == 2
        assert "config file or --preset" in capsys.readouterr().err

    def test_run_refuses_a_config_with_a_preset(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(CHEAP_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfgfile), "--preset", "ne_30torr",
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfgfile) in err and "ne_30torr" in err
        assert not out.exists()

    def test_presets_and_hanle(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "ne_30torr" in out and "gamma_bc_khz" in out
        assert main(["hanle"]) == 0
        # orthogonal dark states, each dark on its own transition and
        # fully bright on the other
        assert capsys.readouterr().out == """\
dark states (amplitudes over |m=+1>, |m=-1>):
  two_to_one: (+0.707107, +0.707107)
  two_to_two: (+0.707107, -0.707107)
overlap <dark(2->1)|dark(2->2)> = +0.000e+00+0.000e+00j
brightness matrix (rows: state, cols: transition):
  dark of         two_to_one    two_to_two
  two_to_one        0.000000      1.000000
  two_to_two        1.000000      0.000000
"""
