"""Config parsing, presets, scan pipeline, CLI, determinism."""

import math
import warnings

import numpy as np
import pytest

from lambda_spectra import ConfigError, parse_config, preset_config, run_scan
from lambda_spectra.cli import main
from lambda_spectra.csvio import SPECTRUM_HEADER
from lambda_spectra.scan import (ENV_THREADS, auto_delta_grid, config_text,
                                 preset_names, scan_point)
from lambda_spectra.units import mhz

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

[quadrature]
scheme = gauss_hermite
node_count = 32

[slabs]
slab_count = 32

[output]
directory = out
write_spectra = true
"""


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
        with pytest.raises(ConfigError):
            parse_config(CHEAP_CONFIG.replace("gamma_bc_khz = 0.7",
                                              "gamma_bc_khz = -1"))

    def test_round_trip_through_text(self):
        cfg = parse_config(CHEAP_CONFIG)
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
        # the exact Doppler average resolves a bare radiative line, so no
        # preset overrides the [quadrature] defaults
        cfg = preset_config("vacuum")
        assert cfg.get("rates", "gamma_deph_mhz") == 0.0
        assert cfg.get("rates", "gamma_bc_khz") == 30.0
        default = parse_config(CHEAP_CONFIG.replace(
            "scheme = gauss_hermite\nnode_count = 32\n", ""))
        for name in preset_names():
            preset = preset_config(name)
            for key in ("scheme", "node_count", "truncation"):
                assert (preset.get("quadrature", key)
                        == default.get("quadrature", key))
            assert preset.quadrature().scheme == "exact"

    def test_ballistic_cell_flagged(self):
        assert preset_config("kr_0.12torr").warning

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("ne_1bar")


class TestAutoGrid:
    def test_centered_and_resolving(self):
        cfg = preset_config("ne_30torr")
        rates, med = cfg.rates(), cfg.medium()
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
        assert row.D == pytest.approx(math.hypot(row.A, row.B), rel=1e-12)
        assert row.phi == pytest.approx(math.atan2(row.B, row.A), rel=1e-12)
        assert abs(row.phi) > 0.6 * math.pi  # absorption-dominated here
        assert spec.baseline == 1.0

    def test_empty_cell_records_degenerate_fit(self):
        cfg = parse_config(CHEAP_CONFIG.replace("density_cm3 = 2.5e11",
                                                "density_cm3 = 0"))
        _, row = scan_point(cfg, 0.0)
        assert not row.converged
        assert math.isnan(row.A)

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

    def test_thread_cap_does_not_change_results(self, tmp_path, monkeypatch):
        cfg = parse_config(CHEAP_CONFIG)
        monkeypatch.setenv(ENV_THREADS, "1")
        run_scan(cfg, out_dir=tmp_path / "t1")
        monkeypatch.setenv(ENV_THREADS, "3")
        run_scan(cfg, out_dir=tmp_path / "t3")
        a = (tmp_path / "t1" / "descriptors.csv").read_bytes()
        b = (tmp_path / "t3" / "descriptors.csv").read_bytes()
        assert a == b

    def test_threaded_scans_leave_warning_filters_alone(self, tmp_path,
                                                        monkeypatch):
        # the process-wide filter list is shared by every thread, so no
        # pool worker may push to or pop from it
        cfg = parse_config(CHEAP_CONFIG)
        monkeypatch.setenv(ENV_THREADS, "2")
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

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[rates]\nnope = 1\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert main(["validate", str(tmp_path / "missing.ini")]) == 3
        malformed = tmp_path / "m.csv"
        malformed.write_text("delta_mhz,transmission\n0,x\n", encoding="utf-8")
        assert main(["fit", str(malformed)]) == 3

    def test_presets_and_hanle(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "ne_30torr" in out and "gamma_bc_khz" in out
        assert main(["hanle"]) == 0
        out = capsys.readouterr().out
        assert "brightness" in out
