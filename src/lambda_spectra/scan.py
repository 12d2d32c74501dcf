"""Experiment harness: sweep one-photon detuning, run the
transmit -> normalize -> fit pipeline per point, emit descriptor curves.

Configuration is an INI-style key-value document with flat sections
([medium], [rates], [fields], [delta_grid], [sweep], [output]); unknown
sections or keys are errors, since a silently ignored typo in a physics
parameter is the main operational hazard.  All config frequencies are
ordinary MHz (gamma_bc in kHz), lengths cm, wavelengths nm, densities
1/cm^3; conversion to internal rad/s happens here.

The delta grid is either explicit (center/span/points, kHz) or "auto": a
per-detuning grid centered on the ac-Stark-shifted resonance, sized from
the analytic width, its Doppler spread, and the density-narrowing estimate,
so that both the broad near-resonance structure and the narrow far-detuned
resonance stay resolved.

Propagation settings are not configurable: every point runs the exact
Doppler average and `transmit`'s Gauss-Legendre z rule at its default
ladder (orders 2 to 64, accepted at a 1e-8 change in optical depth).

Outputs are byte-deterministic for identical configs.  A scan refuses to
write into a directory holding results from a different config (manifest
hash check).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (LineshapeParams, ac_stark_shift,
                       density_narrowed_width)
from .csvio import (DescriptorCurve, DescriptorRow, _check_grid_loads,
                    export_csv)
from .doppler import QuadratureSpec
from .errors import ConfigError, DegenerateSpectrum, NonPhysicalValue
from .fitting import fit_lineshape
# drive_only_populations is unused here: perfbench's traced counts bind it
from .model import Fields, Medium, Rates, drive_only_populations  # noqa: F401
from .propagation import (_EXACT, _NO_GRID, SlabConfig, Spectrum, _kernel,
                          normalize, transmit)
from .units import cm, khz, mhz, nm, per_cm3, to_mhz

__all__ = ["ScanConfig", "load_config", "parse_config", "preset_config",
           "preset_names", "auto_delta_grid", "run_scan", "scan_point"]

MANIFEST_NAME = "scan_manifest.json"

_MAX_GRID_POINTS = 3201
# rad/s: each nonzero rate, drive and Doppler width lies in [_MIN_RATE,
# _MAX_RATE], and each detuning and kappa*L is at most _MAX_RATE, so the
# squares, products and ratios the kernel forms of them stay finite and > 0
_MIN_RATE, _MAX_RATE = 1e-30, 1e30
# the fitted line of a point whose spectrum carries none
_NO_FIT = LineshapeParams(*[math.nan] * 5)

# (section, key) -> (type, default); None default means required
_SCHEMA = {
    ("medium", "density_cm3"): (float, None),
    ("medium", "length_cm"): (float, None),
    ("medium", "wavelength_nm"): (float, None),
    ("medium", "ku_mhz"): (float, None),
    ("rates", "gamma_r_mhz"): (float, None),
    ("rates", "gamma_deph_mhz"): (float, None),
    ("rates", "gamma_bc_khz"): (float, None),
    ("fields", "omega_d_mhz"): (float, None),
    ("fields", "omega_p_mhz"): (float, None),
    ("delta_grid", "mode"): (str, "auto"),
    ("delta_grid", "center_khz"): (float, 0.0),
    ("delta_grid", "span_khz"): (float, 0.0),
    ("delta_grid", "points"): (int, 801),
    ("sweep", "start_mhz"): (float, None),
    ("sweep", "stop_mhz"): (float, None),
    ("sweep", "points"): (int, None),
    ("output", "directory"): (str, "scan_output"),
    ("output", "write_spectra"): (bool, True),
    ("output", "svg"): (bool, False),
}


@dataclass(frozen=True)
class ScanConfig:
    """Validated scan parameters, still in config units (MHz/kHz/cm/nm)."""

    values: dict
    preset: str = ""
    warning: str = ""

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    # -- internal-unit constructors ------------------------------------
    def rates(self) -> Rates:
        return Rates(gamma_r=mhz(self.get("rates", "gamma_r_mhz")),
                     gamma_deph=mhz(self.get("rates", "gamma_deph_mhz")),
                     gamma_bc=khz(self.get("rates", "gamma_bc_khz")))

    def medium(self) -> Medium:
        return Medium(density=per_cm3(self.get("medium", "density_cm3")),
                      length=cm(self.get("medium", "length_cm")),
                      wavelength=nm(self.get("medium", "wavelength_nm")),
                      ku=mhz(self.get("medium", "ku_mhz")))

    def fields(self, big_delta: float = 0.0) -> Fields:
        return Fields(omega_d=mhz(self.get("fields", "omega_d_mhz")),
                      omega_p=mhz(self.get("fields", "omega_p_mhz")),
                      big_delta=big_delta)

    def explicit_grid(self) -> np.ndarray:
        center = khz(self.get("delta_grid", "center_khz"))
        span = khz(self.get("delta_grid", "span_khz"))
        return center + np.linspace(-span, span, self.get("delta_grid", "points"))

    def sweep_deltas(self) -> np.ndarray:
        start = self.get("sweep", "start_mhz")
        stop = self.get("sweep", "stop_mhz")
        n = self.get("sweep", "points")
        return mhz(1.0) * np.linspace(start, stop, n)

    def digest(self) -> str:
        items = sorted((f"{s}.{k}", repr(v)) for (s, k), v in self.values.items())
        blob = json.dumps(items).encode()
        return hashlib.sha256(blob).hexdigest()


def _validate(values: dict, origin: str) -> None:
    def bad(section, key, msg):
        raise ConfigError(f"{origin}: [{section}] {key}: {msg}")

    def key_of(name):  # a physics key is its attribute's name and a unit
        return next(k for k in _SCHEMA if k[1].rsplit("_", 1)[0] == name)

    for (section, key), value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            bad(section, key, f"must be finite, got {value}")
    # center_khz stays signed: below Delta = 0 the ac-Stark shift is negative
    if values[("delta_grid", "span_khz")] < 0:
        bad("delta_grid", "span_khz", "must be >= 0")
    cfg = ScanConfig(values)
    try:
        rates, medium, fields = cfg.rates(), cfg.medium(), cfg.fields()
    except NonPhysicalValue as exc:
        bad(*key_of(exc.name), exc)
    for obj, name in ((rates, "gamma_r"), (rates, "gamma_deph"),
                      (rates, "gamma_bc"), (fields, "omega_d"),
                      (medium, "ku")):
        value = getattr(obj, name)
        if value and not _MIN_RATE <= value <= _MAX_RATE:
            bad(*key_of(name), f"must be 0 or within [{_MIN_RATE:g}, "
                f"{_MAX_RATE:g}] rad/s, got {value:g} rad/s")
    kappa_l = medium.kappa_L(rates.gamma_r)
    if not kappa_l <= _MAX_RATE:
        bad("medium", "density_cm3", f"kappa*L = (3/8pi) N lambda^2 gamma_r L "
            f"must be at most {_MAX_RATE:g} rad/s, got {kappa_l:g}: lower it, "
            "[medium] length_cm or [medium] wavelength_nm")
    if not medium.length > 0:
        bad("medium", "length_cm", "the cell needs a length > 0 in metres")
    if not rates.gamma > 0:
        bad("rates", "gamma_r_mhz",
            "the optical linewidth gamma_r + gamma_deph must be > 0")
    if not (fields.omega_d > 0 or rates.gamma_bc > 0):
        bad("fields", "omega_d_mhz", "no drive and no ground-state relaxation: "
            "needs omega_d_mhz > 0 or gamma_bc_khz > 0")
    if values[("fields", "omega_p_mhz")] > values[("fields", "omega_d_mhz")]:
        bad("fields", "omega_p_mhz", "weak-probe regime needs omega_p <= omega_d")
    if values[("delta_grid", "mode")] not in ("auto", "explicit"):
        bad("delta_grid", "mode", "must be 'auto' or 'explicit'")
    if values[("delta_grid", "points")] < 7:
        bad("delta_grid", "points", "grid needs at least 7 points")
    if values[("delta_grid", "mode")] == "explicit":
        try:
            if not (abs(khz(values[("delta_grid", "center_khz")]))
                    + khz(values[("delta_grid", "span_khz")]) <= _MAX_RATE):
                raise ValueError
            _check_grid_loads(to_mhz(cfg.explicit_grid()))
        except ValueError:
            bad("delta_grid", "span_khz", "the explicit grid [delta_grid] "
                f"center_khz +- span_khz must lie within {_MAX_RATE:g} rad/s, "
                "and its points stay apart at the 12 significant digits of "
                "the spectrum CSVs (span_khz > 0, wide enough for the points)")
    if values[("sweep", "points")] < 1:
        bad("sweep", "points", "sweep needs at least 1 point")
    ends = [abs(values[("sweep", k)]) for k in ("start_mhz", "stop_mhz")]
    if not (mhz(max(ends)) <= _MAX_RATE
            and np.all(np.diff(cfg.sweep_deltas()) > 0)):
        bad("sweep", "stop_mhz", f"[sweep] start_mhz and stop_mhz must lie "
            f"within {_MAX_RATE:g} rad/s, and a sweep of several points "
            "needs stop > start and strictly increasing detunings")
    if values[("delta_grid", "mode")] == "auto":
        for big_delta in cfg.sweep_deltas():  # each grid as scan_point sizes it
            grid = auto_delta_grid(rates, cfg.fields(float(big_delta)), medium,
                                   values[("delta_grid", "points")])
            reach = max(-grid[0], grid[-1])
            if not reach <= _MAX_RATE:
                bad("fields", "omega_d_mhz", f"at Delta = "
                    f"{to_mhz(big_delta):g} MHz the auto grid reaches "
                    f"{reach:g} rad/s, past {_MAX_RATE:g}: its span grows with "
                    "omega_d^2/gamma and with [rates] gamma_bc_khz")


def parse_config(text: str, origin: str = "<config>") -> ScanConfig:
    """Parse and validate an INI config document.  Unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    getters = {float: cp.getfloat, int: cp.getint, bool: cp.getboolean,
               str: cp.get}
    values = {}
    known_sections = {s for s, _ in _SCHEMA}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"{origin}: unknown key [{section}] {key}")
            try:
                values[(section, key)] = getters[_SCHEMA[(section, key)][0]](
                    section, key)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    for (section, key), (_, default) in _SCHEMA.items():
        if (section, key) not in values:
            if default is None:
                raise ConfigError(f"{origin}: missing required key [{section}] {key}")
            values[(section, key)] = default

    _validate(values, origin)
    return ScanConfig(values=values)


def load_config(path) -> ScanConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, origin=str(path))


# ----------------------------------------------------------------------
# presets: cell parameter sets used throughout; the krypton cell sits in
# the ballistic (<1 Torr) regime where uniform gamma_bc relaxation is a
# poor model of transit, hence the attached warning.
_COMMON = {
    ("medium", "density_cm3"): 2.5e11,
    ("medium", "length_cm"): 2.5,
    ("medium", "wavelength_nm"): 794.979,
    ("medium", "ku_mhz"): 250.0,
    ("rates", "gamma_r_mhz"): 3.0,
    ("fields", "omega_d_mhz"): 2.5,
    ("fields", "omega_p_mhz"): 0.5,
    ("sweep", "start_mhz"): 0.0,
    ("sweep", "stop_mhz"): 2000.0,
    ("sweep", "points"): 21,
}

_PRESETS = {
    "vacuum": {
        ("rates", "gamma_deph_mhz"): 0.0,
        ("rates", "gamma_bc_khz"): 30.0,
        ("sweep", "stop_mhz"): 1000.0,
    },
    "kr_0.12torr": {
        ("rates", "gamma_deph_mhz"): 0.6,
        ("rates", "gamma_bc_khz"): 10.0,
    },
    "ne_30torr": {
        ("rates", "gamma_deph_mhz"): 150.0,
        ("rates", "gamma_bc_khz"): 0.7,
    },
    "ne_100torr": {
        ("rates", "gamma_deph_mhz"): 450.0,
        ("rates", "gamma_bc_khz"): 0.5,
    },
}

_PRESET_WARNINGS = {
    "kr_0.12torr": ("mean free path is comparable to the beam: transit is "
                    "ballistic, not diffusive, and a uniform gamma_bc is "
                    "outside the model's validity"),
}


def preset_names():
    return tuple(sorted(_PRESETS))


def preset_config(name: str) -> ScanConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(preset_names())}")
    values = {k: default for k, (_, default) in _SCHEMA.items()}
    values.update(_COMMON)
    values.update(_PRESETS[name])
    values[("output", "directory")] = f"scan_{name}"
    _validate(values, f"preset:{name}")
    return ScanConfig(values=values, preset=name,
                      warning=_PRESET_WARNINGS.get(name, ""))


def config_text(cfg: ScanConfig) -> str:
    """Render a config back to its INI document form."""
    sections: dict = {}
    for (section, key), value in sorted(cfg.values.items()):
        sections.setdefault(section, []).append((key, value))
    out = []
    for section, items in sections.items():
        out.append(f"[{section}]")
        for key, value in items:
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


# ----------------------------------------------------------------------


def auto_delta_grid(rates: Rates, fields: Fields, medium: Medium,
                    base_points: int = 801) -> np.ndarray:
    """Two-photon grid adapted to the resonance at this one-photon detuning.

    Centered on the ac-Stark shift; the span covers the analytic width, the
    Doppler spread of the shift, and the surrounding baseline; the point
    count keeps the expected fitted width (including density narrowing in
    the optically thick near-resonant case) sampled by several points.
    """
    g, gbc = rates.gamma, rates.gamma_bc
    od = fields.omega_d
    dl = fields.big_delta
    ku = medium.ku

    d0 = ac_stark_shift(dl, od, g)
    w_nat = gbc + g * (od * od) / (g * g + dl * dl)

    shifts = np.linspace(-2 * ku, 2 * ku, 41)
    spread = float(np.max(np.abs(ac_stark_shift(dl - shifts, od, g) - d0)))

    # Doppler-averaged background depth at the entry drive, from 32
    # Gauss-Hermite nodes: it only sets the span, and is not the exact
    # depth (on vacuum at Delta = 0 it reads 0.46 against the exact 8.97)
    od_bg = _kernel(rates, dl, medium, QuadratureSpec(node_count=32))(
        od**2, _NO_GRID)[1]
    kl = medium.kappa_L(rates.gamma_r)

    span = (30.0 * max(w_nat, spread / 3.0) / math.sqrt(1.0 + min(od_bg, 30.0))
            + 6.0 * (abs(d0) + spread))

    # narrowest structure the fit may encounter
    w_fit = w_nat
    if kl > 0:
        w_fit = min(w_nat, density_narrowed_width(medium, rates, fields))
    w_fit = max(w_fit, w_nat / 50.0, 1e-12)

    needed = int(math.ceil(12.0 * span / w_fit)) + 1
    points = int(np.clip(needed, base_points, _MAX_GRID_POINTS))
    if points % 2 == 0:
        points += 1
    return d0 + np.linspace(-span, span, points)


def scan_point(cfg: ScanConfig, big_delta: float) -> tuple[Spectrum, DescriptorRow]:
    """Run one sweep point: grid, transmit, normalize, fit."""
    rates = cfg.rates()
    medium = cfg.medium()
    fields = cfg.fields(big_delta)

    if cfg.get("delta_grid", "mode") == "explicit":
        grid = cfg.explicit_grid()
    else:
        grid = auto_delta_grid(rates, fields, medium,
                               base_points=cfg.get("delta_grid", "points"))

    # quad and slabs stay explicit: perfbench's traced counts read them
    # from this call's arguments (slab_count is the z rule's largest order)
    spec = normalize(transmit(rates, fields, medium, grid, quad=_EXACT,
                              slabs=SlabConfig()))
    gain = bool(np.any(spec.gain_flag))

    try:
        fit = fit_lineshape(spec)
        row = DescriptorRow(big_delta, fit.params, fit.residual_rms,
                            fit.converged, gain)
    except DegenerateSpectrum:
        row = DescriptorRow(big_delta, _NO_FIT, 0.0, False, gain)
    return spec, row


def run_scan(cfg: ScanConfig, out_dir=None) -> DescriptorCurve:
    """Sweep the one-photon detuning and write descriptor + spectrum CSVs.

    Refuses to mix results: an existing non-empty output directory must
    carry a manifest (a JSON object) from the identical config, in which
    case files are reproduced byte-for-byte.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.get("output", "directory"))
    digest = cfg.digest()
    manifest_path = out / MANIFEST_NAME
    if out.exists() and any(out.iterdir()):
        if not manifest_path.exists():
            raise OSError(f"output directory {out} is not empty and has no "
                          f"manifest; refusing to mix results")
        try:
            previous = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError:  # not UTF-8 or not JSON
            previous = None
        if not isinstance(previous, dict):
            raise OSError(f"output directory {out} holds a {MANIFEST_NAME} "
                          f"that is not a JSON object; refusing to mix results")
        if previous.get("config_digest") != digest:
            raise OSError(f"output directory {out} holds results from a "
                          f"different config; refusing to overwrite")
    out.mkdir(parents=True, exist_ok=True)

    deltas = cfg.sweep_deltas()
    results = [scan_point(cfg, float(dl)) for dl in deltas]

    curve = DescriptorCurve(rows=[row for _, row in results])
    export_csv(curve, out / "descriptors.csv")

    spectra_files = []
    if cfg.get("output", "write_spectra"):
        for i, (spec, _) in enumerate(results):
            name = f"spectrum_{i:03d}.csv"
            export_csv(spec, out / name)
            spectra_files.append(name)

    if cfg.get("output", "svg"):
        from ._svg import write_curve_svg, write_spectrum_svg
        write_curve_svg(curve, out / "descriptors.svg")
        for i, (spec, _) in enumerate(results):
            write_spectrum_svg(spec, out / f"spectrum_{i:03d}.svg")

    manifest = {
        "version": __version__,
        "config_digest": digest,
        "preset": cfg.preset,
        "delta_1photon_mhz": [float(d) / mhz(1.0) for d in deltas],
        "spectra": spectra_files,
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return curve
