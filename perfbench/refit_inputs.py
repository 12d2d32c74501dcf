"""Spectrum CSVs for the `refit` workload, drawn from a seed.

Half the set is thick-cell spectra from `scan_point` on the ne_30torr and
ne_100torr presets, at one-photon detunings drawn from the presets' sweep
range; Delta = 0 is always included, because there the line is symmetric
and not Lorentzian and the fit runs to its iteration cap.  The other half
is the fit's own lineshape with drawn (A, B, gt, delta0), 801-3201 grid
points and white noise of 0-1 % of the amplitude D (every fourth line
noiseless).  Draws are stratified (one per equal-probability bin, bins
shuffled per parameter), so every seed covers the same ranges and runs
differ in detail, not in mix.  All files are written through `export_csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lambda_spectra import scan
from lambda_spectra.analytic import LineshapeParams
from lambda_spectra.csvio import export_csv
from lambda_spectra.propagation import Spectrum
from lambda_spectra.units import khz, mhz

THICK_PRESETS = ("ne_30torr", "ne_100torr")
THICK_PER_PRESET = 30
SYNTHETIC = 60


@dataclass(frozen=True)
class RefitItem:
    file: str
    kind: str  # "thick" or "synthetic"
    truth: LineshapeParams | None = None  # synthetic lines only
    noise: float = 0.0  # standard deviation of the added noise


def _stratified(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each of n equal bins, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_between(u, lo, hi):
    return lo * (hi / lo) ** u


def write_refit_set(seed: int, out_dir) -> list:
    """Write the refit inputs for `seed` into `out_dir` and describe them:
    THICK_PER_PRESET thick-cell and SYNTHETIC synthetic spectra."""
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    items = []

    for preset in THICK_PRESETS:
        cfg = scan.preset_config(preset)
        stop = cfg.get("sweep", "stop_mhz")
        deltas = [0.0] + list(stop * _stratified(rng, THICK_PER_PRESET - 1))
        for i, dl in enumerate(deltas):
            spec, _ = scan.scan_point(cfg, float(mhz(round(dl, 1))))
            name = f"thick_{preset}_{i:02d}.csv"
            export_csv(spec, out / name)
            items.append(RefitItem(name, "thick"))

    u = {k: _stratified(rng, SYNTHETIC)
         for k in ("points", "amp", "phi", "width", "span", "centre", "noise")}
    for i in range(SYNTHETIC):
        n = 801 + 2 * int(u["points"][i] * 1201)
        gt = khz(float(_log_between(u["width"][i], 1.0, 300.0)))
        amp = float(_log_between(u["amp"][i], 0.01, 0.9))
        phi = math.pi * (2.0 * u["phi"][i] - 1.0)
        half = gt * (15.0 + 25.0 * u["span"][i])
        d0 = 0.2 * half * (2.0 * u["centre"][i] - 1.0)
        truth = LineshapeParams(A=amp * math.cos(phi), B=amp * math.sin(phi),
                                C=float(rng.uniform(0.95, 1.05)),
                                gamma_tilde=gt, delta0=d0)
        grid = np.linspace(-half, half, n)
        x = grid - d0
        clean = gt * (truth.A * gt + truth.B * x) / (gt * gt + x * x) + truth.C
        noise = 0.0 if i % 4 == 0 else 0.01 * amp * float(u["noise"][i])
        trans = clean + noise * rng.standard_normal(n)
        name = f"synthetic_{i:02d}.csv"
        export_csv(Spectrum(delta_grid=grid, transmission=trans), out / name)
        items.append(RefitItem(name, "synthetic", truth, noise))
    return items
