"""Probe and drive attenuation through the optically thick cell.

The cell is marched in z with a fixed number of slabs.  In each slab the
Doppler-averaged probe absorption coefficient is evaluated from the local
Rabi frequencies (weak-probe linear response around the exact drive-only
steady state), the probe intensity is updated by exp(-alpha dz) (exact for
piecewise-constant alpha), and the drive is attenuated with its own
two-level absorption coefficient

    alpha_d = kappa * gamma * (rho_cc - rho_aa) / (gamma^2 + Delta_eff^2)

Doppler-averaged the same way; the drive update uses a midpoint intensity
so that the scheme is second order in the slab width.  The drive
attenuation model is a closure choice: the same lambda steady state feeds
both coefficients, and the drive expression reduces to the plain two-level
result.

Local Rabi magnitudes scale as the square root of the local intensities.

Beside the probe, the march carries the coherence-free baseline: the
|delta| -> infinity plateau of the absorption profile, which keeps the
drive-pumped populations of the actual parameter set, marched on the same
drive trajectory.

One slab kernel gives all three coefficients (probe, plateau, alpha_d).
Under the default exact scheme the integrands are rational in
x = Delta - kv, and `model.maxwell_absorption` sums their residues times
the Faddeeva function (pole sets and error bound in its docstring); a
slab costs one wofz call per grid point.  A node scheme (Gauss-Hermite,
trapezoid) averages the same integrands over velocity nodes instead, as
the independent cross-check.  At ku = 0 every scheme evaluates them at
x = Delta.  `scan` sizes grids and slabs with the node form of the
plateau and alpha_d, `_node_alphas` on an empty grid.

Transmission values are I_p(L)/I_p(0), unnormalized; the spectrum carries
the baseline, and `normalize` divides by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .doppler import QuadratureSpec, velocity_nodes
from .errors import ZeroBackground
from .model import (Fields, Medium, Rates, drive_only_populations,
                    maxwell_absorption, weak_probe_susceptibility)

__all__ = ["SlabConfig", "Spectrum", "transmit", "normalize",
           "reference_transmission"]

_GAIN_TOL = 1e-6  # of kappa
_EXACT = QuadratureSpec("exact")
_NO_GRID = np.zeros(0)


@dataclass(frozen=True)
class SlabConfig:
    """Slab-march settings."""

    slab_count: int = 128

    def __post_init__(self):
        if self.slab_count < 16:
            raise ValueError("slab_count must be >= 16")


@dataclass
class Spectrum:
    """Transmission sampled on a two-photon-detuning grid (rad/s).

    Checked when built (ValueError): one shape, a finite and strictly
    increasing grid, finite transmission.  `transmit` and `normalize`
    keep T >= 0.

    baseline   coherence-free plateau transmission of the same cell (as
               marched by `transmit`); 1.0 once normalized, None if unknown
    gain_flag  grid points where a slab had net probe gain beyond
               1e-6*kappa; all False unless given
    """

    delta_grid: np.ndarray
    transmission: np.ndarray
    baseline: Optional[float] = None
    gain_flag: Optional[np.ndarray] = None

    def __post_init__(self):
        self.delta_grid = np.asarray(self.delta_grid, dtype=float)
        self.transmission = np.asarray(self.transmission, dtype=float)
        if self.gain_flag is None:
            self.gain_flag = np.zeros(self.transmission.shape, dtype=bool)
        if not (self.delta_grid.shape == self.transmission.shape
                == self.gain_flag.shape):
            raise ValueError("grid, transmission and gain_flag shapes differ")
        if not np.all(np.isfinite(self.delta_grid)):
            raise ValueError("delta_grid contains non-finite values")
        if np.any(np.diff(self.delta_grid) <= 0):
            raise ValueError("delta_grid must be strictly increasing")
        if not np.all(np.isfinite(self.transmission)):
            raise ValueError("transmission contains non-finite values")


def _node_alphas(rates: Rates, od2: float, w, deff, delta_grid, kappa):
    """(probe alpha on delta_grid, plateau, alpha_d) averaged over the
    velocity nodes (w, deff = Delta - kv) at the drive od2 = |omega_d|^2,
    each proportional to kappa, as in `maxwell_absorption`, which also
    skips the probe term on an empty grid.  kappa = 0 absorbs nothing; at
    gamma = 0, which it implies, the nodes' Lorentzians would be 0/0 at
    deff = 0."""
    if kappa == 0.0:
        return np.zeros(delta_grid.shape), 0.0, 0.0
    g = rates.gamma
    pb, pc = drive_only_populations(rates, np.sqrt(od2), deff)
    g2d2 = g * g + deff * deff
    plateau = kappa * float(np.dot(w, (g * pb + g * od2 / g2d2 * pc) / g2d2))
    drive = kappa * g * float(np.dot(w, pc / g2d2))
    if not delta_grid.size:
        return np.zeros(0), plateau, drive
    chi = weak_probe_susceptibility(
        g, rates.gamma_bc, od2, deff[:, None], delta_grid[None, :],
        pb[:, None], pc[:, None], kappa)
    return w @ chi.imag, plateau, drive


def _march(rates: Rates, fields: Fields, medium: Medium,
           quad: QuadratureSpec, slab_count: int, delta_grid: np.ndarray,
           attenuate_drive: bool):
    """Shared slab march.  Returns (transmission, gain_flags, baseline)."""
    kappa = medium.kappa(rates.gamma_r)
    if quad.scheme == "exact" and medium.ku > 0.0:
        def alphas(od2, grid):
            return maxwell_absorption(rates, od2, fields.big_delta,
                                      medium.ku, grid, kappa)
    else:
        w, kv = velocity_nodes(quad, medium.ku)
        deff = fields.big_delta - kv

        def alphas(od2, grid):
            return _node_alphas(rates, od2, w, deff, grid, kappa)

    od2_entry = fields.omega_d ** 2
    dz = medium.length / slab_count
    ip = np.ones(delta_grid.size)
    baseline = 1.0
    id_rel = 1.0  # drive intensity relative to entry
    gain = np.zeros(delta_grid.size, dtype=bool)
    deplete = attenuate_drive and kappa > 0.0

    for _ in range(slab_count):
        od2 = od2_entry * id_rel
        if deplete:
            # midpoint (RK2) drive update; the coefficients below are
            # evaluated at the midpoint drive intensity
            alpha_d = alphas(od2, _NO_GRID)[2]
            id_mid = id_rel * np.exp(-0.5 * alpha_d * dz)
            od2 = od2_entry * id_mid

        alpha, alpha_bg, alpha_d = alphas(od2, delta_grid)
        baseline = baseline * np.exp(-alpha_bg * dz)
        if kappa > 0.0:
            gain |= alpha < -_GAIN_TOL * kappa
        ip = ip * np.exp(-alpha * dz)

        if deplete:
            id_rel = id_rel * np.exp(-alpha_d * dz)

    return ip, gain, float(baseline)


def transmit(rates: Rates, fields_at_entry: Fields, medium: Medium,
             quad: Optional[QuadratureSpec] = None,
             slabs: Optional[SlabConfig] = None,
             delta_grid=None,
             attenuate_drive: bool = True) -> Spectrum:
    """Unnormalized probe transmission I_p(L)/I_p(0) on a two-photon grid.

    fields_at_entry.small_delta is ignored; the grid supplies the
    two-photon detuning.  The returned spectrum carries the coherence-free
    baseline of the same march in `baseline`, and flags in `gain_flag` the
    grid points where a slab produced negative absorption beyond
    1e-6*kappa; gain is physical in some Raman regimes, so it is recorded,
    not fatal.  quad defaults to the exact Doppler average.
    """
    if medium.length <= 0:
        raise ValueError("medium.length must be > 0")
    if fields_at_entry.omega_p > fields_at_entry.omega_d:
        raise ValueError("weak-probe regime requires omega_p <= omega_d")
    if delta_grid is None:
        raise ValueError("delta_grid is required")
    quad = quad or _EXACT
    slabs = slabs or SlabConfig()
    delta_grid = np.asarray(delta_grid, dtype=float)

    ip, gain, baseline = _march(rates, fields_at_entry, medium, quad,
                                slabs.slab_count, delta_grid, attenuate_drive)
    return Spectrum(delta_grid=delta_grid, transmission=ip,
                    baseline=baseline, gain_flag=gain)


def reference_transmission(rates: Rates, fields: Fields, medium: Medium,
                           quad: Optional[QuadratureSpec] = None,
                           slabs: Optional[SlabConfig] = None,
                           attenuate_drive: bool = True) -> float:
    """Coherence-free baseline transmission: the |delta| -> infinity plateau
    of the absorption profile marched through the same cell (the baseline
    `transmit` returns, from a march over an empty grid)."""
    quad = quad or _EXACT
    slabs = slabs or SlabConfig()
    return _march(rates, fields, medium, quad, slabs.slab_count,
                  np.zeros(0), attenuate_drive)[2]


def normalize(spectrum: Spectrum) -> Spectrum:
    """Divide by the spectrum's own baseline so the far-detuned plateau sits
    at 1.  Raises ValueError if the spectrum carries no baseline and
    ZeroBackground if the baseline underflows."""
    if spectrum.delta_grid.size == 0:
        raise ValueError("cannot normalize an empty spectrum")
    ref = spectrum.baseline
    if ref is None:
        raise ValueError("spectrum carries no baseline to normalize by")
    if not np.isfinite(ref) or ref < 1e-300:
        raise ZeroBackground(f"reference transmission underflowed ({ref!r})")
    return Spectrum(delta_grid=spectrum.delta_grid.copy(),
                    transmission=spectrum.transmission / ref,
                    baseline=1.0, gain_flag=spectrum.gain_flag.copy())
