"""Probe and drive attenuation through the optically thick cell.

The probe is linear and the drive does not depend on the two-photon
detuning delta, so the unnormalized transmission is exactly

    T(delta) = exp(-tau(delta)),   tau(delta) = L int_0^1 alpha(I_d(s), delta) ds

in the scaled depth s = z/L, where the cell enters only through kappa L.
The drive obeys its own scalar equation

    d ln(I_d / I_d(0)) / ds = -L alpha_d(I_d),
    alpha_d = kappa * gamma * (rho_cc - rho_aa) / (gamma^2 + Delta_eff^2)

Doppler-averaged: the two-level coefficient of the drive, fed by the same
lambda steady state as the probe (a closure choice that reduces to the
plain two-level result).  `transmit` solves it once per point with an
adaptive Runge-Kutta method (DOP853 with dense output) and then evaluates
tau by Gauss-Legendre quadrature in s; only where the drive cannot change
(kappa = 0 or omega_d = 0) does one kernel call give tau.  Local Rabi
magnitudes scale as the square root of the local intensities.

Beside the probe, the same rule integrates the coherence-free baseline:
the |delta| -> infinity plateau of the absorption profile, which keeps the
drive-pumped populations of the actual parameter set, on the same drive
trajectory.

One kernel gives all three coefficients (probe, plateau, alpha_d).  Under
the default exact scheme the integrands are rational in x = Delta - kv,
and `model.maxwell_absorption` sums their residues times the Faddeeva
function (pole sets and error bound in its docstring); a call costs one
wofz call per grid point.  A node scheme (Gauss-Hermite, trapezoid)
averages the same integrands over velocity nodes instead, as the
independent cross-check.  At ku <= 1e-8 gamma every scheme evaluates
them at x = Delta: every pole lies at least gamma off the real axis, so
that is the Maxwell average to about (ku/gamma)^2 <= 1e-16, which the
partial fractions can miss there.  `scan` sizes grids with the node form
of the plateau, `_node_alphas` on an empty grid.

Transmission values are I_p(L)/I_p(0), unnormalized; the spectrum carries
the baseline and the z rule's error estimate, and `normalize` divides by
the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .doppler import QuadratureSpec, velocity_nodes
from .errors import ZeroBackground
from .model import (Fields, Medium, Rates, drive_only_populations,
                    maxwell_absorption, weak_probe_susceptibility)

__all__ = ["SlabConfig", "Spectrum", "transmit", "normalize",
           "reference_transmission"]

_GAIN_TOL = 1e-6  # of kappa
_Z_TOL = 1e-8  # optical depth: max |tau_n - tau_previous| that accepts GL-n
_DRIVE_RTOL, _DRIVE_ATOL = 1e-10, 1e-13  # of ln(I_d/I_d(0)), DOP853
_KU_NONE = 1e-8  # of gamma: a Doppler width at or below it is none
_EXACT = QuadratureSpec("exact")
_NO_GRID = np.zeros(0)


@dataclass(frozen=True)
class SlabConfig:
    """z-rule settings: slab_count is the largest Gauss-Legendre order the
    ladder of `transmit` tries (at least 16)."""

    slab_count: int = 64

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
               integrated by `transmit`); 1.0 once normalized, None if
               unknown
    gain_flag  grid points where the probe had net gain beyond 1e-6*kappa
               at some z node; all False unless given
    z_error    the z rule's error estimate in optical depth (see
               `transmit`); None for a spectrum `transmit` did not make
    """

    delta_grid: np.ndarray
    transmission: np.ndarray
    baseline: Optional[float] = None
    gain_flag: Optional[np.ndarray] = None
    z_error: Optional[float] = None

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
    each proportional to kappa, as in `maxwell_absorption`.  kappa = 0
    absorbs nothing; at gamma = 0, which it implies, the nodes' Lorentzians
    would be 0/0 at deff = 0."""
    if kappa == 0.0:
        return np.zeros(delta_grid.shape), 0.0, 0.0
    g = rates.gamma
    pb, pc = drive_only_populations(rates, np.sqrt(od2), deff)
    g2d2 = g * g + deff * deff
    plateau = kappa * float(np.dot(w, (g * pb + g * od2 / g2d2 * pc) / g2d2))
    drive = kappa * g * float(np.dot(w, pc / g2d2))
    chi = weak_probe_susceptibility(
        g, rates.gamma_bc, od2, deff[:, None], delta_grid[None, :],
        pb[:, None], pc[:, None], kappa)
    return w @ chi.imag, plateau, drive


def _ladder(cap: int) -> list:
    """Gauss-Legendre orders 4, 6, 8, 12, 16, 24, ... below cap, then cap."""
    orders = [4, 6]
    while 2 * orders[-2] < cap:
        orders.append(2 * orders[-2])
    return [n for n in orders if n < cap] + [cap]


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _drive_od2(alphas, od2_entry: float):
    """|omega_d|^2 as a function of s from one DOP853 solve of
    d ln(I_d/I_d(0))/ds = -L alpha_d.  ln I_d is clamped at 0 wherever it
    is read: the drive only decays, and a trial stage above 0 would
    overflow exp at large kappa L.  The first trial step is the depth over
    which the entry drive would fall by 1/e, at most the cell: from
    ln I_d = 0 the solver's own guess starts about 1e-6 deep and spends
    most of its calls growing the step."""
    def od2(y):
        return od2_entry * np.exp(np.minimum(y, 0.0))

    depth = alphas(od2_entry, _NO_GRID)[2]
    sol = solve_ivp(lambda _s, y: [-alphas(od2(y[0]), _NO_GRID)[2]],
                    (0.0, 1.0), [0.0], method="DOP853", rtol=_DRIVE_RTOL,
                    atol=_DRIVE_ATOL, dense_output=True,
                    first_step=1.0 / max(depth, 1.0))
    if not sol.success:
        raise RuntimeError(f"drive depletion solve failed: {sol.message}")
    return lambda s: od2(sol.sol(s)[0])


def _optical_depths(rates: Rates, fields: Fields, medium: Medium,
                    quad: QuadratureSpec, cap: int, delta_grid: np.ndarray):
    """(tau on delta_grid, baseline tau, gain flags, z_error) of the z rule
    that `transmit` describes; every coefficient is per unit s, so the cell
    enters only through kappa L."""
    kappa_l = medium.kappa_L(rates.gamma_r)
    ku = medium.ku if medium.ku > _KU_NONE * rates.gamma else 0.0
    if quad.scheme == "exact" and ku > 0.0:
        def alphas(od2, grid):
            return maxwell_absorption(rates, od2, fields.big_delta, ku,
                                      grid, kappa_l)
    else:
        w, kv = velocity_nodes(quad, ku)
        deff = fields.big_delta - kv

        def alphas(od2, grid):
            return _node_alphas(rates, od2, w, deff, grid, kappa_l)

    def gain(alpha):
        return alpha < -_GAIN_TOL * kappa_l

    od2_entry = fields.omega_d ** 2
    if kappa_l == 0.0 or od2_entry == 0.0:
        tau, tau_b, _ = alphas(od2_entry, delta_grid)  # z-independent
        return tau, tau_b, gain(tau), 0.0

    drive = _drive_od2(alphas, od2_entry)
    previous = None
    for n in _ladder(cap):
        s, weights = _gauss_legendre(n)
        tau, tau_b = np.zeros(delta_grid.size), 0.0
        flags = np.zeros(delta_grid.size, dtype=bool)
        for w_k, od2 in zip(weights, drive(s)):
            alpha, alpha_b, _ = alphas(od2, delta_grid)
            tau += w_k * alpha
            tau_b += w_k * alpha_b
            flags |= gain(alpha)
        if previous is not None:
            z_error = max(np.max(np.abs(tau - previous[0]), initial=0.0),
                          abs(tau_b - previous[1]))
            if z_error <= _Z_TOL:
                break
        previous = tau, tau_b
    return tau, tau_b, flags, z_error


def transmit(rates: Rates, fields_at_entry: Fields, medium: Medium,
             quad: Optional[QuadratureSpec] = None,
             slabs: Optional[SlabConfig] = None,
             delta_grid=None) -> Spectrum:
    """Unnormalized probe transmission I_p(L)/I_p(0) on a two-photon grid.

    T = exp(-tau), with tau(delta) = sum_k w_k L alpha(I_d(s_k), delta)
    over the n Gauss-Legendre nodes s_k of the scaled depth s = z/L.  The
    drive intensity I_d(s) comes from one DOP853 solve of its depletion
    equation per call (rtol 1e-10, atol 1e-13 on ln I_d, each right-hand
    side one kernel call on an empty grid).  The orders n = 4, 6, 8, 12,
    16, 24, 32, 48, ... up to slabs.slab_count (default 64) are tried in
    turn; the first n whose tau, on the grid and for the baseline, moves
    by at most 1e-8 against the previous order is accepted, and at the
    cap the cap's result is returned.  That last difference is the
    spectrum's `z_error`, in optical depth.  Where the drive cannot change
    (kappa = 0 or omega_d = 0) alpha does not depend on z: one kernel call
    gives tau = L alpha, and z_error is 0.

    fields_at_entry.small_delta is ignored; the grid supplies the
    two-photon detuning.  The returned spectrum carries the coherence-free
    baseline of the same rule in `baseline`, and flags in `gain_flag` the
    grid points where the probe coefficient at a node of the accepted
    order is negative beyond 1e-6*kappa; gain is physical in some Raman
    regimes, so it is recorded, not fatal.  quad defaults to the exact
    Doppler average.
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

    tau, tau_b, gain, z_error = _optical_depths(
        rates, fields_at_entry, medium, quad, slabs.slab_count, delta_grid)
    return Spectrum(delta_grid=delta_grid, transmission=np.exp(-tau),
                    baseline=float(np.exp(-tau_b)), gain_flag=gain,
                    z_error=float(z_error))


def reference_transmission(rates: Rates, fields: Fields,
                           medium: Medium) -> float:
    """Coherence-free baseline transmission: the |delta| -> infinity plateau
    of the absorption profile through the same cell, as the pipeline
    integrates it (the baseline `transmit` returns for an empty grid)."""
    return transmit(rates, fields, medium, delta_grid=_NO_GRID).baseline


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
                    baseline=1.0, gain_flag=spectrum.gain_flag.copy(),
                    z_error=spectrum.z_error)
