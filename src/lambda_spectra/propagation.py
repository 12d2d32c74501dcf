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
tau by Gauss-Legendre quadrature in s, its order chosen on a subgrid (see
`transmit`); only where the drive cannot change (kappa = 0 or omega_d = 0)
does one kernel call give tau.  Local Rabi magnitudes scale as the square
root of the local intensities.

Beside the probe, the same rule integrates the coherence-free baseline:
the |delta| -> infinity plateau of the absorption profile, which keeps the
drive-pumped populations of the actual parameter set, on the same drive
trajectory.

One kernel gives all three coefficients (probe, plateau, alpha_d).  Under
the default exact scheme the integrands are rational in x = Delta - kv,
and `model.maxwell_absorption` sums their residues times the Faddeeva
function (pole sets and error bound in its docstring); a call takes
an array of z nodes and costs one wofz call per node and grid point.
A node scheme (Gauss-Hermite, trapezoid)
averages the same integrands over velocity nodes instead, as the
independent cross-check.  At ku <= 1e-8 gamma every scheme evaluates
them at x = Delta: every pole lies at least gamma off the real axis, so
that is the Maxwell average to about (ku/gamma)^2 <= 1e-16, which the
partial fractions can miss there.  `_kernel` makes that choice for every
caller; `scan` sizes grids with one `_kernel` call, Gauss-Hermite 32
nodes on an empty grid (the plateau).

Transmission values are I_p(L)/I_p(0), unnormalized; the spectrum carries
the baseline, by which `normalize` divides, and the z rule's error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .analytic import ac_stark_shift
from .doppler import QuadratureSpec, velocity_nodes
from .errors import ZeroBackground
from .model import (Fields, Medium, Rates, _drive_rate,
                    drive_only_populations, maxwell_absorption,
                    weak_probe_susceptibility)

__all__ = ["SlabConfig", "Spectrum", "transmit", "normalize",
           "reference_transmission"]

_GAIN_TOL = 1e-6  # of kappa
_Z_TOL = 1e-8  # optical depth: max |tau_n - tau_previous| that accepts GL-n
_DRIVE_RTOL, _DRIVE_ATOL = 1e-10, 1e-13  # of ln(I_d/I_d(0)), DOP853
_KU_NONE = 1e-8  # of gamma: a Doppler width at or below it is none
_EXACT = QuadratureSpec("exact")
_NO_GRID = np.zeros(0)
_CALL_ELEMENTS = 8192  # nodes x grid points per kernel call (see transmit)


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
    z_error    the z rule's error estimate in optical depth, taken on its
               subgrid (see `transmit`); None unless from `transmit`
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


def _node_alphas(rates: Rates, od2, w, deff, delta_grid, kappa):
    """(probe alpha on delta_grid, plateau, alpha_d) averaged over the
    velocity nodes (w, deff = Delta - kv) at the drive od2 = |omega_d|^2,
    each proportional to kappa, with the shapes and rows of
    `maxwell_absorption`.  kappa = 0 absorbs nothing; at gamma = 0, which
    it implies, the nodes' Lorentzians would be 0/0 at deff = 0."""
    nodes = np.shape(od2)  # () for a float
    if kappa == 0.0:
        zero = np.zeros(nodes)[()]  # [()] makes a 0-d array a scalar
        return np.zeros(nodes + delta_grid.shape), zero, zero
    g = rates.gamma
    col = np.reshape(od2, (-1, 1)) if nodes else od2  # a row per z node
    pb, pc = drive_only_populations(rates, np.sqrt(col), deff)
    g2d2 = g * g + deff * deff

    def average(values):
        # one dot per z node, as for a float: a matrix product may sum in
        # another order
        return (np.array([np.dot(w, row) for row in values]) if nodes
                else np.dot(w, values))

    chi = weak_probe_susceptibility(
        g, rates.gamma_bc, col[..., None] if nodes else col, deff[:, None],
        delta_grid, pb[..., None], pc[..., None], kappa)
    return (w @ chi.imag,
            kappa * average((g * pb + g * col / g2d2 * pc) / g2d2),
            kappa * g * average(pc / g2d2))


def _ladder(cap: int) -> list:
    """The z rule's Gauss-Legendre orders below cap, then cap."""
    return [n for n in (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)
            if n < cap] + [cap]


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _drive_od2(rate, od2_entry: float):
    """(|omega_d|^2 as a function of s, and at s = 1 from the last step) of
    one DOP853 solve of d ln(I_d/I_d(0))/ds = -L alpha_d, with
    rate(od2) -> L alpha_d.  ln I_d is clamped at 0 wherever it is read:
    the drive only decays, and a trial stage above 0 would overflow exp at
    large kappa L.  The first trial step is the depth over which the entry
    drive would fall by 1/e, at most the cell: from ln I_d = 0 the
    solver's own guess starts about 1e-6 deep and spends most of its calls
    growing the step."""
    def od2(y):
        return od2_entry * np.exp(np.minimum(y, 0.0))

    sol = solve_ivp(lambda _s, y: [-rate(od2(y[0]))],
                    (0.0, 1.0), [0.0], method="DOP853", rtol=_DRIVE_RTOL,
                    atol=_DRIVE_ATOL, dense_output=True,
                    first_step=1.0 / max(rate(od2_entry), 1.0))
    if not sol.success:
        raise RuntimeError(f"drive depletion solve failed: {sol.message}")
    return lambda s: od2(sol.sol(s)[0]), od2(sol.y[0, -1])


def _kernel(rates: Rates, big_delta: float, medium: Medium,
            quad: QuadratureSpec):
    """(alphas, rate) per unit s: alphas(od2, grid) -> (probe alpha on
    grid, plateau, alpha_d) at the drive od2 = |omega_d|^2, a float or an
    array of z nodes, and rate(od2) -> alpha_d at a float od2, the drive
    solve's right-hand side.  The Faddeeva kernel for the exact scheme,
    whose rate is `model._drive_rate` in numpy scalars; `_node_alphas`
    over `velocity_nodes(quad, ku)` otherwise and wherever
    ku <= 1e-8 gamma, which counts as ku = 0."""
    kappa_l = medium.kappa_L(rates.gamma_r)
    ku = medium.ku if medium.ku > _KU_NONE * rates.gamma else 0.0
    if quad.scheme == "exact" and ku > 0.0:
        return (lambda od2, grid: maxwell_absorption(rates, od2, big_delta,
                                                     ku, grid, kappa_l),
                lambda od2: _drive_rate(rates, od2, big_delta, ku,
                                        kappa_l)[0])
    w, kv = velocity_nodes(quad, ku)

    def alphas(od2, grid):
        return _node_alphas(rates, od2, w, big_delta - kv, grid, kappa_l)
    return alphas, lambda od2: alphas(od2, _NO_GRID)[2]


def _optical_depths(rates: Rates, fields: Fields, medium: Medium,
                    quad: QuadratureSpec, cap: int, delta_grid: np.ndarray):
    """(tau on delta_grid, baseline tau, gain flags, z_error) of the z rule
    that `transmit` describes; every coefficient is per unit s, so the cell
    enters only through kappa L."""
    kappa_l = medium.kappa_L(rates.gamma_r)
    alphas, rate = _kernel(rates, fields.big_delta, medium, quad)

    def gain(alpha):
        return alpha < -_GAIN_TOL * kappa_l

    od2_entry = fields.omega_d ** 2
    if kappa_l == 0.0 or od2_entry == 0.0:
        tau, tau_b, _ = alphas(od2_entry, delta_grid)  # z-independent
        return tau, tau_b, gain(tau), 0.0

    drive, od2_exit = _drive_od2(rate, od2_entry)
    def integrate(n, grid):
        s, weights = _gauss_legendre(n)
        od2 = drive(s)
        per_call = max(1, _CALL_ELEMENTS // max(grid.size, 1))
        tau = np.zeros(grid.size + 1)  # the baseline last
        flags = np.zeros(grid.size, dtype=bool)
        for i in range(0, n, per_call):
            alpha, alpha_b, _ = alphas(od2[i:i + per_call], grid)
            flags |= gain(alpha).any(axis=0)
            # node by node, in order: a row sum would round otherwise
            for term in (weights[i:i + per_call, None]
                         * np.column_stack((alpha, alpha_b))):
                tau += term
        return tau, flags

    subgrid = delta_grid
    if delta_grid.size > 65:  # the line is where alpha depends most on z
        lines = ac_stark_shift(fields.big_delta,
                               np.sqrt([od2_entry, od2_exit]), rates.gamma)
        picks = np.append(np.rint(np.linspace(0, delta_grid.size - 1, 65)),
                          np.abs(delta_grid - lines[:, None]).argmin(axis=1))
        subgrid = delta_grid[np.unique(picks).astype(int)]
    previous = None
    for n in _ladder(cap):
        tau, flags = integrate(n, subgrid)
        if previous is not None:
            z_error = np.max(np.abs(tau - previous))
            if z_error <= _Z_TOL:
                break
        previous = tau
    else:
        import logging  # loaded with scipy; only a rule at its cap logs
        logging.getLogger(__name__).warning(
            "z rule at its cap GL-%d with z_error %.3g > %g in optical "
            "depth (Delta = %.6g rad/s)", n, z_error, _Z_TOL,
            fields.big_delta)
    if subgrid is not delta_grid:
        tau, flags = integrate(n, delta_grid)
    return tau[:-1], tau[-1], flags, z_error


def transmit(rates: Rates, fields_at_entry: Fields, medium: Medium,
             delta_grid, *, quad: QuadratureSpec = _EXACT,
             slabs: SlabConfig = SlabConfig()) -> Spectrum:
    """Unnormalized probe transmission I_p(L)/I_p(0) on a two-photon grid.

    T = exp(-tau), with tau(delta) = sum_k w_k L alpha(I_d(s_k), delta)
    over the n Gauss-Legendre nodes s_k of the scaled depth s = z/L.  The
    drive intensity I_d(s) comes from one DOP853 solve of its depletion
    equation per call (rtol 1e-10, atol 1e-13 on ln I_d, each right-hand
    side the kernel's scalar drive rate).  The orders n = 2, 3, 4, 5, 6,
    8, 10, 12, 16, ..., 64 (`_ladder`) below slabs.slab_count, then
    slab_count, are tried in turn on a subgrid (above 65 points, rint(
    linspace(0, size - 1, 65)) and the points nearest the ac-Stark-shifted
    line at the entry and exit drive); the first n whose tau there and for
    the baseline moves by at most 1e-8 against the previous order (or the
    cap) is accepted, and the full grid evaluated once at n.  That move,
    `z_error`, estimates the error without bounding it (presets: error <=
    6.5e-11 against GL-64, z_error >= 0.74 of it).  Stopping at the cap
    with z_error above 1e-8 logs a warning.  Where the drive cannot change
    (kappa = 0 or omega_d = 0) one call gives tau; z_error 0.

    Each kernel call takes as many of an order's nodes as fit in 8192
    nodes x grid points: the subgrid's whole order, up to 10 nodes of an
    801-point grid, 2 of a 3201-point one.  Most of a call's cost is fixed
    (about 45 us), but larger temporaries (above 128 KiB complex) page-
    fault, and from 16384 elements numpy's temporary elision rounds
    differently.  Within the budget each node's row is bitwise the
    single-node call's, and tau adds the rows node by node in order, so T
    does not depend on how the nodes are split.

    fields_at_entry.small_delta is ignored; the grid supplies the
    two-photon detuning.  The returned spectrum carries the coherence-free
    baseline of the same rule in `baseline`, and flags in `gain_flag` the
    grid points where the probe coefficient at a node of the accepted
    order is negative beyond 1e-6*kappa; gain is physical in some Raman
    regimes, so it is recorded, not fatal.

    delta_grid (rad/s) is required; the keywords quad (default the exact
    Doppler average) and slabs (default SlabConfig(), largest order 64)
    select the velocity average and the z rule's cap.
    """
    if medium.length <= 0:
        raise ValueError("medium.length must be > 0")
    if fields_at_entry.omega_p > fields_at_entry.omega_d:
        raise ValueError("weak-probe regime requires omega_p <= omega_d")
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
    return transmit(rates, fields, medium, _NO_GRID).baseline


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
