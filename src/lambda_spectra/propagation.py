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
plain two-level result).  It is scalar and autonomous, so the depth is
the integral s(y) = int_y^0 dy' / (L alpha_d) of y = ln(I_d / I_d(0)):
`transmit` integrates it once per point as a Chebyshev series (see
`_drive_od2`), inverts it onto a series y(s), and then evaluates
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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .analytic import ac_stark_shift
from .doppler import QuadratureSpec, velocity_nodes
from .errors import ZeroBackground
from .model import (Fields, Medium, Rates, drive_only_populations,
                    maxwell_absorption, weak_probe_susceptibility)

__all__ = ["SlabConfig", "Spectrum", "transmit", "normalize",
           "reference_transmission"]

_GAIN_TOL = 1e-6  # of kappa
_Z_TOL = 1e-8  # optical depth: max |tau_n - tau_previous| that accepts GL-n
_KU_NONE = 1e-8  # of gamma: a Doppler width at or below it is none
_EXACT = QuadratureSpec("exact")
_NO_GRID = np.zeros(0)
_CALL_ELEMENTS = 8192  # velocity x z nodes x grid points per kernel call
_CHOP = 1e-13  # of the largest Chebyshev coefficient: the drive's series tail
_CHOP_POINTS = 4097  # Lobatto points at which a drive series stops doubling
_NEWTON_STEPS = 30  # at most, per inversion of the drive's depth s(y)


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


def _lobatto_coefficients(values):
    """Chebyshev coefficients of the polynomial through values at the
    Chebyshev-Lobatto points cos(pi j / (n - 1)), j = 0 .. n - 1."""
    n = values.size - 1
    c = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def _lobatto_points(n: int):
    """cos(pi j / (n - 1)), j = 0 .. n - 1: from 1 down to -1."""
    return np.cos(np.pi * np.arange(n) / (n - 1))


def _series_values(x, *series):
    """Each Chebyshev series at the points x in [-1, 1], from T_k(x) in
    blocks of at most 65536 entries."""
    size = max(c.size for c in series)
    rows = max(1, 65536 // size)
    if x.size > rows:
        blocks = [_series_values(x[i:i + rows], *series)
                  for i in range(0, x.size, rows)]
        return [np.concatenate(block) for block in zip(*blocks)]
    basis = np.cos(np.multiply.outer(np.arccos(x), np.arange(size)))
    return [basis[:, :c.size] @ c for c in series]


def _chopped(c):
    """c cut after its last coefficient above 1e-13 of the largest, or None
    where one of the last three is above that: not yet resolved."""
    tail = np.flatnonzero(np.abs(c) > _CHOP * np.max(np.abs(c)))
    return None if tail[-1] >= c.size - 3 else c[:tail[-1] + 1]


def _resolved(sample):
    """The chopped Chebyshev coefficients of sample(x), x in [-1, 1], on
    2^k + 1 Lobatto points, k = 4, 5, ...: each doubling samples only the
    new points; at 4097 points the series is taken unchopped."""
    x = _lobatto_points(17)
    values = sample(x)
    while True:
        c = _lobatto_coefficients(values)
        chopped = _chopped(c)
        if chopped is not None or values.size >= _CHOP_POINTS:
            return c if chopped is None else chopped
        x = _lobatto_points(2 * values.size - 1)
        doubled = np.empty(x.size)
        doubled[::2] = values
        doubled[1::2] = sample(x[1::2])
        values = doubled


def _drive_od2(alphas, rates: Rates, od2_entry: float):
    """(|omega_d|^2 as a function of s, and at s = 1) from the drive's
    depletion, dy/ds = -R(y) with y = ln(I_d/I_d(0)) and R = L alpha_d from
    alphas(od2 array, no grid)[2].  R grows as the drive depletes, from R_e
    at the entry to R_0 at no drive, so the exit lies at
    y >= max(-R_0, ln(1 - R_e)) (R e^y only grows with y).  The depth is
    the integral s(y) = int_y^0 dy'/R(y'): `_resolved` interpolates 1/R in
    y on an interval 1/16 past that bound and integrates the series; a
    vectorized Newton solve inverts s(y) on the Lobatto points in s, and
    `_resolved` again gives the series y(s).  Below the depth where the
    saturation u = (3 + gamma_r/gamma_bc) |omega_d|^2 / (2 gamma_r gamma)
    falls under 2^-53, R is R_0 to rounding (R_0 / (1 + u) <= R <= R_0),
    so the interval stops there and y continues linearly.  gamma_bc = 0
    (R = 0), and an entry rate R_e <= 2^-52 that moves ln I_d by at most
    R_e, give y = -R_e s."""
    r_entry = r_max = 0.0
    if rates.gamma_bc > 0.0:  # else nothing absorbs the drive
        r_entry, r_max = alphas(np.array([od2_entry, 0.0]), _NO_GRID)[2]
    lo = 0.0
    if r_entry > 2.0 ** -52:
        exit_bound = -r_max
        if r_entry < 1.0:
            exit_bound = max(exit_bound, math.log1p(-r_entry))
        g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
        ln_u = (math.log(3.0 * gbc + gr) - math.log(gbc) + math.log(od2_entry)
                - math.log(2.0 * gr) - math.log(g))
        lo = max(1.0625 * exit_bound, -53.0 * math.log(2.0) - ln_u)
    if lo >= 0.0:
        return (lambda s: od2_entry * np.exp(-r_entry * np.asarray(s)),
                od2_entry * math.exp(-r_entry))

    def inverse_rate(x):  # 1/R at y = lo (1 - x) / 2
        return 1.0 / alphas(od2_entry * np.exp(0.5 * lo * (1.0 - x)),
                            _NO_GRID)[2]

    half = -0.5 * lo
    c = _resolved(inverse_rate)
    # the antiderivative in x, 0 at x = 1 (y = 0): s = -half * big(x)
    padded = np.concatenate((c, [0.0, 0.0]))
    big = np.zeros(c.size + 1)
    big[1:] = (padded[:-2] - padded[2:]) / (2.0 * np.arange(1, c.size + 1))
    big[1] += 0.5 * padded[0]
    big[0] = -np.sum(big[1:])
    x_table = _lobatto_points(c.size + 1)
    s_table = -half * _series_values(x_table, big)[0]
    s_lo = s_table[-1]
    r_lo = 1.0 / np.sum(c * (-1.0) ** np.arange(c.size))  # R at x = -1

    def depth(t):  # y at s = (1 + t) / 2
        s = 0.5 * (1.0 + t)
        y = lo - r_lo * (s - s_lo)  # below lo, R = R_0 to rounding
        inside = s < s_lo
        target = s[inside] / half
        x = np.interp(s[inside], s_table, x_table)
        for _ in range(_NEWTON_STEPS):
            antiderivative, inverse = _series_values(x, big, c)
            step = (antiderivative + target) / inverse
            x = np.minimum(np.maximum(x - step, -1.0), 1.0)
            if np.max(np.abs(step), initial=0.0) <= 2.0 ** -50:
                break
        y[inside] = half * (x - 1.0)
        return y

    ys = _resolved(depth)
    return (lambda s: od2_entry * np.exp(
                _series_values(2.0 * np.asarray(s) - 1.0, ys)[0]),
            od2_entry * math.exp(np.sum(ys)))


def _kernel(rates: Rates, big_delta: float, medium: Medium,
            quad: QuadratureSpec):
    """alphas(od2, grid) -> (probe alpha on grid, plateau, alpha_d) per unit
    s at the drive od2 = |omega_d|^2, a float or an array of z nodes: the
    Faddeeva kernel for the exact scheme, and `_node_alphas` over
    `velocity_nodes(quad, ku)` otherwise and wherever ku <= 1e-8 gamma,
    which counts as ku = 0.  An array goes to the kernel in calls of at
    most 8192 velocity nodes x z nodes x grid points (one z node at the
    least; the exact kernel counts one velocity node)."""
    kappa_l = medium.kappa_L(rates.gamma_r)
    ku = medium.ku if medium.ku > _KU_NONE * rates.gamma else 0.0
    if quad.scheme == "exact" and ku > 0.0:
        velocity = 1

        def call(od2, grid):
            return maxwell_absorption(rates, od2, big_delta, ku, grid,
                                      kappa_l)
    else:
        w, kv = velocity_nodes(quad, ku)
        velocity = w.size

        def call(od2, grid):
            return _node_alphas(rates, od2, w, big_delta - kv, grid, kappa_l)

    def alphas(od2, grid):
        per_call = max(1, _CALL_ELEMENTS // (velocity * max(grid.size, 1)))
        if np.ndim(od2) == 0 or od2.size <= per_call:
            return call(od2, grid)
        parts = [call(od2[i:i + per_call], grid)
                 for i in range(0, od2.size, per_call)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    return alphas


def _optical_depths(rates: Rates, fields: Fields, medium: Medium,
                    quad: QuadratureSpec, cap: int, delta_grid: np.ndarray):
    """(tau on delta_grid, baseline tau, gain flags, z_error) of the z rule
    that `transmit` describes; every coefficient is per unit s, so the cell
    enters only through kappa L."""
    kappa_l = medium.kappa_L(rates.gamma_r)
    alphas = _kernel(rates, fields.big_delta, medium, quad)

    def gain(alpha):
        return alpha < -_GAIN_TOL * kappa_l

    od2_entry = fields.omega_d ** 2
    if kappa_l == 0.0 or od2_entry == 0.0:
        tau, tau_b, _ = alphas(od2_entry, delta_grid)  # z-independent
        return tau, tau_b, gain(tau), 0.0

    drive, od2_exit = _drive_od2(alphas, rates, od2_entry)

    def integrate(n, grid):
        s, weights = _gauss_legendre(n)
        alpha, alpha_b, _ = alphas(drive(s), grid)
        tau = np.zeros(grid.size + 1)  # the baseline last
        # node by node, in order: a row sum would round otherwise
        for term in weights[:, None] * np.column_stack((alpha, alpha_b)):
            tau += term
        return tau, gain(alpha).any(axis=0)

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
    drive intensity I_d(s) comes from one quadrature of its depletion per
    call (`_drive_od2`: Chebyshev series in ln I_d chopped at 1e-13 of
    their largest coefficient; the presets need 17 points, and
    ln |omega_d|^2 is within 5.7e-14 of a DOP853 solve at rtol 1e-13 on
    them, within 6.8e-12 at 10 times the density).  The orders n = 2, 3,
    4, 5, 6, 8, 10, 12, 16, ..., 64 (`_ladder`) below slabs.slab_count,
    then slab_count, are tried in turn on a subgrid (above 65 points, rint(
    linspace(0, size - 1, 65)) and the points nearest the ac-Stark-shifted
    line at the entry and exit drive); the first n whose tau there and for
    the baseline moves by at most 1e-8 against the previous order (or the
    cap) is accepted, and the full grid evaluated once at n.  That move,
    `z_error`, estimates the error without bounding it (presets: error <=
    6.5e-11 against GL-64, z_error >= 0.74 of it).  Stopping at the cap
    with z_error above 1e-8 logs a warning.  Where the drive cannot change
    (kappa = 0 or omega_d = 0) one call gives tau; z_error 0.

    Each kernel call takes as many of an order's nodes as fit in 8192
    velocity nodes x z nodes x grid points (one velocity node for the
    exact kernel): the subgrid's whole order, up to 10 nodes of an
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
