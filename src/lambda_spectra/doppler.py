"""Maxwell-velocity averaging of a per-velocity susceptibility.

The thermal average replaces the one-photon detuning Delta by Delta - kv
and integrates over the Maxwell distribution:

    <chi>(Delta) = (1 / sqrt(pi) ku) *
                   integral chi(Delta - kv) exp(-(kv)^2/(ku)^2) d(kv)

The two-photon detuning is not shifted: the residual Doppler width of the
ground-state transition is negligible for copropagating fields and is not
modeled.

Three schemes are named by `QuadratureSpec`.  "exact" is the closed form
for integrands that are rational in x = Delta - kv: partial fractions turn
the average into a sum over the poles p of residue times

    <1/(x - p)> = -i sqrt(pi)/ku * w((Delta - p)/ku)      (Im p < 0)

and its mirror image above the real axis, where w is the Faddeeva
function (`scipy.special.wofz`).  `maxwell_mean_inverse` evaluates that
average and `maxwell_mean_slope` the divided difference of two of them,
which stays accurate as the two poles coalesce.  The exact scheme has no
nodes; `model.maxwell_absorption`, the kernel of `propagation`, is
built from these two functions, and every scan point runs it.

`doppler_average` takes an arbitrary callable and so needs velocity nodes;
it is the independent cross-check of the exact kernel.  Gauss-Hermite is
accurate when the integrand's structure is not much narrower than the node
spacing (~0.28*ku near the center for 64 nodes); that holds for
pressure-broadened optical lines but NOT for a bare radiative linewidth of
a few MHz under a 250 MHz Doppler width.  The trapezoid rule on a
truncated grid (+-6 ku) handles narrow integrands at the cost of more
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.polynomial import polyval
from scipy.special import wofz

__all__ = ["QuadratureSpec", "doppler_average", "velocity_nodes",
           "maxwell_mean_inverse", "maxwell_mean_slope"]

_SQRT_PI = np.sqrt(np.pi)
# half-width of the trapezoid grid, in units of ku
_TRUNCATION = 6.0
# pole separation, relative to the scale on which the average varies,
# below which `maxwell_mean_slope` uses its Taylor series
_SLOPE_SERIES = 1e-3
# |z| above which that series takes w' and w''' from w's asymptotic
# expansion (i/sqrt(pi)) sum_n (2n - 1)!!/2^n z^-(2n+1), n = 0..8 (the
# first term left out is below 1e-17 there), differentiated term by term:
# the coefficients of z^-2n in z^2 w' and in z^4 w'''
_ASYMPTOTIC = 20.0
_N = np.arange(9)
_W1_SERIES = (-1j / _SQRT_PI) * (2 * _N + 1) * np.cumprod(
    np.r_[1.0, _N[1:] - 0.5])
_W3_SERIES = _W1_SERIES * (2 * _N + 2) * (2 * _N + 3)


@dataclass(frozen=True)
class QuadratureSpec:
    """Velocity-quadrature choice.

    scheme      "exact", "gauss_hermite" or "trapezoid" (on +-6 ku)
    node_count  number of velocity nodes (>= 8; unused by exact)
    """

    scheme: str = "gauss_hermite"
    node_count: int = 64

    def __post_init__(self):
        if self.scheme not in ("exact", "gauss_hermite", "trapezoid"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")


@lru_cache(maxsize=32)
def _hermite(n: int):
    return hermgauss(n)


def velocity_nodes(quad: QuadratureSpec, ku: float):
    """(weights, kv-offsets) realizing the normalized Maxwell average.

    Weights sum to 1 exactly, so a constant integrand averages to itself.
    For ku = 0 the distribution is a delta and the single node (1, 0) is
    returned, as `doppler_average` does, whatever the scheme; for ku > 0
    the exact scheme has no nodes and raises ValueError.
    """
    if ku == 0.0:
        return np.ones(1), np.zeros(1)
    if quad.scheme == "exact":
        raise ValueError("the exact scheme has no velocity nodes")
    if quad.scheme == "gauss_hermite":
        t, w = _hermite(quad.node_count)
        w = w / w.sum()
        return w, ku * t
    kv = np.linspace(-_TRUNCATION * ku, _TRUNCATION * ku, quad.node_count)
    w = np.exp(-((kv / ku) ** 2))
    return w / w.sum(), kv


def doppler_average(chi_of_detuning: Callable[[float], complex],
                    big_delta: float, ku: float,
                    quad: QuadratureSpec | None = None) -> complex:
    """Average chi over the Maxwell velocity distribution: the weighted
    sum of chi(big_delta - kv) over `velocity_nodes`.

    chi_of_detuning maps a velocity-shifted one-photon detuning (rad/s) to
    a complex susceptibility; it must be defined on the sampled range and
    re-entrant.  For ku = 0 the single node returns chi(big_delta)
    exactly.  A callable has no poles to sum over, so the exact scheme
    raises ValueError.
    """
    if ku < 0:
        raise ValueError("ku must be >= 0")
    if quad is None:
        quad = QuadratureSpec()
    if quad.scheme == "exact":
        raise ValueError("doppler_average needs a node scheme, not 'exact'")
    w, kv = velocity_nodes(quad, ku)
    return complex(np.dot(w, [chi_of_detuning(big_delta - v) for v in kv]))


def maxwell_mean_inverse(p, big_delta: float, ku: float):
    """Maxwell average <1/(x - p)> over x = big_delta - kv, elementwise over
    the complex poles p; ku > 0.

    Below the real axis this is -i sqrt(pi)/ku * w(z) with
    z = (big_delta - p)/ku in the upper half plane; above it, the complex
    conjugate of the average for conj(p).  A pole on the real axis gets the
    value of a pole just below it.  scipy's wofz is accurate to about
    1e-13 relative.
    """
    z = (big_delta - np.asarray(p, dtype=complex)) / ku
    upper = z.imag >= 0.0
    m = wofz(np.where(upper, z, z.conj())) * (-1j * _SQRT_PI / ku)
    return np.where(upper, m, m.conj())


def _mean_lorentzian(s, big_delta: float, ku: float):
    """(M(-is), <1/(x^2 + s^2)> = Re(i M(-is))/s) over x = big_delta - kv,
    elementwise over s > 0, with M = `maxwell_mean_inverse`.  The pole -is
    lies below the real axis, so no branch is taken: a numpy scalar s costs
    one wofz call and no array.  s leads the product so that its type
    decides: numpy scalars round as the array loops do, Python complex
    division otherwise."""
    m = wofz((big_delta - s * -1j) / ku) * (-1j * _SQRT_PI / ku)
    return m, (1j * m).real / s


def maxwell_mean_slope(p1, p2, m1, m2, big_delta: float, ku: float):
    """Divided difference (m1 - m2) / (p1 - p2) of M = `maxwell_mean_inverse`,
    given m1 = M(p1) and m2 = M(p2); elementwise over the array p1 (and
    m1), with p1 and p2 below the real axis and ku > 0.

    M(p) = -i sqrt(pi)/ku w(z) varies on the scale
    rho = max(ku, |big_delta - m|) around the midpoint m (w is entire, so
    nothing singular lies below the real axis).  The difference quotient
    carries wofz's error (<= 1e-14) times rho/|p1 - p2|; below
    |p1 - p2| = 1e-3 rho the midpoint series M'(m) + (p1 - p2)^2 M'''(m)/24
    takes over, and coincident poles give M'(m).  Against mpmath at
    |z| = |big_delta - m|/ku from 1 to 1e12, the series stays within
    6.4e-13 relative and the quotient within 1.1e-11 (just above 1e-3 rho).
    """
    h = np.asarray(p1, dtype=complex) - p2
    mid = p2 + 0.5 * h
    rho = np.maximum(ku, np.abs(big_delta - mid))
    near = np.abs(h) < _SLOPE_SERIES * rho
    out = (m1 - m2) / np.where(near, 1.0, h)
    if near.any():
        z = (big_delta - mid[near]) / ku  # dz/dp = -1/ku
        far = np.abs(z) > _ASYMPTOTIC
        w1, w3 = np.empty_like(z), np.empty_like(z)
        # w' = -2 z w + 2i/sqrt(pi), differentiated twice more, cancels to
        # about eps |z|^2 relative
        zn = z[~far]
        w0 = wofz(zn)
        w1[~far] = -2.0 * zn * w0 + 2j / _SQRT_PI
        w2 = -2.0 * w0 - 2.0 * zn * w1[~far]
        w3[~far] = -4.0 * w1[~far] - 2.0 * zn * w2
        u2 = 1.0 / z[far]
        u2 *= u2
        w1[far] = u2 * polyval(u2, _W1_SERIES)
        w3[far] = u2 * u2 * polyval(u2, _W3_SERIES)
        out[near] = (1j * _SQRT_PI / ku**2) * (
            w1 + (h[near] / ku) ** 2 * w3 / 24.0)
    return out
