"""Least-squares extraction of resonance descriptors from a spectrum.

Fits the empirical `analytic.lineshape` to transmission data by MINPACK's
Levenberg-Marquardt (More 1978, "The Levenberg-Marquardt algorithm:
implementation and theory"; `lmder` through `scipy.optimize.leastsq`, with
MINPACK's Jacobian-based variable scaling) with the analytic Jacobian,
started from `initial_guess`.  The width gt is kept positive through an
internal log parameterization.  The fitted `LineshapeParams` carry (A, B)
and derive the polar form (D, phi) from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .analytic import LineshapeParams, lineshape
from .errors import DegenerateSpectrum
from .propagation import Spectrum

__all__ = ["FitResult", "fit_lineshape", "initial_guess"]

_TOL = 1e-12  # MINPACK ftol = xtol = gtol
_MAX_EVALS = 500
_CONVERGED = (1, 2, 3, 4)  # MINPACK info: a tolerance met (5: the cap)
_FLAT_VARIANCE = 1e-12


@dataclass(frozen=True)
class FitResult:
    params: LineshapeParams
    residual_rms: float
    converged: bool
    iterations: int
    covariance_diagonal: np.ndarray  # variances of (A, B, C, gt, delta0)


def _model(d, theta):
    a, b, c, lg, d0 = theta
    return lineshape(d, a, b, c, math.exp(lg), d0)


def _jacobian(d, theta):
    """d f / d theta as an (n, 5) view of a C-ordered (5, n) array, whose
    transpose MINPACK takes without a copy (col_deriv)."""
    a, b, _, lg, d0 = theta
    gt = math.exp(lg)
    x = d - d0
    x2 = x * x
    inv = 1.0 / (x2 + gt * gt)
    u = gt * inv
    j = np.empty((5, d.size))
    j[0] = gt * u
    j[1] = x * u
    j[2] = 1.0
    # d f / d delta0; d f / d log(gt) (chain rule through gt) is x times it
    j[4] = u * inv * (2.0 * a * gt * x + b * (x2 - gt * gt))
    j[3] = x * j[4]
    return j.T


def initial_guess(spectrum: Spectrum) -> LineshapeParams:
    """Starting point for the fit, built from robust landmarks: background
    from the outer 10% of grid points, center from the extremum of |T - C|,
    width from its half-maximum crossing, asymmetry from the residual at
    center +- width."""
    d = np.asarray(spectrum.delta_grid, dtype=float)
    t = np.asarray(spectrum.transmission, dtype=float)
    n = d.size
    if n == 0:
        raise DegenerateSpectrum("empty spectrum")
    if float(np.var(t)) < _FLAT_VARIANCE * max(1.0, float(np.mean(t)) ** 2):
        raise DegenerateSpectrum("transmission is flat within tolerance")

    edge = max(1, n // 10)
    c = float(np.median(np.concatenate([t[:edge], t[-edge:]])))
    r = np.abs(t - c)
    i0 = int(np.argmax(r))
    d0 = float(d[i0])
    half = 0.5 * r[i0]

    ihi = i0
    while ihi < n - 1 and r[ihi] > half:
        ihi += 1
    ilo = i0
    while ilo > 0 and r[ilo] > half:
        ilo -= 1
    spacing = float(np.min(np.diff(d))) if n > 1 else 1.0
    gt = max(0.5 * float(d[ihi] - d[ilo]), spacing)

    a = float(t[i0] - c)
    b = float(np.interp(d0 + gt, d, t) - np.interp(d0 - gt, d, t))
    return LineshapeParams(A=a, B=b, C=c, gamma_tilde=gt, delta0=d0)


def fit_lineshape(spectrum: Spectrum) -> FitResult:
    """Fit the empirical lineshape to a transmission spectrum.

    converged is MINPACK's verdict: one of its relative tolerances
    (1e-12 on the sum of squares, the step, or the gradient's cosine with
    the residual) met within 500 model evaluations; otherwise the last
    iterate is returned with converged=False.  iterations counts MINPACK's
    iterations (its Jacobian evaluations).  Raises DegenerateSpectrum for
    flat input or fewer than 7 points.  The covariance diagonal is the
    Gauss-Newton estimate sigma^2 * diag((J^T J)^-1) at the final point,
    sigma^2 = SSE / (n - 5), in the external (A, B, C, gamma_tilde,
    delta0) parameterization.
    (J^T J)^-1 is `leastsq`'s cov_x, R^-1 R^-T from MINPACK's pivoted QR
    factor of J.  It never forms J^T J, whose squared condition number
    loses whole directions on wide lines.  cov_x is absent when MINPACK
    did not converge or R is singular; the covariance is then NaN.
    """
    d = np.asarray(spectrum.delta_grid, dtype=float)
    t = np.asarray(spectrum.transmission, dtype=float)
    if d.size < 7:
        raise DegenerateSpectrum(
            "need at least 7 grid points to fit 5 parameters")

    g0 = initial_guess(spectrum)
    theta0 = np.array([g0.A, g0.B, g0.C, math.log(g0.gamma_tilde), g0.delta0])
    theta, cov_x, info, _, status = leastsq(
        lambda th: _model(d, th) - t, theta0,
        Dfun=lambda th: _jacobian(d, th).T, col_deriv=True, full_output=True,
        ftol=_TOL, xtol=_TOL, gtol=_TOL, maxfev=_MAX_EVALS)
    sse = float(info["fvec"] @ info["fvec"])

    a, b, c, lg, d0 = theta
    gt = math.exp(lg)
    params = LineshapeParams(A=float(a), B=float(b), C=float(c),
                             gamma_tilde=float(gt), delta0=float(d0))
    rms = math.sqrt(sse / d.size)

    if cov_x is None:
        cov = np.full(5, np.nan)
    else:
        cov = sse / (d.size - 5) * np.diag(cov_x)
        cov[3] *= gt * gt  # var(log gt) -> var(gt)

    return FitResult(params=params, residual_rms=rms,
                     converged=status in _CONVERGED,
                     iterations=int(info["njev"]), covariance_diagonal=cov)
