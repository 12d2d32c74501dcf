"""Correctness checks of the benchmark's outputs.

Sweeps: each descriptor row must match the row recorded at the seed
commit (reference/<preset>_descriptors.csv) within REL_TOL.  The errors
are scaled by the row's own size: width and centre by the reference
width, (A, B) as a vector by the reference amplitude D, C by the larger of
D and |C|, and phi in radians without wrapping, so a result reported on
another branch of atan2 fails.

REL_TOL is 2e-3.  A more accurate velocity quadrature moves the
descriptors by at most 2.7e-5 on ne_30torr (GH-64 -> GH-256) and
1.1e-4 on vacuum (1601 -> 3201 trapezoid nodes), doubling every slab
count moves them by at most 8e-7 on ne_30torr, and a fit that stops at
the minimum instead of at its iteration cap moves the width by about
1e-7; all pass.  A 1 % width error is five times the tolerance and fails.

Refit: a synthetic fit must recover the parameters it was drawn from; a
thick-cell fit must reach an SSE within 1e-6 relative of
scipy.optimize.least_squares(method="lm") started from the same point.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from lambda_spectra import fitting

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 2e-3
SSE_RTOL = 1e-6
NOISELESS_RTOL = 1e-6
NOISY_SIGMAS = 6.0


def load_reference(preset: str) -> list:
    with open(REFERENCE_DIR / f"{preset}_descriptors.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _nums(row: dict) -> dict:
    return {k: float(v) for k, v in row.items()
            if k not in ("converged", "gain_flag")}


def row_errors(row: dict, ref: dict) -> dict:
    """Scaled deviations of one descriptor row (as read from CSV) from the
    reference row; NaN anywhere the reference has values is infinite."""
    r, q = _nums(row), _nums(ref)
    if any(math.isnan(v) for v in r.values()):
        nan_ref = any(math.isnan(v) for v in q.values())
        return {"nan": 0.0 if nan_ref else math.inf}
    gt, d = q["gamma_tilde_khz"], q["D"]
    return {
        "delta": abs(r["delta_1photon_mhz"] - q["delta_1photon_mhz"]),
        "gamma_tilde": abs(r["gamma_tilde_khz"] - gt) / gt,
        "delta0": abs(r["delta0_khz"] - q["delta0_khz"]) / gt,
        "AB": math.hypot(r["A"] - q["A"], r["B"] - q["B"]) / d,
        "C": abs(r["C"] - q["C"]) / max(d, abs(q["C"])),
        "phi": abs(r["phi_rad"] - q["phi_rad"]),
    }


def descriptor_failures(text: str, reference: list) -> int:
    """Rows of a descriptors.csv text that miss the reference."""
    rows = list(csv.DictReader(text.splitlines()))
    bad = abs(len(rows) - len(reference))
    for row, ref in zip(rows, reference):
        if max(row_errors(row, ref).values()) > REL_TOL:
            bad += 1
    return bad


# ----------------------------------------------------------------------
# lineshape oracle, written out independently of lambda_spectra.fitting


def lineshape(d, a, b, c, gt, d0):
    x = d - d0
    return gt * (a * gt + b * x) / (gt * gt + x * x) + c


def _jacobian(d, a, b, gt, d0):
    """Columns d f / d (A, B, C, gt, d0)."""
    x = d - d0
    den = gt * gt + x * x
    return np.column_stack([
        gt * gt / den,
        gt * x / den,
        np.ones_like(d),
        (2 * a * gt * x * x + b * x * (x * x - gt * gt)) / den ** 2,
        gt * (b * x * x + 2 * a * gt * x - b * gt * gt) / den ** 2,
    ])


def parameter_sigmas(d, truth, noise: float) -> np.ndarray:
    """Standard errors of (A, B, C, gt, d0) for white noise of size
    `noise` around the true lineshape (linearised at the truth)."""
    j = _jacobian(d, truth.A, truth.B, truth.gamma_tilde, truth.delta0)
    scale = np.linalg.norm(j, axis=0)
    _, r = np.linalg.qr(j / scale)
    rinv = np.linalg.inv(r)
    return noise * np.sqrt(np.sum(rinv * rinv, axis=1)) / scale


def synthetic_ok(fit, spectrum, truth, noise: float) -> bool:
    """Recovered parameters within NOISY_SIGMAS standard errors (noisy)
    or NOISELESS_RTOL of the line's own scale (noiseless)."""
    p = fit.params
    got = np.array([p.A, p.B, p.C, p.gamma_tilde, p.delta0])
    want = np.array([truth.A, truth.B, truth.C, truth.gamma_tilde, truth.delta0])
    amp = math.hypot(truth.A, truth.B)
    scale = np.array([amp, amp, amp, truth.gamma_tilde, truth.gamma_tilde])
    tol = NOISELESS_RTOL * scale
    if noise > 0:
        tol = tol + NOISY_SIGMAS * parameter_sigmas(spectrum.delta_grid, truth, noise)
    return bool(np.all(np.abs(got - want) <= tol))


def sse(spectrum, a, b, c, gt, d0) -> float:
    r = lineshape(spectrum.delta_grid, a, b, c, gt, d0) - spectrum.transmission
    return float(r @ r)


def lm_oracle_sse(spectrum) -> float:
    """SSE that MINPACK's Levenberg-Marquardt reaches from the package's
    own starting point, in the fit's (A, B, C, log gt, d0) coordinates."""
    d, t = spectrum.delta_grid, spectrum.transmission
    g0 = fitting.initial_guess(spectrum)
    theta0 = np.array([g0.A, g0.B, g0.C, math.log(g0.gamma_tilde), g0.delta0])

    def resid(th):
        return lineshape(d, th[0], th[1], th[2], math.exp(th[3]), th[4]) - t

    def jac(th):
        gt = math.exp(th[3])
        j = _jacobian(d, th[0], th[1], gt, th[4])
        j[:, 3] *= gt
        return j

    sol = least_squares(resid, theta0, jac=jac, method="lm", x_scale="jac",
                        ftol=1e-14, xtol=1e-14, gtol=1e-14, max_nfev=2000)
    th = sol.x
    return sse(spectrum, th[0], th[1], th[2], math.exp(th[3]), th[4])


def thick_ok(fit, spectrum, oracle_sse: float) -> bool:
    p = fit.params
    got = sse(spectrum, p.A, p.B, p.C, p.gamma_tilde, p.delta0)
    return got <= oracle_sse * (1.0 + SSE_RTOL)
