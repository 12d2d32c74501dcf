"""Maxwell-velocity averaging of a per-velocity susceptibility.

The thermal average replaces the one-photon detuning Delta by Delta - kv
and integrates over the Maxwell distribution:

    <chi>(Delta) = (1 / sqrt(pi) ku) *
                   integral chi(Delta - kv) exp(-(kv)^2/(ku)^2) d(kv)

The two-photon detuning is not shifted: the residual Doppler width of the
ground-state transition is negligible for copropagating fields and is not
modeled.

Two quadratures are provided.  Gauss-Hermite is the default and is accurate
when the integrand's structure is not much narrower than the node spacing
(~0.28*ku near the center for 64 nodes); that holds for pressure-broadened
optical lines but NOT for a bare radiative linewidth of a few MHz under a
250 MHz Doppler width.  The trapezoid rule on a truncated grid handles
narrow integrands at the cost of more nodes.  An n-versus-2n refinement
check guards against silently under-resolved features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import QuadratureDivergence

__all__ = ["QuadratureSpec", "doppler_average", "velocity_nodes"]

_REFINE_RTOL = 1e-4


@dataclass(frozen=True)
class QuadratureSpec:
    """Velocity-quadrature choice.

    scheme      "gauss_hermite" or "trapezoid"
    node_count  number of velocity nodes (>= 8)
    truncation  half-width of the trapezoid grid in units of ku (>= 3;
                ignored by Gauss-Hermite)
    refine      run the n-vs-2n refinement check on every call
    """

    scheme: str = "gauss_hermite"
    node_count: int = 64
    truncation: float = 6.0
    refine: bool = False

    def __post_init__(self):
        if self.scheme not in ("gauss_hermite", "trapezoid"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.scheme == "trapezoid" and self.truncation < 3:
            raise ValueError("trapezoid truncation must be >= 3 (units of ku)")


@lru_cache(maxsize=32)
def _hermite(n: int):
    return hermgauss(n)


def velocity_nodes(quad: QuadratureSpec, ku: float):
    """(weights, kv-offsets) realizing the normalized Maxwell average.

    Weights sum to 1 exactly, so a constant integrand averages to itself.
    For ku = 0 the distribution is a delta and the single node (1, 0) is
    returned, as `doppler_average` does.
    """
    if ku == 0.0:
        return np.ones(1), np.zeros(1)
    if quad.scheme == "gauss_hermite":
        t, w = _hermite(quad.node_count)
        w = w / w.sum()
        return w, ku * t
    kv = np.linspace(-quad.truncation * ku, quad.truncation * ku, quad.node_count)
    w = np.exp(-((kv / ku) ** 2))
    return w / w.sum(), kv


def _average(chi_of_detuning, big_delta: float, ku: float, quad: QuadratureSpec):
    w, kv = velocity_nodes(quad, ku)
    vals = np.asarray([chi_of_detuning(big_delta - v) for v in kv])
    return complex(np.dot(w, vals))


def doppler_average(chi_of_detuning: Callable[[float], complex],
                    big_delta: float, ku: float,
                    quad: QuadratureSpec | None = None) -> complex:
    """Average chi over the Maxwell velocity distribution.

    chi_of_detuning maps a velocity-shifted one-photon detuning (rad/s) to
    a complex susceptibility; it must be defined on the sampled range and
    re-entrant.  For ku = 0 the integral is bypassed and chi(big_delta) is
    returned exactly.

    With quad.refine set, the result is compared against a run with twice
    the node count; QuadratureDivergence is raised if they differ by more
    than 1e-4 relative (an under-resolved narrow feature).
    """
    if ku < 0:
        raise ValueError("ku must be >= 0")
    if quad is None:
        quad = QuadratureSpec()
    if ku == 0.0:
        return complex(chi_of_detuning(big_delta))

    coarse = _average(chi_of_detuning, big_delta, ku, quad)
    if quad.refine:
        fine = _average(chi_of_detuning, big_delta, ku,
                        QuadratureSpec(quad.scheme, 2 * quad.node_count,
                                       quad.truncation))
        scale = max(abs(fine), abs(coarse))
        if scale > 0 and abs(fine - coarse) > _REFINE_RTOL * scale:
            raise QuadratureDivergence(
                f"{quad.scheme} with {quad.node_count} nodes is not "
                f"converged: n vs 2n differ by "
                f"{abs(fine - coarse) / scale:.2e} relative")
    return coarse
