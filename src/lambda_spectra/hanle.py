"""Dark-state algebra of the degenerate Hanle configuration.

A single linearly polarized beam drives both circular components on Zeeman
sublevels |m=+1>, |m=-1> of the lower level; a longitudinal magnetic field
converts to two-photon detuning.  The two hyperfine excited levels couple
with different relative signs of their transition matrix elements, so each
transition has its own dark superposition and the two dark states are
orthogonal: the state pumped dark on one transition is maximally bright on
the other.  Only this two-dimensional algebra is modeled; collision-driven
spectra are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.constants import hbar, physical_constants

__all__ = ["ZeemanState", "dark_state", "overlap", "brightness",
           "zeeman_detuning"]

_MU_B = physical_constants["Bohr magneton"][0]


@dataclass(frozen=True)
class ZeemanState:
    """Normalized amplitudes over (|m=+1>, |m=-1>)."""

    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        norm = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm-1.0):.2e}")


# The sigma+/sigma- components reach the excited m'=0 sublevel with
# opposite relative sign on F=2 -> F'=1 and equal sign on F=2 -> F'=2; this
# one sign per transition is what makes the two dark states orthogonal.
_RELATIVE_SIGN = {"two_to_one": -1, "two_to_two": 1}
TRANSITIONS = tuple(_RELATIVE_SIGN)


def _sign(transition: str) -> int:
    if transition not in _RELATIVE_SIGN:
        raise ValueError(f"unknown transition {transition!r}; "
                         f"expected one of {TRANSITIONS}")
    return _RELATIVE_SIGN[transition]


def dark_state(transition: str) -> ZeemanState:
    """The ground superposition decoupled from the given transition,
    (1, -sigma)/sqrt(2) for its relative sign sigma: (|+1> + |-1>)/sqrt(2)
    for F=2->F'=1, (|+1> - |-1>)/sqrt(2) for F=2->F'=2."""
    r = 1.0 / math.sqrt(2.0)
    return ZeemanState(c_plus=r, c_minus=-_sign(transition) * r)


def overlap(s1: ZeemanState, s2: ZeemanState) -> complex:
    """Inner product <s1|s2>."""
    return (complex(s1.c_plus).conjugate() * s2.c_plus
            + complex(s1.c_minus).conjugate() * s2.c_minus)


def brightness(state: ZeemanState, transition: str) -> float:
    """Coupling magnitude of a state to a transition, in [0, 1].

    |c_+ + sigma c_-| / sqrt(2) for the transition's relative sign sigma:
    zero for its dark state, one for the maximally bright (orthogonal) state.
    """
    amp = state.c_plus + _sign(transition) * state.c_minus
    return float(abs(amp) / math.sqrt(2.0))


def zeeman_detuning(b_field: float) -> float:
    """Two-photon detuning (rad/s) produced by a longitudinal magnetic
    field (tesla): delta = 2 mu_B B / hbar."""
    return 2.0 * _MU_B * b_field / hbar
