"""Steady state and probe susceptibility of the closed three-level lambda system.

Level labels: |a> excited, |b> and |c> ground.  The probe couples a<->b with
Rabi frequency omega_p, the drive couples a<->c with omega_d.  big_delta is
the drive one-photon detuning (laser minus atom), small_delta the two-photon
(Raman) detuning, so the probe one-photon detuning is big_delta + small_delta.

All rates, Rabi frequencies and detunings are angular frequencies (rad/s).
Unit conversions to/from ordinary MHz happen only at external interfaces
(see `units`).

Sign convention.  Coherences are matrix elements rho_ij = <i|rho|j> in the
frame co-rotating with the fields, where the Hamiltonian over (|a>, |b>, |c>)
is, with Delta = big_delta and delta = small_delta,

        [ -(Delta + delta)   -omega_p   -omega_d ]
    H = [ -omega_p            0          0       ]
        [ -omega_d            0         -delta   ]

(real: a constant field phase is removed by rephasing |b> and |c>, so no
observable depends on it and it is not a parameter), and
drho/dt = -i[H, rho] plus relaxation: rho_aa decays at 2 gamma_r and feeds
rho_bb and rho_cc at gamma_r each, rho_bb and rho_cc exchange at gamma_bc,
the optical coherences decay at gamma and the ground coherence at
gamma_bc.  The coherences therefore evolve as

    drho_ab/dt = -(gamma   - i(big_delta + small_delta)) rho_ab  + couplings
    drho_ca/dt = -(gamma   + i big_delta)                rho_ca  + couplings
    drho_cb/dt = -(gamma_bc - i small_delta)             rho_cb  + couplings

which makes Im(chi) >= 0 absorption with the standard anomalous-dispersion
real part, yields exact transparency at two-photon resonance for
gamma_bc = 0, and cancels the narrow two-photon feature when the two ground
states are equally populated (no net Raman transfer between equally
populated levels).

The weak-probe absorption built from `drive_only_populations` and
`weak_probe_susceptibility` is rational in the velocity-shifted detuning,
so `maxwell_absorption` averages it over the Maxwell distribution in
closed form; it is the absorption kernel of `propagation`'s z rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .doppler import (_mean_lorentzian, maxwell_mean_inverse,
                      maxwell_mean_slope)
from .errors import DegenerateRates, NonPhysicalValue, SingularSystem

__all__ = ["Rates", "Fields", "Medium", "steady_state", "equation_residual",
           "susceptibility_numeric", "weak_probe_susceptibility",
           "drive_only_populations", "maxwell_absorption"]


def _require_magnitudes(obj, names) -> None:
    """Refuse a negative or non-finite value of any named attribute."""
    for name in names:
        if not 0.0 <= getattr(obj, name) < math.inf:
            raise NonPhysicalValue(name, getattr(obj, name))


@dataclass(frozen=True)
class Rates:
    """Relaxation rates of the lambda system (rad/s).

    gamma_r     radiative decay of |a>, feeding each ground state,
    gamma_deph  collisional dephasing of the optical transitions,
    gamma_bc    decay of the ground-state coherence, implemented as
                population exchange b<->c plus coherence damping.
    """

    gamma_r: float
    gamma_deph: float
    gamma_bc: float

    def __post_init__(self):
        _require_magnitudes(self, ("gamma_r", "gamma_deph", "gamma_bc"))

    @property
    def gamma(self) -> float:
        """Total optical polarization decay rate gamma_r + gamma_deph."""
        return self.gamma_r + self.gamma_deph


@dataclass(frozen=True)
class Fields:
    """Rabi frequency magnitudes and detunings (rad/s).

    Dipole moments and field amplitudes are folded into the Rabi magnitudes;
    only |omega|^2 and the magnitudes enter any observable.
    """

    omega_d: float
    omega_p: float
    big_delta: float = 0.0
    small_delta: float = 0.0

    def __post_init__(self):
        _require_magnitudes(self, ("omega_d", "omega_p"))


@dataclass(frozen=True)
class Medium:
    """Vapor parameters: density (1/m^3), length (m), probe wavelength (m),
    Doppler width ku (rad/s).

    The coupling kappa = (3/8pi) N lambda^2 gamma_r (rad/(s m)) is always
    recomputed from (density, wavelength, gamma_r), never stored.
    """

    density: float
    length: float
    wavelength: float
    ku: float

    def __post_init__(self):
        _require_magnitudes(self, ("density", "length", "wavelength", "ku"))

    def kappa(self, gamma_r: float) -> float:
        lambda2 = self.wavelength * self.wavelength  # inf, not OverflowError
        return (3.0 / (8.0 * np.pi)) * self.density * lambda2 * gamma_r

    def kappa_L(self, gamma_r: float) -> float:
        """Resonant optical-depth scale kappa * length (rad/s)."""
        return self.kappa(gamma_r) * self.length


def _scale(rates: Rates, fields: Fields) -> float:
    """Largest rate in the system, used to normalize residuals."""
    return max(
        rates.gamma,
        rates.gamma_bc,
        fields.omega_d,
        fields.omega_p,
        abs(fields.big_delta) + abs(fields.small_delta),
        1.0,
    )


def _liouvillian_rows(rates: Rates, fields: Fields) -> np.ndarray:
    """-i[H, rho] plus relaxation (module docstring) as a (9, 9) complex
    operator on the row-major flattened rho, rho_ij at index 3 i + j."""
    d2 = fields.small_delta
    h = np.diag([-(fields.big_delta + d2), 0.0, -d2])
    h[0, 1:] = h[1:, 0] = -fields.omega_p, -fields.omega_d
    # d rho_ij/dt = -i (H_ik rho_kj - rho_il H_lj) at L[3 i + j, 3 k + l]
    eye = np.eye(3)
    L = -1j * (np.einsum("ik,jl->ijkl", h, eye)
               - np.einsum("ik,jl->ijkl", eye, h.T)).reshape(9, 9)

    g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
    decay = np.array([[2.0 * gr, g, g], [g, gbc, gbc], [g, gbc, gbc]])
    L -= np.diag(decay.reshape(9))
    # population feeds rho_ii -> rho_jj: a -> b, a -> c, c -> b, b -> c
    for j, i, rate in ((1, 0, gr), (2, 0, gr), (1, 2, gbc), (2, 1, gbc)):
        L[4 * j, 4 * i] += rate
    return L


def equation_residual(rho: np.ndarray, rates: Rates, fields: Fields) -> float:
    """Max |d rho_ij/dt| at the candidate 3x3 steady state, over all nine
    equations, relative to the largest rate in the system."""
    L = _liouvillian_rows(rates, fields)
    r = L @ rho.reshape(9)
    return float(np.max(np.abs(r)) / _scale(rates, fields))


_COND_MAX = 1e12  # largest row-equilibrated condition steady_state accepts


def steady_state(rates: Rates, fields: Fields) -> np.ndarray:
    """Solve the full steady-state linear system of the closed lambda scheme
    for the 3x3 complex density matrix rho[i, j] over (|a>, |b>, |c>).

    All nine d/dt equations are set to zero with the trace constraint
    appended; because the three population equations sum identically to
    zero, the solve replaces the rho_aa row by the trace row, which leaves
    the solution set unchanged; and the generator maps a Hermitian rho to
    a Hermitian d rho/dt, so the unique solution is Hermitian.  The result satisfies every original
    equation to the residual tolerance.

    Accuracy.  The state's error is bounded by about cond * eps, where
    cond is the 2-norm condition number of the row-equilibrated system
    (an estimate of Skeel's condition, which row scaling leaves unchanged)
    and eps = 2.2e-16.  Raises SingularSystem when cond exceeds 1e12, where
    that bound passes 2.2e-4, and so when the system is rank deficient
    (non-unique steady state).  Near gamma_bc = 0, with optical pumping
    slow against the largest rate, a state can meet the residual tolerance
    and still be wrong: by 6.7e-5 at gamma_r = 2pi 3 MHz, gamma_bc = 0,
    omega_d = 2pi 1 kHz, Delta = 2pi 2 GHz (cond 6.3e12).
    """
    s = _scale(rates, fields)
    L = _liouvillian_rows(rates, fields) / s
    A = np.vstack((np.eye(3).reshape(1, 9), L[1:]))  # trace row for rho_aa's

    norms = np.linalg.norm(A, axis=1)
    sv = np.linalg.svd(A / np.where(norms > 0, norms, 1.0)[:, None],
                       compute_uv=False)
    if not sv[-1] * _COND_MAX >= sv[0]:
        raise SingularSystem("steady-state system is singular or too "
                             f"ill-conditioned (condition > {_COND_MAX:g})")
    x = np.linalg.solve(A, np.eye(9)[0])  # trace 1, every other row 0
    if np.max(np.abs(L @ x)) > 1e-8:  # `equation_residual` of x
        raise SingularSystem(
            "steady-state solve did not meet the residual tolerance")
    return x.reshape(3, 3)


def drive_only_populations(rates: Rates, omega_d: float, big_delta):
    """Exact drive-only steady-state population differences.

    Rate-equation solution of the drive-saturated lambda system with the
    probe off, (Pb, Pc) = (rho_bb - rho_aa, rho_cc - rho_aa) vectorized
    over big_delta:

        Pb = (2 gamma_r gamma_bc + R gamma_r) / den,  Pc = 2 gamma_r gamma_bc / den,
        den = R (3 gamma_bc + gamma_r) + 4 gamma_r gamma_bc

    with the pumping rate R = 2 gamma omega_d^2 / (gamma^2 + Delta^2), 0 at
    gamma = 0.  No drive gives (1/2, 1/2) and gamma_bc = 0 gives (1, 0).
    den vanishes exactly where two of R, gamma_r and gamma_bc do, where the
    steady state is not unique; there it raises DegenerateRates.  The
    strong-drive approximation is `analytic.population_differences`.
    """
    dl = np.asarray(big_delta, dtype=float)
    g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
    # at g = 0 the formula would be 0/0 for a zero detuning
    R = 2.0 * g * omega_d**2 / (g * g + dl * dl) if g > 0.0 else 0.0 * dl
    den = R * (3.0 * gbc + gr) + 4.0 * gr * gbc
    if np.any(den == 0.0):
        raise DegenerateRates("two of the pumping rate, gamma_r and gamma_bc "
                              "are 0: the drive-only state is not unique")
    return (2.0 * gr * gbc + R * gr) / den, 2.0 * gr * gbc / den


def weak_probe_susceptibility(gamma: float, gamma_bc: float, od2,
                              big_delta, small_delta,
                              pb, pc, kappa: float):
    """Linear probe response chi for given zeroth-order populations.

    pb = rho_bb - rho_aa, pc = rho_cc - rho_aa.  Exact first order in
    omega_p around the drive-only steady state; broadcasts over all array
    arguments.  chi carries kappa's units (1/length), so Im(chi) is the
    intensity absorption coefficient directly.
    """
    g = gamma
    gca = g + 1j * np.asarray(big_delta)
    gcb = gamma_bc - 1j * np.asarray(small_delta)
    gab = g - 1j * (np.asarray(big_delta) + np.asarray(small_delta))
    num = gcb * pb - (od2 / gca) * pc
    den = gab * gcb + od2
    return 1j * kappa * num / den


def susceptibility_numeric(rates: Rates, fields: Fields,
                           medium: Medium) -> complex:
    """Probe susceptibility from the exact steady state.

    chi = kappa * rho_ab / omega_p, normalized so that it coincides with
    the analytic weak-probe expression in the limit omega_p/omega_d -> 0.
    Im(chi) is the intensity absorption coefficient (1/length).
    """
    if fields.omega_p <= 0:
        raise ValueError("susceptibility_numeric requires omega_p > 0")
    rho = steady_state(rates, fields)
    return complex(medium.kappa(rates.gamma_r) * rho[0, 1] / fields.omega_p)


def maxwell_absorption(rates: Rates, od2, big_delta: float, ku: float,
                       delta_grid, kappa):
    """Exact Maxwell averages of the weak-probe absorption coefficients:
    (probe alpha on delta_grid, plateau, alpha_d) at the drive
    od2 = |omega_d|^2 and one-photon detuning big_delta; ku > 0.  The
    plateau is the |delta| -> infinity limit of the probe coefficient and
    alpha_d the drive's two-level coefficient, all proportional to kappa.
    od2 is a float, which returns (probe (m,), plateau, alpha_d) on an
    m-point grid, or an array of n z nodes, which returns (probe (n, m),
    plateau (n,), alpha_d (n,)); row i is bitwise the call at od2[i] while
    n m stays within 8192 (the z rule's budget: from 16384 complex
    elements numpy's temporary elision rounds some entries otherwise).
    An empty grid gives the drive's coefficient alone, as the depletion
    quadrature of `propagation` samples it.

    With q = gamma^2 + x^2, c = gamma_r/gamma_bc, a = 3 + c and
    s^2 = gamma^2 + a gamma od2/(2 gamma_r), the drive-only populations of
    `drive_only_populations` are

        rho_cc - rho_aa = q / (2 (x^2 + s^2))
        rho_bb - rho_aa = rho_cc - rho_aa + c gamma od2 / (2 gamma_r (x^2 + s^2))

    The Gamma_ca pole of the probe integrand cancels, leaving the poles
    +-is and x0 = -delta - i gamma - i od2/Gamma_cb; the plateau and alpha_d
    have poles at +-i gamma and +-is only.  Partial fractions give, per
    unit kappa,

        probe    Re{ i/2 M(x0)
                     + i/Gamma_cb [R(x0) (S - V)/(x0 - is) + i od2 V/2] }
        plateau  G/2 + k (G - gamma V)
        alpha_d  gamma V/2

    with M(p) = <1/(x - p)> (`maxwell_mean_inverse`), G = <gamma/q>,
    V = <1/(x^2 + s^2)>, S = (M(x0) - M(-is))/(x0 + is)
    (`maxwell_mean_slope`), R(x) = od2 [Gamma_cb (c - 3) gamma/(4 gamma_r)
    - (gamma - ix)/2] and k = (c/2 - 3/2 + gamma_r/gamma)/a.  No
    coefficient grows as poles meet: +-is -> +-i gamma (weak drive) enters
    through the bounded k, and x0 -> -is, reachable at Re x0 = 0 with
    gamma + od2 gamma_bc/|Gamma_cb|^2 = s, through S.

    Error bound: each term is a Faddeeva value (within 1e-14) or S
    (within 1.1e-11) times a factor bounded while all scales lie within a
    few decades, so each coefficient is within about 1e-11 of kappa G,
    the two-level scale.  A 1e5-node trapezoid agrees to 1e-12 relative
    on ne_30torr and vacuum at Delta = 0 to 1 GHz, pole coincidence
    included; the tests hold it to 1e-9.  Scales tens of decades apart
    break that: of 525 seeded configs with 0 < ku < 1e-8 gamma, 63 miss
    the ku = 0 form by more than 1e-10 of its peak.  The z rule of
    `propagation` therefore calls it only for ku > 1e-8 gamma and takes a
    smaller ku as none; far larger drives (omega_d >> gamma) can still
    cost accuracy.

    No drive is the general set's own limit: od2 = 0 makes s = gamma and
    R = 0, which leaves populations (1/2, 1/2) and the single Gamma_ab pole
    x0 = -delta - i gamma (DegenerateRates if gamma_bc = 0 too).
    gamma_bc = 0, where c is infinite, keeps a set of its own: populations
    (1, 0) and the single pole x0, with coefficient 0 at delta = 0 where
    Gamma_cb vanishes.  kappa = 0 absorbs nothing; it covers zero optical
    width, since gamma >= gamma_r.
    """
    g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
    nodes = np.shape(od2)  # () for a float
    col = np.reshape(od2, (-1, 1)) if nodes else od2  # a row per z node
    if gbc <= 0.0 and np.any(col == 0.0):
        raise DegenerateRates("no drive and no ground-state relaxation")
    drive = 0.0 * col  # alpha_d, 0 where kappa = 0 or gamma_bc = 0
    if kappa != 0.0 and gbc != 0.0:
        s = np.sqrt(g * g + (3.0 + gr / gbc) * g * col / (2.0 * gr))
        m_s, v = _mean_lorentzian(s, big_delta, ku)
        drive = kappa * 0.5 * g * v

    def mean(p):
        return maxwell_mean_inverse(p, big_delta, ku)

    def rows(probe, plateau):  # an array's (n, 1) columns as (n,)
        if nodes:
            return probe, plateau[:, 0], drive[:, 0]
        return probe, plateau, drive

    if kappa == 0.0:
        return rows(np.zeros(nodes + delta_grid.shape), drive)
    gcb = gbc - 1j * delta_grid
    # G, with gamma a numpy scalar so that M(-i gamma) is one wofz call
    two_level = (1j * _mean_lorentzian(np.float64(g), big_delta, ku)[0]).real
    if gbc == 0.0:
        dark = delta_grid == 0.0
        x0 = -delta_grid - 1j * (g + col / np.where(dark, 1.0, gcb))
        probe = np.where(dark, 0.0, (1j * mean(x0)).real)
        # shaped as col; [()] makes a 0-d array a scalar
        return rows(kappa * probe,
                    np.full(np.shape(col), kappa * two_level)[()])

    c = gr / gbc
    k = (0.5 * c - 1.5 + gr / g) / (3.0 + c)
    plateau = kappa * (0.5 * two_level + k * (two_level - g * v))
    if not delta_grid.size:  # a drive-only call
        return rows(np.zeros(nodes + (0,)), plateau)

    x0 = -delta_grid - 1j * (g + col / gcb)
    m0 = mean(x0)
    slope = maxwell_mean_slope(x0, -1j * s, m0, m_s, big_delta, ku)
    r = col * (gcb * ((c - 3.0) * g / (4.0 * gr)) - 0.5 * g + 0.5j * x0)
    probe = 0.5j * m0 + (1j / gcb) * (r * (slope - v) / (x0 - 1j * s)
                                      + 0.5j * col * v)
    return rows(kappa * probe.real, plateau)
