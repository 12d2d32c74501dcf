"""Steady state and probe susceptibility of the closed three-level lambda system.

Level labels: |a> excited, |b> and |c> ground.  The probe couples a<->b with
Rabi frequency omega_p, the drive couples a<->c with omega_d.  big_delta is
the drive one-photon detuning (laser minus atom), small_delta the two-photon
(Raman) detuning, so the probe one-photon detuning is big_delta + small_delta.

All rates, Rabi frequencies and detunings are angular frequencies (rad/s).
Unit conversions to/from ordinary MHz happen only at external interfaces
(see `units`).

Sign convention.  Coherences are matrix elements rho_ij = <i|rho|j> in the
frame co-rotating with the fields.  Free evolution in this frame is

    drho_ab/dt = -(gamma   - i(big_delta + small_delta)) rho_ab  + couplings
    drho_ca/dt = -(gamma   + i big_delta)                rho_ca  + couplings
    drho_cb/dt = -(gamma_bc - i small_delta)             rho_cb  + couplings

which makes Im(chi) >= 0 absorption with the standard anomalous-dispersion
real part, yields exact transparency at two-photon resonance for
gamma_bc = 0, and cancels the narrow two-photon feature when the two ground
states are equally populated (no net Raman transfer between equally
populated levels).  The `GeneralizedRates` values carry the opposite
rotation sense for Gamma_ab and Gamma_cb; they govern the conjugate
coherences rho_ba and rho_bc.

The weak-probe absorption built from `drive_only_populations` and
`weak_probe_susceptibility` is rational in the velocity-shifted detuning,
so `maxwell_absorption` averages it over the Maxwell distribution in
closed form; it is the slab kernel of `propagation`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .doppler import maxwell_mean_inverse, maxwell_mean_slope
from .errors import DegenerateRates, SingularSystem

__all__ = [
    "Rates",
    "Fields",
    "Medium",
    "GeneralizedRates",
    "DensityMatrix3",
    "steady_state",
    "equation_residual",
    "susceptibility_numeric",
    "susceptibility_analytic",
    "weak_probe_susceptibility",
    "drive_only_populations",
    "maxwell_absorption",
    "population_differences",
]

# index of rho_ij in the flattened unknown vector, levels a, b, c = 0, 1, 2
_IDX = {(i, j): 3 * i + j for i in range(3) for j in range(3)}
_A, _B, _C = 0, 1, 2


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
        for name in ("gamma_r", "gamma_deph", "gamma_bc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

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
        if self.omega_d < 0 or self.omega_p < 0:
            raise ValueError("Rabi frequency magnitudes must be >= 0")


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
        for name in ("density", "length", "wavelength", "ku"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def kappa(self, gamma_r: float) -> float:
        return (3.0 / (8.0 * np.pi)) * self.density * self.wavelength**2 * gamma_r

    def kappa_L(self, gamma_r: float) -> float:
        """Resonant optical-depth scale kappa * length (rad/s)."""
        return self.kappa(gamma_r) * self.length


@dataclass(frozen=True)
class GeneralizedRates:
    """Complex generalized decay rates.

    As defined, Gamma_ab and Gamma_cb govern the conjugate coherences rho_ba
    and rho_bc; the equations of motion for rho_ab and rho_cb use their
    complex conjugates (see module docstring).
    """

    gamma_ab: complex
    gamma_ca: complex
    gamma_cb: complex

    @classmethod
    def from_params(cls, rates: Rates, fields: Fields) -> "GeneralizedRates":
        g = rates.gamma
        return cls(
            gamma_ab=g + 1j * (fields.big_delta + fields.small_delta),
            gamma_ca=g + 1j * fields.big_delta,
            gamma_cb=rates.gamma_bc + 1j * fields.small_delta,
        )


@dataclass(frozen=True)
class DensityMatrix3:
    """3x3 complex density matrix over (|a>, |b>, |c>)."""

    matrix: np.ndarray

    @property
    def rho_aa(self) -> complex:
        return self.matrix[_A, _A]

    @property
    def rho_bb(self) -> complex:
        return self.matrix[_B, _B]

    @property
    def rho_cc(self) -> complex:
        return self.matrix[_C, _C]

    @property
    def rho_ab(self) -> complex:
        return self.matrix[_A, _B]

    @property
    def rho_ca(self) -> complex:
        return self.matrix[_C, _A]

    @property
    def rho_cb(self) -> complex:
        return self.matrix[_C, _B]

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))

    def validate(self, atol: float = 1e-12) -> None:
        m = self.matrix
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=atol):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > atol:
            raise ValueError(f"trace deviates from 1 by {abs(np.trace(m)-1.0):.2e}")
        pops = self.populations()
        if np.any(pops < -atol) or np.any(pops > 1.0 + atol):
            raise ValueError(f"populations outside [0, 1]: {pops}")


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


def _liouvillian_rows(rates: Rates, fields: Fields,
                      drive_phase: float, probe_phase: float) -> np.ndarray:
    """All nine d(rho_ij)/dt rows as a (9, 9) complex operator."""
    gr, gbc = rates.gamma_r, rates.gamma_bc
    g = rates.gamma
    dl, d2 = fields.big_delta, fields.small_delta
    od = fields.omega_d * cmath.exp(1j * drive_phase)
    op = fields.omega_p * cmath.exp(1j * probe_phase)

    L = np.zeros((9, 9), dtype=complex)

    def add(row_ij, col_ij, coeff):
        L[_IDX[row_ij], _IDX[col_ij]] += coeff

    aa, bb, cc = (_A, _A), (_B, _B), (_C, _C)
    ab, ba = (_A, _B), (_B, _A)
    ac, ca = (_A, _C), (_C, _A)
    bc, cb = (_B, _C), (_C, _B)

    # populations; the aa row is the closed-system counterpart of bb + cc
    add(aa, aa, -2 * gr)
    add(aa, ab, -1j * op.conjugate())
    add(aa, ba, 1j * op)
    add(aa, ac, -1j * od.conjugate())
    add(aa, ca, 1j * od)

    add(bb, aa, gr)
    add(bb, bb, -gbc)
    add(bb, cc, gbc)
    add(bb, ab, 1j * op.conjugate())
    add(bb, ba, -1j * op)

    add(cc, aa, gr)
    add(cc, cc, -gbc)
    add(cc, bb, gbc)
    add(cc, ac, 1j * od.conjugate())
    add(cc, ca, -1j * od)

    # optical coherences (see module docstring for the rotation sense)
    add(ab, ab, -(g - 1j * (dl + d2)))
    add(ab, bb, 1j * op)
    add(ab, aa, -1j * op)
    add(ab, cb, 1j * od)

    add(ba, ba, -(g + 1j * (dl + d2)))
    add(ba, bb, -1j * op.conjugate())
    add(ba, aa, 1j * op.conjugate())
    add(ba, bc, -1j * od.conjugate())

    add(ca, ca, -(g + 1j * dl))
    add(ca, aa, 1j * od.conjugate())
    add(ca, cc, -1j * od.conjugate())
    add(ca, cb, -1j * op.conjugate())

    add(ac, ac, -(g - 1j * dl))
    add(ac, aa, -1j * od)
    add(ac, cc, 1j * od)
    add(ac, bc, 1j * op)

    # ground-state coherence
    add(cb, cb, -(gbc - 1j * d2))
    add(cb, ca, -1j * op)
    add(cb, ab, 1j * od.conjugate())

    add(bc, bc, -(gbc + 1j * d2))
    add(bc, ac, 1j * op.conjugate())
    add(bc, ba, -1j * od)

    return L


def equation_residual(rho: DensityMatrix3, rates: Rates, fields: Fields,
                      drive_phase: float = 0.0, probe_phase: float = 0.0) -> float:
    """Max |d rho_ij/dt| at the candidate steady state, over all nine
    equations, relative to the largest rate in the system."""
    L = _liouvillian_rows(rates, fields, drive_phase, probe_phase)
    r = L @ rho.matrix.reshape(9)
    return float(np.max(np.abs(r)) / _scale(rates, fields))


_RANK_TOL = 1e-12  # relative to the largest singular value


def steady_state(rates: Rates, fields: Fields,
                 drive_phase: float = 0.0, probe_phase: float = 0.0) -> DensityMatrix3:
    """Solve the full steady-state linear system of the closed lambda scheme.

    All nine d/dt equations are set to zero with the trace constraint
    appended; because the three population equations sum identically to
    zero, the solve replaces the rho_aa row by the trace row, which leaves
    the solution set unchanged.  The result satisfies every original
    equation to the residual tolerance.

    Raises SingularSystem when the constrained Liouvillian is rank
    deficient (degenerate rate configuration, non-unique steady state).
    """
    if rates.gamma_r <= 0 and rates.gamma_bc <= 0:
        raise SingularSystem(
            "gamma_r and gamma_bc both zero: steady state is not unique")

    s = _scale(rates, fields)
    L = _liouvillian_rows(rates, fields, drive_phase, probe_phase) / s
    A = L.copy()
    A[_IDX[_A, _A], :] = 0.0
    A[_IDX[_A, _A], [_IDX[_A, _A], _IDX[_B, _B], _IDX[_C, _C]]] = 1.0
    b = np.zeros(9, dtype=complex)
    b[_IDX[_A, _A]] = 1.0

    def _rank_deficient() -> bool:
        full = np.vstack([L, A[_IDX[_A, _A]]])
        sv = np.linalg.svd(full, compute_uv=False)
        return sv[-1] < _RANK_TOL * sv[0]

    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise SingularSystem("steady-state system is singular") from None

    rho = DensityMatrix3(matrix=x.reshape(3, 3))
    if equation_residual(rho, rates, fields, drive_phase, probe_phase) > 1e-8:
        if _rank_deficient():
            raise SingularSystem(
                "steady-state system is rank deficient beyond tolerance")
        raise SingularSystem(
            "steady-state solve did not meet the residual tolerance")
    return rho


def population_differences(rates: Rates, fields: Fields) -> tuple[float, float]:
    """Strong-drive closed forms for (rho_aa - rho_bb, rho_aa - rho_cc).

    Both values lie in [-1, 0].  Raises DegenerateRates when the shared
    denominator 2*gamma_bc*Delta^2 + gamma*|omega_d|^2 vanishes.
    """
    g, gbc = rates.gamma, rates.gamma_bc
    dl = fields.big_delta
    od2 = fields.omega_d**2
    den = 2.0 * gbc * dl * dl + g * od2
    if den == 0.0:
        raise DegenerateRates(
            "2*gamma_bc*Delta^2 + gamma*|omega_d|^2 = 0: population "
            "redistribution is undefined")
    paa_minus_pbb = -(gbc * dl * dl + g * od2) / den
    paa_minus_pcc = -gbc * (dl * dl + g * g) / den
    return paa_minus_pbb, paa_minus_pcc


def drive_only_populations(rates: Rates, omega_d: float, big_delta):
    """Exact drive-only steady-state population differences.

    Rate-equation solution of the drive-saturated lambda system with the
    probe off.  Returns (Pb, Pc) = (rho_bb - rho_aa, rho_cc - rho_aa),
    vectorized over big_delta.  Used by the propagation engine; the
    strong-drive approximation lives in `population_differences`.
    """
    dl = np.asarray(big_delta, dtype=float)
    g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
    od2 = omega_d * omega_d
    if od2 == 0.0:
        if gbc <= 0:
            raise DegenerateRates("no drive and no ground-state relaxation")
        half = np.full_like(dl, 0.5)
        return half, half.copy()
    if gbc == 0.0:
        # optical pumping empties |c> and |a> completely
        return np.ones_like(dl), np.zeros_like(dl)
    # optical pumping rate through the drive transition
    R = 2.0 * g * od2 / (g * g + dl * dl) if g > 0.0 else np.zeros_like(dl)
    if np.all(R == 0.0):
        # zero optical linewidth: no pumping in this rate model (at g = 0
        # R would be 0/0 for a zero detuning)
        half = np.full_like(dl, 0.5)
        return half, half.copy()
    paa = 1.0 / (3.0 + 4.0 * gr / R + gr / gbc)
    pb = paa * (2.0 * gr / R + gr / gbc)
    pc = paa * (2.0 * gr / R)
    return pb, pc


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


def susceptibility_numeric(rates: Rates, fields: Fields, medium: Medium,
                           drive_phase: float = 0.0, probe_phase: float = 0.0) -> complex:
    """Probe susceptibility from the exact steady state.

    chi = kappa * rho_ab / omega_p, normalized so that it coincides with
    the analytic weak-probe expression in the limit omega_p/omega_d -> 0.
    Im(chi) is the intensity absorption coefficient (1/length).
    """
    if fields.omega_p <= 0:
        raise ValueError("susceptibility_numeric requires omega_p > 0")
    rho = steady_state(rates, fields, drive_phase, probe_phase)
    op = fields.omega_p * cmath.exp(1j * probe_phase)
    return complex(medium.kappa(rates.gamma_r) * rho.rho_ab / op)


def susceptibility_analytic(rates: Rates, fields: Fields, medium: Medium) -> complex:
    """Weak-probe susceptibility with strong-drive populations.

    Evaluates the closed-form linear response using the population
    differences of `population_differences`.  The relative sign of the two
    numerator terms is fixed by the weak-probe limit of the steady state
    (and by the requirement that the narrow feature cancel for equal ground
    populations); the prefactor makes the two-level limit
    chi = i kappa (rho_bb - rho_aa) / (gamma + i Delta_p) absorptive.
    """
    paa_m_pbb, paa_m_pcc = population_differences(rates, fields)
    return complex(weak_probe_susceptibility(
        rates.gamma, rates.gamma_bc, fields.omega_d**2,
        fields.big_delta, fields.small_delta,
        -paa_m_pbb, -paa_m_pcc, medium.kappa(rates.gamma_r)))


def maxwell_absorption(rates: Rates, od2: float, big_delta: float, ku: float,
                       delta_grid, kappa):
    """Exact Maxwell averages of the weak-probe absorption coefficients:
    (probe alpha on delta_grid, plateau, alpha_d) at the drive
    od2 = |omega_d|^2 and one-photon detuning big_delta; ku > 0.  The
    plateau is the |delta| -> infinity limit of the probe coefficient and
    alpha_d the drive's two-level coefficient, all proportional to kappa.

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

    Error bound: every term is a Faddeeva value (about 1e-13 relative)
    times a bounded factor, so each coefficient is accurate to about 1e-13
    of kappa G, the two-level scale, and to 1e-12 relative wherever it is
    not itself a small difference of such terms.  A 1e5-node trapezoid
    agrees to 1e-12 relative on the ne_30torr and vacuum presets at
    Delta = 0 to 1 GHz, pole coincidence included; the tests hold it to
    1e-9.

    Edge rates have their own pole sets, as `drive_only_populations` has
    its own branches: od2 = 0 gives populations (1/2, 1/2) and the single
    Gamma_ab pole x0 = -delta - i gamma (DegenerateRates if gamma_bc = 0
    too); gamma_bc = 0 gives (1, 0) and the single pole x0, with
    coefficient 0 at delta = 0 where Gamma_cb vanishes.  kappa = 0 absorbs
    nothing; it covers zero optical width, since gamma >= gamma_r.  Where
    gamma od2 underflows with gamma > 0, the general set is its own limit
    (s -> gamma, populations -> 1/2).
    """
    g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
    if od2 == 0.0 and gbc <= 0.0:
        raise DegenerateRates("no drive and no ground-state relaxation")
    if kappa == 0.0:
        return np.zeros(delta_grid.shape), 0.0, 0.0

    def mean(p):
        return maxwell_mean_inverse(p, big_delta, ku)

    if od2 == 0.0:
        half = kappa * 0.5 * (1j * mean(-1j * g)).real
        return kappa * (0.5j * mean(-delta_grid - 1j * g)).real, half, half
    gcb = gbc - 1j * delta_grid
    if gbc == 0.0:
        dark = delta_grid == 0.0
        x0 = -delta_grid - 1j * (g + od2 / np.where(dark, 1.0, gcb))
        probe = np.where(dark, 0.0, (1j * mean(x0)).real)
        return kappa * probe, kappa * (1j * mean(-1j * g)).real, 0.0

    c = gr / gbc
    a = 3.0 + c
    s = np.sqrt(g * g + a * g * od2 / (2.0 * gr))
    m_g, m_s = mean([-1j * g, -1j * s])
    two_level = (1j * m_g).real  # G
    v = (1j * m_s).real / s  # V
    k = (0.5 * c - 1.5 + gr / g) / a
    plateau = kappa * (0.5 * two_level + k * (two_level - g * v))
    drive = kappa * 0.5 * g * v
    if not delta_grid.size:  # the march's drive-only midpoint step
        return np.zeros(0), plateau, drive

    x0 = -delta_grid - 1j * (g + od2 / gcb)
    m0 = mean(x0)
    slope = maxwell_mean_slope(x0, -1j * s, m0, m_s, big_delta, ku)
    r = od2 * (gcb * ((c - 3.0) * g / (4.0 * gr)) - 0.5 * g + 0.5j * x0)
    probe = 0.5j * m0 + (1j / gcb) * (r * (slope - v) / (x0 - 1j * s)
                                      + 0.5j * od2 * v)
    return kappa * probe.real, plateau, drive
