"""Closed-form lineshape quantities of the two-photon resonance.

These are the strong-drive analytic expressions: the absorption profile
versus two-photon detuning, the ac-Stark shift of the resonance center, the
effective width, the symmetric/antisymmetric/background amplitudes of the
empirical lineshape, the one-photon detuning at which the symmetric
amplitude changes sign, and the density-narrowed width of the resonance in
an optically thick cell.

They are evaluated verbatim; their validity domain (optically thin medium,
strong drive, two-photon detuning small against the optical linewidth) is
the caller's responsibility.  Exact counterparts live in `model`.

`absorption_profile` states that domain in numbers.  It is the leading
order of the exact weak-probe response in

    eps = gamma_bc (gamma^2+Delta^2)^(3/2) / (gamma^2 |omega_d|^2)
    x   = max|delta| / |gamma - i Delta|

and drops three terms: the cross term that makes the exact width additive
and the rho_cc - rho_aa Raman-balance term (both of size eps), and delta
inside Gamma_ab (size x).  Its regime is eps <= 0.05 and
x (1 + |Delta|/gamma) <= 0.2; its docstring gives the measured deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import DegenerateRates, NoSignChange
from .model import Fields, Medium, Rates, population_differences

__all__ = [
    "LineshapeParams",
    "PolarForm",
    "absorption_profile",
    "ac_stark_shift",
    "resonance_width",
    "lineshape_coefficients",
    "sign_change_detuning",
    "density_narrowed_width",
]

# sign_change_detuning searches A's root on [0, _SIGN_CHANGE_BRACKET*gamma]
_SIGN_CHANGE_BRACKET = 10.0


@dataclass(frozen=True)
class LineshapeParams:
    """Parameters of the empirical resonance lineshape

        f(delta) = gamma_tilde * (A*gamma_tilde + B*(delta - delta0))
                   / (gamma_tilde^2 + (delta - delta0)^2) + C

    A: symmetric amplitude, B: antisymmetric amplitude, C: background level,
    gamma_tilde: effective width (rad/s), delta0: resonance shift (rad/s).
    """

    A: float
    B: float
    C: float
    gamma_tilde: float
    delta0: float

    def __post_init__(self):
        if self.gamma_tilde <= 0:
            raise ValueError("gamma_tilde must be > 0")

    def __call__(self, delta):
        x = delta - self.delta0
        gt = self.gamma_tilde
        return gt * (self.A * gt + self.B * x) / (gt * gt + x * x) + self.C

    def to_polar(self) -> "PolarForm":
        """(A, B) -> (D, phi); D = hypot, phi = atan2(B, A) in (-pi, pi].
        (0, 0) maps to (0, 0) by convention."""
        if self.A == 0.0 and self.B == 0.0:
            return PolarForm(D=0.0, phi=0.0, C=self.C)
        return PolarForm(D=math.hypot(self.A, self.B),
                         phi=math.atan2(self.B, self.A), C=self.C)


@dataclass(frozen=True)
class PolarForm:
    """Polar decomposition A = D cos(phi), B = D sin(phi).

    phi = 0 is a symmetric transmission peak, phi = +-pi a symmetric
    absorption peak, phi = +-pi/2 a pure dispersion shape.
    """

    D: float
    phi: float
    C: float

    @property
    def A(self) -> float:
        return self.D * math.cos(self.phi)

    @property
    def B(self) -> float:
        return self.D * math.sin(self.phi)


def ac_stark_shift(big_delta: float, omega_d: float, gamma: float) -> float:
    """Drive-induced shift of the two-photon resonance center,
    delta0 = |omega_d|^2 * Delta / (gamma^2 + Delta^2)."""
    if gamma <= 0 and big_delta == 0:
        raise ValueError("ac_stark_shift needs gamma > 0 or big_delta != 0")
    return omega_d**2 * big_delta / (gamma**2 + big_delta**2)


def resonance_width(big_delta: float, omega_d: float, gamma: float,
                    gamma_bc: float) -> float:
    """Effective width of the two-photon resonance,

        gamma_tilde = sqrt(gamma^2 |omega_d|^4
                           + gamma_bc^2 Delta^2 (gamma^2 + Delta^2))
                      / (gamma^2 + Delta^2)

    Power-broadened |omega_d|^2/gamma at Delta = 0; approaches gamma_bc for
    large one-photon detuning.
    """
    if gamma <= 0:
        raise ValueError("resonance_width requires gamma > 0")
    g2d2 = gamma**2 + big_delta**2
    return math.sqrt(gamma**2 * omega_d**4
                     + gamma_bc**2 * big_delta**2 * g2d2) / g2d2


def absorption_profile(rates: Rates, fields: Fields, medium: Medium) -> float:
    """Strong-drive absorption coefficient (1/length) at the fields'
    two-photon detuning:

        alpha = kappa/(gamma^2+Delta^2) * eta
                * (gamma_bc |omega_d|^2 + gamma delta^2)
                / (gamma_tilde^2 + (delta - delta0)^2)

    with delta0 = ac_stark_shift and gamma_tilde = resonance_width.

    Regime.  The profile is the leading order of the exact weak-probe
    response (`model.weak_probe_susceptibility` at the drive-only steady
    state) in two small parameters,

        eps = gamma_bc (gamma^2+Delta^2)^(3/2) / (gamma^2 |omega_d|^2)
        x   = max|delta| / |gamma - i Delta|   (over the detunings used)

    It drops three terms:

    * the cross term that makes the exact width additive,
      gamma_bc + gamma |omega_d|^2/(gamma^2+Delta^2), of size eps;
    * the rho_cc - rho_aa Raman-balance term of the numerator, of size eps;
    * delta inside Gamma_ab = gamma - i(Delta + delta), of size x.  At
      |Delta| >~ gamma the dropped delta^2/Gamma_ab moves the line centre
      by about (|delta0|/gamma) Delta^2/(gamma^2+Delta^2) widths, which
      is at most x |Delta|/gamma on delta0 +- 10 gamma_tilde.

    Hence the regime eps <= 0.05 and x (1 + |Delta|/gamma) <= 0.2.
    Measured against the exact steady state on delta0 +- 10 gamma_tilde
    (gamma_r = gamma_deph, |Delta| <= 10 gamma), the largest deviation
    relative to the profile's peak is about 1.5-1.9 eps for |Delta| <=
    gamma (0.3-0.9 eps beyond) plus 0.2-0.8 x (about 3 x at |Delta| =
    10 gamma).  At the regime's edge it is 3-12 %; outside the
    regime it grows to order unity.  A pointwise relative comparison is
    ill-posed at the transparency floor: the profile keeps a residual
    absorption of about eps times its peak there, while the exact floor
    is orders of magnitude lower."""
    g, gbc = rates.gamma, rates.gamma_bc
    dl, d2 = fields.big_delta, fields.small_delta
    od2 = fields.omega_d**2
    eta = -population_differences(rates, fields)[0]  # raises DegenerateRates
    d0 = ac_stark_shift(dl, fields.omega_d, g)
    gt = resonance_width(dl, fields.omega_d, g, gbc)
    kappa = medium.kappa(rates.gamma_r)
    return (kappa / (g**2 + dl**2) * eta
            * (gbc * od2 + g * d2**2) / (gt**2 + (d2 - d0)**2))


def lineshape_coefficients(rates: Rates, fields: Fields,
                           medium: Medium) -> tuple[float, float, float, float]:
    """Thin-medium amplitudes (A, B, C, eta) of the empirical lineshape.

        A = kappa L eta |od|^2/(g^2+D^2)
            * [g |od|^2 (g^2 - D^2) - g_bc (g^2 + D^2)^2]
            / [g^2 |od|^4 + g_bc^2 D^2 (g^2 + D^2)]
        B = -kappa L eta D / (g^2 + D^2)
        C = 1 - kappa L eta g / (g^2 + D^2)

    eta is the population-redistribution factor (1 on resonance, 1/2 far
    detuned).  Stated validity: optically thin cell, I(z) ~ I(0)(1 - alpha z).
    """
    g, gbc = rates.gamma, rates.gamma_bc
    dl = fields.big_delta
    od2 = fields.omega_d**2
    g2d2 = g * g + dl * dl
    den = g * g * od2 * od2 + gbc * gbc * dl * dl * g2d2
    if den == 0.0:
        raise DegenerateRates(
            "gamma^2 |omega_d|^4 + gamma_bc^2 Delta^2 (gamma^2+Delta^2) = 0")
    eta = -population_differences(rates, fields)[0]
    kl = medium.kappa_L(rates.gamma_r)
    a = kl * eta * od2 / g2d2 * _a_numerator(dl, g, gbc, od2) / den
    b = -kl * eta * dl / g2d2
    c = 1.0 - kl * eta * g / g2d2
    return a, b, c, eta


def _a_numerator(dl: float, g: float, gbc: float, od2: float) -> float:
    """Sign-carrying numerator of A; eta and A's denominator are positive
    wherever A is defined."""
    g2d2 = g * g + dl * dl
    return g * od2 * (g * g - dl * dl) - gbc * g2d2**2


def sign_change_detuning(rates: Rates, fields: Fields) -> tuple[float, float]:
    """One-photon detuning at which the symmetric amplitude A crosses zero.

    Returns (root, approximation): the root is found by Brent's method on
    A's numerator over [0, 10*gamma] to 1e-9*gamma; the approximation is the
    closed form gamma - 2*gamma_bc*gamma^2/|omega_d|^2.  Raises NoSignChange
    when A has no positive real root in the bracket.
    """
    g, gbc = rates.gamma, rates.gamma_bc
    od2 = fields.omega_d**2
    if od2 <= 0:
        raise DegenerateRates("sign_change_detuning requires omega_d > 0")
    hi = _SIGN_CHANGE_BRACKET * g
    if _a_numerator(0.0, g, gbc, od2) <= 0 or _a_numerator(hi, g, gbc, od2) >= 0:
        raise NoSignChange(
            "symmetric amplitude does not change sign on the bracket "
            f"[0, {_SIGN_CHANGE_BRACKET:g}*gamma]")
    root = brentq(_a_numerator, 0.0, hi, args=(g, gbc, od2), xtol=1e-9 * g)
    approx = g - 2.0 * gbc * g * g / od2
    return root, approx


def density_narrowed_width(medium: Medium, rates: Rates, fields: Fields) -> float:
    """Resonance width in the optically thick cell, narrowed by density:

        gamma_D(Delta) = |omega_d|^2 / sqrt(gamma gamma_r)
                         * ((3/8pi) N lambda^2 L)^(-1/2)
                         * exp(Delta^2 / (2 (ku)^2))

    The exponential reflects the thinning of the resonant velocity group
    with one-photon detuning; the Delta = 0 prefactor anchors the otherwise
    proportional-only expression.  Valid only near one-photon resonance.
    Where the exponential leaves the float range (|Delta| beyond about
    37.7 ku) the width is math.inf.
    """
    g, gr = rates.gamma, rates.gamma_r
    nl = (3.0 / (8.0 * math.pi)) * medium.density * medium.wavelength**2 * medium.length
    if nl <= 0 or g * gr <= 0:
        raise DegenerateRates("density_narrowed_width requires N*L > 0 and "
                              "gamma*gamma_r > 0")
    width0 = fields.omega_d**2 / math.sqrt(g * gr) / math.sqrt(nl)
    if medium.ku == 0:
        return width0
    try:
        return width0 * math.exp(fields.big_delta**2 / (2.0 * medium.ku**2))
    except OverflowError:
        return math.inf if width0 else 0.0  # no drive: zero width at any Delta
