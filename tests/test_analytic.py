"""Closed-form lineshape quantities: verbatim values, parity, cross-checks."""

import math

import numpy as np
import pytest

from lambda_spectra import (DegenerateRates, Fields, LineshapeParams, Medium,
                            NoSignChange, PolarForm, Rates,
                            absorption_profile, ac_stark_shift,
                            density_narrowed_width, lineshape_coefficients,
                            resonance_width, sign_change_detuning,
                            susceptibility_analytic)
from lambda_spectra.units import khz, mhz

MED = Medium(density=2.5e17, length=0.025, wavelength=794.979e-9, ku=mhz(250))


def rates30():
    return Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=khz(0.7))


class TestAbsorptionProfile:
    def test_perfect_transparency(self):
        rates = Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=0.0)
        f = Fields(omega_d=mhz(2.5), omega_p=0.0, big_delta=mhz(5),
                   small_delta=0.0)
        assert absorption_profile(rates, f, MED) == 0.0

    def test_two_level_plateau(self):
        # far from the two-photon resonance at Delta = 0 the absorption
        # returns to the resonant two-level value kappa/gamma
        rates = rates30()
        gt = resonance_width(0.0, mhz(2.5), rates.gamma, rates.gamma_bc)
        f = Fields(omega_d=mhz(2.5), omega_p=0.0, big_delta=0.0,
                   small_delta=1e6 * gt)
        want = MED.kappa(rates.gamma_r) / rates.gamma
        assert absorption_profile(rates, f, MED) == pytest.approx(want, rel=1e-4)

    def test_lorentzian_quotient_structure(self):
        # alpha(d0+x) * (gt^2 + x^2) is exactly quadratic in x
        rates = rates30()
        od = mhz(2.5)
        dl = mhz(700)
        d0 = ac_stark_shift(dl, od, rates.gamma)
        gt = resonance_width(dl, od, rates.gamma, rates.gamma_bc)
        x = np.linspace(-20 * gt, 20 * gt, 101)
        alpha = np.array([absorption_profile(
            rates, Fields(od, 0.0, dl, d0 + xi), MED) for xi in x])
        y = alpha * (gt * gt + x * x)
        coeff = np.polynomial.polynomial.polyfit(x, y, 2)
        resid = y - np.polynomial.polynomial.polyval(x, coeff)
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(y))

    def test_nonnegative_on_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = 10 ** rng.uniform(6, 9)
            rates = Rates(gamma_r=0.5 * g, gamma_deph=0.5 * g,
                          gamma_bc=g * 10 ** rng.uniform(-6, -0.1))
            f = Fields(omega_d=10 ** rng.uniform(5, 8), omega_p=0.0,
                       big_delta=rng.uniform(-30, 30) * g,
                       small_delta=rng.uniform(-1000, 1000) * g * 1e-3)
            assert absorption_profile(rates, f, MED) >= 0.0

    def test_against_weak_probe_susceptibility(self):
        # the strong-drive profile and Im(chi) agree where the profile's
        # extra approximations hold: power broadening must dominate the
        # ground-state decoherence
        rates = Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=khz(0.7))
        od = mhz(2.5)
        for dl in (0.0, mhz(100), mhz(300)):
            g_pump = rates.gamma * od**2 / (rates.gamma**2 + dl**2)
            assert g_pump > 5 * rates.gamma_bc  # regime guard
            d0 = ac_stark_shift(dl, od, rates.gamma)
            gt = resonance_width(dl, od, rates.gamma, rates.gamma_bc)
            a15, im_chi = [], []
            for x in np.linspace(-10, 10, 81):
                f = Fields(od, 0.0, dl, d0 + x * gt)
                a15.append(absorption_profile(rates, f, MED))
                im_chi.append(susceptibility_analytic(rates, f, MED).imag)
            a15, im_chi = np.asarray(a15), np.asarray(im_chi)
            scale = np.max(np.abs(im_chi))
            tol = 0.05 + 3 * rates.gamma_bc / g_pump
            assert np.max(np.abs(a15 - im_chi)) / scale < tol

    def test_known_deviation_in_crossover_regime(self):
        # documented discrepancy: at Delta = 1 GHz in the 30 Torr cell the
        # power width and gamma_bc are comparable, and the strong-drive
        # profile overestimates the exact weak-probe peak by ~3.5x.  The
        # profile stays verbatim; this pins the known relationship so
        # regressions are visible.
        rates = rates30()
        od = mhz(2.5)
        dl = mhz(1000)
        d0 = ac_stark_shift(dl, od, rates.gamma)
        f = Fields(od, 0.0, dl, d0)
        a15 = absorption_profile(rates, f, MED)
        chi = susceptibility_analytic(rates, f, MED)
        assert 3.0 < a15 / chi.imag < 4.0

    def test_degenerate(self):
        rates = Rates(gamma_r=mhz(1), gamma_deph=0.0, gamma_bc=0.0)
        with pytest.raises(DegenerateRates):
            absorption_profile(rates, Fields(0.0, 0.0, mhz(5), 0.0), MED)


class TestAcStark:
    def test_zero_at_resonance(self):
        assert ac_stark_shift(0.0, mhz(2.5), mhz(153)) == 0.0

    def test_odd(self):
        for dl in (mhz(1), mhz(40), mhz(2000)):
            assert ac_stark_shift(-dl, mhz(2.5), mhz(153)) == \
                -ac_stark_shift(dl, mhz(2.5), mhz(153))

    def test_extremum(self):
        # frozen grid-maximization oracle: extremum at Delta = +-gamma
        # with magnitude |omega_d|^2 / (2 gamma)
        g, od = mhz(153), mhz(2.5)
        dls = np.linspace(0, 5 * g, 200_001)
        vals = od**2 * dls / (g**2 + dls**2)
        i = np.argmax(vals)
        assert dls[i] == pytest.approx(g, rel=1e-4)
        assert ac_stark_shift(g, od, g) == pytest.approx(od**2 / (2 * g),
                                                         rel=1e-12)
        assert vals[i] <= od**2 / (2 * g) + 1e-9


class TestResonanceWidth:
    def test_power_broadened_center(self):
        g, od = mhz(153), mhz(2.5)
        assert resonance_width(0.0, od, g, khz(0.7)) == \
            pytest.approx(od**2 / g, rel=1e-12)

    def test_far_detuned_is_gamma_bc(self):
        g, od, gbc = mhz(3), mhz(2.5), khz(30)
        assert resonance_width(mhz(1e6), od, g, gbc) == \
            pytest.approx(gbc, rel=1e-4)

    def test_at_delta_equal_gamma(self):
        g, od = mhz(153), mhz(2.5)
        assert resonance_width(g, od, g, 0.0) == \
            pytest.approx(od**2 / (2 * g), rel=1e-12)

    def test_monotone_decreasing_past_peak(self):
        g, od, gbc = mhz(153), mhz(2.5), khz(0.7)
        assert gbc < od**2 / g
        dls = np.linspace(0, mhz(4000), 400)
        w = np.array([resonance_width(d, od, g, gbc) for d in dls])
        past = np.argmax(w)
        assert np.all(np.diff(w[past:]) <= 0)


class TestLineshapeCoefficients:
    def test_b_vanishes_on_resonance(self):
        rates = rates30()
        f = Fields(omega_d=mhz(2.5), omega_p=0.0, big_delta=0.0)
        a, b, c, eta = lineshape_coefficients(rates, f, MED)
        assert b == 0.0
        assert eta == pytest.approx(1.0, abs=1e-12)

    def test_parity(self):
        rates = rates30()
        rng = np.random.default_rng(17)
        for _ in range(50):
            dl = rng.uniform(0.1, 3000) * 1e6 * 2 * np.pi
            fp = Fields(mhz(2.5), 0.0, dl)
            fm = Fields(mhz(2.5), 0.0, -dl)
            ap, bp, cp, _ = lineshape_coefficients(rates, fp, MED)
            am, bm, cm, _ = lineshape_coefficients(rates, fm, MED)
            assert am == pytest.approx(ap, rel=1e-12)
            assert bm == pytest.approx(-bp, rel=1e-12)
            assert cm == pytest.approx(cp, rel=1e-12)

    def test_background_is_two_level(self):
        # for weak drive at Delta = 0 the background approaches 1 - kappa L
        rates = Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=0.0)
        med = Medium(density=2.5e14, length=0.0005, wavelength=794.979e-9,
                     ku=0.0)  # kappa L << 1
        f = Fields(omega_d=mhz(0.01), omega_p=0.0, big_delta=0.0)
        _, _, c, eta = lineshape_coefficients(rates, f, med)
        assert eta == 1.0
        assert c == pytest.approx(1.0 - med.kappa_L(rates.gamma_r) / rates.gamma,
                                  rel=1e-12)

    def test_sign_change_matches_root(self):
        rates = rates30()
        f = Fields(omega_d=mhz(2.5), omega_p=0.0, big_delta=0.0)
        root, _ = sign_change_detuning(rates, f)
        eps = 1e-6 * rates.gamma
        a_lo = lineshape_coefficients(rates, Fields(f.omega_d, 0.0, root - eps), MED)[0]
        a_hi = lineshape_coefficients(rates, Fields(f.omega_d, 0.0, root + eps), MED)[0]
        assert a_lo > 0 > a_hi


class TestSignChange:
    def test_exact_root_without_ground_decay(self):
        g = mhz(3)
        rates = Rates(gamma_r=g, gamma_deph=0.0, gamma_bc=0.0)
        root, approx = sign_change_detuning(rates, Fields(mhz(2.5), 0.0))
        assert root == pytest.approx(g, abs=2e-9 * g)
        assert approx == g

    def test_small_decoherence_near_closed_form(self):
        # gamma_bc gamma^2 / |od|^2 = 0.01 gamma; independent dense-scan
        # bisection gave root = 0.980573 gamma (vs approx 0.98 gamma)
        g = 1.0
        rates = Rates(gamma_r=g, gamma_deph=0.0, gamma_bc=0.01)
        root, approx = sign_change_detuning(rates, Fields(1.0, 0.0))
        assert root == pytest.approx(0.980573417478936, rel=1e-6)
        assert approx == pytest.approx(0.98, rel=1e-12)
        assert abs(root - approx) / approx < 0.10

    def test_no_sign_change(self):
        g = mhz(3)
        rates = Rates(gamma_r=g, gamma_deph=0.0, gamma_bc=g)
        with pytest.raises(NoSignChange):
            sign_change_detuning(rates, Fields(mhz(2.5), 0.0))


class TestDensityNarrowing:
    def test_minimum_at_resonance(self):
        rates = rates30()
        f0 = Fields(mhz(2.5), 0.0, 0.0)
        w0 = density_narrowed_width(MED, rates, f0)
        for dl in (mhz(50), mhz(200), mhz(400)):
            assert density_narrowed_width(MED, rates, Fields(mhz(2.5), 0.0, dl)) > w0

    def test_half_max_detuning_doubles_width(self):
        rates = rates30()
        dl = MED.ku * math.sqrt(2 * math.log(2))
        w0 = density_narrowed_width(MED, rates, Fields(mhz(2.5), 0.0, 0.0))
        w = density_narrowed_width(MED, rates, Fields(mhz(2.5), 0.0, dl))
        assert w / w0 == pytest.approx(2.0, rel=1e-12)

    def test_density_scaling(self):
        rates = rates30()
        f = Fields(mhz(2.5), 0.0, 0.0)
        m2 = Medium(density=2 * MED.density, length=MED.length,
                    wavelength=MED.wavelength, ku=MED.ku)
        w1 = density_narrowed_width(MED, rates, f)
        w2 = density_narrowed_width(m2, rates, f)
        assert w1 / w2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_overflow_is_infinite(self):
        # exp(40^2 / 2) is beyond the float range
        f = Fields(mhz(2.5), 0.0, 40.0 * MED.ku)
        assert density_narrowed_width(MED, rates30(), f) == math.inf

    def test_anchor_value(self):
        # prefactor anchored to |od|^2 / sqrt(gamma * kappa L)
        rates = rates30()
        f = Fields(mhz(2.5), 0.0, 0.0)
        want = f.omega_d**2 / math.sqrt(rates.gamma * MED.kappa_L(rates.gamma_r))
        assert density_narrowed_width(MED, rates, f) == pytest.approx(want,
                                                                      rel=1e-12)


class TestPolar:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b = rng.normal(size=2) * 10 ** rng.uniform(-6, 6)
            p = LineshapeParams(A=a, B=b, C=rng.normal(),
                                gamma_tilde=10 ** rng.uniform(-3, 8),
                                delta0=rng.normal()).to_polar()
            assert p.A == pytest.approx(a, rel=1e-12, abs=1e-300)
            assert p.B == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_polar_angles(self):
        assert PolarForm(D=1.0, phi=0.0, C=0.0).A == 1.0
        p = LineshapeParams(A=0.0, B=-1.0, C=0.0, gamma_tilde=1.0,
                            delta0=0.0).to_polar()
        assert p.D == 1.0 and p.phi == pytest.approx(-math.pi / 2)
