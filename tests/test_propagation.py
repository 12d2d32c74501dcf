"""Slab propagation: closed-form limits, convergence, normalization."""

from dataclasses import replace

import numpy as np
import pytest

from lambda_spectra import (DegenerateRates, Fields, Medium, QuadratureSpec,
                            Rates, SlabConfig, Spectrum, ZeroBackground,
                            absorption_profile, ac_stark_shift,
                            doppler_average, normalize, preset_config,
                            reference_transmission, resonance_width, transmit,
                            weak_probe_susceptibility)
from lambda_spectra.model import drive_only_populations, maxwell_absorption
from lambda_spectra.units import khz, mhz

from oracles import doppler_average_trapezoid

EXACT = QuadratureSpec("exact")
MED30 = Medium(density=2.5e17, length=0.025, wavelength=794.979e-9, ku=mhz(250))


def rates30():
    return Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=khz(0.7))


def fields30(dl=0.0):
    return Fields(omega_d=mhz(2.5), omega_p=mhz(0.5), big_delta=dl)


class TestTransmit:
    def test_empty_cell_is_transparent(self):
        med = Medium(density=0.0, length=0.025, wavelength=794.979e-9,
                     ku=mhz(250))
        grid = np.linspace(-mhz(1), mhz(1), 31)
        spec = transmit(rates30(), fields30(), med, delta_grid=grid)
        assert np.all(spec.transmission == 1.0)

    @pytest.mark.parametrize("scheme", ["gauss_hermite", "trapezoid", "exact"])
    def test_beer_lambert_closed_form(self, scheme):
        # no Doppler, drive attenuation off: alpha is z-independent and the
        # slab march must reproduce exp(-alpha L) to machine accuracy; at
        # ku = 0 every scheme evaluates the integrand at x = Delta
        med = Medium(density=2.5e17, length=0.025, wavelength=794.979e-9,
                     ku=0.0)
        rates, f = rates30(), fields30(mhz(300))
        grid = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma) + \
            np.linspace(-khz(20), khz(20), 21)
        spec = transmit(rates, f, med, QuadratureSpec(scheme), SlabConfig(64),
                        grid, attenuate_drive=False)
        pb, pc = drive_only_populations(rates, f.omega_d,
                                        np.array([f.big_delta]))
        alpha = weak_probe_susceptibility(
            rates.gamma, rates.gamma_bc, f.omega_d**2, f.big_delta, grid,
            pb[0], pc[0], med.kappa(rates.gamma_r)).imag
        want = np.exp(-alpha * med.length)
        assert np.max(np.abs(spec.transmission - want)) < 1e-8

    def test_thin_medium_expansion(self):
        # kappa L / gamma ~ 0.01: 1 - T agrees with the strong-drive
        # profile to O((alpha L)^2) in its validity regime
        med = Medium(density=2.5e13, length=0.005, wavelength=794.979e-9,
                     ku=0.0)
        rates = Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=2 * np.pi)
        f = fields30()
        assert med.kappa_L(rates.gamma_r) / rates.gamma < 0.02
        gt = resonance_width(0.0, f.omega_d, rates.gamma, rates.gamma_bc)
        grid = np.linspace(-10 * gt, 10 * gt, 41)
        spec = transmit(rates, f, med, QuadratureSpec(), SlabConfig(64), grid)
        for d, t in zip(grid, spec.transmission):
            al = absorption_profile(rates, Fields(f.omega_d, 0.0, 0.0, d),
                                    med) * med.length
            assert abs((1.0 - t) - al) < 1e-4

    def test_matches_doppler_average_route(self):
        # one-slab optically thin cell against the public velocity-average
        # of the weak-probe susceptibility (independent path through the
        # same physics)
        med = Medium(density=2.5e13, length=0.001, wavelength=794.979e-9,
                     ku=mhz(250))
        rates, f = rates30(), fields30(mhz(900))
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        grid = d0 + np.linspace(-khz(10), khz(10), 11)
        spec = transmit(rates, f, med, QuadratureSpec(), SlabConfig(16), grid,
                        attenuate_drive=False)

        kappa = med.kappa(rates.gamma_r)

        def alpha_of(diff):
            def chi(deff):
                pb, pc = drive_only_populations(rates, f.omega_d,
                                                np.array([deff]))
                return complex(weak_probe_susceptibility(
                    rates.gamma, rates.gamma_bc, f.omega_d**2, deff, diff,
                    pb[0], pc[0], kappa))
            return doppler_average(chi, f.big_delta, med.ku).imag

        for d, t in zip(grid, spec.transmission):
            assert t == pytest.approx(np.exp(-alpha_of(d) * med.length),
                                      rel=1e-9)

    @pytest.mark.parametrize("quad", [QuadratureSpec(), EXACT],
                             ids=["gauss_hermite", "exact"])
    def test_richardson_at_defaults(self, quad):
        # doubling the default slab count moves T by less than 1e-6, for
        # the node scheme and for the exact kernel every scan point runs
        rates, f = rates30(), fields30()
        grid = np.linspace(-mhz(1.5), mhz(1.5), 41)
        t128, t256 = (transmit(rates, f, MED30, quad,
                               SlabConfig(n), grid).transmission
                      for n in (128, 256))
        assert np.max(np.abs(t256 - t128)) < 1e-6

    def test_weak_probe_precondition(self):
        with pytest.raises(ValueError):
            transmit(rates30(), Fields(omega_d=mhz(0.1), omega_p=mhz(0.5)),
                     MED30, delta_grid=np.linspace(-1, 1, 9))

    def test_gain_flags_recorded(self):
        grid = np.linspace(-mhz(1), mhz(1), 11)
        spec = transmit(rates30(), fields30(), MED30, delta_grid=grid)
        flags = spec.gain_flag
        assert flags.shape == grid.shape
        assert not flags.any()  # linear response absorbs everywhere here


class TestNormalize:
    def test_flat_spectrum_becomes_ones(self):
        med = Medium(density=0.0, length=0.025, wavelength=794.979e-9,
                     ku=mhz(250))
        grid = np.linspace(-mhz(1), mhz(1), 31)
        spec = normalize(transmit(rates30(), fields30(), med, delta_grid=grid))
        assert np.all(spec.transmission == 1.0)

    def test_eit_peak_exceeds_background(self):
        rates, f = rates30(), fields30()
        grid = np.linspace(-mhz(1.5), mhz(1.5), 301)
        spec = normalize(transmit(rates, f, MED30, delta_grid=grid))
        mid = np.abs(grid).argmin()
        assert spec.transmission[mid] > 1.0

    def test_far_detuned_absorption_dip(self):
        # buffered cell far outside the Doppler profile: the narrow
        # two-photon resonance appears as absorption on a ~unity background
        rates, f = rates30(), fields30(mhz(1700))
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        grid = d0 + np.linspace(-khz(30), khz(30), 301)
        spec = normalize(transmit(rates, f, MED30, delta_grid=grid))
        assert spec.transmission.min() < 0.75
        assert abs(spec.transmission[0] - 1.0) < 0.05
        assert abs(spec.transmission[-1] - 1.0) < 0.05

    def test_plateau_approached_at_edges(self):
        # 1e-3 closeness at 50 widths is achievable only while the
        # resonance amplitudes are small: the antisymmetric component of
        # the lineshape itself decays as B/x, so |B| ~ 1 leaves percent
        # -level tails at 50 widths.  Optically thin cell here.
        med = Medium(density=2.5e15, length=0.025, wavelength=794.979e-9,
                     ku=mhz(250))
        rates, f = rates30(), fields30(mhz(900))
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        gt = resonance_width(f.big_delta, f.omega_d, rates.gamma,
                             rates.gamma_bc)
        grid = d0 + np.linspace(-60 * gt, 60 * gt, 501)
        spec = normalize(transmit(rates, f, med, delta_grid=grid))
        outside = np.abs(grid - d0) >= 50 * gt
        assert np.all(np.abs(spec.transmission[outside] - 1.0) < 1e-3)

    def test_density_monotonicity_at_dip(self):
        rates, f = rates30(), fields30(mhz(1700))
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        grid = np.array([d0])
        last = np.inf
        for dens in (1e17, 2.5e17, 5e17, 1e18):
            med = Medium(density=dens, length=0.025, wavelength=794.979e-9,
                         ku=mhz(250))
            t = transmit(rates, f, med, delta_grid=grid).transmission[0]
            assert t <= last
            last = t

    def test_zero_background_raises(self):
        med = Medium(density=5e20, length=0.1, wavelength=794.979e-9,
                     ku=mhz(250))
        rates, f = rates30(), fields30()
        with pytest.raises(ZeroBackground):
            normalize(transmit(rates, f, med,
                               delta_grid=np.linspace(-mhz(1), mhz(1), 9)))

    def test_requires_baseline(self):
        spec = Spectrum(delta_grid=np.linspace(-1, 1, 9),
                        transmission=np.ones(9))
        with pytest.raises(ValueError, match="baseline"):
            normalize(spec)

    def test_divides_by_baseline(self):
        grid = np.linspace(-mhz(1), mhz(1), 11)
        raw = transmit(rates30(), fields30(), MED30, delta_grid=grid)
        spec = normalize(raw)
        assert np.array_equal(spec.transmission,
                              raw.transmission / raw.baseline)
        assert spec.baseline == 1.0
        assert np.array_equal(spec.gain_flag, raw.gain_flag)


class TestEdgeRates:
    """Edge rates of the drive-only populations, reached through transmit
    and normalize."""

    GRID = np.linspace(-khz(50), khz(50), 101)  # GRID[50] == 0

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
    def test_no_ground_relaxation_is_transparent_at_two_photon_resonance(
            self, preset):
        # gamma_bc = 0 pumps everything into the dark state
        cfg = preset_config(preset)
        rates = replace(cfg.rates(), gamma_bc=0.0)
        spec = transmit(rates, cfg.fields(), cfg.medium(), EXACT,
                        SlabConfig(32), self.GRID)
        assert spec.transmission[50] == 1.0

    @pytest.mark.parametrize("quad", [QuadratureSpec("trapezoid", 65),
                                      EXACT])
    def test_zero_linewidth_is_transparent(self, quad):
        # gamma = 0 implies kappa = 0; the trapezoid's kv = 0 node sits at
        # Delta - kv = 0, where the pumping rate and the Lorentzians are 0/0
        cfg = preset_config("ne_30torr")
        spec = transmit(Rates(0.0, 0.0, 1e3), cfg.fields(), cfg.medium(),
                        quad, SlabConfig(32), self.GRID)
        assert np.array_equal(spec.transmission, np.ones(self.GRID.size))
        assert spec.baseline == 1.0

    def test_no_drive_is_flat_after_normalize(self):
        # omega_d = 0: a two-level line, flat in delta over +-50 kHz
        cfg = preset_config("ne_30torr")
        f = Fields(omega_d=0.0, omega_p=0.0, big_delta=mhz(300))
        spec = normalize(transmit(cfg.rates(), f, cfg.medium(), EXACT,
                                  SlabConfig(32), self.GRID))
        assert spec.transmission[50] == 1.0
        assert np.max(np.abs(spec.transmission - 1.0)) < 3e-4

    def test_no_drive_and_no_ground_relaxation_raises(self):
        cfg = preset_config("ne_30torr")
        rates = replace(cfg.rates(), gamma_bc=0.0)
        f = Fields(omega_d=0.0, omega_p=0.0, big_delta=mhz(300))
        with pytest.raises(DegenerateRates):
            transmit(rates, f, cfg.medium(), EXACT, SlabConfig(32), self.GRID)


class TestExactKernel:
    """The exact Doppler average of the slab kernel against the dense
    trapezoid oracle: probe alpha(delta), plateau and alpha_d, per unit
    kappa, with the general pole set and each edge-rate pole set."""

    RTOL = 1e-9
    GRID = np.linspace(-khz(50), khz(50), 11)

    @staticmethod
    def oracle(rates, od2, dl, ku, deltas):
        """(probe alphas, plateau, alpha_d) from a 1e5-node trapezoid."""
        g, od = rates.gamma, np.sqrt(od2)

        def probe(d):
            def chi(deff):
                pb, pc = drive_only_populations(rates, od, deff)
                return weak_probe_susceptibility(
                    g, rates.gamma_bc, od2, deff, d, pb, pc, 1.0)
            return doppler_average_trapezoid(chi, dl, ku).imag

        def background(deff):
            pb, pc = drive_only_populations(rates, od, deff)
            q = g * g + deff * deff
            return (g * pb + g * od2 / q * pc) / q + 1j * g * pc / q

        bg = doppler_average_trapezoid(background, dl, ku)
        return np.array([probe(d) for d in deltas]), bg.real, bg.imag

    def check(self, rates, od2, dl, ku, deltas):
        deltas = np.asarray(deltas, dtype=float)
        got = maxwell_absorption(rates, od2, dl, ku, deltas, 1.0)
        want = self.oracle(rates, od2, dl, ku, deltas)
        for g_, w_ in zip(got, want):
            assert np.allclose(g_, w_, rtol=self.RTOL, atol=0.0)
        return got

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
    @pytest.mark.parametrize("dl_ghz", [0.0, 0.5, 1.0])
    def test_presets(self, preset, dl_ghz):
        cfg = preset_config(preset)
        rates, ku = cfg.rates(), cfg.medium().ku
        f = cfg.fields(mhz(1000.0 * dl_ghz))
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        gt = resonance_width(f.big_delta, f.omega_d, rates.gamma,
                             rates.gamma_bc)
        deltas = np.append(d0 + gt * np.array([-5.0, -1.0, 0.0, 2.0, 20.0]),
                           0.0)
        self.check(rates, f.omega_d**2, f.big_delta, ku, deltas)

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
    def test_probe_poles_coincide(self, preset):
        # Re x0 = 0 where |Gamma_cb|^2 = od2; x0 = -is where then also
        # gamma + gamma_bc = s, which fixes od2.  Approach the coincidence
        # from afar (on vacuum, across the divided difference's series
        # switch) and land on it.
        cfg = preset_config(preset)
        rates, ku = cfg.rates(), cfg.medium().ku
        g, gr, gbc = rates.gamma, rates.gamma_r, rates.gamma_bc
        a = 3.0 + gr / gbc
        od2 = (2.0 * g * gbc + gbc * gbc) * 2.0 * gr / (a * g)
        s = np.sqrt(g * g + a * g * od2 / (2.0 * gr))
        d_c = np.sqrt(od2 - gbc * gbc)
        deltas = d_c * (1.0 + np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0, 100.0]))
        x0 = -deltas - 1j * (g + od2 / (gbc - 1j * deltas))
        assert abs(x0[0] + 1j * s) < 1e-9 * s
        for dl in (0.0, mhz(500)):
            self.check(rates, od2, dl, ku, deltas)

    def test_no_ground_relaxation_pole_set(self):
        # gamma_bc = 0: populations (1, 0), the single pole x0, and the
        # dark state at delta = 0 absorbs nothing
        cfg = preset_config("vacuum")
        rates = replace(cfg.rates(), gamma_bc=0.0)
        f = cfg.fields(mhz(200))
        deltas = np.array([-khz(300), khz(10), mhz(2)])
        self.check(rates, f.omega_d**2, f.big_delta, cfg.medium().ku, deltas)
        probe, _, drive = maxwell_absorption(
            rates, f.omega_d**2, f.big_delta, cfg.medium().ku, np.zeros(1),
            1.0)
        assert probe[0] == 0.0 and drive == 0.0

    def test_no_drive_pole_set(self):
        # omega_d = 0: populations (1/2, 1/2) and the single Gamma_ab pole;
        # at delta = 0 the probe line is the plateau itself
        cfg = preset_config("vacuum")
        rates, ku = cfg.rates(), cfg.medium().ku
        deltas = np.array([0.0, -mhz(5), mhz(40)])
        probe, plateau, drive = self.check(rates, 0.0, mhz(300), ku, deltas)
        assert probe[0] == plateau == drive

    def test_zero_optical_width(self):
        # gamma = 0 forces gamma_r = 0 and so kappa = 0: nothing absorbs.
        # Where gamma od2 underflows instead, the general pole set is the
        # no-pumping limit, populations (1/2, 1/2)
        cfg = preset_config("vacuum")
        dark = Rates(gamma_r=0.0, gamma_deph=0.0, gamma_bc=khz(30))
        for scheme in ("exact", "gauss_hermite"):
            spec = transmit(dark, cfg.fields(), cfg.medium(),
                            QuadratureSpec(scheme), SlabConfig(16), self.GRID)
            assert np.all(spec.transmission == 1.0) and spec.baseline == 1.0
        rates, ku = cfg.rates(), cfg.medium().ku
        deltas = np.array([0.0, mhz(1)])
        pumped = maxwell_absorption(rates, 1e-300, mhz(300), ku, deltas, 1.0)
        unpumped = maxwell_absorption(rates, 0.0, mhz(300), ku, deltas, 1.0)
        for a, b in zip(pumped, unpumped):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma_bc", [khz(1), mhz(1)],
                             ids=["1kHz", "1MHz"])
    def test_doppler_width_far_below_the_linewidth(self, gamma_bc):
        # ku = 2pi 1e-20 MHz under gamma = 2pi 1e22 MHz: the average is the
        # ku = 0 value to (ku/gamma)^2, with the divided difference at
        # |z| ~ 1e42 (its derivative recurrence gave 1e50 times the value)
        rates = Rates(gamma_r=mhz(1e22), gamma_deph=0.0, gamma_bc=gamma_bc)
        od2 = mhz(1.1e-36) ** 2
        deltas = np.array([-mhz(1e22), -gamma_bc, 0.0, gamma_bc, mhz(1e21)])
        for dl in (0.0, mhz(100), mhz(1e22)):
            got = maxwell_absorption(rates, od2, dl, mhz(1e-20), deltas, 1.0)
            pb, pc = drive_only_populations(rates, np.sqrt(od2), dl)
            want = weak_probe_susceptibility(rates.gamma, gamma_bc, od2, dl,
                                             deltas, pb, pc, 1.0).imag
            assert np.allclose(got[0], want, rtol=1e-12, atol=0.0)

    def test_transmit_matches_dense_trapezoid(self):
        # the whole march, drive depletion included, against an 8001-node
        # trapezoid on the vacuum preset's bare radiative line (1601 nodes
        # over +-5 ku still miss its baseline by 1e-4)
        cfg = preset_config("vacuum")
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(mhz(100))
        grid = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma) + \
            np.linspace(-khz(200), khz(200), 9)
        exact, dense = (transmit(rates, f, med, q, SlabConfig(16), grid)
                        for q in (QuadratureSpec("exact"),
                                  QuadratureSpec("trapezoid", 8001)))
        assert np.allclose(exact.transmission, dense.transmission,
                           rtol=self.RTOL, atol=0.0)
        assert exact.baseline == pytest.approx(dense.baseline, rel=self.RTOL)


def test_reference_is_plateau_level():
    # the baseline march must agree with the transmission far outside the
    # resonance; exact only where the background itself is flat in delta
    # (thin cell), and to tail accuracy in the thick cell
    rates, f = rates30(), fields30(mhz(900))
    med_thin = Medium(density=2.5e15, length=0.025, wavelength=794.979e-9,
                      ku=mhz(250))
    d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
    gt = resonance_width(f.big_delta, f.omega_d, rates.gamma, rates.gamma_bc)
    ref = reference_transmission(rates, f, med_thin)
    far = transmit(rates, f, med_thin,
                   delta_grid=np.array([d0 + 2000 * gt])).transmission[0]
    assert ref == pytest.approx(far, rel=1e-5)

    ref30 = reference_transmission(rates, f, MED30)
    far30 = transmit(rates, f, MED30,
                     delta_grid=np.array([d0 + 2000 * gt])).transmission[0]
    assert ref30 == pytest.approx(far30, rel=5e-3)


@pytest.mark.parametrize("attenuate_drive", [True, False])
def test_baseline_is_reference_transmission(attenuate_drive):
    rates, f = rates30(), fields30(mhz(900))
    quad, slabs = QuadratureSpec(), SlabConfig(32)
    spec = transmit(rates, f, MED30, quad, slabs,
                    np.linspace(-mhz(1), mhz(1), 21), attenuate_drive)
    assert spec.baseline == reference_transmission(rates, f, MED30, quad,
                                                   slabs, attenuate_drive)


def test_slab_config_validation():
    with pytest.raises(ValueError):
        SlabConfig(slab_count=8)


def test_spectrum_validation():
    # checked when built; T >= 0 is left to transmit and normalize
    with pytest.raises(ValueError, match="increasing"):
        Spectrum(delta_grid=np.array([0.0, 1.0, 1.0]),
                 transmission=np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        Spectrum(delta_grid=np.array([0.0, 1.0]),
                 transmission=np.array([1.0, np.inf]))
    for grid in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="delta_grid contains non-finite"):
            Spectrum(delta_grid=np.array(grid), transmission=np.ones(3))
    with pytest.raises(ValueError, match="shapes"):
        Spectrum(delta_grid=np.array([0.0, 1.0]), transmission=np.ones(2),
                 gain_flag=np.zeros(3, dtype=bool))
