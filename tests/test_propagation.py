"""Propagation: closed-form limits, the z rule against a slab-march
oracle, its subgrid-chosen order against the whole-grid ladder,
normalization."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from lambda_spectra import (ConfigError, DegenerateRates, Fields,
                            LambdaSpectraError, Medium, QuadratureSpec,
                            Rates, ScanConfig, SlabConfig, Spectrum,
                            ZeroBackground, absorption_profile,
                            ac_stark_shift, auto_delta_grid, doppler_average,
                            normalize, preset_config, reference_transmission,
                            resonance_width, transmit,
                            weak_probe_susceptibility)
from lambda_spectra import propagation
from lambda_spectra.model import drive_only_populations, maxwell_absorption
from lambda_spectra.scan import config_text, parse_config
from lambda_spectra.units import khz, mhz

from oracles import (doppler_average_trapezoid, drive_dop853,
                     full_grid_ladder, gauss_legendre_tau,
                     slab_march_richardson)
from test_scan import far_from_the_presets

EXACT = QuadratureSpec("exact")
MED30 = Medium(density=2.5e17, length=0.025, wavelength=794.979e-9, ku=mhz(250))


def rates30():
    return Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=khz(0.7))


def fields30(dl=0.0):
    return Fields(omega_d=mhz(2.5), omega_p=mhz(0.5), big_delta=dl)


class TestTransmit:
    def test_empty_cell_is_transparent(self):
        # kappa = 0: the drive cannot change, so alpha is read once
        med = Medium(density=0.0, length=0.025, wavelength=794.979e-9,
                     ku=mhz(250))
        grid = np.linspace(-mhz(1), mhz(1), 31)
        spec = transmit(rates30(), fields30(), med, delta_grid=grid)
        assert np.all(spec.transmission == 1.0)
        assert spec.z_error == 0.0

    @pytest.mark.parametrize("scheme", ["gauss_hermite", "trapezoid", "exact"])
    def test_beer_lambert_closed_form(self, scheme):
        # no Doppler: every scheme evaluates the integrand at x = Delta, so
        # with the drive depleting the z rule must match the slab-march
        # oracle fed the x = Delta coefficients typed here.  Measured:
        # 1.9e-13 in T and 1.8e-14 relative in the baseline; a z-independent
        # alpha at the entry drive misses T by 7.5e-2
        med = Medium(density=2.5e17, length=0.025, wavelength=794.979e-9,
                     ku=0.0)
        rates, f = rates30(), fields30(mhz(300))
        grid = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma) + \
            np.linspace(-khz(20), khz(20), 21)
        spec = transmit(rates, f, med, grid, quad=QuadratureSpec(scheme),
                        slabs=SlabConfig(64))
        g, kappa_l = rates.gamma, med.kappa_L(rates.gamma_r)

        def alphas(od2, deltas):
            # (probe alpha on deltas, plateau, alpha_d) per unit s = z/L
            pb, pc = drive_only_populations(rates, math.sqrt(od2),
                                            f.big_delta)
            q = g * g + f.big_delta ** 2
            alpha = weak_probe_susceptibility(
                g, rates.gamma_bc, od2, f.big_delta, deltas, pb, pc,
                kappa_l).imag
            return (alpha, kappa_l * g * (pb + od2 / q * pc) / q,
                    kappa_l * g * pc / q)

        tau, tau_b = slab_march_richardson(alphas, f.omega_d**2, grid)
        assert np.max(np.abs(spec.transmission - np.exp(-tau))) < 1e-8
        assert spec.baseline == pytest.approx(np.exp(-tau_b), rel=1e-8)

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
        spec = transmit(rates, f, med, grid, quad=QuadratureSpec(),
                        slabs=SlabConfig(64))
        for d, t in zip(grid, spec.transmission):
            al = absorption_profile(rates, Fields(f.omega_d, 0.0, 0.0, d),
                                    med) * med.length
            assert abs((1.0 - t) - al) < 1e-4

    def test_matches_doppler_average_route(self):
        # optically thin cell against the public velocity-average of the
        # weak-probe susceptibility at the entry drive (independent path
        # through the same physics; drive depletion moves T by 1.9e-12
        # relative here)
        med = Medium(density=2.5e13, length=0.001, wavelength=794.979e-9,
                     ku=mhz(250))
        rates, f = rates30(), fields30(mhz(900))
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        grid = d0 + np.linspace(-khz(10), khz(10), 11)
        spec = transmit(rates, f, med, grid, quad=QuadratureSpec(),
                        slabs=SlabConfig(16))

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
        assert spec.z_error == raw.z_error is not None

    def test_z_error_is_unknown_unless_transmit_made_it(self):
        spec = Spectrum(delta_grid=np.linspace(-1, 1, 9),
                        transmission=np.ones(9), baseline=0.5)
        assert spec.z_error is None
        assert normalize(spec).z_error is None

    def test_empty_spectrum_is_refused(self):
        spec = Spectrum(delta_grid=np.zeros(0), transmission=np.zeros(0),
                        baseline=0.5)
        with pytest.raises(ValueError, match="empty spectrum"):
            normalize(spec)


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
        spec = transmit(rates, cfg.fields(), cfg.medium(), self.GRID,
                        quad=EXACT, slabs=SlabConfig(32))
        assert spec.transmission[50] == 1.0

    @pytest.mark.parametrize("quad", [QuadratureSpec("trapezoid", 65),
                                      EXACT])
    def test_zero_linewidth_is_transparent(self, quad):
        # gamma = 0 implies kappa = 0; the trapezoid's kv = 0 node sits at
        # Delta - kv = 0, where the pumping rate and the Lorentzians are 0/0
        cfg = preset_config("ne_30torr")
        spec = transmit(Rates(0.0, 0.0, 1e3), cfg.fields(), cfg.medium(),
                        self.GRID, quad=quad, slabs=SlabConfig(32))
        assert np.array_equal(spec.transmission, np.ones(self.GRID.size))
        assert spec.baseline == 1.0

    def test_no_drive_is_flat_after_normalize(self):
        # omega_d = 0: a two-level line, flat in delta over +-50 kHz; no
        # drive to deplete, so alpha is read once
        cfg = preset_config("ne_30torr")
        f = Fields(omega_d=0.0, omega_p=0.0, big_delta=mhz(300))
        spec = normalize(transmit(cfg.rates(), f, cfg.medium(), self.GRID,
                                  quad=EXACT, slabs=SlabConfig(32)))
        assert spec.z_error == 0.0
        assert spec.transmission[50] == 1.0
        assert np.max(np.abs(spec.transmission - 1.0)) < 3e-4

    def test_no_drive_and_no_ground_relaxation_raises(self):
        cfg = preset_config("ne_30torr")
        rates = replace(cfg.rates(), gamma_bc=0.0)
        f = Fields(omega_d=0.0, omega_p=0.0, big_delta=mhz(300))
        with pytest.raises(DegenerateRates):
            transmit(rates, f, cfg.medium(), self.GRID, quad=EXACT,
                     slabs=SlabConfig(32))


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
            spec = transmit(dark, cfg.fields(), cfg.medium(), self.GRID,
                            quad=QuadratureSpec(scheme), slabs=SlabConfig(16))
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
        # the whole z rule, drive depletion included, against an 8001-node
        # trapezoid on the vacuum preset's bare radiative line (1601 nodes
        # over +-5 ku still miss its baseline by 1e-4)
        cfg = preset_config("vacuum")
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(mhz(100))
        grid = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma) + \
            np.linspace(-khz(200), khz(200), 9)
        exact, dense = (transmit(rates, f, med, grid, quad=q,
                                 slabs=SlabConfig(16))
                        for q in (QuadratureSpec("exact"),
                                  QuadratureSpec("trapezoid", 8001)))
        assert np.allclose(exact.transmission, dense.transmission,
                           rtol=self.RTOL, atol=0.0)
        assert exact.baseline == pytest.approx(dense.baseline, rel=self.RTOL)

    def test_node_scheme_calls_keep_the_budget(self, monkeypatch):
        # the same trapezoid-8001 transmit: every kernel call, drive samples
        # included, holds at most 8192 velocity x z nodes x grid points, or
        # a single z node; a budget of 4 z nodes per call gives bitwise T
        cfg = preset_config("vacuum")
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(mhz(100))
        grid = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma) + \
            np.linspace(-khz(200), khz(200), 9)
        node_alphas, calls = propagation._node_alphas, []

        def counted(rates, od2, w, deff, delta_grid, kappa):
            calls.append((w.size, np.size(od2), delta_grid.size))
            return node_alphas(rates, od2, w, deff, delta_grid, kappa)

        monkeypatch.setattr(propagation, "_node_alphas", counted)

        def spectrum():
            return transmit(rates, f, med, grid,
                            quad=QuadratureSpec("trapezoid", 8001),
                            slabs=SlabConfig(16))

        spec = spectrum()
        assert calls and all(v * z * max(g, 1) <= 8192 or z == 1
                             for v, z, g in calls)
        assert {g for _, _, g in calls} == {0, 9}
        monkeypatch.setattr(propagation, "_CALL_ELEMENTS", 4 * 8001 * 9)
        calls.clear()
        wide = spectrum()
        assert max(z for _, z, g in calls if g) == 4
        assert np.array_equal(wide.transmission, spec.transmission)
        assert wide.baseline == spec.baseline


Z_PRESETS = [(p, at) for p in ("ne_30torr", "vacuum", "kr_0.12torr",
                                "ne_100torr") for at in ("0", "mid")]
Z_SCHEMES = ("exact", "gauss_hermite")


class TestZRule:
    """The Gauss-Legendre z rule against the slab-march oracle
    (Richardson-extrapolated over 2048 and 4096 slabs, same kernel), on a
    21-point sinh grid over each point's auto span, denser at the line.

    Measured: |T - T_oracle| <= 4.3e-12 of ptp(T_oracle) on the presets,
    and the optical-depth error <= 6e-8 everywhere, within z_error or the
    oracle's own floor (its 1024/2048-slab extrapolation moves by up to
    3e-8 at 10x density).

    z_error is the last order's move on the subgrid the ladder climbs and
    on the baseline: an estimate of the accepted order's error, not a
    bound (on the presets that error is at most 6.5e-11 against GL-64;
    z_error reads at least 7.7 times it wherever it exceeds 1e-14, and
    down to 0.74 of it at rounding level).  A grid of more than 65 points
    climbs on 65 points spread over it and the points nearest the line at
    the entry and exit drive, and is then evaluated once, whole, at the
    accepted order; these 21-point grids
    climb on themselves, the auto grids of the `on_the_subgrid` cases do
    not (TestSubgridOrder holds the chosen order to the whole grid's).
    Where T underflows (tau >> 745) the whole grid can move more than the
    subgrid did: fuzz seed 4, draw 136 read z_error 1.9e-6 at the cap on
    the whole grid and 8.7e-19 on the subgrid."""

    T_BOUND = 1e-7  # of ptp(T_oracle)
    ORACLE_FLOOR = 1e-8  # optical depth

    @staticmethod
    @lru_cache(maxsize=None)
    def case(preset, at, density, scheme, on_auto=False):
        """(spectrum from transmit, oracle tau on its grid, oracle
        baseline tau) at Delta = 0 or mid-sweep, density times the
        preset's; on the point's auto grid itself where on_auto."""
        values = dict(preset_config(preset).values)
        values["medium", "density_cm3"] *= density
        cfg = ScanConfig(values=values)
        deltas = cfg.sweep_deltas()
        dl = 0.0 if at == "0" else float(deltas[deltas.size // 2])
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(dl)
        auto = auto_delta_grid(rates, f, med)
        gt = resonance_width(dl, f.omega_d, rates.gamma, rates.gamma_bc)
        u = math.asinh(0.5 * (auto[-1] - auto[0]) / gt)
        grid = (auto if on_auto else
                auto[auto.size // 2] + gt * np.sinh(np.linspace(-u, u, 21)))
        kl = med.kappa_L(rates.gamma_r)
        if scheme == "exact":
            def alphas(od2, g):
                return maxwell_absorption(rates, od2, dl, med.ku, g, kl)
        else:
            w, kv = propagation.velocity_nodes(QuadratureSpec(scheme),
                                               med.ku)

            def alphas(od2, g):
                return propagation._node_alphas(rates, od2, w, dl - kv, g, kl)
        spec = transmit(rates, f, med, grid, quad=QuadratureSpec(scheme))
        return (spec, *slab_march_richardson(alphas, f.omega_d**2, grid))

    @pytest.mark.parametrize("scheme", Z_SCHEMES)
    @pytest.mark.parametrize("preset, at", Z_PRESETS)
    def test_transmission_matches_slab_march(self, preset, at, scheme):
        spec, tau, _ = self.case(preset, at, 1.0, scheme)
        want = np.exp(-tau)
        error = np.max(np.abs(spec.transmission - want))
        assert error <= self.T_BOUND * np.ptp(want)

    @pytest.mark.parametrize(
        "preset, at, density, scheme",
        [(p, at, 1.0, sc) for p, at in Z_PRESETS for sc in Z_SCHEMES]
        + [(p, "0", k, "exact") for p in ("ne_30torr", "vacuum")
           for k in (3.0, 10.0)])
    def test_z_error_bounds_the_oracle_error(self, preset, at, density,
                                             scheme):
        self.assert_z_error_bounds(*self.case(preset, at, density, scheme))

    @pytest.mark.parametrize("preset, density", [("ne_30torr", 1.0),
                                                 ("vacuum", 10.0)])
    def test_z_error_bounds_the_oracle_error_on_the_subgrid(self, preset,
                                                            density):
        # the auto grid at Delta = 0 (801 points and more) climbs on 65;
        # vacuum at 10x density ends at the cap
        spec, tau, tau_b = self.case(preset, "0", density, "exact", True)
        assert spec.delta_grid.size >= 801
        self.assert_z_error_bounds(spec, tau, tau_b)

    def assert_z_error_bounds(self, spec, tau, tau_b):
        error = max(np.max(np.abs(-np.log(spec.transmission) - tau)),
                    abs(-math.log(spec.baseline) - tau_b))
        assert error <= max(spec.z_error, self.ORACLE_FLOOR)

    def test_ladder(self):
        assert propagation._ladder(64) == [2, 3, 4, 5, 6, 8, 10, 12, 16, 20,
                                           24, 32, 40, 48, 64]
        assert propagation._ladder(16) == [2, 3, 4, 5, 6, 8, 10, 12, 16]
        assert propagation._ladder(20) == [2, 3, 4, 5, 6, 8, 10, 12, 16, 20]
        assert propagation._ladder(18) == [2, 3, 4, 5, 6, 8, 10, 12, 16, 18]

    # (z nodes, grid points) per probe call: one call per order while
    # nodes x points stay within 8192, else as many nodes per call as fit.
    # The first two ids count the probe calls of the older ladder
    # (4, 6, 8, 12, ...): 10 and 46
    @pytest.mark.parametrize("density, cap, points, calls", [
        pytest.param(1.0, 64, 5, [(n, 5) for n in (2, 3, 4)],
                     id="1.0-64-10"),
        pytest.param(10.0, 16, 5, [(n, 5) for n in (2, 3, 4, 5, 6, 8, 10,
                                                     12, 16)],
                     id="10.0-16-46"),
        pytest.param(1.0, 64, 65, [(n, 65) for n in (2, 3, 4, 5)],
                     id="65-points"),
        pytest.param(1.0, 64, 66, [(n, 65) for n in (2, 3, 4, 5)]
                     + [(5, 66)], id="66-points"),
        pytest.param(1.0, 64, 801, [(n, 65) for n in (2, 3, 4, 5)]
                     + [(5, 801)], id="801-points"),
        pytest.param(1.0, 64, 1639, [(n, 65) for n in (2, 3, 4, 5)]
                     + [(4, 1639), (1, 1639)], id="1639-points")])
    def test_ladder_stops_at_tolerance_or_cap(self, monkeypatch, caplog,
                                               density, cap, points, calls):
        # ne_30torr is accepted at GL-4 on 5 points and at GL-5 on 65;
        # vacuum at 10x density does not meet 1e-8 below GL-16, so a cap of
        # 16 returns GL-16 after the orders 2, 3, 4, 5, 6, 8, 10, 12 and
        # 16.  A grid above 65 points climbs on 65 of them (at Delta = 0
        # the point nearest the line is one of the spread points), then
        # runs the accepted order once on itself: 1639 points take 4 nodes
        # per call.  The drive solve's alpha_d calls take no grid and are
        # not counted.  Stopping at the cap short of 1e-8 logs one warning.
        values = dict(preset_config("vacuum" if density > 1 else
                                    "ne_30torr").values)
        values["medium", "density_cm3"] *= density
        cfg = ScanConfig(values=values)
        probe_calls = []

        def counted(rates, od2, dl, ku, grid, kappa):
            if grid.size:
                probe_calls.append((np.size(od2), grid.size))
            return maxwell_absorption(rates, od2, dl, ku, grid, kappa)

        monkeypatch.setattr(propagation, "maxwell_absorption", counted)
        spec = transmit(cfg.rates(), cfg.fields(), cfg.medium(),
                        np.linspace(-khz(50), khz(50), points), quad=EXACT,
                        slabs=SlabConfig(cap))
        assert probe_calls == calls
        assert (spec.z_error <= 1e-8) == (density == 1.0)
        warned = [r for r in caplog.records
                  if r.name == "lambda_spectra.propagation"]
        assert [r.levelname for r in warned] == ["WARNING"] * (density > 1)
        assert all(f"GL-{cap} " in r.getMessage() for r in warned)


def full_grid_spectrum(rates, fields, medium, grid):
    """(tau, baseline tau, gain flags, order) of the z rule climbed on the
    whole grid: `oracles.full_grid_ladder` (cap 64) on transmit's own
    kernel and drive solve, or one kernel call (order 1) where the drive
    cannot change."""
    kappa_l = medium.kappa_L(rates.gamma_r)
    alphas = propagation._kernel(rates, fields.big_delta, medium, EXACT)
    od2 = fields.omega_d ** 2
    if kappa_l == 0.0 or od2 == 0.0:
        tau, tau_b, _ = alphas(od2, grid)
        least, n = tau, 1
    else:
        tau, tau_b, least, _, n = full_grid_ladder(
            alphas, propagation._drive_od2(alphas, rates, od2)[0], grid, 64)
    return tau, tau_b, least < -1e-6 * kappa_l, n


@lru_cache(maxsize=None)
def accepted_draws():
    """(seed, draw, config) of every `far_from_the_presets` draw of seeds
    0-5 that the config text accepts."""
    draws = []
    for seed in range(6):
        for draw, (values, _) in enumerate(far_from_the_presets(seed)):
            try:
                cfg = parse_config(config_text(ScanConfig(values=values)))
            except ConfigError:
                continue
            draws.append((seed, draw, cfg))
    return tuple(draws)


class TestSubgridOrder:
    """The order `transmit` chooses on its subgrid, held to the order the
    ladder climbed on the whole grid reaches.  Where the two orders agree,
    T, baseline and gain flags are bitwise equal; where they differ (the
    subgrid can accept one order lower), tau and the baseline tau move by
    at most z_error.  Every case below takes the subgrid."""

    @staticmethod
    def difference(rates, fields, medium, grid):
        """(max |T - T_ladder| and |baseline - baseline_ladder|, the same in
        tau, z_error, whether transmit's order, the z nodes its kernel
        calls take on the whole grid, is the ladder's), after asserting
        equal gain flags; no move where both raise one package error."""
        nodes = []
        kernel = propagation._kernel

        def counted(*args):
            alphas = kernel(*args)

            def alphas_counted(od2, g):
                if g.size == grid.size:
                    nodes.append(np.size(od2))
                return alphas(od2, g)
            return alphas_counted

        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(propagation, "_kernel", counted)
                tau, tau_b, flags, z_error = propagation._optical_depths(
                    rates, fields, medium, EXACT, 64, grid)
        except LambdaSpectraError as exc:
            with pytest.raises(type(exc)):
                full_grid_spectrum(rates, fields, medium, grid)
            return 0.0, 0.0, 0.0, True
        want, want_b, want_flags, n = full_grid_spectrum(rates, fields,
                                                         medium, grid)
        assert np.array_equal(flags, want_flags)
        moved_t = max(np.max(np.abs(np.exp(-tau) - np.exp(-want)),
                             initial=0.0),
                      abs(np.exp(-tau_b) - np.exp(-want_b)))
        moved_tau = max(np.max(np.abs(tau - want), initial=0.0),
                        abs(tau_b - want_b))
        return moved_t, moved_tau, z_error, sum(nodes) == n

    def bitwise_or_within_z_error(self, rates, fields, medium, grid):
        moved_t, moved_tau, z_error, same_order = self.difference(
            rates, fields, medium, grid)
        if same_order:
            return moved_t == moved_tau == 0.0
        return moved_tau <= z_error

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum", "kr_0.12torr",
                                        "ne_100torr"])
    def test_every_preset_point(self, preset):
        cfg = preset_config(preset)
        rates, med = cfg.rates(), cfg.medium()
        for dl in cfg.sweep_deltas():
            f = cfg.fields(float(dl))
            grid = auto_delta_grid(rates, f, med,
                                   cfg.get("delta_grid", "points"))
            assert self.bitwise_or_within_z_error(rates, f, med, grid), dl

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
    @pytest.mark.parametrize("density", [3.0, 10.0])
    @pytest.mark.parametrize("at", ["0", "mid"])
    def test_dense_cells(self, preset, density, at):
        # vacuum at 10x density, Delta = 0, climbs to the cap either way
        values = dict(preset_config(preset).values)
        values["medium", "density_cm3"] *= density
        cfg = ScanConfig(values=values)
        deltas = cfg.sweep_deltas()
        dl = 0.0 if at == "0" else float(deltas[deltas.size // 2])
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(dl)
        grid = auto_delta_grid(rates, f, med, cfg.get("delta_grid", "points"))
        assert self.bitwise_or_within_z_error(rates, f, med, grid)

    @pytest.mark.parametrize("preset", ["ne_30torr", "ne_100torr"])
    @pytest.mark.parametrize("density", [1.0, 10.0])
    @pytest.mark.parametrize("at", ["0", "mid"])
    @pytest.mark.parametrize("shape", ["even", "101", "wide"])
    def test_explicit_grids(self, preset, density, at, shape):
        # the auto span with an even count (no centre point) or with 101
        # points, and a span 30 times wider with the line off-centre,
        # between the 65 spread points
        values = dict(preset_config(preset).values)
        values["medium", "density_cm3"] *= density
        cfg = ScanConfig(values=values)
        deltas = cfg.sweep_deltas()
        dl = 0.0 if at == "0" else float(deltas[deltas.size // 2])
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(dl)
        auto = auto_delta_grid(rates, f, med)
        d0, half = auto[auto.size // 2], 0.5 * (auto[-1] - auto[0])
        grid = d0 + {"even": np.linspace(-half, half, 1000),
                     "101": np.linspace(-half, half, 101),
                     "wide": np.linspace(-12.0, 48.0, 1201) * half}[shape]
        if shape == "wide":
            spread = np.rint(np.linspace(0, grid.size - 1, 65))
            assert np.abs(grid - d0).argmin() not in spread
        assert self.bitwise_or_within_z_error(rates, f, med, grid)

    # (seed, draw): bound on max |Delta T|.  Seed 4 draw 136 underflows
    # (tau >> 745): the whole grid climbs to the cap, z_error 1.9e-6, while
    # the subgrid accepts GL-8 at 8.7e-19; T moves by 2.2e-16, and the
    # baseline is 0 both ways.  Seed 0 draw 2 and seed 2 draw 12 also
    # underflow and take other orders on the two grids, but T is bitwise
    # equal there
    NOT_BITWISE = {(4, 136): 4.5e-16}

    def test_far_from_the_presets(self):
        moved = {}
        draws = accepted_draws()
        for seed, draw, cfg in draws:
            rates, medium = cfg.rates(), cfg.medium()
            fields = cfg.fields(float(cfg.sweep_deltas()[0]))
            grid = auto_delta_grid(rates, fields, medium)
            error = self.difference(rates, fields, medium, grid)[0]
            if error != 0.0:
                moved[seed, draw] = error
        assert len(draws) == 1272
        assert moved.keys() == self.NOT_BITWISE.keys(), moved
        for key, error in moved.items():
            assert error <= self.NOT_BITWISE[key], (key, error)


class TestNodeBatches:
    """A kernel call on an array of z nodes returns, row by row, bitwise
    what one call per node returns, in batches as large as the z rule makes
    them (8192 // grid points, at most 64 nodes)."""

    @staticmethod
    def assert_rows(alphas, od2s, grid):
        probe, plateau, drive = alphas(od2s, grid)
        assert probe.shape == (od2s.size, grid.size)
        assert plateau.shape == drive.shape == od2s.shape
        for i, od2 in enumerate(od2s):
            one = alphas(float(od2), grid)
            assert one[0].shape == grid.shape and np.ndim(one[1]) == 0
            assert np.array_equal(one[0], probe[i])
            assert one[1] == plateau[i] and one[2] == drive[i]

    @staticmethod
    def batch(alphas, rates, od2, grid):
        """The drive at the Gauss-Legendre nodes of one z-rule call."""
        n = min(propagation._CALL_ELEMENTS // max(grid.size, 1), 64)
        return propagation._drive_od2(alphas, rates, od2)[0](
            propagation._gauss_legendre(n)[0])

    @staticmethod
    def preset_points():
        for preset in ("ne_30torr", "vacuum", "kr_0.12torr", "ne_100torr"):
            cfg = preset_config(preset)
            rates, med = cfg.rates(), cfg.medium()
            for dl in cfg.sweep_deltas():
                yield rates, cfg.fields(float(dl)), med, cfg

    def test_every_preset_point(self):
        # the point's auto grid and its first 65 points, the subgrid's size
        for rates, f, med, cfg in self.preset_points():
            alphas = propagation._kernel(rates, f.big_delta, med, EXACT)
            grid = auto_delta_grid(rates, f, med,
                                   cfg.get("delta_grid", "points"))
            for g in (grid, grid[:65]):
                self.assert_rows(
                    alphas, self.batch(alphas, rates, f.omega_d**2, g), g)

    @pytest.mark.parametrize("case", ["gamma_bc=0", "od2=0", "kappa=0",
                                      "empty grid"])
    def test_edge_rates(self, case):
        cfg = preset_config("vacuum")
        rates, f, ku = cfg.rates(), cfg.fields(mhz(200)), cfg.medium().ku
        od2s = f.omega_d**2 * np.array([1.0, 0.3, 1e-3])
        grid = np.array([-khz(300), 0.0, khz(10), mhz(2)])
        kappa = 1.0
        if case == "gamma_bc=0":
            rates = replace(rates, gamma_bc=0.0)
        elif case == "od2=0":
            od2s[-1] = 0.0
        elif case == "kappa=0":
            kappa = 0.0
        else:
            grid = np.zeros(0)
        self.assert_rows(lambda od2, g: maxwell_absorption(
            rates, od2, f.big_delta, ku, g, kappa), od2s, grid)

    @pytest.mark.parametrize("quad", [QuadratureSpec("gauss_hermite"),
                                      QuadratureSpec("trapezoid"), None],
                             ids=["GH-64", "trapezoid", "ku=0"])
    def test_node_schemes(self, quad):
        cfg = preset_config("ne_30torr")
        rates, med = cfg.rates(), cfg.medium()
        if quad is None:  # the single node (1, 0)
            quad, med = EXACT, replace(med, ku=0.0)
        f = cfg.fields(float(cfg.sweep_deltas()[4]))
        alphas = propagation._kernel(rates, f.big_delta, med, quad)
        d0 = ac_stark_shift(f.big_delta, f.omega_d, rates.gamma)
        for grid in (d0 + np.linspace(-khz(20), khz(20), 21), np.zeros(0)):
            self.assert_rows(
                alphas, self.batch(alphas, rates, f.omega_d**2, grid), grid)


class TestDriveQuadrature:
    """The drive's depletion (`propagation._drive_od2`, a Chebyshev
    quadrature in ln I_d) against one DOP853 solve at rtol 1e-13
    (`oracles.drive_dop853`): ln |omega_d|^2 at the Gauss-Legendre nodes
    of every ladder order and at s = 1 within 1e-11 on the preset points
    and the dense cells.  Far from the presets ln(I_d/I_d(0)) reaches
    -1e17, so there the bound is 1e-11 of max(|ln(I_d/I_d(0))|, 1), the
    oracle's own rtol scale.  Where the oracle's |omega_d|^2 underflows
    below the normal floats, the quadrature's must too.  Measured: at most
    5.7e-14 on the preset points, 2.2e-12 at 3x density and 6.8e-12 at
    10x, and 1.4e-14 scaled over the fuzz draws (1.3e-12 absolute)."""

    BOUND = 1e-11
    S = np.append(np.concatenate([propagation._gauss_legendre(n)[0]
                                  for n in propagation._ladder(64)]), 1.0)

    def error(self, rates, fields, medium, scaled=False):
        """The largest miss, scaled by max(|ln(I_d/I_d(0))|, 1) where
        scaled; None where the drive cannot change, and 0 where both sides
        raise one package error."""
        od2 = fields.omega_d ** 2
        if medium.kappa_L(rates.gamma_r) == 0.0 or od2 == 0.0:
            return None
        alphas = propagation._kernel(rates, fields.big_delta, medium, EXACT)

        def alpha_d(x):
            return alphas(x, propagation._NO_GRID)[2]
        try:
            drive, od2_exit = propagation._drive_od2(alphas, rates, od2)
        except LambdaSpectraError as exc:
            with pytest.raises(type(exc)):
                drive_dop853(alpha_d, od2)
            return 0.0
        ln_want = drive_dop853(alpha_d, od2)(self.S)
        ln_want = np.append(ln_want, ln_want[-1])
        got, want = np.append(drive(self.S), od2_exit), od2 * np.exp(ln_want)
        normal = want >= np.finfo(float).tiny
        assert np.all(got[~normal] < np.finfo(float).tiny)
        miss = np.abs(np.log(got[normal]) - np.log(want[normal]))
        if scaled:
            miss /= np.maximum(np.abs(ln_want[normal]), 1.0)
        return np.max(miss, initial=0.0)

    def test_every_preset_point(self):
        worst = (0.0, (0.0, 0.0))
        for rates, f, med, cfg in TestNodeBatches.preset_points():
            worst = max(worst, (self.error(rates, f, med),
                                (cfg.get("medium", "density_cm3"),
                                 f.big_delta / mhz(1))))
        print(f"drive presets: worst {worst[0]:.2e} at (density, Delta "
              f"in MHz) {worst[1]}")
        assert worst[0] <= self.BOUND

    @pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
    @pytest.mark.parametrize("density", [3.0, 10.0])
    @pytest.mark.parametrize("at", ["0", "mid"])
    def test_dense_cells(self, preset, density, at):
        values = dict(preset_config(preset).values)
        values["medium", "density_cm3"] *= density
        cfg = ScanConfig(values=values)
        deltas = cfg.sweep_deltas()
        dl = 0.0 if at == "0" else float(deltas[deltas.size // 2])
        assert self.error(cfg.rates(), cfg.fields(dl),
                          cfg.medium()) <= self.BOUND

    def test_far_from_the_presets(self):
        worst, asserted = (0.0, (0, 0)), 0
        for seed, draw, cfg in accepted_draws():
            error = self.error(cfg.rates(),
                               cfg.fields(float(cfg.sweep_deltas()[0])),
                               cfg.medium(), scaled=True)
            if error is not None:
                asserted += 1
                worst = max(worst, (error, (seed, draw)))
        print(f"drive fuzz: worst {worst[0]:.2e} at (seed, draw) "
              f"{worst[1]} over {asserted} draws")
        assert asserted > 600
        assert worst[0] <= self.BOUND

    @pytest.mark.parametrize("case", ["gamma_bc=0", "tiny kappa L"])
    def test_drive_that_cannot_change(self, monkeypatch, case):
        # gamma_bc = 0 leaves the drive nothing to pump (R = 0) and makes
        # no kernel call; an entry rate below 2^-52 gives exp(-R_e s)
        cfg = preset_config("vacuum")
        rates, med, f = cfg.rates(), cfg.medium(), cfg.fields(0.0)
        if case == "gamma_bc=0":
            rates = replace(rates, gamma_bc=0.0)
        else:
            med = replace(med, length=1e-300)
        alphas = propagation._kernel(rates, f.big_delta, med, EXACT)
        calls = []

        def counted(od2, grid):
            calls.append(np.size(od2))
            return alphas(od2, grid)

        od2 = f.omega_d ** 2
        drive, od2_exit = propagation._drive_od2(counted, rates, od2)
        s = propagation._gauss_legendre(5)[0]
        if case == "gamma_bc=0":
            assert calls == []
            assert np.all(drive(s) == od2) and od2_exit == od2
        else:
            r_entry = alphas(od2, propagation._NO_GRID)[2]
            assert 0.0 < r_entry <= 2.0 ** -52 and calls == [2]
            assert np.array_equal(drive(s), od2 * np.exp(-r_entry * s))


class TestAgainstGL64:
    """transmit's optical depths held to the plain whole-grid GL-64 sum
    (`oracles.gauss_legendre_tau`), which climbs no ladder: an order
    accepted because two low orders (GL-2 and GL-3, say) agreed by
    accident would show here.  Measured: at most 6.5e-11 on the preset
    points (1.2e-11 under the older ladder 4, 6, 8, 12, ...), and at most
    6.2e-16 of max(|tau_64|, 1) on the 53 fuzz draws asserted."""

    @staticmethod
    def error(rates, fields, medium, grid):
        """(max |tau - tau_64| over the grid and the baseline, max |tau_64|,
        max |tau_48 - tau_64|); None where the drive cannot change or the
        kernel raises a package error."""
        od2 = fields.omega_d ** 2
        if medium.kappa_L(rates.gamma_r) == 0.0 or od2 == 0.0:
            return None
        try:
            tau, tau_b, _, _ = propagation._optical_depths(
                rates, fields, medium, EXACT, 64, grid)
        except LambdaSpectraError:
            return None
        alphas = propagation._kernel(rates, fields.big_delta, medium, EXACT)
        drive = propagation._drive_od2(alphas, rates, od2)[0]
        want_64, want_48 = (np.append(*gauss_legendre_tau(alphas, drive,
                                                          grid, n)[:2])
                            for n in (64, 48))
        return (np.max(np.abs(np.append(tau, tau_b) - want_64)),
                np.max(np.abs(want_64)), np.max(np.abs(want_48 - want_64)))

    def test_every_preset_point(self):
        worst = (0.0, None)
        for preset in ("ne_30torr", "vacuum", "kr_0.12torr", "ne_100torr"):
            cfg = preset_config(preset)
            rates, med = cfg.rates(), cfg.medium()
            for dl in cfg.sweep_deltas():
                f = cfg.fields(float(dl))
                grid = auto_delta_grid(rates, f, med,
                                       cfg.get("delta_grid", "points"))
                worst = max(worst, (self.error(rates, f, med, grid)[0],
                                    (preset, float(dl / mhz(1)))))
        print(f"GL-64 presets: worst |tau - tau_64| {worst[0]:.2e} at "
              f"(preset, Delta in MHz) {worst[1]}")
        assert worst[0] <= 1e-9

    def test_far_from_the_presets(self):
        # 100 of the 1272 accepted draws, evenly spread; below optical
        # depth 1 the sums round in absolute terms, so the scale is
        # max(|tau_64|, 1); draws where GL-48 and GL-64 differ by more than
        # 1e-10 of it leave GL-64 unconverged and are not asserted
        draws = accepted_draws()
        worst, asserted = (0.0, None), 0
        for i in np.rint(np.linspace(0, len(draws) - 1, 100)).astype(int):
            seed, draw, cfg = draws[i]
            rates, medium = cfg.rates(), cfg.medium()
            fields = cfg.fields(float(cfg.sweep_deltas()[0]))
            found = self.error(rates, fields, medium,
                               auto_delta_grid(rates, fields, medium))
            if found is None:
                continue
            error, scale, unconverged = found
            scale = max(scale, 1.0)
            if unconverged <= 1e-10 * scale:
                asserted += 1
                worst = max(worst, (error / scale, (seed, draw)))
        print(f"GL-64 fuzz: {asserted} draws asserted, worst "
              f"|tau - tau_64| / max(|tau_64|, 1) {worst[0]:.2e} at "
              f"{worst[1]}")
        assert asserted >= 40
        assert worst[0] <= 1e-14


def test_reference_is_plateau_level():
    # the baseline must agree with the transmission far outside the
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


@pytest.mark.parametrize("drive_on", [False, True])
def test_baseline_is_reference_transmission(drive_on):
    # drive off takes the z-independent one-call path, drive on the
    # depleting z rule; both must hand back the same baseline
    rates = rates30()
    f = fields30(mhz(900)) if drive_on else \
        Fields(omega_d=0.0, omega_p=0.0, big_delta=mhz(900))
    spec = transmit(rates, f, MED30, delta_grid=np.linspace(-mhz(1), mhz(1), 21))
    assert spec.baseline == reference_transmission(rates, f, MED30)


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
