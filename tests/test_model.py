"""Steady-state and susceptibility tests against independent oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_spectra import (DegenerateRates, Fields, Medium, Rates,
                            SingularSystem, equation_residual,
                            population_differences, steady_state,
                            susceptibility_numeric)
from lambda_spectra.model import (_liouvillian_rows, drive_only_populations,
                                  weak_probe_susceptibility)
from lambda_spectra.units import khz, mhz

from oracles import steady_state_nullspace, strong_drive_susceptibility

MEDIUM = Medium(density=2.5e17, length=0.025, wavelength=794.979e-9, ku=0.0)


def random_params(rng):
    g_r = 10 ** rng.uniform(5, 8)
    g_deph = rng.choice([0.0, 10 ** rng.uniform(5, 9)])
    g_bc = rng.choice([0.0, 10 ** rng.uniform(2, 5)])
    if g_r == 0 and g_bc == 0:
        g_bc = 1e3
    rates = Rates(gamma_r=g_r, gamma_deph=g_deph, gamma_bc=g_bc)
    od = 10 ** rng.uniform(4, 8)
    fields = Fields(omega_d=od, omega_p=od * 10 ** rng.uniform(-3, 0),
                    big_delta=rng.uniform(-1, 1) * 10 ** rng.uniform(5, 10),
                    small_delta=rng.uniform(-1, 1) * 10 ** rng.uniform(2, 7))
    return rates, fields


class TestSteadyState:
    def test_dark_state_limit(self):
        # gamma_bc = 0: everything is pumped into |b> up to O((op/od)^2)
        rates = Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=0.0)
        for dl in (0.0, mhz(50), -mhz(400)):
            for ratio in (1e-2, 1e-3):
                f = Fields(omega_d=mhz(2.5), omega_p=mhz(2.5) * ratio,
                           big_delta=dl, small_delta=0.0)
                rho = steady_state(rates, f)
                assert np.real(rho[1, 1]) == pytest.approx(1.0, abs=20 * ratio**2)
                pops = population_differences(rates, f)
                assert pops[1] == 0.0  # rho_aa - rho_cc -> 0

    def test_no_fields_equilibrium(self):
        rates = Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=khz(1))
        rho = steady_state(rates, Fields(omega_d=0.0, omega_p=0.0))
        assert np.real(rho[1, 1]) == pytest.approx(0.5, abs=1e-12)
        assert np.real(rho[2, 2]) == pytest.approx(0.5, abs=1e-12)
        assert abs(rho[0, 0]) < 1e-14
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) < 1e-14

    def test_against_independent_nullspace_solve(self):
        # benchmark point, then a spread of random draws
        rates = Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=khz(1))
        f = Fields(omega_d=mhz(2.5), omega_p=mhz(0.25))
        rho = steady_state(rates, f)
        ref = steady_state_nullspace(rates.gamma_r, rates.gamma_deph,
                                     rates.gamma_bc, f.omega_d, f.omega_p,
                                     f.big_delta, f.small_delta)
        assert np.max(np.abs(rho - ref)) < 1e-10

        # on random draws, check the solution against the independently
        # assembled superoperator (the SVD null-space vector itself loses
        # digits for extreme rate ratios)
        from oracles import superoperator
        rng = np.random.default_rng(7)
        for _ in range(50):
            rates, f = random_params(rng)
            rho = steady_state(rates, f)
            lio = superoperator(rates.gamma_r, rates.gamma_deph,
                                rates.gamma_bc, f.omega_d, f.omega_p,
                                f.big_delta, f.small_delta)
            resid = np.max(np.abs(lio @ rho.reshape(9)))
            scale = max(rates.gamma, rates.gamma_bc, f.omega_d, f.omega_p,
                        abs(f.big_delta) + abs(f.small_delta))
            assert resid < 1e-12 * scale

    def test_physicality_and_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            rates, f = random_params(rng)
            rho = steady_state(rates, f)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            pops = np.real(np.diag(rho))
            assert np.all(pops >= -1e-12) and np.all(pops <= 1.0 + 1e-12)
            assert equation_residual(rho, rates, f) < 1e-10

    def test_singular_configurations(self):
        with pytest.raises(SingularSystem):
            steady_state(Rates(gamma_r=0.0, gamma_deph=mhz(1), gamma_bc=0.0),
                         Fields(omega_d=mhz(1), omega_p=mhz(0.1)))
        # gamma_bc = 0 with no fields: ground populations undetermined
        with pytest.raises(SingularSystem):
            steady_state(Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=0.0),
                         Fields(omega_d=0.0, omega_p=0.0))

    def test_generator_conserves_trace_and_hermiticity(self):
        # the identities steady_state relies on: the population rows sum to
        # zero, and a Hermitian rho maps to a Hermitian d rho/dt
        rng = np.random.default_rng(13)
        for _ in range(200):
            rates, f = random_params(rng)
            rng.uniform(-np.pi, np.pi, 2)  # keeps the seeded stream
            L = _liouvillian_rows(rates, f)
            scale = np.max(np.abs(L))
            assert np.max(np.abs(np.eye(3).reshape(9) @ L)) <= 1e-15 * scale
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = m + m.conj().T
            drho = (L @ rho.reshape(9)).reshape(3, 3)
            err = np.max(np.abs(drho - drho.conj().T))
            assert err <= 1e-14 * scale * np.max(np.abs(rho))

    def test_slow_pumping_without_ground_relaxation_raises(self):
        # the exact state is |b>; pumping at about 4e-16 of the largest
        # rate leaves the solve 6.7e-5 off it with a residual inside
        # tolerance, so the condition estimate must refuse the point
        with pytest.raises(SingularSystem, match="ill-conditioned"):
            steady_state(Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=0.0),
                         Fields(omega_d=khz(1), omega_p=0.0,
                                big_delta=mhz(2000)))


class TestSusceptibility:
    def test_two_level_limit(self):
        rates = Rates(gamma_r=mhz(3), gamma_deph=mhz(20), gamma_bc=khz(5))
        for dl in (0.0, mhz(10), -mhz(35)):
            f = Fields(omega_d=0.0, omega_p=mhz(0.01), big_delta=dl,
                       small_delta=0.0)
            chi = susceptibility_numeric(rates, f, MEDIUM)
            rho = steady_state(rates, f)
            pop = np.real(rho[1, 1] - rho[0, 0])
            g = rates.gamma
            want = MEDIUM.kappa(rates.gamma_r) * g * pop / (g * g + dl * dl)
            assert chi.imag == pytest.approx(want, rel=1e-9)

    def test_perfect_eit(self):
        rates = Rates(gamma_r=mhz(3), gamma_deph=0.0, gamma_bc=0.0)
        f = Fields(omega_d=mhz(2.5), omega_p=mhz(0.01))
        chi = susceptibility_numeric(rates, f, MEDIUM)
        scale = MEDIUM.kappa(rates.gamma_r) / rates.gamma
        assert abs(chi) < 1e-10 * scale

    def test_numeric_matches_analytic_at_benchmark(self):
        # pressure-broadened cell, far detuned, delta swept densely over
        # the narrow resonance.  Deviation is measured against the
        # resonance scale: chi passes near a destructive zero inside the
        # window where any pointwise-relative measure diverges.  The floor
        # is the strong-drive population approximation,
        # gamma*gamma_bc/|omega_d|^2 = 1.7% here (probe-power independent).
        rates = Rates(gamma_r=mhz(3), gamma_deph=mhz(150), gamma_bc=khz(0.7))
        base = Fields(omega_d=mhz(2.5), omega_p=mhz(0.05), big_delta=mhz(1000))
        from lambda_spectra import ac_stark_shift, resonance_width
        d0 = ac_stark_shift(base.big_delta, base.omega_d, rates.gamma)
        gt = resonance_width(base.big_delta, base.omega_d, rates.gamma,
                             rates.gamma_bc)
        nums, anas = [], []
        for x in np.linspace(-10, 10, 201):
            f = Fields(base.omega_d, base.omega_p, base.big_delta,
                       d0 + x * gt)
            nums.append(susceptibility_numeric(rates, f, MEDIUM))
            anas.append(strong_drive_susceptibility(
                rates.gamma_r, rates.gamma_deph, rates.gamma_bc, f.omega_d,
                f.big_delta, f.small_delta, MEDIUM.kappa(rates.gamma_r)))
        nums, anas = np.asarray(nums), np.asarray(anas)
        scale = np.max(np.abs(anas))
        assert np.max(np.abs(nums - anas)) / scale < 0.02

    def test_weak_probe_quadratic_convergence(self):
        # |od|^2 >> 100 gamma gamma_bc so the strong-drive populations are
        # converged and the probe-power scaling is visible
        rates = Rates(gamma_r=mhz(1.5), gamma_deph=mhz(1.5), gamma_bc=3.0)
        errs = []
        for ratio in (0.2, 0.1, 0.05):
            f = Fields(omega_d=mhz(1.0), omega_p=mhz(1.0) * ratio,
                       big_delta=mhz(15), small_delta=mhz(0.002))
            num = susceptibility_numeric(rates, f, MEDIUM)
            ana = strong_drive_susceptibility(
                rates.gamma_r, rates.gamma_deph, rates.gamma_bc, f.omega_d,
                f.big_delta, f.small_delta, MEDIUM.kappa(rates.gamma_r))
            errs.append(abs(num - ana) / abs(ana))
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_symbolic_oracle_values(self):
        # frozen from an exact rational/symbolic evaluation of the
        # weak-probe form at gamma=1, Delta=10, gamma_bc=1e-4, omega_d=1;
        # pins the strong-drive oracle the tests above compare against
        medium = Medium(density=8 * np.pi / 3, length=1.0, wavelength=1.0,
                        ku=0.0)  # kappa = gamma_r = 0.5 -> scale by 2
        kappa = medium.kappa(0.5)
        chi0 = 2.0 * strong_drive_susceptibility(0.5, 0.5, 1e-4, 1.0, 10.0,
                                                 0.0, kappa)
        assert chi0.real == pytest.approx(-9.802941275480097e-04, rel=1e-12)
        assert chi0.imag == pytest.approx(9.801951278400980e-11, rel=1e-9)
        chi1 = 2.0 * strong_drive_susceptibility(0.5, 0.5, 1e-4, 1.0, 10.0,
                                                 10.0 / 101.0, kappa)
        assert chi1.real == pytest.approx(1.911481591635762e-03, rel=1e-12)
        assert chi1.imag == pytest.approx(9.703922931049495e-01, rel=1e-12)

    def test_weak_probe_limit_is_the_pipeline_kernel(self):
        # conventions check that shares no code with the superoperator
        # oracle: the exact steady state at a weak probe against the
        # pipeline's first-order kernel at the exact drive-only populations.
        # The O(omega_p^2) error stays below r^2 (1 + omega_d^2/(gamma
        # gamma_bc)), r = omega_p/omega_d, the probe's scale against the
        # drive and its own saturation of the ground coherence, and falls
        # 4x when r is halved.  Measured on these draws at r = 1e-4: up to
        # 0.80 of the bound (0.92 over 2000 draws), median error 6.2e-9,
        # largest 3.3e-6.
        rng = np.random.default_rng(17)
        errs = {1e-4: [], 5e-5: []}
        while len(errs[1e-4]) < 400:
            rates, f = random_params(rng)
            if rates.gamma_bc == 0.0:
                continue
            rng.uniform(-np.pi, np.pi, 2)  # keeps the seeded stream
            pb, pc = drive_only_populations(rates, f.omega_d, f.big_delta)
            want = weak_probe_susceptibility(
                rates.gamma, rates.gamma_bc, f.omega_d**2, f.big_delta,
                f.small_delta, pb, pc, MEDIUM.kappa(rates.gamma_r))
            saturation = f.omega_d**2 / (rates.gamma * rates.gamma_bc)
            for r, found in errs.items():
                weak = Fields(f.omega_d, r * f.omega_d, f.big_delta,
                              f.small_delta)
                chi = susceptibility_numeric(rates, weak, MEDIUM)
                found.append(abs(chi - want) / abs(want))
                assert found[-1] < r * r * (1.0 + saturation)
        fall = np.median(np.divide(errs[1e-4], errs[5e-5]))
        assert fall == pytest.approx(4.0, rel=0.05)


class TestPopulationDifferences:
    def test_on_resonance(self):
        rates = Rates(gamma_r=mhz(1), gamma_deph=mhz(2), gamma_bc=khz(0.5))
        f = Fields(omega_d=mhz(2.0), omega_p=0.0, big_delta=0.0)
        pbb, pcc = population_differences(rates, f)
        assert pbb == pytest.approx(-1.0, abs=1e-15)
        g = rates.gamma
        assert pcc == pytest.approx(-rates.gamma_bc * g / f.omega_d**2,
                                    rel=1e-12)

    def test_gamma_bc_zero(self):
        rates = Rates(gamma_r=mhz(1), gamma_deph=0.0, gamma_bc=0.0)
        f = Fields(omega_d=mhz(1.0), omega_p=0.0, big_delta=mhz(7))
        assert population_differences(rates, f) == (-1.0, 0.0)

    def test_far_detuned_limit(self):
        rates = Rates(gamma_r=mhz(1), gamma_deph=0.0, gamma_bc=khz(1))
        f = Fields(omega_d=mhz(1.0), omega_p=0.0, big_delta=mhz(1e7))
        pbb, pcc = population_differences(rates, f)
        assert pbb == pytest.approx(-0.5, rel=1e-5)
        assert pcc == pytest.approx(-0.5, rel=1e-5)

    def test_bounds_on_random_draws(self):
        # the closed forms are strong-drive approximations; the [-1, 0]
        # bounds are guaranteed only inside that regime
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(500):
            rates, f = random_params(rng)
            if f.omega_d**2 < 100.0 * rates.gamma_bc * rates.gamma:
                continue
            pbb, pcc = population_differences(rates, f)
            assert -1.0 <= pbb <= 0.0
            assert -1.0 <= pcc <= 0.0
            checked += 1
        assert checked > 100

    def test_degenerate(self):
        rates = Rates(gamma_r=mhz(1), gamma_deph=0.0, gamma_bc=0.0)
        with pytest.raises(DegenerateRates):
            population_differences(rates, Fields(omega_d=0.0, omega_p=0.0,
                                                 big_delta=mhz(5)))


# every combination of zero and nonzero gamma_r, gamma_deph, gamma_bc and
# omega_d, on and off one-photon resonance
EDGE_RATES = [pytest.param(
    *(0.0 if zero else value for zero, value in zip(
        zeros, (mhz(3), mhz(50), khz(1), mhz(2.5)))), big_delta,
    id="-".join(f"{name}{'0' if zero else ''}" for name, zero in zip(
        ("r", "deph", "bc", "d"), zeros)) + f"-Delta{big_delta / mhz(1):g}MHz")
    for zeros in itertools.product((False, True), repeat=4)
    for big_delta in (0.0, mhz(30))]


@pytest.mark.parametrize("gamma_r, gamma_deph, gamma_bc, omega_d, big_delta",
                         EDGE_RATES)
def test_drive_only_populations_edge_rates(gamma_r, gamma_deph, gamma_bc,
                                           omega_d, big_delta):
    # the closed form refuses exactly the states the 9x9 solve refuses as
    # not unique, where two of the pumping rate (0 at omega_d = 0 or
    # gamma = 0), gamma_r and gamma_bc vanish; elsewhere the two agree
    rates = Rates(gamma_r=gamma_r, gamma_deph=gamma_deph, gamma_bc=gamma_bc)
    pumping = omega_d * rates.gamma
    degenerate = [pumping, gamma_r, gamma_bc].count(0.0) >= 2
    try:
        rho = steady_state(rates, Fields(omega_d, 0.0, big_delta))
    except SingularSystem:
        assert degenerate
        with pytest.raises(DegenerateRates):
            drive_only_populations(rates, omega_d, big_delta)
        return
    assert not degenerate
    pb, pc = drive_only_populations(rates, omega_d, big_delta)
    assert pb == pytest.approx(np.real(rho[1, 1] - rho[0, 0]), abs=1e-9)
    assert pc == pytest.approx(np.real(rho[2, 2] - rho[0, 0]), abs=1e-9)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(gamma_r=_decades(6, 8),
       gamma_deph=st.just(0.0) | _decades(6, 10),
       gamma_bc=_decades(2, 6),
       omega_d=st.just(0.0) | _decades(5, 9),
       big_delta=st.just(0.0) | _decades(4, 11) | _decades(4, 11).map(
           lambda x: -x))
def test_drive_only_populations_match_steady_state(gamma_r, gamma_deph,
                                                   gamma_bc, omega_d,
                                                   big_delta):
    # the pipeline's closed-form populations against the full 9x9 steady
    # state with the probe off
    rates = Rates(gamma_r=gamma_r, gamma_deph=gamma_deph, gamma_bc=gamma_bc)
    rho = steady_state(rates, Fields(omega_d, 0.0, big_delta))
    pb, pc = drive_only_populations(rates, omega_d, big_delta)
    assert pb == pytest.approx(np.real(rho[1, 1] - rho[0, 0]), abs=1e-9)
    assert pc == pytest.approx(np.real(rho[2, 2] - rho[0, 0]), abs=1e-9)


def test_drive_only_populations_without_ground_relaxation():
    # gamma_bc = 0: the drive pumps everything into |b>, exactly
    deltas = [-mhz(2000), -mhz(3), 0.0, mhz(50), mhz(2000)]
    for rates in (Rates(mhz(3), 0.0, 0.0), Rates(mhz(3), mhz(150), 0.0)):
        pb, pc = drive_only_populations(rates, mhz(2.5), deltas)
        assert np.array_equal(pb, np.ones(5))
        assert np.array_equal(pc, np.zeros(5))


def test_rates_fields_validation():
    with pytest.raises(ValueError):
        Rates(gamma_r=-1.0, gamma_deph=0.0, gamma_bc=0.0)
    with pytest.raises(ValueError):
        Fields(omega_d=-1.0, omega_p=0.0)
    r = Rates(gamma_r=1.0, gamma_deph=2.0, gamma_bc=0.5)
    assert r.gamma == 3.0


def test_kappa_is_recomputed():
    m = Medium(density=2.5e17, length=0.025, wavelength=795e-9, ku=0.0)
    k1 = m.kappa(mhz(3))
    assert k1 == pytest.approx((3 / (8 * np.pi)) * 2.5e17 * (795e-9) ** 2 * mhz(3))
    assert m.kappa(2 * mhz(3)) == pytest.approx(2 * k1)
