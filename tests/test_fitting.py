"""Lineshape fitting: recovery, invariances, Jacobian, guess quality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_spectra import (DegenerateSpectrum, LineshapeParams, Spectrum,
                            fit_lineshape, initial_guess)
from lambda_spectra import fitting
from lambda_spectra.fitting import _jacobian, _model
from lambda_spectra.units import khz

from oracles import grid_refine_fit, lineshape_covariance

# covariance_diagonal against the QR oracle, relative; measured <= 9e-9 on
# the lines below and <= 5.6e-7 on the benchmark's 120 seed-1 refit inputs
COVARIANCE_REL = 1e-6


def synth(params, span=20.0, n=400, noise=0.0, rng=None):
    d = params.delta0 + np.linspace(-span, span, n) * params.gamma_tilde
    t = params(d)
    if noise:
        t = t + noise * rng.normal(size=n)
    return Spectrum(delta_grid=d, transmission=t)


def random_lineshape(rng):
    gt = 10 ** rng.uniform(-2, 2)
    return LineshapeParams(
        A=rng.uniform(-2, 2), B=rng.uniform(-2, 2),
        C=rng.uniform(0.2, 1.5), gamma_tilde=gt,
        delta0=rng.uniform(-3, 3) * gt)


class TestRecovery:
    def test_symmetric_peak(self):
        p = LineshapeParams(A=1.0, B=0.0, C=0.5, gamma_tilde=0.37, delta0=1.3)
        fit = fit_lineshape(synth(p))
        assert fit.converged
        assert fit.params.A == pytest.approx(1.0, rel=1e-8)
        assert abs(fit.params.B) < 1e-8
        assert fit.params.C == pytest.approx(0.5, rel=1e-8)
        assert fit.params.gamma_tilde == pytest.approx(0.37, rel=1e-8)
        assert fit.params.delta0 == pytest.approx(1.3, rel=1e-8)
        assert abs(fit.params.phi) < 1e-8

    def test_pure_dispersion_is_quarter_turn(self):
        p = LineshapeParams(A=0.0, B=1.0, C=0.5, gamma_tilde=2.0, delta0=0.0)
        fit = fit_lineshape(synth(p))
        assert fit.params.phi == pytest.approx(math.pi / 2, abs=1e-8)

    def test_symmetric_absorption_is_half_turn(self):
        p = LineshapeParams(A=-1.0, B=0.0, C=1.0, gamma_tilde=0.8, delta0=0.0)
        fit = fit_lineshape(synth(p))
        assert abs(fit.params.phi) == pytest.approx(math.pi, abs=1e-8)

    def test_noiseless_round_trip_wide_width_range(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            p = random_lineshape(rng)
            if math.hypot(p.A, p.B) < 0.05:
                continue
            fit = fit_lineshape(synth(p))
            assert fit.converged
            for got, want in ((fit.params.A, p.A), (fit.params.B, p.B),
                              (fit.params.C, p.C),
                              (fit.params.gamma_tilde, p.gamma_tilde),
                              (fit.params.delta0, p.delta0)):
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10 * p.gamma_tilde)

    def test_noisy_recovery(self):
        # 1% additive noise relative to the resonance amplitude; width and
        # center must come back within 2% for 95% of draws
        rng = np.random.default_rng(2024)
        ok = tried = 0
        for _ in range(200):
            p = random_lineshape(rng)
            d = math.hypot(p.A, p.B)
            if d < 0.3:
                continue
            tried += 1
            fit = fit_lineshape(synth(p, noise=0.01 * d, rng=rng))
            gt_ok = abs(fit.params.gamma_tilde / p.gamma_tilde - 1) < 0.02
            d0_ok = abs(fit.params.delta0 - p.delta0) < 0.02 * p.gamma_tilde \
                + 0.02 * abs(p.delta0)
            ok += gt_ok and d0_ok
        assert tried > 100
        assert ok / tried >= 0.95

    def test_at_least_as_good_as_grid_refinement(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            p = random_lineshape(rng)
            spec = synth(p, noise=0.02, rng=rng)
            fit = fit_lineshape(spec)
            sse_fit = fit.residual_rms**2 * spec.delta_grid.size
            *_, sse_oracle = grid_refine_fit(
                spec.delta_grid, spec.transmission, p.A, p.B, p.C,
                p.gamma_tilde, p.delta0)
            assert sse_fit <= sse_oracle * (1 + 1e-6)


class TestInvariances:
    def test_grid_shift_moves_delta0_only(self):
        p = LineshapeParams(A=0.7, B=-0.4, C=1.0, gamma_tilde=1.7, delta0=0.4)
        spec = synth(p)
        base = fit_lineshape(spec)
        s = 12.345
        shifted = Spectrum(delta_grid=spec.delta_grid + s,
                           transmission=spec.transmission.copy())
        fit = fit_lineshape(shifted)
        assert fit.params.delta0 - base.params.delta0 == pytest.approx(s, rel=1e-10)
        assert fit.params.A == pytest.approx(base.params.A, rel=1e-10)
        assert fit.params.B == pytest.approx(base.params.B, rel=1e-10)
        assert fit.params.C == pytest.approx(base.params.C, rel=1e-10)
        assert fit.params.gamma_tilde == pytest.approx(base.params.gamma_tilde,
                                                       rel=1e-10)

    def test_amplitude_scaling(self):
        p = LineshapeParams(A=0.7, B=-0.4, C=1.0, gamma_tilde=1.7, delta0=0.4)
        spec = synth(p)
        base = fit_lineshape(spec)
        k = 3.7
        scaled = Spectrum(delta_grid=spec.delta_grid.copy(),
                          transmission=k * spec.transmission)
        fit = fit_lineshape(scaled)
        assert fit.params.A == pytest.approx(k * base.params.A, rel=1e-10)
        assert fit.params.B == pytest.approx(k * base.params.B, rel=1e-10)
        assert fit.params.C == pytest.approx(k * base.params.C, rel=1e-10)
        assert fit.params.gamma_tilde == pytest.approx(base.params.gamma_tilde,
                                                       rel=1e-10)
        assert fit.params.delta0 == pytest.approx(base.params.delta0, rel=1e-10)
        assert fit.params.phi == pytest.approx(base.params.phi, abs=1e-10)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_lineshape(rng)
            theta = np.array([p.A, p.B, p.C, math.log(p.gamma_tilde),
                              p.delta0])
            d = p.delta0 + rng.uniform(-10, 10, size=8) * p.gamma_tilde
            jac = _jacobian(d, theta)
            for k in range(5):
                h = 1e-6 * max(abs(theta[k]), 1e-3)
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd = (_model(d, tp) - _model(d, tm)) / (2 * h)
                scale = np.max(np.abs(jac[:, k])) + 1e-12
                assert np.max(np.abs(jac[:, k] - fd)) / scale < 1e-6


class TestGuessAndEdges:
    def test_guess_symmetric_peak(self):
        p = LineshapeParams(A=1.0, B=0.0, C=0.2, gamma_tilde=1.0, delta0=2.0)
        g = initial_guess(synth(p))
        assert abs(g.B) < 0.05
        assert g.delta0 == pytest.approx(2.0, abs=0.2)

    def test_guess_dispersion(self):
        p = LineshapeParams(A=0.0, B=1.0, C=0.2, gamma_tilde=1.0, delta0=0.0)
        g = initial_guess(synth(p))
        assert abs(g.A) < 0.55  # extremum of the dispersion wing is B/2

    def test_guess_lands_in_convergence_basin(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            p = random_lineshape(rng)
            if math.hypot(p.A, p.B) < 0.1:
                continue
            fit = fit_lineshape(synth(p))
            assert fit.converged
            assert fit.params.gamma_tilde == pytest.approx(p.gamma_tilde,
                                                           rel=1e-6)

    def test_flat_spectrum_raises(self):
        spec = Spectrum(delta_grid=np.linspace(-1, 1, 51),
                        transmission=np.ones(51))
        with pytest.raises(DegenerateSpectrum):
            fit_lineshape(spec)

    def test_too_few_points(self):
        spec = Spectrum(delta_grid=np.linspace(-1, 1, 5),
                        transmission=np.linspace(0, 1, 5))
        with pytest.raises(DegenerateSpectrum):
            fit_lineshape(spec)

    def test_covariance_scale_on_noisy_data(self):
        rng = np.random.default_rng(31)
        p = LineshapeParams(A=1.0, B=0.0, C=1.0, gamma_tilde=1.0, delta0=0.0)
        fit = fit_lineshape(synth(p, noise=0.01, rng=rng))
        sigma = np.sqrt(fit.covariance_diagonal)
        # 1-sigma estimates should cover the truth within a few sigma
        assert abs(fit.params.A - 1.0) < 5 * sigma[0]
        assert abs(fit.params.gamma_tilde - 1.0) < 5 * sigma[3]


@pytest.mark.parametrize("width_khz", [1.0, 30.0, 300.0])
def test_covariance_matches_qr_oracle(width_khz):
    # D = 0.2 with 1 % noise, 801 points over +-20 widths.  At 300 kHz a
    # pinv of J^T J dropped the delta0 direction: sigma(delta0) came out
    # 1e-10 rad/s against the oracle's 7.4e3
    gt = khz(width_khz)
    p = LineshapeParams(A=-0.16, B=0.12, C=1.0, gamma_tilde=gt,
                        delta0=0.1 * gt)
    spec = synth(p, n=801, noise=0.002, rng=np.random.default_rng(5))
    fit = fit_lineshape(spec)
    q = fit.params
    ref = lineshape_covariance(spec.delta_grid, spec.transmission, q.A, q.B,
                               q.C, q.gamma_tilde, q.delta0)
    assert np.all(np.abs(fit.covariance_diagonal - ref)
                  <= COVARIANCE_REL * ref)


def test_unconverged_fit_has_nan_covariance(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_EVALS", 3)
    p = LineshapeParams(A=1.0, B=0.3, C=0.5, gamma_tilde=0.37, delta0=1.3)
    fit = fit_lineshape(synth(p, noise=0.01, rng=np.random.default_rng(3)))
    assert not fit.converged
    assert np.all(np.isnan(fit.covariance_diagonal))


def test_to_polar_values():
    def to_polar(a, b):
        q = LineshapeParams(A=a, B=b, C=1.0, gamma_tilde=1.0, delta0=0.0)
        return q.D, q.phi

    assert to_polar(1.0, 0.0) == (1.0, 0.0)
    d, phi = to_polar(0.0, -1.0)
    assert d == 1.0 and phi == pytest.approx(-math.pi / 2)
    d, phi = to_polar(-0.6, 0.8)
    assert d == pytest.approx(1.0, rel=1e-15)
    assert phi == pytest.approx(math.pi - math.atan(0.8 / 0.6), rel=1e-12)
    assert to_polar(0.0, 0.0) == (0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(points=st.integers(801, 3201), width_khz=st.floats(1.0, 300.0),
       amp=st.floats(0.01, 0.9), phi=st.floats(-math.pi, math.pi),
       c=st.floats(0.95, 1.05), half_widths=st.floats(15.0, 40.0),
       centre=st.floats(-0.2, 0.2))
def test_noiseless_lines_round_trip(points, width_khz, amp, phi, c,
                                    half_widths, centre):
    # the ranges of the benchmark's synthetic refit lines: the centre lies
    # within 20 % of the half-span from the grid's middle
    gt = khz(width_khz)
    half = half_widths * gt
    truth = LineshapeParams(A=amp * math.cos(phi), B=amp * math.sin(phi),
                            C=c, gamma_tilde=gt, delta0=centre * half)
    grid = np.linspace(-half, half, points)
    fit = fit_lineshape(Spectrum(delta_grid=grid, transmission=truth(grid)))
    assert fit.converged
    p = fit.params
    assert max(abs(p.A - truth.A), abs(p.B - truth.B),
               abs(p.C - truth.C)) <= 1e-6 * amp
    assert max(abs(p.gamma_tilde - gt),
               abs(p.delta0 - truth.delta0)) <= 1e-6 * gt
