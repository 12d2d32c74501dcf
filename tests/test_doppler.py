"""Velocity averaging: weight normalization, scheme validity, convergence."""

import numpy as np
import pytest

from lambda_spectra import QuadratureDivergence, QuadratureSpec, doppler_average
from lambda_spectra.doppler import (maxwell_mean_inverse, maxwell_mean_slope,
                                    velocity_nodes)
from lambda_spectra.units import mhz

from oracles import doppler_average_trapezoid, maxwell_mean_slope_mp

KU = mhz(250)


def two_level(gamma):
    return lambda d: 1j / (gamma - 1j * d)


class TestBasics:
    def test_constant_integrand_is_exact(self):
        for spec in (QuadratureSpec(), QuadratureSpec("trapezoid", 501)):
            avg = doppler_average(lambda d: 0.7 - 0.2j, mhz(100), KU, spec)
            assert avg == pytest.approx(0.7 - 0.2j, abs=1e-12)

    def test_ku_zero_bypasses(self):
        chi = two_level(mhz(3))
        assert doppler_average(chi, mhz(7), 0.0) == chi(mhz(7))

    def test_linearity(self):
        c1, c2 = two_level(mhz(200)), two_level(mhz(400))
        a, b = 2.3, -0.7 + 0.4j
        lhs = doppler_average(lambda d: a * c1(d) + b * c2(d), mhz(50), KU)
        rhs = (a * doppler_average(c1, mhz(50), KU)
               + b * doppler_average(c2, mhz(50), KU))
        assert lhs == pytest.approx(rhs, abs=1e-12 * abs(rhs))

    def test_parity(self):
        # symmetric two-level absorption stays even in Delta
        chi = two_level(mhz(153))
        for dl in (mhz(30), mhz(170)):
            p = doppler_average(chi, dl, KU)
            m = doppler_average(chi, -dl, KU)
            assert p.imag == pytest.approx(m.imag, rel=1e-12)
            assert p.real == pytest.approx(-m.real, rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=4)
        with pytest.raises(ValueError):
            QuadratureSpec("trapezoid", 64, truncation=2.0)
        with pytest.raises(ValueError):
            QuadratureSpec("simpson")


class TestAccuracy:
    def test_gauss_hermite_pressure_broadened(self):
        # integrand width >= half the node spacing: converged; oracle is a
        # 1e5-point truncated trapezoid
        for gamma, tol in ((mhz(153), 1e-5), (mhz(453), 1e-9)):
            chi = two_level(gamma)
            for dl in (0.0, KU):
                ref = doppler_average_trapezoid(chi, dl, KU)
                gh = doppler_average(chi, dl, KU, QuadratureSpec(node_count=64))
                assert abs(gh - ref) / abs(ref) < tol

    def test_gauss_hermite_fails_on_narrow_lorentzian(self):
        # bare 3 MHz linewidth under a 250 MHz Doppler width: 64 nodes
        # cannot resolve the integrand; the average is badly wrong and the
        # refinement check catches it
        chi = two_level(mhz(3))
        ref = doppler_average_trapezoid(chi, 0.0, KU)
        gh = doppler_average(chi, 0.0, KU, QuadratureSpec(node_count=64))
        assert abs(gh - ref) / abs(ref) > 0.1
        with pytest.raises(QuadratureDivergence):
            doppler_average(chi, 0.0, KU,
                            QuadratureSpec(node_count=64, refine=True))

    def test_trapezoid_handles_narrow_lorentzian(self):
        chi = two_level(mhz(3))
        for dl in (0.0, mhz(500)):
            ref = doppler_average_trapezoid(chi, dl, KU)
            tr = doppler_average(chi, dl, KU,
                                 QuadratureSpec("trapezoid", 4001, refine=True))
            assert abs(tr - ref) / abs(ref) < 1e-4

    def test_refinement_convergence_factor(self):
        # smooth-but-not-trivial integrand: each node doubling must shrink
        # the trapezoid error by at least 4x until the floating-point floor
        chi = two_level(mhz(40))
        ref = doppler_average_trapezoid(chi, 0.0, KU, n=400_001)
        errs = []
        for n in (33, 65, 129, 257):
            val = doppler_average(chi, 0.0, KU, QuadratureSpec("trapezoid", n))
            errs.append(abs(val - ref) / abs(ref))
        for coarse, fine in zip(errs, errs[1:]):
            if coarse < 1e-13:
                break
            assert coarse / fine > 4.0


class TestExactScheme:
    """The Faddeeva building blocks of the exact scheme against the dense
    trapezoid oracle."""

    def test_needs_a_rational_integrand(self):
        exact = QuadratureSpec("exact")
        for ku in (KU, 0.0):
            with pytest.raises(ValueError, match="exact"):
                doppler_average(two_level(mhz(3)), 0.0, ku, exact)
        with pytest.raises(ValueError, match="exact"):
            velocity_nodes(exact, KU)
        w, kv = velocity_nodes(exact, 0.0)
        assert w.tolist() == [1.0] and kv.tolist() == [0.0]

    @pytest.mark.parametrize("pole", [mhz(10) - 1j * mhz(3),
                                      -mhz(400) - 1j * mhz(900),
                                      mhz(30) + 1j * mhz(3)])
    def test_mean_inverse(self, pole):
        for dl in (0.0, mhz(500)):
            ref = doppler_average_trapezoid(lambda x: 1.0 / (x - pole), dl, KU)
            got = maxwell_mean_inverse(pole, dl, KU)
            assert abs(got - ref) < 1e-12 * abs(ref)

    def test_slope_as_poles_coalesce(self):
        # (M(p1) - M(p2))/(p1 - p2) = <1/((x - p1)(x - p2))>, on both sides
        # of the series switch at |p1 - p2| = 1e-3 ku, and at coincidence
        p2 = mhz(20) - 1j * mhz(18)
        steps = np.array([5e-2, 2e-3, 5e-4, 1e-7, 0.0])
        p1 = p2 + KU * steps * (1 - 1j) / np.sqrt(2)
        m1 = maxwell_mean_inverse(p1, mhz(100), KU)
        m2 = maxwell_mean_inverse(p2, mhz(100), KU)
        got = maxwell_mean_slope(p1, p2, m1, m2, mhz(100), KU)
        for a, b in zip(p1, got):
            ref = doppler_average_trapezoid(
                lambda x: 1.0 / ((x - a) * (x - p2)), mhz(100), KU)
            assert abs(b - ref) < 1e-12 * abs(ref)

    # measured worst over these points: 4.8e-13 on the series side of the
    # 1e-3 rho switch and 5.3e-12 on the quotient side, whose difference
    # of two wofz values (each within about 1e-14) is divided by
    # |p1 - p2|; a denser sweep reached 6.4e-13 and 1.1e-11
    SERIES_RTOL, QUOTIENT_RTOL = 1e-12, 3e-11

    @pytest.mark.parametrize("r", [1.0, 5.6, 19.9, 20.1, 1e2, 1e3, 1e5, 1e7,
                                   1e9, 1e12])
    def test_slope_against_mpmath(self, r):
        # |z| = r at the midpoint, across the upper half plane, with pole
        # separations from 1e-9 to 1e-1 of rho on both sides of the series
        # switch; above |z| = 20 the series takes w' and w''' from the
        # asymptotic expansion
        ku, dl = 1.0, 0.0
        rng = np.random.default_rng(int(100 * np.log10(r)))
        for arg in np.pi * np.array([0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]):
            mid = dl - ku * r * np.exp(1j * arg)
            for sep in (1e-9, 1e-7, 1e-5, 9.9e-4, 1.01e-3, 1e-2, 1e-1):
                h = sep * max(1.0, r) * ku * np.exp(2j * np.pi * rng.random())
                p1, p2 = mid + 0.5 * h, mid - 0.5 * h
                if max(p1.imag, p2.imag) >= 0.0:
                    continue
                m1, m2 = (maxwell_mean_inverse(p, dl, ku) for p in (p1, p2))
                got = maxwell_mean_slope(np.array([p1]), p2, np.array([m1]),
                                         m2, dl, ku)[0]
                ref = maxwell_mean_slope_mp(p1, p2, dl, ku)
                rtol = self.SERIES_RTOL if sep < 1e-3 else self.QUOTIENT_RTOL
                assert abs(got - ref) <= rtol * abs(ref), (arg, sep)
