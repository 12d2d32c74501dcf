"""Zeeman dark-state algebra."""

import cmath
import math

import numpy as np
import pytest

from lambda_spectra import (ZeemanState, brightness, dark_state, overlap,
                            zeeman_detuning)
from lambda_spectra.hanle import TRANSITIONS


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return ZeemanState(c_plus=complex(v[0]), c_minus=complex(v[1]))


def test_dark_state_amplitudes():
    r = 1 / math.sqrt(2)
    d21 = dark_state("two_to_one")
    assert d21.c_plus == pytest.approx(r) and d21.c_minus == pytest.approx(r)
    d22 = dark_state("two_to_two")
    assert d22.c_plus == pytest.approx(r) and d22.c_minus == pytest.approx(-r)
    for s in (d21, d22):
        assert abs(s.c_plus) ** 2 + abs(s.c_minus) ** 2 == pytest.approx(1.0)


def test_dark_states_orthogonal():
    assert overlap(dark_state("two_to_one"), dark_state("two_to_two")) == 0.0


def test_overlap_properties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        s1, s2 = random_state(rng), random_state(rng)
        assert overlap(s1, s1) == pytest.approx(1.0)
        assert overlap(s1, s2) == pytest.approx(overlap(s2, s1).conjugate())


def test_dark_bright_cross_coupling():
    # the dark state of one transition is maximally bright on the other
    assert brightness(dark_state("two_to_one"), "two_to_one") == 0.0
    assert brightness(dark_state("two_to_one"), "two_to_two") == pytest.approx(1.0)
    assert brightness(dark_state("two_to_two"), "two_to_one") == pytest.approx(1.0)
    assert brightness(dark_state("two_to_two"), "two_to_two") == 0.0


def test_brightness_complementarity():
    # the 2D space splits into the dark/bright orthogonal pair
    rng = np.random.default_rng(8)
    for _ in range(200):
        s = random_state(rng)
        for t in TRANSITIONS:
            b = brightness(s, t)
            o = abs(overlap(s, dark_state(t)))
            assert b * b + o * o == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= b <= 1.0 + 1e-12


def test_global_phase_invariance():
    rng = np.random.default_rng(12)
    s = random_state(rng)
    for theta in (0.4, 2.2, -1.1):
        ph = cmath.exp(1j * theta)
        rot = ZeemanState(c_plus=s.c_plus * ph, c_minus=s.c_minus * ph)
        for t in TRANSITIONS:
            assert brightness(rot, t) == pytest.approx(brightness(s, t),
                                                       abs=1e-14)


def test_zeeman_detuning():
    assert zeeman_detuning(0.0) == 0.0
    # linear and odd
    d1 = zeeman_detuning(1e-6)
    assert zeeman_detuning(-1e-6) == -d1
    assert zeeman_detuning(3e-6) == pytest.approx(3 * d1, rel=1e-15)
    # frozen constant arithmetic: 2 mu_B (1 uT) / hbar
    assert d1 == pytest.approx(175882.00083707785, rel=1e-9)


def test_state_norm_validation():
    with pytest.raises(ValueError):
        ZeemanState(c_plus=1.0, c_minus=1.0)
    with pytest.raises(ValueError):
        brightness(dark_state("two_to_one"), "nope")
