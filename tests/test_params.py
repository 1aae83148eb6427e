"""Closed-form constant maps, checked against an independent gamma oracle
(scipy.special.gamma) and exercised as properties.  The program's own gamma
source, math.gamma, is itself checked against a Lanczos approximation kept
here."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import hardy_symbol
from hypothesis import strategies as st
from scipy.special import gamma as sp_gamma

from conefrac.errors import DomainError
from conefrac.params import (ProblemParams, gamma_from_mu,
                             hardy_constant_full_space, kappa_s,
                             mu_from_gamma)


# Lanczos coefficients, g = 7, 9 terms.  Relative error < 1e-14 on (0, 10]
# once combined with the reflection formula for arguments below 1/2.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def lanczos_gamma(x):
    """Gamma function via the Lanczos approximation, for x not a
    non-positive integer; the reflection formula handles x < 1/2."""
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * lanczos_gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def oracle_kappa(s):
    return sp_gamma(1.0 - s) / (2.0 ** (2.0 * s - 1.0) * sp_gamma(s))


def oracle_hardy(N, s):
    return (2.0 ** (2.0 * s) * sp_gamma((N + 2 * s) / 4.0) ** 2
            / sp_gamma((N - 2 * s) / 4.0) ** 2)


def test_lanczos_matches_libm_gamma():
    # kappa_s and hardy_constant_full_space take math.gamma at arguments in
    # (0, 10); an independent implementation must agree with it there.
    rng = np.random.default_rng(7)
    xs = rng.uniform(1e-3, 10.0, 20000)
    worst = max(abs(lanczos_gamma(x) - math.gamma(x)) / abs(math.gamma(x))
                for x in xs)
    assert worst < 1e-13


def test_lanczos_tabulated_values():
    assert lanczos_gamma(1.0) == pytest.approx(1.0, abs=1e-14)
    assert lanczos_gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert lanczos_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_constants_match_scipy_gamma():
    rng = np.random.default_rng(7)
    for s in rng.uniform(1e-3, 1.0 - 1e-3, 2000):
        assert kappa_s(s) == pytest.approx(oracle_kappa(s), rel=1e-13)
        for N in (2, 3, 4):
            assert hardy_constant_full_space(ProblemParams(N=N, s=s)) \
                == pytest.approx(oracle_hardy(N, s), rel=1e-13)


def test_kappa_half_is_one():
    assert kappa_s(0.5) == pytest.approx(1.0, abs=1e-14)


def test_kappa_quarter_values():
    # frozen from the libm gamma oracle
    assert kappa_s(0.25) == pytest.approx(0.47798879748612505, rel=1e-12)
    assert kappa_s(0.75) == pytest.approx(2.092099240106203, rel=1e-12)
    assert kappa_s(0.25) == pytest.approx(oracle_kappa(0.25), rel=1e-13)
    assert kappa_s(0.75) == pytest.approx(oracle_kappa(0.75), rel=1e-13)


def test_kappa_domain_error():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            kappa_s(bad)


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=200, deadline=None)
def test_kappa_positive(s):
    assert kappa_s(s) > 0.0


def test_gamma_from_mu_examples():
    p = ProblemParams(N=2, s=0.5)
    assert gamma_from_mu(0.0, p) == pytest.approx(0.0, abs=1e-15)
    assert gamma_from_mu(2.0, p) == pytest.approx(1.0, rel=1e-14)
    assert gamma_from_mu(0.75, p) == pytest.approx(0.5, rel=1e-14)
    # radicand exactly zero at the floor
    floor = p.spectrum_floor
    assert gamma_from_mu(floor, p) == pytest.approx(-p.half_order, rel=1e-12)


def test_gamma_from_mu_domain_error():
    p = ProblemParams(N=3, s=0.25)
    with pytest.raises(DomainError):
        gamma_from_mu(p.spectrum_floor - 1e-6, p)


def test_mu_from_gamma_examples():
    p2 = ProblemParams(N=2, s=0.5)
    assert mu_from_gamma(0.0, p2) == 0.0
    assert mu_from_gamma(1.5, p2) == pytest.approx(3.75, rel=1e-14)
    p3 = ProblemParams(N=3, s=0.5)
    assert mu_from_gamma(1.0, p3) == pytest.approx(3.0, rel=1e-14)


@given(st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_round_trip_mu_gamma(N, s, frac):
    p = ProblemParams(N=N, s=s)
    mu = p.spectrum_floor * (1.0 - frac) + 100.0 * frac
    back = mu_from_gamma(gamma_from_mu(mu, p), p)
    assert back == pytest.approx(mu, rel=1e-10, abs=1e-10)


def test_round_trip_bulk():
    rng = np.random.default_rng(11)
    p = ProblemParams(N=2, s=0.3)
    mus = rng.uniform(p.spectrum_floor * 0.999, 100.0, 1000)
    for mu in mus:
        assert mu_from_gamma(gamma_from_mu(mu, p), p) == pytest.approx(
            mu, rel=1e-10, abs=1e-12)


def test_gamma_strictly_increasing_in_mu():
    rng = np.random.default_rng(3)
    p = ProblemParams(N=2, s=0.7)
    mus = np.sort(rng.uniform(p.spectrum_floor + 1e-9, 50.0, 500))
    gs = np.array([gamma_from_mu(m, p) for m in mus])
    assert np.all(np.diff(gs) > 0.0)


def test_hardy_full_space_values():
    # frozen from the libm gamma oracle
    p = ProblemParams(N=2, s=0.5)
    assert hardy_constant_full_space(p) == pytest.approx(
        0.22847329052223186, rel=1e-12)
    assert hardy_constant_full_space(p) == pytest.approx(
        oracle_hardy(2, 0.5), rel=1e-13)
    p4 = ProblemParams(N=4, s=0.5)
    # 2 Gamma(5/4)^2 / Gamma(3/4)^2 by the oracle
    assert hardy_constant_full_space(p4) == pytest.approx(
        1.0942198076132383, rel=1e-12)
    assert hardy_constant_full_space(p4) == pytest.approx(
        oracle_hardy(4, 0.5), rel=1e-13)


def test_hardy_symbol_matches_scipy_gamma():
    # the test suite's lgamma form of the full circle's mode-m Hardy symbol;
    # its m = 0 value is the program's full-space constant
    for s in (0.05, 0.25, 0.5, 0.75, 0.95):
        for m in range(6):
            exact = (2.0 ** (2.0 * s) * sp_gamma((2 + 2 * m + 2 * s) / 4) ** 2
                     / sp_gamma((2 + 2 * m - 2 * s) / 4) ** 2)
            assert hardy_symbol(s, m) == pytest.approx(exact, rel=1e-13)
        assert hardy_symbol(s, 0) == pytest.approx(
            hardy_constant_full_space(ProblemParams(N=2, s=s)), rel=1e-13)


def test_hardy_full_space_s_dependence():
    # by the formula itself the constant at N = 2 decreases in s: the
    # denominator gamma((N-2s)/4) blows up as s -> 1
    lo = hardy_constant_full_space(ProblemParams(N=2, s=0.25))
    hi = hardy_constant_full_space(ProblemParams(N=2, s=0.75))
    assert lo == pytest.approx(oracle_hardy(2, 0.25), rel=1e-13)
    assert hi == pytest.approx(oracle_hardy(2, 0.75), rel=1e-13)
    assert lo > hi


def test_problem_params_validation():
    with pytest.raises(DomainError):
        ProblemParams(N=1, s=0.5)
    with pytest.raises(DomainError):
        ProblemParams(N=2, s=1.5)
    with pytest.raises(DomainError):
        ProblemParams(N=2, s=0.5, p=1.0)   # p must exceed N/(2s) = 2
    p = ProblemParams(N=2, s=0.5)
    assert p.p == pytest.approx(20.0)      # default 10 N / (2s)
    assert p.kappa == pytest.approx(1.0)


def test_params_immutable():
    p = ProblemParams(N=2, s=0.5)
    with pytest.raises(Exception):
        p.s = 0.7
