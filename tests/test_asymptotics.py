"""Tail constant, fits, Laplace ratios, decay checks, negative part."""

import math

import numpy as np
import pytest

from helsonlab.asymptotics import (
    DecaySpec, decay_order, default_fit_window, fit_power_tail,
    kappa, laplace_I, make_decay_spec, negative_part_domination,
    verify_kernel_decay,
)
from helsonlab.eigen import Spectrum
from helsonlab.symbols import SymbolSpec, kernel_fn

# pinned by a 40-digit Gamma-product oracle before the build
KAPPA_2 = 0.2217352921445288513528813403386303846716
# pinned by 40-digit quadrature of the normalized integral
RATIO_0_1_1E6 = 0.96700050499177164657
RATIO_2_1_1E9 = 1.0476414095554109632
RATIO_1_HALF_1E3 = 1.0377677435587107827
I_0_1_1E6 = 6.999383055259739166514e-8


def laplace_ratio(ell, alpha, c, x):
    # laplace_I over its leading asymptote ell! x^-(1+ell) (log x)^-alpha
    return (laplace_I(ell, alpha, c, x) * x ** (1 + ell)
            * math.log(x) ** alpha / math.factorial(ell))


class TestKappa:
    def test_half_is_one(self):
        assert abs(kappa(0.5) - 1.0) < 1e-13

    def test_one_is_half(self):
        assert abs(kappa(1.0) - 0.5) < 1e-13

    def test_two_matches_pinned(self):
        assert abs(kappa(2.0) - KAPPA_2) < 1e-12

    def test_grid_against_gamma_product_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for alpha in np.linspace(0.1, 4.0, 50):
            a = mp.mpf(1) / (2 * mp.mpf(alpha))
            want = (2 ** (-mp.mpf(alpha)) * mp.pi ** (1 - 2 * mp.mpf(alpha))
                    * (mp.gamma(a) * mp.gamma(0.5) / mp.gamma(a + 0.5))
                    ** mp.mpf(alpha))
            assert abs(kappa(float(alpha)) - float(want)) < 1e-12

    def test_tiny_alpha_no_overflow(self):
        val = kappa(1e-3)
        assert np.isfinite(val) and val > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa(0.0)
        with pytest.raises(ValueError):
            kappa(-1.0)


class TestFitPowerTail:
    def test_exact_power_law(self):
        n = np.arange(1, 201, dtype=float)
        fit = fit_power_tail(0.5 / n, window=(10, 50))
        assert abs(fit.alpha_hat - 1.0) < 1e-12
        assert abs(fit.kappa_hat - 0.5) < 1e-12
        assert fit.residual_rms <= 1e-12

    def test_synthetic_kappa_two(self):
        n = np.arange(1, 501, dtype=float)
        fit = fit_power_tail(KAPPA_2 / n**2, window=(25, 125))
        assert abs(fit.alpha_hat - 2.0) < 1e-10
        assert abs(fit.kappa_hat - KAPPA_2) < 1e-10

    def test_log_corrected_model(self):
        # decreasing 1 + 5/log n factor makes the decay look steeper, so
        # the fitted exponent lands above 1, approaching from above
        n = np.arange(1, 501, dtype=float)
        lam = (1.0 + 5.0 / np.log(np.maximum(n, 2.0))) / n
        fit = fit_power_tail(lam, window=(50, 500))
        assert 1.0 < fit.alpha_hat < 1.15
        assert fit.drift > 0

    def test_scale_equivariance(self):
        n = np.arange(1, 301, dtype=float)
        lam = 0.7 / n**1.3 * (1.0 + 0.2 / np.sqrt(n))
        f1 = fit_power_tail(lam, window=(20, 80))
        f2 = fit_power_tail(13.0 * lam, window=(20, 80))
        assert abs(f1.alpha_hat - f2.alpha_hat) < 1e-12
        assert abs(f2.kappa_hat - 13.0 * f1.kappa_hat) < 1e-12 * f2.kappa_hat

    def test_default_window(self):
        assert default_fit_window(200) == (10, 50)
        n0, n1 = default_fit_window(2048)
        assert (n0, n1) == (102, 512)

    def test_window_validation(self):
        lam = 1.0 / np.arange(1, 101, dtype=float)
        with pytest.raises(ValueError):
            fit_power_tail(lam, window=(10, 15))
        with pytest.raises(ValueError):
            fit_power_tail(lam, window=(50, 200))
        bad = lam.copy()
        bad[30] = -1.0
        with pytest.raises(ValueError):
            fit_power_tail(bad, window=(20, 60))

    def test_json_fields(self):
        n = np.arange(1, 101, dtype=float)
        rec = fit_power_tail(1.0 / n, window=(5, 25)).to_json()
        assert set(rec) == {"alpha_hat", "kappa_hat", "n0", "n1",
                            "residual_rms", "drift"}


class TestLaplaceI:
    def test_pinned_value(self):
        assert abs(laplace_I(0, 1.0, 0.5, 1e6) - I_0_1_1E6) <= 1e-9 * I_0_1_1E6

    def test_pinned_ratios(self):
        assert abs(laplace_ratio(0, 1.0, 0.5, 1e6) - RATIO_0_1_1E6) < 1e-8
        assert abs(laplace_ratio(2, 1.0, 0.5, 1e9) - RATIO_2_1_1E9) < 1e-8
        assert abs(laplace_ratio(1, 0.5, 0.5, 1e3) - RATIO_1_HALF_1E3) < 1e-8

    def test_ratio_within_quarter_at_1e9(self):
        assert abs(laplace_ratio(2, 1.0, 0.5, 1e9) - 1.0) < 0.25

    def test_monotone_toward_one(self):
        xs = (1e3, 1e6, 1e9, 1e12)
        for alpha in (0.5, 1.0, 2.0):
            for ell in (0, 1, 2):
                rats = [laplace_ratio(ell, alpha, 0.5, x) for x in xs]
                gaps = [abs(r - 1.0) for r in rats]
                assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
                assert all((r - 1.0) * (rats[0] - 1.0) > 0 for r in rats)

    def test_c_insensitivity_beats_any_power(self):
        xs = (20.0, 35.0, 50.0)
        diffs = [abs(laplace_I(0, 1.0, 0.5, x) - laplace_I(0, 1.0, 0.9, x))
                 for x in xs]
        scaled = [d * x**10 for d, x in zip(diffs, xs)]
        assert scaled[0] > scaled[1] > scaled[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            laplace_I(-1, 1.0, 0.5, 100.0)
        with pytest.raises(ValueError):
            laplace_I(0, 1.0, 1.5, 100.0)
        with pytest.raises(ValueError):
            laplace_I(0, 1.0, 0.5, 2.0)


class TestDecayOrder:
    def test_case_split(self):
        assert decay_order(0.4) == 0
        assert decay_order(0.5) == 1  # boundary included
        assert decay_order(1.0) == 2
        assert decay_order(1.5) == 2
        assert decay_order(2.0) == 3
        assert decay_order(3.7) == 4

    def test_spec_validates_m(self):
        with pytest.raises(ValueError):
            DecaySpec(gamma=1.5, m=3, x_samples=np.array([1.0, 2.0]))
        sp = make_decay_spec(2.0, np.array([0.5, 2.0]))
        assert sp.m == 3


class TestVerifyKernelDecay:
    def test_definitional_ratio_is_one(self):
        g = 1.5
        b = lambda x: 1.0 / (x * np.log(x) ** g)
        spec = make_decay_spec(g, np.geomspace(math.e, 1e8, 30))
        rep = verify_kernel_decay(b, g, spec)
        row0 = rep["rows"][0]
        assert abs(row0["sup_ratio_end_inf"] - 1.0) < 1e-12
        assert math.isnan(row0["sup_ratio_end0"])
        assert rep["pass"]

    def test_decomposition_residual_passes(self):
        # the residual of the smooth/rough split should satisfy the decay
        # hypothesis with exponent alpha + 1 up to order m(2) = 3; the
        # order-0 ratio climbs logarithmically slowly toward its bounded
        # limit (~0.58) through every reachable window, so the trend
        # tolerance is widened to not flag that approach as growth
        b1 = kernel_fn(SymbolSpec("b1", alpha=1.0))
        samples = np.concatenate([np.geomspace(1e-3, 0.9, 10),
                                  np.geomspace(4.0, 300.0, 14)])
        spec = make_decay_spec(2.0, samples)
        rep = verify_kernel_decay(b1, 2.0, spec, trend_tol=0.15)
        assert rep["m"] == 3
        assert rep["pass"], rep
        assert rep["rows"][0]["sup_ratio_end_inf"] < 0.6

    def test_schwartz_kernel_vanishes_at_infinity(self):
        beta = 0.75
        kb = lambda x: beta * np.exp(-x / 2) * np.exp(-beta**2 * np.exp(-x))
        spec = make_decay_spec(1.0, np.geomspace(5.0, 60.0, 12))
        rep = verify_kernel_decay(kb, 1.0, spec)
        for row in rep["rows"]:
            assert row["trend_end_inf"] < -0.5
        assert rep["pass"]

    def test_growing_ratio_fails(self):
        b = lambda x: 1.0 / np.sqrt(x)  # too slow for gamma = 1 at infinity
        spec = make_decay_spec(1.0, np.geomspace(10.0, 1e6, 20))
        rep = verify_kernel_decay(b, 1.0, spec)
        assert not rep["rows"][0]["pass"]

    def test_gamma_mismatch(self):
        spec = make_decay_spec(1.0, np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            verify_kernel_decay(lambda x: 1 / x, 2.0, spec)


def _spec_from(plus, minus=()):
    plus = np.sort(np.asarray(plus, dtype=float))[::-1]
    minus = np.sort(np.asarray(minus, dtype=float))[::-1]
    sing = np.sort(np.concatenate([plus, minus]))[::-1]
    return Spectrum(lambda_plus=plus, lambda_minus=minus, singular=sing,
                    residuals=np.zeros(0))


class TestNegativePartDomination:
    def test_two_by_two_synthetic(self):
        # smooth part diag(1,1), residual diag(0,-1): the full matrix
        # diag(1,0) has no negative eigenvalue, the residual has one
        full = _spec_from([1.0], [])
        a1 = _spec_from([], [1.0])
        a0 = _spec_from([1.0, 1.0], [])
        rep = negative_part_domination(full, a1, a0)
        assert rep["ok"] and rep["max_excess"] <= 0.0

    def test_zero_residual(self):
        full = _spec_from([2.0, 1.0], [])
        a1 = _spec_from([], [])
        a0 = _spec_from([2.0, 1.0], [])
        assert negative_part_domination(full, a1, a0)["ok"]

    def test_violation_detected(self):
        full = _spec_from([1.0], [0.5])
        a1 = _spec_from([], [0.1])
        a0 = _spec_from([1.0], [])
        rep = negative_part_domination(full, a1, a0)
        assert not rep["ok"]
        assert rep["max_excess"] == pytest.approx(0.4)

    def test_noise_negatives_not_counted(self):
        # negatives under 1e-8 * lambda_1^+ are rounding noise: neither
        # counted nor compared, on either side
        full = _spec_from([1e3, 1.0], [2.0, 1e-6])
        a1 = _spec_from([1.0], [2.0, 2e-7])
        rep = negative_part_domination(full, a1, _spec_from([1e3], []))
        assert rep["n_checked"] == 1
        assert rep["ok"] and rep["max_excess"] == 0.0
        # the same negatives against lambda_1^+ = 1 are genuine
        full = _spec_from([1.0], [2.0, 1e-6])
        rep = negative_part_domination(full, a1, _spec_from([1.0], []))
        assert rep["n_checked"] == 2
        assert not rep["ok"]
        assert rep["max_excess"] == pytest.approx(1e-6 - 2e-7)

    def test_uncertified_smooth_part_rejected(self):
        full = _spec_from([1.0], [])
        a1 = _spec_from([], [])
        bad_a0 = _spec_from([1.0], [0.5])
        with pytest.raises(ValueError):
            negative_part_domination(full, a1, bad_a0)
