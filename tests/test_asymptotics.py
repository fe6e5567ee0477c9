"""Tail constant, fits, negative part."""

import numpy as np
import pytest

from helsonlab.asymptotics import (default_fit_window, fit_power_tail, kappa,
                                   negative_part_domination)
from helsonlab.eigen import Spectrum

# pinned by a 40-digit Gamma-product oracle before the build
KAPPA_2 = 0.2217352921445288513528813403386303846716


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
