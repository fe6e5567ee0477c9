import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import helsonlab.symbols as symbols
from helsonlab.structured_ops import HelsonTruncation, build_smooth_helson
from helsonlab.symbols import (
    DomainError, SymbolSpec, a0_quadrature, b0_quadrature, chi_cutoff,
    eval_symbol, kernel_fn, sequence_values, smoothstep, zeta1,
)

E = math.e

# high-precision reference values, frozen before the implementation
KAPPA2 = 0.2217352921445288513528813403386303846716  # unused here, pinned in asymptotics tests
A16_ALPHA1 = 0.08841937739911267588598072949360357900654
B0_AT_2 = 0.2114980746592437355169383743007445874051
B0_AT_20 = 0.01579562261569273927110749151827079324191
A0_AT_100 = 0.0108284398948359472695576676800445514834


class TestSpecValidation:
    @pytest.mark.parametrize("kw", [dict(alpha=0.0), dict(alpha=-1.0)])
    def test_invalid_fields_raise(self, kw):
        with pytest.raises(ValueError):
            SymbolSpec("helson_a", **kw)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SymbolSpec("not_a_kind")

    def test_custom_needs_fn(self):
        # the custom kind and its fn field are gone: an ad-hoc symbol is a
        # plain callable
        with pytest.raises(ValueError, match="'custom'"):
            SymbolSpec("custom")
        with pytest.raises(TypeError):
            SymbolSpec("helson_a", fn=lambda t: 1.0 / t)

    def test_weight_spec_refused_by_name(self):
        # alpha fixes the weight: a spec holds a kind and alpha only
        assert [f.name for f in dataclasses.fields(SymbolSpec)] == \
            ["kind", "alpha"]
        with pytest.raises(ValueError, match="'weight_w'"):
            SymbolSpec("weight_w")


class TestEvalSymbol:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_helson_a_at_e_to_e_is_alpha_free(self, alpha):
        # log log (e^e) = 1, so the alpha factor drops out
        val = eval_symbol(SymbolSpec("helson_a", alpha=alpha), E ** E)
        assert val == pytest.approx(math.exp(-E / 2) / E, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_hankel_b_at_e_is_alpha_free(self, alpha):
        val = eval_symbol(SymbolSpec("hankel_b", alpha=alpha), E)
        assert val == pytest.approx(1.0 / E, rel=1e-14)

    def test_helson_a_domain_error(self):
        spec = SymbolSpec("helson_a")
        for t in (0.5, 1.0, E):
            with pytest.raises(DomainError):
                eval_symbol(spec, t)

    def test_hankel_b_domain_error(self):
        with pytest.raises(DomainError):
            eval_symbol(SymbolSpec("hankel_b"), 1.0)

    def test_weight_w_plateau_value(self):
        # |log(e^-2)| = 2 and chi = 1 below CHI_LO
        val = symbols._weight_values(1.0, math.exp(-2))
        assert val == pytest.approx(0.5, rel=1e-14)

    def test_weight_w_vanishes_past_chi_hi(self):
        assert symbols._weight_values(1.0, 0.75) == 0.0
        assert symbols._weight_values(1.0, 0.9) == 0.0
        assert symbols._weight_values(1.0, 0.0) == 0.0

    def test_weight_w_midband_uses_smoothstep(self):
        # chi(1/2) = 1/2 exactly by symmetry of the gluing
        assert chi_cutoff(0.5) == pytest.approx(0.5, abs=1e-15)
        assert symbols._weight_values(1.0, 0.5) == pytest.approx(
            0.5 / math.log(2), rel=1e-13)

    def test_conjugation_identity(self):
        # b(x) = e^{x/2} a(e^x) wherever both closed forms are real
        a = SymbolSpec("helson_a", alpha=1.5)
        b = SymbolSpec("hankel_b", alpha=1.5)
        for x in np.linspace(math.log(16.0), 40.0, 50):
            lhs = eval_symbol(b, x)
            rhs = math.exp(x / 2) * eval_symbol(a, math.exp(x))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_helson_a_monotone_decay(self):
        spec = SymbolSpec("helson_a", alpha=1.0)
        t = np.geomspace(16.0, 1e6, 200)
        vals = eval_symbol(spec, t)
        assert np.all(np.diff(vals) < 0)


class TestSmoothstep:
    def test_endpoints_and_midpoint(self):
        assert smoothstep(-1.0) == 0.0
        assert smoothstep(0.0) == 0.0
        assert smoothstep(1.0) == 1.0
        assert smoothstep(2.0) == 1.0
        assert smoothstep(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        s = np.linspace(-0.5, 1.5, 400)
        v = smoothstep(s)
        assert np.all(np.diff(v) >= 0)


class TestRestrict:
    def test_index_one_is_zero(self):
        for kind in ("helson_a", "hankel_b"):
            assert sequence_values(SymbolSpec(kind), np.arange(1, 9))[0] == 0.0

    def test_helson_head_convention(self):
        # closed form applies from j = 3; j = 1, 2 are the zeroed head
        seq = sequence_values(SymbolSpec("helson_a", alpha=1.0),
                              np.arange(1, 17))
        assert seq[1] == 0.0
        assert seq[2] > 0.0

    def test_helson_a_at_16_high_precision(self):
        seq = sequence_values(SymbolSpec("helson_a", alpha=1.0),
                              np.arange(1, 17))
        assert seq[15] == pytest.approx(A16_ALPHA1, rel=1e-14)

    def test_gram_flavor_keeps_genuine_head(self):
        # the smooth section holds the genuine a0(jk) at every product,
        # jk = 1 included, where a0(1) is the integral of the weight
        spec = SymbolSpec("helson_a")
        A = build_smooth_helson(spec, 48).dense()
        lam = np.linspace(0.0, symbols.CHI_HI, 200001)
        want = np.trapezoid(_weight_values_for_test(spec.alpha, lam), lam)
        assert A[0, 0] == pytest.approx(want, rel=1e-5)
        n = np.arange(1, 49)
        prod = np.multiply.outer(n, n).astype(float)
        np.testing.assert_allclose(A, a0_quadrature(spec.alpha, prod),
                                   rtol=1e-13, atol=0.0)
        # the restriction convention still zeroes the head for every kind
        assert sequence_values(SymbolSpec("a0"), np.array([1]))[0] == 0.0

    def test_gram_flavor_section_is_positive(self):
        # the whole point of the genuine head: the smooth section is a
        # Gram matrix, numerically PSD; the restriction-head section is
        # visibly indefinite
        spec = SymbolSpec("helson_a")
        ev = np.linalg.eigvalsh(build_smooth_helson(spec, 48).dense())
        assert ev[0] >= -1e-13 * ev[-1]
        A_r = HelsonTruncation(SymbolSpec("a0"), 48).dense()
        assert np.linalg.eigvalsh(A_r)[0] < -1e-3 * ev[-1]


def _weight_values_for_test(alpha: float, lam: np.ndarray) -> np.ndarray:
    # direct re-evaluation of the parametric weight with its band
    # (0.25, 0.75), bypassing the package quadrature machinery
    out = np.zeros_like(lam)
    inside = (lam > 0) & (lam < 0.75)
    li = lam[inside]
    out[inside] = np.abs(np.log(li)) ** (-alpha) * smoothstep(
        (0.75 - li) / 0.5)
    return out


class TestA0Quadrature:
    def test_unit_weight_closed_form(self):
        # integral of t^{-1/2-l} over l in [0,1] = t^{-1/2}(1-1/t)/log t,
        # by a0_quadrature's two parts, gauss_panels and the Laplace sum,
        # with w = 1
        t = E ** 2
        want = math.exp(-1.0) * (1 - math.exp(-2.0)) / 2.0
        x, om = symbols.gauss_panels(np.linspace(0.0, 1.0, 5), 20)
        got = t ** -0.5 * symbols._laplace_sum(math.log(t), x, om)
        assert float(got) == pytest.approx(want, rel=1e-12)

    def test_zero_weight(self):
        x, om = symbols.gauss_panels([0.0, 1.0], 20)
        got = symbols._laplace_sum(np.log([2.0, 10.0, 1e6]), x, 0.0 * om)
        assert np.all(got == 0.0)

    def test_vector_matches_scalar_loop(self):
        ts = np.array([1.5, 7.0, 100.0, 1e6])
        vec = a0_quadrature(1.0, ts)
        sca = np.array([a0_quadrature(1.0, float(t)) for t in ts])
        assert np.max(np.abs(vec - sca)) <= 1e-15

    def test_doubling_differences_decrease(self):
        t = 50.0
        vals = [a0_quadrature(1.0, t, Q=q) for q in (250, 500, 1000, 2000)]
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[0] >= diffs[1] >= diffs[2] or max(diffs) < 1e-14

    def test_against_independent_quadrature_oracle(self):
        assert a0_quadrature(1.0, 100.0, Q=2000) == pytest.approx(
            A0_AT_100, rel=1e-10)

    def test_laplace_asymptotics_ratio_small_alpha(self):
        # a0(t) / [t^{-1/2} (log t)^{-1} (log log t)^{-alpha}] -> 1; for
        # alpha = 1/2 the approach is already monotone at these t
        a = SymbolSpec("helson_a", alpha=0.5)
        ratios = [a0_quadrature(0.5, t) / eval_symbol(a, t)
                  for t in (1e6, 1e12, 1e24)]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert abs(1 - ratios[2]) < abs(1 - ratios[1]) < abs(1 - ratios[0])

    def test_laplace_asymptotics_ratio_default_alpha(self):
        # for alpha = 1 the second-order correction changes sign: the
        # ratio dips near t ~ 1e24 (min about 0.938) before the slow rise
        # to 1, so monotonicity only sets in past the dip
        a = SymbolSpec("helson_a", alpha=1.0)
        near = [a0_quadrature(1.0, t) / eval_symbol(a, t)
                for t in (1e6, 1e12, 1e24)]
        assert all(0.9 < r < 1.0 for r in near)
        far = [a0_quadrature(1.0, t) / eval_symbol(a, t)
               for t in (1e24, 1e96, 1e300)]
        assert far[0] < far[1] < far[2] < 1.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            a0_quadrature(1.0, 0.5)
        # alpha is checked as SymbolSpec checks it
        for alpha in (0.0, math.nan):
            with pytest.raises(ValueError, match="alpha must be positive"):
                a0_quadrature(alpha, 2.0)


class TestWeightRule:
    def test_panels_stay_inside_a_shifted_support(self):
        # w = 1 on (0.5, 1), on panels halving toward 0.5 as the weight
        # rule's halve toward 0: the masses sum to the support's length
        # and every node lies in it, so the rule integrates l^2 to 7/24
        edges = 0.5 + 0.5 * np.concatenate([[0.0],
                                            0.5 ** np.arange(44, -1, -1)])
        x, om = symbols.gauss_panels(edges, 11)
        assert 0.5 < x.min() and x.max() < 1.0
        assert om.sum() == pytest.approx(0.5, rel=1e-14)
        assert om @ x ** 2 == pytest.approx(7.0 / 24.0, rel=1e-14)
        # a0 over it: integral of t^(-1/2-l) on (0.5, 1) in closed form
        t = 10.0
        want = (t ** -1.0 - t ** -1.5) / math.log(t)
        got = t ** -0.5 * symbols._laplace_sum(math.log(t), x, om)
        assert float(got) == pytest.approx(want, rel=1e-13)

    def test_band_edges_are_panel_edges(self):
        # no panel straddles CHI_LO, and the last one ends at CHI_HI: the
        # rule's plain Gauss weights (its masses over w, which is 1/|log l|
        # below CHI_LO) sum to CHI_LO there
        edges = symbols._rule_edges()
        assert symbols.CHI_LO in edges
        assert edges[0] == 0.0 and edges[-1] == symbols.CHI_HI
        x, om = symbols._weight_rule(1.0, symbols.RULE_NODES)
        assert x.size == symbols.RULE_NODES <= 650
        assert x.max() < symbols.CHI_HI
        below = x < symbols.CHI_LO
        plain = om[below] * np.abs(np.log(x[below]))
        assert plain.sum() == pytest.approx(symbols.CHI_LO, rel=1e-14)

    def test_keeps_exactly_q_nodes(self):
        # Q need not be a multiple of the panel count
        panels = symbols._rule_edges().size - 1
        for Q in (2 * panels, 617, 1000):
            x, om = symbols._weight_rule(2.0, Q)
            assert x.size == om.size == Q
            assert np.all(np.diff(x) > 0)
        with pytest.raises(ValueError, match="two per panel"):
            symbols._weight_rule(2.0, 2 * panels - 1)

    def test_gauss_panels_per_panel_counts(self):
        # 2 and 5 nodes on [0, 1] and [1, 3]: both panels are exact for
        # cubics, so the rule integrates x^3 over [0, 3] to 81/4
        x, wt = symbols.gauss_panels([0.0, 1.0, 3.0], [2, 5])
        assert x.size == 7 and np.all((x[:2] < 1.0) & (x[:2] > 0.0))
        assert wt.sum() == pytest.approx(3.0, rel=1e-15)
        assert wt @ x ** 3 == pytest.approx(81.0 / 4.0, rel=1e-14)


class TestWeightRuleAccuracy:
    # points x = log t: at most 60 the bound is 5e-15 relative, up to
    # X_MAX = 700 it is 1e-14
    NEAR = (0.0, 0.5, 2.0, 7.0, 20.0, 60.0)
    FAR = (150.0, 400.0, 700.0)

    @staticmethod
    def laplace_reference(mp, alpha, x):
        """integral of e^(-x l) w(l) dl at 20 digits, split where the
        integrand changes scale: 4^k / x below CHI_LO and the band."""
        def w(lam):
            if lam >= 0.75:
                return mp.mpf(0)
            val = (-mp.log(lam)) ** (-alpha)
            if lam <= 0.25:
                return val
            s = 2 * (0.75 - lam)
            a, b = mp.exp(-1 / s), mp.exp(-1 / (1 - s))
            return val * a / (a + b)

        cuts = [mp.mpf(0)]
        while x > 0 and 4 ** len(cuts) / x < 0.25:
            cuts.append(4 ** len(cuts) / x)
        cuts += [mp.mpf(0.25), mp.mpf(0.5), mp.mpf(0.75)]
        return mp.quad(lambda lam: mp.exp(-x * lam) * w(lam), cuts)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_a0_and_b0_against_mpmath(self, alpha):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            for x in self.NEAR + self.FAR:
                tol = 5e-15 if x <= 60.0 else 1e-14
                t = math.exp(x)
                ref_a0 = self.laplace_reference(mp, alpha, mp.log(t)) \
                    / mp.sqrt(t)
                assert abs(a0_quadrature(alpha, t) / ref_a0 - 1) <= tol, x
                if x > 0:
                    ref_b0 = self.laplace_reference(mp, alpha, mp.mpf(x))
                    assert abs(b0_quadrature(alpha, x) / ref_b0 - 1) <= tol, x


class TestLaplaceSum:
    def test_holds_one_block_and_matches_one_shot_formula(self):
        # 20k points x RULE_NODES = 605 nodes is 97 MB of exponentials;
        # the sum may hold one _BLOCK_BYTES buffer and its output at a time
        x = np.linspace(0.0, 40.0, 20000)
        nodes, om = symbols._weight_rule(1.0, symbols.RULE_NODES)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = symbols._laplace_sum(x, nodes, om)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 1 MB of slack covers the ufunc's own iteration buffers (~128 kB)
        assert peak <= symbols._BLOCK_BYTES + got.nbytes + (1 << 20)
        # one-shot formula on every 7th point, which reaches every block
        sub = slice(None, None, 7)
        want = np.exp(-np.multiply.outer(x[sub], nodes)) @ om
        np.testing.assert_allclose(got[sub], want, rtol=1e-15, atol=0.0)


class TestB0Quadrature:
    def test_frozen_oracle_values(self):
        assert b0_quadrature(1.0, 2.0) == pytest.approx(B0_AT_2, rel=1e-10)
        assert b0_quadrature(1.0, 20.0) == pytest.approx(B0_AT_20, rel=1e-10)

    def test_matches_a0_under_change_of_variable(self):
        # b0(x) = e^{x/2} a0(e^x)
        for x in (1.0, 3.0, 10.0):
            lhs = b0_quadrature(1.0, x)
            rhs = math.exp(x / 2) * a0_quadrature(1.0, math.exp(x))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestA1Residual:
    def test_normalized_residual_bounded(self):
        # the rough part a1 = a - a0 decays faster than a by (log log t)^-1:
        # |a1(t)| t^{1/2} (log t)(log log t)^2 stays bounded for alpha = 1
        a = SymbolSpec("helson_a", alpha=1.0)
        vals = []
        for t in (1e3, 1e6, 1e9, 1e12):
            r = abs(eval_symbol(a, t) - a0_quadrature(1.0, t))
            vals.append(r * math.sqrt(t) * math.log(t) * math.log(math.log(t)) ** 2)
        assert max(vals) < 10.0


class TestZeta1:
    def test_basel_values(self):
        assert zeta1(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-13)
        assert zeta1(3.0) == pytest.approx(math.pi ** 4 / 90, abs=1e-13)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_elementary_bound(self, x):
        v = zeta1(x)
        assert 0.0 <= v - 1.0 <= 1.0 / x

    def test_against_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-2, 1e3, 60)
        ours = zeta1(xs)
        for x, v in zip(xs, ours):
            ref = float(mp.zeta(1.0 + x))
            assert abs(v - ref) <= 1e-12

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            zeta1(0.0)

    def test_holds_one_block_and_keeps_its_values(self, monkeypatch):
        # 50k points x 63 terms is 25 MB of partial sums in one shot; in
        # 1 MB blocks the evaluation holds one block plus a few per-point
        # arrays, and every value is bitwise the one-shot one
        x = np.linspace(0.01, 5.0, 50000).reshape(250, 200)
        monkeypatch.setattr(symbols, "_BLOCK_BYTES", 1 << 40)
        one_shot = zeta1(x)
        monkeypatch.setattr(symbols, "_BLOCK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = zeta1(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got.shape == x.shape
        assert np.array_equal(got, one_shot)
        assert peak <= (1 << 20) + 8 * x.nbytes + (1 << 20)


class TestKernelContracts:
    def test_helson_kernel_activates_at_t0(self):
        assert symbols.T0 == 16.0
        f = kernel_fn(SymbolSpec("helson_a", alpha=1.0))
        assert f(15.9) == 0.0
        assert f(16.0) == pytest.approx(
            eval_symbol(SymbolSpec("helson_a", alpha=1.0), 16.0), rel=1e-14)

    def test_kernel_conjugation_exact_everywhere(self):
        spec_a = SymbolSpec("helson_a", alpha=1.0)
        spec_b = SymbolSpec("hankel_b", alpha=1.0)
        fa, fb = kernel_fn(spec_a), kernel_fn(spec_b)
        x = np.array([0.5, 2.0, 2.76, 2.78, 5.0, 100.0])
        lhs = fb(x)
        rhs = np.exp(x / 2) * fa(np.exp(x))
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=0.0)

    def test_b_kernel_finite_past_float_overflow_of_exp(self):
        fb = kernel_fn(SymbolSpec("hankel_b", alpha=1.0))
        x = np.array([800.0, 1100.0])
        v = fb(x)
        assert np.all(np.isfinite(v)) and np.all(v > 0)
        assert v[0] == pytest.approx(1.0 / (800.0 * math.log(800.0)), rel=1e-13)

    def test_a0_kernel_positive_at_one(self):
        # the smooth part carries mass at t = 1: entry (1,1) of its matrix
        assert a0_quadrature(1.0, 1.0) > 0.1

    @pytest.mark.parametrize("kind", ["weight_w", "a0", "b0"])
    def test_only_full_symbols_have_a_kernel_fn(self, kind):
        with pytest.raises(ValueError, match=repr(kind)):
            kernel_fn(SymbolSpec(kind, alpha=1.0))

    def test_custom_spec_is_no_symbol(self):
        # an ad-hoc symbol is a plain callable, never a spec
        with pytest.raises(ValueError, match="'custom'"):
            SymbolSpec("custom")
