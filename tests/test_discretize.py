"""Grids, Nystrom sections, the change of variable, and the factorization."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import helsonlab.discretize as discretize
import helsonlab.structured_ops as structured_ops
import helsonlab.symbols as symbols
from helsonlab.asymptotics import kappa
from helsonlab.discretize import (
    ConstructionError, Grid, NystromOperator, certified_count,
    certified_floor, factor_N_dense, log_window_smooth_section, make_grid,
    nystrom_hankel, nystrom_helson, v_matched_grids, weighted_operator,
    weyl_count, window_nodes,
)
from helsonlab.eigen import dense_eig_oracle, lanczos_extreme
from helsonlab.structured_ops import dense_matrix, toeplitz_section
from helsonlab.symbols import (SymbolSpec, _weight_values, a0_quadrature,
                               b0_quadrature, chi_cutoff, kernel_fn, zeta1)

RNG = np.random.default_rng(7)


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


# ---------------------------------------------------------------------------
# grids


class TestMakeGrid:
    def test_uniform_two_point_weights(self):
        g = make_grid((0.0, 1.0), 2, "uniform")
        assert g.nodes.tolist() == [0.0, 1.0]
        assert g.weights.tolist() == [0.5, 0.5]

    def test_geometric_two_point_weights(self):
        g = make_grid((1.0, math.e), 2, "geometric")
        assert g.nodes.tolist() == [1.0, math.e]
        # log-step is 1, weights h*x with halved ends
        assert np.allclose(g.weights, [0.5, 0.5 * math.e], rtol=1e-15)

    def test_uniform_weights_sum_to_length(self):
        g = make_grid((0.0, 3.0), 301, "uniform")
        assert abs(g.weights.sum() - 3.0) < 1e-12

    def test_gauss_weights_sum_to_length(self):
        g = make_grid((0.25, 2.0), 200, "gauss")
        assert abs(g.weights.sum() - 1.75) < 1e-13

    def test_gauss_polynomial_exactness(self):
        g = make_grid((0.0, 1.0), 32, "gauss")
        val = g.weights @ g.nodes**5
        assert abs(val - 1.0 / 6.0) < 1e-14

    def test_geometric_quadrature_converges(self):
        # integral of 1 dt on [1, e] is e - 1; trapezoid in log, order 2
        errs = []
        for n in (51, 101, 201):
            g = make_grid((1.0, math.e), n, "geometric")
            errs.append(abs(g.weights.sum() - (math.e - 1.0)))
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_uniform_trapezoid_order_two(self):
        errs = []
        for n in (17, 33, 65):
            g = make_grid((0.0, 1.0), n, "uniform")
            errs.append(abs(g.weights @ np.exp(g.nodes) - (math.e - 1.0)))
        assert errs[0] / errs[1] > 3.8
        assert errs[1] / errs[2] > 3.8

    def test_gauss_node_count_exact(self):
        for n in (33, 64, 100, 2000):
            g = make_grid((0.0, 1.0), n, "gauss")
            assert g.n == n
            assert np.all(np.diff(g.nodes) > 0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_grid((1.0, 1.0), 8)
        with pytest.raises(ValueError):
            make_grid((0.0, 1.0), 1)
        with pytest.raises(ValueError):
            make_grid((0.0, 1.0), 8, "geometric")
        with pytest.raises(ValueError):
            make_grid((0.0, 1.0), 8, "chebyshev")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]),
                 domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            Grid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]),
                 domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            Grid(nodes=np.array([0.0, 2.0]), weights=np.array([1.0, 1.0]),
                 domain=(0.0, 1.0))


# ---------------------------------------------------------------------------
# change of variable


class TestChangeOfVariable:
    # (Vf)(t) = t^(-1/2) f(log t) on the matched pair keeps discrete
    # norms because the weights match exactly: w_t = w_x * t
    def test_constant_norm_exact(self):
        gx, gt = v_matched_grids((0.0, 4.0), 65)
        assert np.array_equal(gt.weights, gx.weights * gt.nodes)
        f = np.ones(65)
        vf = f / np.sqrt(gt.nodes)
        n_x = gx.weights @ f**2
        n_t = gt.weights @ vf**2
        assert abs(n_x - 4.0) < 1e-12
        assert abs(n_t - n_x) < 1e-12

    def test_random_norm_preserved(self):
        gx, gt = v_matched_grids((-2.0, 7.0), 129)
        assert np.array_equal(gt.weights, gx.weights * gt.nodes)
        f = RNG.standard_normal(129)
        vf = f / np.sqrt(gt.nodes)
        n_x = gx.weights @ f**2
        n_t = gt.weights @ vf**2
        assert abs(n_t - n_x) <= 1e-13 * n_x


# ---------------------------------------------------------------------------
# Nystrom sections


class TestNystromHankel:
    def test_two_by_two_exponential(self):
        g = make_grid((0.0, 1.0), 2, "uniform")
        op = nystrom_hankel(lambda x: np.exp(-x), g)
        want = 0.5 * np.exp(-np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(op.dense(), want, rtol=1e-15)

    def test_map_matches_dense(self):
        g = make_grid((0.1, 5.0), 40, "uniform")
        op = nystrom_hankel(lambda x: 1.0 / (1.0 + x), g)
        u = RNG.standard_normal(40)
        assert np.allclose(op.map.apply(u), op.dense() @ u, rtol=1e-13)

    def test_symmetry_exact(self):
        g = make_grid((0.5, 8.0), 30, "geometric")
        op = nystrom_hankel(SymbolSpec("hankel_b", alpha=1.0), g)
        M = op.dense()
        assert np.array_equal(M, M.T)

    def test_singular_kernel_needs_positive_lo(self):
        # the finite-entry check of the assembly refuses 1/x at x = 0
        g = make_grid((0.0, 1.0), 8, "uniform")
        with pytest.raises(ConstructionError):
            nystrom_hankel(lambda x: 1.0 / x, g)

    def test_node_cap(self):
        # one cap for every caller, MAX_DENSE nodes, checked before any
        # kernel value is computed
        g = make_grid((1.0, 2.0), structured_ops.MAX_DENSE + 1, "uniform")
        with pytest.raises(ConstructionError, match="capped at 4096"):
            nystrom_hankel(lambda x: np.exp(-x), g)
        with pytest.raises(ConstructionError, match="capped at 4096"):
            nystrom_helson(lambda t: 1.0 / t, g)

    def test_smooth_kernel_gram_path_matches_direct(self):
        spec = SymbolSpec("b0", alpha=1.0)
        g = make_grid((1e-4, 50.0), 96, "geometric")
        fast = nystrom_hankel(spec, g).dense()
        direct = nystrom_hankel(lambda x: b0_quadrature(1.0, x), g).dense()
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() <= 1e-13 * scale

    def test_smooth_kernel_section_is_psd(self):
        spec = SymbolSpec("b0", alpha=0.5)
        g = make_grid((1e-5, 80.0), 120, "geometric")
        M = nystrom_hankel(spec, g).dense()
        vals = np.linalg.eigvalsh(M)
        assert vals.min() >= -1e-14 * vals.max()


class TestNystromHelson:
    def test_domain_guard(self):
        g = make_grid((0.5, 4.0), 16, "geometric")
        with pytest.raises(ConstructionError):
            nystrom_helson(lambda t: 1.0 / t, g)

    def test_product_kernel_entries(self):
        g = make_grid((1.0, 4.0), 3, "geometric")
        op = nystrom_helson(lambda t: 1.0 / t, g)
        t, w = g.nodes, g.weights
        want = np.sqrt(np.outer(w, w)) / np.outer(t, t)
        assert np.allclose(op.dense(), want, rtol=1e-15)

    def test_smooth_kernel_gram_path_matches_direct(self):
        spec = SymbolSpec("a0", alpha=1.0)
        g = make_grid((1.0, 1e6), 80, "geometric")
        fast = nystrom_helson(spec, g).dense()
        direct = nystrom_helson(lambda t: a0_quadrature(1.0, t), g).dense()
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() <= 1e-13 * scale

    def test_conjugation_matched_grids_entrywise(self):
        # multiplicative section on t = e^x equals the additive section
        for alpha in (0.5, 1.0, 2.0):
            sa = SymbolSpec("helson_a", alpha=alpha)
            sb = SymbolSpec("hankel_b", alpha=alpha)
            gx, gt = v_matched_grids((0.0, 30.0), 160)
            Ma = nystrom_helson(sa, gt).dense()
            Mb = nystrom_hankel(sb, gx).dense()
            scale = np.abs(Mb).max()
            assert scale > 0
            assert np.abs(Ma - Mb).max() <= 1e-12 * scale

    def test_conjugation_spectra_agree(self):
        sa = SymbolSpec("helson_a", alpha=1.0)
        sb = SymbolSpec("hankel_b", alpha=1.0)
        gx, gt = v_matched_grids((0.0, 25.0), 220)
        ea = dense_eig_oracle(nystrom_helson(sa, gt).dense())
        eb = dense_eig_oracle(nystrom_hankel(sb, gx).dense())
        top_a = ea.lambda_plus[:10]
        top_b = eb.lambda_plus[:10]
        assert np.abs(top_a - top_b).max() <= 1e-10 * top_a[0]


class TestSideKinds:
    # a section takes callables and the kinds of its own side; the other
    # side's kinds are refused by name, the weight is no spec (SymbolSpec
    # refuses it by name), and a custom kernel is no spec
    @pytest.mark.parametrize("build, kind", [
        ("hankel", "a0"), ("hankel", "helson_a"), ("hankel", "weight_w"),
        ("helson", "b0"), ("helson", "hankel_b"), ("helson", "weight_w"),
    ])
    def test_other_sides_kind_refused_by_name(self, build, kind):
        gx, gt = v_matched_grids((0.0, 18.0), 16)
        build, grid = {"hankel": (nystrom_hankel, gx),
                       "helson": (nystrom_helson, gt)}[build]
        with pytest.raises(ValueError, match=repr(kind)):
            build(SymbolSpec(kind, alpha=1.0), grid)

    def test_callable_accepted_and_custom_refused_on_both_sides(self):
        gx, gt = v_matched_grids((0.0, 18.0), 16)
        fn = lambda x: 1.0 / (1.0 + x)  # noqa: E731
        assert nystrom_hankel(fn, gx).map.cols == 16
        assert nystrom_helson(fn, gt).map.cols == 16
        for build, grid in ((nystrom_hankel, gx), (nystrom_helson, gt)):
            with pytest.raises(ValueError, match="'custom'"):
                build(SymbolSpec("custom"), grid)


class TestDifferenceKernels:
    # a - a0 and b - b0 are sectioned as the closed-form full kernel minus
    # the Gram product of the smooth part, on one grid

    @staticmethod
    def _difference(build, grid, full, smooth, alpha):
        return discretize.nystrom_difference(
            build(SymbolSpec(full, alpha=alpha), grid),
            build(SymbolSpec(smooth, alpha=alpha), grid))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_gram_difference_matches_direct(self, alpha):
        gx, gt = v_matched_grids((0.0, 30.0), 160)
        fa = kernel_fn(SymbolSpec("helson_a", alpha=alpha))
        fb = kernel_fn(SymbolSpec("hankel_b", alpha=alpha))
        rule = symbols._weight_rule(alpha, symbols.RULE_NODES)
        # callable kernels take the entrywise quadrature path; the sum
        # side's Laplace sum is taken directly, since x = 0 is on gx
        rough = {"a": lambda t: fa(t) - a0_quadrature(alpha, t),
                 "b": lambda x: fb(x) - symbols._laplace_sum(x, *rule)}
        sections = {}
        for kind, build, g, full, smooth in (
                ("a", nystrom_helson, gt, "helson_a", "a0"),
                ("b", nystrom_hankel, gx, "hankel_b", "b0")):
            M = self._difference(build, g, full, smooth, alpha).dense()
            direct = build(rough[kind], g).dense()
            scale = np.abs(direct).max()
            assert np.abs(M - direct).max() <= 1e-13 * scale, kind
            assert np.array_equal(M, M.T), kind
            sections[kind] = M
        scale = np.abs(sections["b"]).max()
        assert np.abs(sections["a"] - sections["b"]).max() <= 1e-12 * scale

    def test_no_per_entry_laplace_sums(self, monkeypatch):
        calls = []
        orig = symbols._laplace_sum

        def counted(*args):
            calls.append(1)
            return orig(*args)

        monkeypatch.setattr(symbols, "_laplace_sum", counted)
        gx, gt = v_matched_grids((0.0, 30.0), 600)
        self._difference(nystrom_helson, gt, "helson_a", "a0", 0.5)
        self._difference(nystrom_hankel, gx, "hankel_b", "b0", 0.5)
        assert calls == []

    def test_grids_must_match(self):
        gx, _ = v_matched_grids((0.0, 30.0), 40)
        other = make_grid((0.0, 30.0), 40)
        with pytest.raises(ValueError, match="different grids"):
            discretize.nystrom_difference(
                nystrom_hankel(SymbolSpec("hankel_b", alpha=1.0), gx),
                nystrom_hankel(SymbolSpec("b0", alpha=1.0), other))


# ---------------------------------------------------------------------------
# factorization of the smooth part


class TestFactorMatrix:
    def test_integer_side_product_closed_form(self):
        # the factor's form over w = 1 on [0,1] by gauss_panels: entry
        # (j,k) of F F^T = (jk)^(-1/2) * (1 - 1/(jk)) / log(jk), and 1 at
        # (1,1)
        x, om = symbols.gauss_panels(np.linspace(0.0, 1.0, 9), 32)
        J = 16
        F = structured_ops._dirichlet_factor(
            np.arange(1, J + 1, dtype=float), x, np.log(om))
        P = F @ F.T
        jj = np.arange(1, J + 1, dtype=float)
        pr = np.outer(jj, jj)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = (1.0 - 1.0 / pr) / (np.sqrt(pr) * np.log(pr))
        want[0, 0] = 1.0
        assert np.abs(P - want).max() < 1e-12

    def test_rows_reproduce_the_smooth_part(self):
        # F F^T is the section [a0(jk)] to the grid's accuracy
        g = make_grid((1e-12, 0.75), 2000, "geometric")
        F = factor_N_dense(1.0, 32, g)
        n = np.arange(1, 33)
        want = a0_quadrature(1.0, np.multiply.outer(n, n).astype(float))
        assert np.abs(F @ F.T - want).max() <= 1e-8

    def test_shared_nonzero_spectrum(self):
        # the two products of the same rectangular factor share every
        # nonzero eigenvalue
        g = make_grid((1e-8, 0.75), 200, "geometric")
        J = 24
        F = factor_N_dense(1.0, J, g)
        P, Q = F @ F.T, F.T @ F
        ep = np.linalg.eigvalsh(P)[::-1][:J]
        eq = np.linalg.eigvalsh(Q)[::-1][:J]
        assert np.abs(ep - eq).max() <= 1e-12 * max(ep[0], 1.0)

    def test_support_coverage_enforced(self):
        # the grid must reach CHI_HI and start in the bottom 5% of
        # supp w = [0, CHI_HI]
        with pytest.raises(ConstructionError, match="weight support"):
            factor_N_dense(1.0, 8, make_grid((0.3, 0.8), 32, "gauss"))
        with pytest.raises(ConstructionError, match="weight support"):
            factor_N_dense(1.0, 8, make_grid((0.0, 0.5), 32, "gauss"))
        # a sliver missing at the vanishing lower edge is fine
        factor_N_dense(1.0, 8, make_grid((1e-8, 0.75), 64, "geometric"))

    def test_quadrature_side_is_weighted_zeta_section(self):
        # F^T F converges to the weighted zeta section as the integer
        # truncation grows; between the nodes in [0.5, 0.75], where the
        # kernel's argument is at least 1, the tail decays like 1/J
        g = make_grid((1e-6, 0.75), 48, "gauss")
        top = np.ix_(g.nodes >= 0.5, g.nodes >= 0.5)
        Z = weighted_operator("zeta1", 1.0, g).dense()
        errs = []
        for J in (2048, 4096, 8192):
            F = factor_N_dense(1.0, J, g)
            Q = F.T @ F
            errs.append(np.abs(Q - Z)[top].max())
        assert errs[-1] <= 1e-5
        assert 1.6 <= errs[0] / errs[1] <= 2.4
        assert 1.6 <= errs[1] / errs[2] <= 2.4


class TestWeightedOperator:
    def test_reciprocal_kernel_entries(self):
        g = make_grid((0.1, 0.7), 3, "uniform")
        op = weighted_operator("carleman", 1.0, g)
        x, om = g.nodes, g.weights
        wom = np.abs(np.log(x)) ** -1.0 * chi_cutoff(x) * om
        want = np.sqrt(np.outer(wom, wom)) / (x[:, None] + x[None, :])
        assert np.allclose(op.dense(), want, rtol=1e-15)

    def test_zeta_section_is_psd(self):
        # zeta(1+s) is a Laplace transform of a positive measure, so the
        # weighted section must be PSD
        g = make_grid((1e-6, 0.75), 96, "geometric")
        M = weighted_operator("zeta1", 1.0, g).dense()
        vals = np.linalg.eigvalsh(M)
        assert vals.min() >= -1e-12 * vals.max()

    def test_zeta_section_is_assembled_in_blocks(self):
        # zeta1 expands every entry into its 63-term partial sum; evaluated
        # over all node pairs at once that is n^2 x 63 floats (~130 MB at
        # n = 512), in blocks of _ASSEMBLY_BUDGET entries it is ~4 MB
        g = make_grid((1e-8, 0.75), 512, "geometric")
        tracemalloc.start()
        try:
            M = weighted_operator("zeta1", 1.0, g).dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert np.all(np.isfinite(M))
        # the blocks (40 rows each at n = 200) give the entries of the
        # one-shot formula
        g = make_grid((1e-8, 0.75), 200, "geometric")
        x = g.nodes
        sq = np.sqrt(_weight_values(1.0, x) * g.weights)
        want = zeta1(np.add.outer(x, x).ravel()).reshape(x.size, x.size)
        want = sq[:, None] * want * sq[None, :]
        assert np.array_equal(weighted_operator("zeta1", 1.0, g).dense(),
                              0.5 * (want + want.T))

    def test_zero_lower_end_rejected(self):
        g = make_grid((0.0, 1.0), 16, "uniform")
        for kind in ("zeta1", "carleman"):
            with pytest.raises(ConstructionError):
                weighted_operator(kind, 1.0, g)

    def test_unknown_kind(self):
        g = make_grid((0.1, 1.0), 8, "uniform")
        with pytest.raises(ValueError):
            weighted_operator("hilbert", 1.0, g)


# ---------------------------------------------------------------------------
# wide-window section in log coordinates


def _log_window_factor(alpha, n, h=0.135, chi_lo=0.25, chi_hi=0.75):
    """Taps c_k = 1/(2 cosh(kh/2)), k < n, and weights d_q of
    log_window_smooth_section, from its docstring's formulas."""
    mu = -math.log(chi_hi) + h * np.arange(n)
    chi = symbols.smoothstep((chi_hi - np.exp(-mu)) / (chi_hi - chi_lo))
    with np.errstate(over="ignore"):
        c = 1.0 / (2.0 * np.cosh(0.5 * h * np.arange(n)))
    return c, np.sqrt(h * mu ** -alpha * chi)


def _g(d):
    """The u-window factor's kernel g(d) = e^(d/2 - e^d)."""
    return np.exp(0.5 * d - np.exp(np.minimum(d, 40.0)))


class TestCirculant:
    @pytest.mark.parametrize("N", [1, 2, 12, 300, 5000])
    @pytest.mark.parametrize("decay", [True, False])
    def test_toeplitz_matvec_matches_np_convolve(self, N, decay):
        # taps e^-k c_k, which fall below the tail mass inside windows of
        # 300 and 5000 nodes (K < N), and taps that do not (K = N): the
        # circulant of order M >= N + K keeps its wrap off every output
        c = RNG.standard_normal(N)
        if decay:
            c *= np.exp(-np.arange(N))
        d = RNG.uniform(0.5, 2.0, N)
        x = RNG.standard_normal(N)
        K = structured_ops._support(c)
        assert (K < N) if decay and N > 60 else K == N
        taps = np.concatenate([c[:0:-1], c])
        want = d * np.convolve(taps, d * x)[N - 1:2 * N - 1]
        got = toeplitz_section(c, d).apply(x)
        assert got.shape == (N,)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_block_length_is_the_smallest_5_smooth(self):
        for L in range(1, 3000):
            M = structured_ops._fft_length(L)
            assert _is_5_smooth(M) and M >= L
            assert not any(_is_5_smooth(m) for m in range(L, M))


class TestLogWindowSection:
    def test_fft_matvec_matches_materialized(self):
        for n in (160, 1000, 2048):
            op = toeplitz_section(*_log_window_factor(1.0, n))
            M = op.dense()
            assert np.array_equal(M, M.T)
            for _ in range(3):
                u = RNG.standard_normal(n)
                want = M @ u
                got = op.apply(u)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("alpha, n", [(0.5, 8192), (1.0, 16384)])
    def test_matvec_at_chain_sizes(self, alpha, n):
        # the headline sizes of both benchmark chains, where dense() is
        # refused: d * T(d * v) by one unwrapped FFT of every two-sided tap
        c, d = _log_window_factor(alpha, n)
        taps = np.concatenate([c[:0:-1], c])
        M = 1 << (taps.size + n).bit_length()
        op = toeplitz_section(c, d)
        for _ in range(2):
            v = RNG.standard_normal(n)
            full = np.fft.irfft(np.fft.rfft(taps, n=M) *
                                np.fft.rfft(d * v, n=M), n=M)
            want = d * full[n - 1:2 * n - 1]
            got = op.apply(v)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [8192, 16384])
    def test_dropped_tap_mass_within_bound(self, n):
        # Young's inequality: the dropped l1 mass bounds the change of the
        # section in operator norm, relative to the kept mass
        c, _ = _log_window_factor(1.0, n)
        K = structured_ops._support(c)
        taps = np.concatenate([c[:0:-1], c])
        # the circulant drops the taps past K on both sides of lag 0
        dropped = 2 * c[K:].sum()
        assert dropped <= 2e-20 * taps.sum()
        # the support is the kernel's, ~675 taps a side, not the window's
        assert 500 < K <= 750

    def test_taps_are_the_u_window_gram_kernel(self):
        # h sum_m g(u_m - mu) g(u_m - nu) over a wide u-grid is the
        # kernel 1/(2 cosh((mu - nu)/2)) whose taps the section holds, at
        # any offset of the u-grid against the mu-nodes
        h = discretize._LOG_STEP
        c, _ = _log_window_factor(1.0, 300)
        mu = h * np.arange(300)
        u = -100.0 + 0.37 * h + h * np.arange(int(150.0 / h))
        G = _g(u[:, None] - mu[None, :])
        gram = h * (G.T @ G)
        idx = np.arange(300)
        assert np.abs(gram - c[np.abs(idx[:, None] - idx[None, :])]).max() \
            <= 1e-13

    def test_widest_chain_section_builds_without_overflow(self):
        # at n = 16384 the taps reach t = kh = 2212, past the t ~ 1420
        # where the cosh form overflows
        with np.errstate(over="raise", invalid="raise"):
            _, c, d = discretize._log_window(1.0, 16384)
            e = np.zeros(16384)
            e[-1] = 1.0
            col = toeplitz_section(c, d).apply(e)
            twin = log_window_smooth_section(1.0, 16384).map
            out = twin.apply(RNG.standard_normal(twin.cols))
        assert np.all(np.isfinite(col)) and col[-1] > 0
        assert np.all(np.isfinite(out))

    def test_materialized_section_is_psd(self):
        op = log_window_smooth_section(0.5, 128)
        vals = np.linalg.eigvalsh(op.dense())
        assert vals.min() >= -1e-13 * vals.max()

    def test_top_eigenvalue_analytic_bound(self):
        # the smooth additive operator is dominated by sup(w) times the
        # reciprocal-kernel operator, whose norm is pi
        op = log_window_smooth_section(1.0, 512)
        spec = lanczos_extreme(op.map, k=1)
        lam1 = spec.lambda_plus[0]
        wmax = np.max(_weight_values(1.0, np.linspace(1e-6, 0.75, 20001)))
        assert 0.0 < lam1 <= math.pi * wmax * (1.0 + 1e-8)

    def test_top_eigenvalue_stable_under_window_growth(self):
        l1 = lanczos_extreme(log_window_smooth_section(1.0, 512).map, k=1)
        l2 = lanczos_extreme(log_window_smooth_section(1.0, 1024).map, k=1)
        a, b = l1.lambda_plus[0], l2.lambda_plus[0]
        assert abs(a - b) <= 1e-3 * b

    def test_window_keeps_growing_past_exp_underflow(self):
        # the last node's diagonal entry tracks W(mu_last) ~ mu_last^-alpha;
        # at n = 8192 the window reaches mu ~ 1106, where e^-mu underflows
        # and w(e^-mu) would read 0
        diag = {}
        for n in (4096, 8192):
            mu, c, d = discretize._log_window(1.0, n)
            e = np.zeros(n)
            e[-1] = 1.0
            diag[n] = (toeplitz_section(c, d).apply(e)[-1], mu[-1])
        (d4, u4), (d8, u8) = diag[4096], diag[8192]
        assert d8 == pytest.approx(d4 * (u4 / u8), rel=0.01)

    def test_dense_refused_when_not_materialized(self):
        # the explicit matrix is allowed up to MAX_DENSE and refused past
        # it, with no fall-back to one matvec per column
        n = structured_ops.MAX_DENSE
        M = toeplitz_section(*_log_window_factor(1.0, n)).dense()
        assert M.shape == (n, n)
        del M
        op = toeplitz_section(*_log_window_factor(1.0, n + 1))
        with pytest.raises(ValueError, match="beyond 4096"):
            dense_matrix(op)
        with pytest.raises(ValueError, match="beyond 4096"):
            NystromOperator(grid=make_grid((0.0, 1.0), n + 1),
                            map=op).dense()

    @pytest.mark.parametrize("n", [12, 96, 300])
    def test_short_window_solves_the_section(self, n):
        # the window ends before the taps decay, so the circulant that
        # embeds T has modes down to -4.8e-2 (n = 12) and -9.0e-5 (n = 96)
        # of its peak: no twin
        _, c, d = discretize._log_window(1.0, n)
        lm = log_window_smooth_section(1.0, n).map
        assert lm.cols == n
        assert np.array_equal(dense_matrix(lm),
                              toeplitz_section(c, d).dense())

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [700, 1024])
    def test_twin_has_the_sections_spectrum(self, alpha, n):
        _, c, d = discretize._log_window(alpha, n)
        twin = log_window_smooth_section(alpha, n).map
        assert twin.cols < n
        G = dense_matrix(twin)
        assert np.abs(G - G.T).max() <= 1e-14 * np.abs(G).max()
        got = np.linalg.eigvalsh(G)[::-1]
        want = np.linalg.eigvalsh(toeplitz_section(c, d).dense())[::-1]
        k = np.count_nonzero(got > 1e-14 * want[0])
        assert k > 200
        assert np.abs(got[:k] - want[:k]).max() <= 1e-14 * want[0]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_twin_lanczos_top_matches_the_sections_at_4096(self, alpha):
        # past the dense comparison's 1024: densifying both 4096-wide maps
        # for eigvalsh took ~9 s per alpha on one BLAS thread
        _, c, d = discretize._log_window(alpha, 4096)
        twin = log_window_smooth_section(alpha, 4096).map
        assert twin.cols < 4096
        a = lanczos_extreme(toeplitz_section(c, d), 200, seed=0)
        b = lanczos_extreme(twin, 200, seed=0)
        assert a.meta["converged"] and b.meta["converged"]
        assert np.abs(a.lambda_plus - b.lambda_plus).max() \
            <= 4e-15 * a.lambda_plus[0]

    def test_twin_lanczos_top_matches_the_sections(self):
        # the integral workload's headline, past the dense cap
        _, c, d = discretize._log_window(0.5, 8192)
        twin = log_window_smooth_section(0.5, 8192).map
        assert twin.cols < 0.6 * 8192
        a = lanczos_extreme(toeplitz_section(c, d), 200, seed=0)
        b = lanczos_extreme(twin, 200, seed=0)
        assert a.meta["converged"] and b.meta["converged"]
        assert np.abs(a.lambda_plus - b.lambda_plus).max() \
            <= 4e-15 * a.lambda_plus[0]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            log_window_smooth_section(1.0, 1)


# ---------------------------------------------------------------------------
# the turning-point certificate and the window it sizes


@functools.cache
def _window_top(alpha: float, n: int) -> np.ndarray:
    """The 200 largest eigenvalues of the n-node window, as the chain's
    headline solves them."""
    spec = lanczos_extreme(log_window_smooth_section(alpha, n).map, 200,
                           which="largest", seed=0)
    assert spec.meta["converged"]
    return spec.lambda_plus


def _certified_change(alpha: float, n: int) -> float:
    """Largest relative move of a certified eigenvalue of the n-node
    window against the 16384-node one."""
    lam, wide = _window_top(alpha, n), _window_top(alpha, 16384)
    m = certified_count(alpha, lam, n)
    return float(np.max(np.abs(lam[:m] - wide[:m]) / wide[:m]))


class TestTurningPoint:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_closed_form_past_the_band(self, alpha):
        # W = mu^-alpha past the cutoff band, which CERTIFY_SHARE mu_{n-1}
        # clears from 11 nodes on: there the closed-form turning point
        # (pi / lambda)^(1/alpha) is W's own, and the floor pi W
        for n in (11, 12, 96, 600, 8192, 16384):
            reach = discretize.CERTIFY_SHARE * discretize._node(n - 1)
            assert reach > -math.log(symbols.CHI_LO)
            assert certified_floor(alpha, n) == pytest.approx(
                math.pi * discretize._log_weight(alpha, reach), rel=1e-15)
        # at 8 nodes it lies in the band, where W < mu^-alpha: the floor
        # is higher and certifies fewer
        reach = discretize.CERTIFY_SHARE * discretize._node(7)
        assert certified_floor(alpha, 8) > \
            math.pi * discretize._log_weight(alpha, reach)

    def test_edges(self):
        # a lambda <= 0 never turns, so no window certifies it, nor any
        # eigenvalue after it
        for n in (2, 12, 8192):
            f = certified_floor(1.0, n)
            assert certified_count(1.0, [0.0], n) == 0
            assert certified_count(1.0, [3 * f, -f, 2 * f], n) == 1
            assert certified_count(1.0, [], n) == 0

    def test_monotone_along_a_spectrum(self):
        # turning points grow along a falling spectrum, so a wider window
        # certifies a longer head of it
        lam = np.geomspace(2.0, 1e-4, 500)
        counts = [certified_count(1.0, lam, n) for n in range(2, 2000, 7)]
        assert np.all(np.diff(counts) >= 0) and counts[-1] > counts[0]


class TestHeadlineCertificate:
    @pytest.mark.parametrize("alpha, onset, measured", [
        (1.0, 160, 158), (0.5, 104, 101)])
    def test_no_index_past_the_truncation_onset(self, alpha, onset,
                                                measured):
        # onset: the first index of the 8192-node window that moves by
        # more than 1e-12 (alpha = 1) or 1e-8 (alpha = 0.5) against the
        # 16384-node window
        lam, wide = _window_top(alpha, 8192), _window_top(alpha, 16384)
        moved = np.abs(lam - wide) / wide
        tol = 1e-12 if alpha == 1.0 else 1e-8
        assert int(np.argmax(moved > tol)) + 1 == onset
        m = certified_count(alpha, lam, 8192)
        assert measured - 5 <= m < onset

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_certified_indices_agree_with_a_wider_window(self, alpha):
        # measured: at most 5.9e-11 (alpha = 0.5)
        assert _certified_change(alpha, 8192) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_certifying_the_whole_window_fails(self, alpha, monkeypatch):
        # the mutation: every returned index passes the certificate
        monkeypatch.setattr(discretize, "CERTIFY_SHARE", 1e9)
        assert certified_count(alpha, _window_top(alpha, 8192), 8192) == 200
        assert _certified_change(alpha, 8192) > 1e-8

    @pytest.mark.parametrize("alpha, want", [(1.0, 10342), (0.5, 16246)])
    def test_window_sized_for_the_fit_windows_top(self, alpha, want):
        n = window_nodes(alpha, 200)
        assert n == want
        # the last node reaches mu* / CERTIFY_SHARE, the one before not,
        # mu* the turning point of the Weyl estimate kappa 200^-alpha
        mu = discretize._log_window(alpha, n)[0]
        lam = kappa(alpha) * 200.0 ** -alpha
        reach = (math.pi / lam) ** (1 / alpha) / discretize.CERTIFY_SHARE
        assert mu[-1] >= reach > mu[-2]

    def test_sized_window_keeps_the_wider_windows_top(self):
        lam, wide = _window_top(1.0, 10342), _window_top(1.0, 16384)
        assert np.max(np.abs(lam - wide) / wide) <= 1e-12
        assert certified_count(1.0, lam, 10342) == 200

    def test_window_nodes_refuses_a_lambda_no_window_certifies(self):
        # index 0 has no eigenvalue; a real index k sizes the window for
        # kappa k^-alpha
        with pytest.raises(ValueError, match="no window"):
            window_nodes(1.0, 0)
        assert window_nodes(1.0, 1) == 51

    @pytest.mark.parametrize("alpha, n", [(0.5, 8192), (1.0, 8192),
                                          (2.0, 600), (1.0, 12), (1.0, 2)])
    def test_certified_floor_splits_certified_from_truncated(self, alpha, n):
        # on the band (n = 2) and past it: an eigenvalue just above the
        # floor is certified, one just below is not
        floor = certified_floor(alpha, n)
        assert certified_count(alpha, [floor * (1 + 1e-9)], n) == 1
        assert certified_count(alpha, [floor * (1 - 1e-9)], n) == 0

    @pytest.mark.parametrize("alpha, m", [(0.5, 101), (1.0, 158)])
    def test_weyl_count_at_the_floor_reads_the_certified_count(self, alpha,
                                                                m):
        # what the 8192-node window certifies, within one index
        floor = certified_floor(alpha, 8192)
        assert abs(weyl_count(alpha, 8192) - m) < 1
        assert weyl_count(alpha, 8192) == pytest.approx(
            (kappa(alpha) / floor) ** (1 / alpha), rel=1e-14)

    @pytest.mark.parametrize("alpha", [135.0, 150.0])
    def test_weyl_count_stays_finite_where_the_floors_power_overflows(
            self, alpha):
        # kappa / certified_floor overflows to inf from alpha = 135, and
        # kappa 200^-alpha underflows to 0 from alpha = 141; the window
        # for index 200 is sized, and counts it, without either
        n = window_nodes(alpha, 200)
        assert 100 < n < 120
        assert 200 <= weyl_count(alpha, n) < 202
