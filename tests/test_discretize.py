"""Grids, Nystrom sections, the change of variable, and the factorization."""

import math

import numpy as np
import pytest

import helsonlab.symbols as symbols
from helsonlab.discretize import (
    ConstructionError, Grid, change_of_variable, factor_N_dense,
    log_window_smooth_section, make_grid, nystrom_hankel, nystrom_helson,
    v_matched_grids, weighted_operator,
)
from helsonlab.eigen import dense_eig_oracle, lanczos_extreme
from helsonlab.structured_ops import dense_matrix
from helsonlab.symbols import SymbolSpec, _weight_values, kernel_fn, zeta1

RNG = np.random.default_rng(7)


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
                 spacing="uniform", domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            Grid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]),
                 spacing="uniform", domain=(0.0, 1.0))
        with pytest.raises(ValueError):
            Grid(nodes=np.array([0.0, 2.0]), weights=np.array([1.0, 1.0]),
                 spacing="uniform", domain=(0.0, 1.0))

    def test_json_round_trip(self):
        g = make_grid((0.5, 40.0), 33, "geometric")
        g2 = Grid.from_json(g.to_json())
        assert g2.spacing == g.spacing
        assert np.array_equal(g2.nodes, g.nodes)
        assert np.array_equal(g2.weights, g.weights)


# ---------------------------------------------------------------------------
# change of variable


class TestChangeOfVariable:
    def test_constant_norm_exact(self):
        gx, gt = v_matched_grids((0.0, 4.0), 65)
        f = np.ones(65)
        vf = change_of_variable(f, gx, gt)
        n_x = gx.weights @ f**2
        n_t = gt.weights @ vf**2
        assert abs(n_x - 4.0) < 1e-12
        assert abs(n_t - n_x) < 1e-12

    def test_random_norm_preserved(self):
        gx, gt = v_matched_grids((-2.0, 7.0), 129)
        f = RNG.standard_normal(129)
        vf = change_of_variable(f, gx, gt)
        n_x = gx.weights @ f**2
        n_t = gt.weights @ vf**2
        assert abs(n_t - n_x) <= 1e-13 * n_x

    def test_mismatched_grids_rejected(self):
        gx = make_grid((0.0, 1.0), 9, "uniform")
        gt = make_grid((1.0, 3.0), 9, "geometric")
        with pytest.raises(ValueError):
            change_of_variable(np.ones(9), gx, gt)
        with pytest.raises(ValueError):
            change_of_variable(np.ones(5), gx, gt)


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
        g = make_grid((0.0, 1.0), 8, "uniform")
        with pytest.raises(ConstructionError):
            nystrom_hankel(SymbolSpec("carleman"), g)
        with pytest.raises(ConstructionError):
            nystrom_hankel(lambda x: 1.0 / x, g)

    def test_node_cap(self):
        g = make_grid((0.1, 1.0), 64, "uniform")
        with pytest.raises(ConstructionError):
            nystrom_hankel(lambda x: np.exp(-x), g, max_nodes=32)

    def test_smooth_kernel_gram_path_matches_direct(self):
        spec = SymbolSpec("b0", alpha=1.0)
        g = make_grid((1e-4, 50.0), 96, "geometric")
        fast = nystrom_hankel(spec, g).dense()
        direct = nystrom_hankel(kernel_fn(spec), g).dense()
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
        direct = nystrom_helson(kernel_fn(spec), g).dense()
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


class TestDifferenceKernels:
    # a1 = a - a0 and b1 = b - b0 are sectioned as the closed-form full
    # kernel minus the Gram factor of the smooth part

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_gram_difference_matches_direct(self, alpha):
        gx, gt = v_matched_grids((0.0, 30.0), 160)
        sections = {}
        for kind, build, g in (("a1", nystrom_helson, gt),
                               ("b1", nystrom_hankel, gx)):
            spec = SymbolSpec(kind, alpha=alpha)
            M = build(spec, g).dense()
            # a callable kernel takes the entrywise quadrature path
            direct = build(kernel_fn(spec), g).dense()
            scale = np.abs(direct).max()
            assert np.abs(M - direct).max() <= 1e-13 * scale, kind
            assert np.array_equal(M, M.T), kind
            sections[kind] = M
        scale = np.abs(sections["b1"]).max()
        assert np.abs(sections["a1"] - sections["b1"]).max() <= 1e-12 * scale

    def test_no_per_entry_laplace_sums(self, monkeypatch):
        calls = []
        orig = symbols._laplace_sum

        def counted(*args):
            calls.append(1)
            return orig(*args)

        monkeypatch.setattr(symbols, "_laplace_sum", counted)
        gx, gt = v_matched_grids((0.0, 30.0), 600)
        nystrom_helson(SymbolSpec("a1", alpha=0.5), gt)
        nystrom_hankel(SymbolSpec("b1", alpha=0.5), gx)
        assert calls == []


# ---------------------------------------------------------------------------
# factorization of the smooth part


def _unit_weight(support=(0.0, 1.0)):
    return SymbolSpec("custom", fn=lambda lam: np.ones_like(lam),
                      support=support)


class TestFactorMatrix:
    def test_integer_side_product_closed_form(self):
        # rows F F^T over the unit weight on [0,1]:
        # entry (j,k) = (jk)^(-1/2) * (1 - 1/(jk)) / log(jk), and 1 at (1,1)
        g = make_grid((0.0, 1.0), 256, "gauss")
        J = 16
        F = factor_N_dense(_unit_weight(), J, g)
        P = F @ F.T
        jj = np.arange(1, J + 1, dtype=float)
        pr = np.outer(jj, jj)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = (1.0 - 1.0 / pr) / (np.sqrt(pr) * np.log(pr))
        want[0, 0] = 1.0
        assert np.abs(P - want).max() < 1e-12

    def test_shared_nonzero_spectrum(self):
        # the two products of the same rectangular factor share every
        # nonzero eigenvalue
        g = make_grid((0.0, 1.0), 200, "gauss")
        J = 24
        F = factor_N_dense(_unit_weight(), J, g)
        P, Q = F @ F.T, F.T @ F
        ep = np.linalg.eigvalsh(P)[::-1][:J]
        eq = np.linalg.eigvalsh(Q)[::-1][:J]
        assert np.abs(ep - eq).max() <= 1e-12 * max(ep[0], 1.0)

    def test_support_coverage_enforced(self):
        with pytest.raises(ConstructionError):
            factor_N_dense(_unit_weight(), 8, make_grid((0.3, 0.8), 32, "gauss"))
        with pytest.raises(ConstructionError):
            factor_N_dense(_unit_weight(), 8, make_grid((0.0, 0.5), 32, "gauss"))
        # a sliver missing at the vanishing lower edge is fine
        w = SymbolSpec("weight_w", alpha=1.0)
        factor_N_dense(w, 8, make_grid((1e-8, 0.75), 64, "geometric"))

    def test_quadrature_side_is_weighted_zeta_section(self):
        # F^T F converges to the weighted zeta section as the integer
        # truncation grows; with the weight supported in [0.5, 2] the
        # tail decays like 1/J
        w = _unit_weight((0.5, 2.0))
        g = make_grid((0.5, 2.0), 48, "gauss")
        Z = weighted_operator("zeta1", w, g).dense()
        errs = []
        for J in (2048, 4096, 8192):
            F = factor_N_dense(w, J, g)
            Q = F.T @ F
            errs.append(np.abs(Q - Z).max())
        assert errs[-1] <= 1e-5
        assert 1.6 <= errs[0] / errs[1] <= 2.4
        assert 1.6 <= errs[1] / errs[2] <= 2.4


class TestWeightedOperator:
    def test_reciprocal_kernel_entries(self):
        w = _unit_weight((0.5, 2.0))
        g = make_grid((0.5, 2.0), 3, "uniform")
        op = weighted_operator("carleman", w, g)
        x, om = g.nodes, g.weights
        want = np.sqrt(np.outer(om, om)) / (x[:, None] + x[None, :])
        assert np.allclose(op.dense(), want, rtol=1e-15)

    def test_exponential_damping_kernel(self):
        w = _unit_weight((0.5, 2.0))
        w = SymbolSpec("custom", fn=w.fn, support=w.support, beta=0.6)
        g = make_grid((0.5, 2.0), 16, "gauss")
        op = weighted_operator("h_beta", w, g)
        x, om = g.nodes, g.weights
        s = x[:, None] + x[None, :]
        want = np.sqrt(np.outer(om, om)) * np.exp(-0.6 * s) / s
        assert np.allclose(op.dense(), want, rtol=1e-13)

    def test_zeta_section_is_psd(self):
        # zeta(1+s) is a Laplace transform of a positive measure, so the
        # weighted section must be PSD
        w = SymbolSpec("weight_w", alpha=1.0)
        g = make_grid((1e-6, 0.75), 96, "geometric")
        M = weighted_operator("zeta1", w, g).dense()
        vals = np.linalg.eigvalsh(M)
        assert vals.min() >= -1e-12 * vals.max()

    def test_zero_lower_end_rejected(self):
        w = _unit_weight()
        g = make_grid((0.0, 1.0), 16, "uniform")
        for kind in ("zeta1", "carleman", "h_beta"):
            with pytest.raises(ConstructionError):
                weighted_operator(kind, w, g)

    def test_unknown_kind(self):
        w = _unit_weight()
        g = make_grid((0.1, 1.0), 8, "uniform")
        with pytest.raises(ValueError):
            weighted_operator("hilbert", w, g)


# ---------------------------------------------------------------------------
# wide-window section in log coordinates


class TestLogWindowSection:
    def test_fft_matvec_matches_materialized(self):
        op = log_window_smooth_section(1.0, 160)
        M = op.dense()
        assert np.array_equal(M, M.T)
        for _ in range(3):
            u = RNG.standard_normal(160)
            want = M @ u
            got = op.map.apply(u)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

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
        w = SymbolSpec("weight_w", alpha=1.0)
        wmax = np.max(_weight_values(w, np.linspace(1e-6, 0.75, 20001)))
        assert 0.0 < lam1 <= math.pi * wmax * (1.0 + 1e-8)

    def test_top_eigenvalue_stable_under_window_growth(self):
        l1 = lanczos_extreme(log_window_smooth_section(1.0, 512).map, k=1)
        l2 = lanczos_extreme(log_window_smooth_section(1.0, 1024).map, k=1)
        a, b = l1.lambda_plus[0], l2.lambda_plus[0]
        assert abs(a - b) <= 1e-3 * b

    def test_window_keeps_growing_past_exp_underflow(self):
        # the last node's diagonal entry tracks W(u_last) ~ u_last^-alpha;
        # at n = 8192 the window reaches mu ~ 1180, where e^-mu underflows
        # and w(e^-mu) would read 0
        diag = {}
        for n in (4096, 8192):
            op = log_window_smooth_section(1.0, n)
            e = np.zeros(n)
            e[-1] = 1.0
            diag[n] = (op.map.apply(e)[-1], op.grid.nodes[-1])
        (d4, u4), (d8, u8) = diag[4096], diag[8192]
        assert d8 == pytest.approx(d4 * (u4 / u8), rel=0.01)

    def test_dense_refused_when_not_materialized(self):
        # n = 4096 needs n * Q > 2^24 factor entries: the explicit matrix
        # is refused, with no fall-back to one matvec per column
        op = log_window_smooth_section(1.0, 4096)
        with pytest.raises(ConstructionError):
            op.dense()
        with pytest.raises(ConstructionError):
            dense_matrix(op.map)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            log_window_smooth_section(1.0, 1)
        with pytest.raises(ValueError):
            log_window_smooth_section(1.0, 64, step=-0.1)
