import json
import math

import numpy as np
import pytest

from helsonlab.eigen import (
    Spectrum, dense_eig_oracle, householder_tridiagonalize, lanczos_extreme,
    singular_values, spectrum_from_csv, spectrum_to_csv, tridiag_eigenvalues,
    write_meta_sidecar,
)
from helsonlab.structured_ops import (
    HelsonTruncation, LinearMap, build_helson, build_smooth_helson,
    rank_one_dirichlet,
)
from helsonlab.symbols import SymbolSpec


def map_from_dense(M, symmetric=True):
    M = np.asarray(M, dtype=float)
    return LinearMap(M.shape[0], M.shape[1], symmetric, lambda u: M @ u, "test")


HILBERT2 = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
HILBERT2_EIGS = ((4.0 + math.sqrt(13)) / 6.0, (4.0 - math.sqrt(13)) / 6.0)


class TestSpectrumType:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(lambda_plus=np.array([1.0, 2.0]), lambda_minus=np.array([]),
                     singular=np.array([]), residuals=np.array([]))

    def test_negative_singular_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(lambda_plus=np.array([]), lambda_minus=np.array([]),
                     singular=np.array([-1.0]), residuals=np.array([]))

    def test_csv_round_trip_ragged(self, tmp_path):
        spec = Spectrum(lambda_plus=np.array([3.0, 1.0, 0.25]),
                        lambda_minus=np.array([0.5]),
                        singular=np.array([3.0, 1.0]),
                        residuals=np.zeros(4), meta={})
        p = tmp_path / "s.csv"
        spectrum_to_csv(spec, p)
        back = spectrum_from_csv(p)
        assert np.array_equal(back.lambda_plus, spec.lambda_plus)
        assert np.array_equal(back.lambda_minus, spec.lambda_minus)
        assert np.array_equal(back.singular, spec.singular)

    def test_meta_sidecar(self, tmp_path):
        spec = Spectrum(np.array([1.0]), np.array([]), np.array([]),
                        np.array([0.0]),
                        meta={"dim": 8, "iterations": 5, "seed": 3, "tol": 1e-10,
                              "extra": "dropped"})
        p = tmp_path / "s.json"
        write_meta_sidecar(spec, p)
        assert json.loads(p.read_text()) == {"dim": 8, "iterations": 5,
                                             "seed": 3, "tol": 1e-10}


class TestTridiagQL:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_against_lapack(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        want = np.linalg.eigvalsh(T)
        got = tridiag_eigenvalues(d, e)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1, np.abs(want).max()))

    def test_last_row_components(self):
        rng = np.random.default_rng(9)
        n = 12
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        vals, z = tridiag_eigenvalues(d, e, last_row=True)
        w, V = np.linalg.eigh(T)
        assert np.allclose(vals, w, atol=1e-12)
        assert np.allclose(np.abs(z), np.abs(V[-1]), atol=1e-10)

    def test_z_row_is_unit_norm(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal(30)
        e = rng.standard_normal(29)
        _, z = tridiag_eigenvalues(d, e, last_row=True)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)


class TestHouseholder:
    def test_preserves_spectrum(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 40))
        A = 0.5 * (A + A.T)
        d, e = householder_tridiagonalize(A)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(np.linalg.eigvalsh(T), np.linalg.eigvalsh(A), atol=1e-11)

    def test_small_sizes(self):
        d, e = householder_tridiagonalize(np.array([[7.0]]))
        assert d[0] == 7.0 and e.size == 0
        d, e = householder_tridiagonalize(np.array([[1.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(d, [1.0, 5.0]) and np.allclose(e, [2.0])


class TestDenseOracle:
    def test_identity(self):
        spec = dense_eig_oracle(np.eye(5))
        assert np.allclose(spec.lambda_plus, np.ones(5), atol=1e-14)
        assert spec.lambda_minus.size == 0

    def test_sign_split(self):
        spec = dense_eig_oracle(np.diag([-1.0, 2.0]))
        assert np.allclose(spec.lambda_plus, [2.0])
        assert np.allclose(spec.lambda_minus, [1.0])
        assert np.allclose(spec.singular, [2.0, 1.0])

    def test_hilbert_2x2(self):
        spec = dense_eig_oracle(HILBERT2)
        assert spec.lambda_plus[0] == pytest.approx(HILBERT2_EIGS[0], rel=1e-13)
        assert spec.lambda_plus[1] == pytest.approx(HILBERT2_EIGS[1], rel=1e-13)

    def test_random_200_against_lapack(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((200, 200))
        A = 0.5 * (A + A.T)
        spec = dense_eig_oracle(A)
        want = np.linalg.eigvalsh(A)[::-1]
        got = np.concatenate([spec.lambda_plus, -spec.lambda_minus[::-1]])
        assert np.allclose(got, want, atol=1e-10 * np.abs(want).max())

    def test_negation_swaps_sign_lists(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((30, 30))
        A = 0.5 * (A + A.T)
        s1 = dense_eig_oracle(A)
        s2 = dense_eig_oracle(-A)
        assert np.array_equal(s2.lambda_plus, s1.lambda_minus)
        assert np.array_equal(s2.lambda_minus, s1.lambda_plus)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            dense_eig_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_linear_map(self):
        spec = dense_eig_oracle(map_from_dense(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(spec.lambda_plus, [3.0, 2.0, 1.0])


class TestLanczos:
    def test_diag_example(self):
        lm = map_from_dense(np.diag([3.0, 2.0, 1.0]))
        spec = lanczos_extreme(lm, k=2, which="largest", seed=1)
        assert np.allclose(spec.lambda_plus, [3.0, 2.0], atol=1e-11)
        assert np.all(spec.residuals <= 1e-10)

    def test_hilbert_top(self):
        spec = lanczos_extreme(map_from_dense(HILBERT2), k=1, seed=0)
        assert spec.lambda_plus[0] == pytest.approx(HILBERT2_EIGS[0], rel=1e-12)

    def test_random_200_top10(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((200, 200))
        A = 0.5 * (A + A.T)
        spec = lanczos_extreme(map_from_dense(A), k=10, seed=5)
        want = np.sort(np.linalg.eigvalsh(A))[::-1]
        want_pos = want[want > 0][:10]
        assert np.allclose(spec.lambda_plus[:want_pos.size], want_pos,
                           rtol=1e-8, atol=0)

    def test_both_ends(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((80, 80))
        A = 0.5 * (A + A.T)
        spec = lanczos_extreme(map_from_dense(A), k=3, which="both_ends", seed=2)
        want = np.linalg.eigvalsh(A)
        assert np.allclose(spec.lambda_plus[:3], np.sort(want[want > 0])[::-1][:3],
                           rtol=1e-9)
        assert np.allclose(spec.lambda_minus[:3], np.sort(-want[want < 0])[::-1][:3],
                           rtol=1e-9)
        assert spec.meta["lambda_min_alg"] == pytest.approx(want[0], rel=1e-9)
        assert spec.meta["lambda_max_alg"] == pytest.approx(want[-1], rel=1e-9)

    def test_determinism_bitwise(self):
        lm = build_helson(SymbolSpec("helson_a", alpha=1.0), 120)
        a = lanczos_extreme(lm, k=5, seed=42)
        b = lanczos_extreme(lm, k=5, seed=42)
        assert np.array_equal(a.lambda_plus, b.lambda_plus)
        assert np.array_equal(a.residuals, b.residuals)

    def test_helson_truncation_matches_dense_oracle(self):
        spec_sym = SymbolSpec("helson_a", alpha=1.0)
        lm = build_helson(spec_sym, 128)
        lz = lanczos_extreme(lm, k=6, seed=3)
        dn = dense_eig_oracle(HelsonTruncation(spec_sym, 128).dense())
        assert np.allclose(lz.lambda_plus[:6], dn.lambda_plus[:6], rtol=1e-8)

    def test_numerically_low_rank_section(self):
        # the row-0 Gram section resolves only a handful of eigenvalues;
        # later Lanczos vectors are mostly cancelled by the first
        # Gram-Schmidt pass, which is where the second pass must run
        lm = build_smooth_helson(SymbolSpec("helson_a"), 1024)
        spec = lanczos_extreme(lm, k=20, which="both_ends", seed=0)
        want = np.linalg.eigvalsh(lm.dense())
        top = want[-1]
        plus = spec.lambda_plus[spec.lambda_plus > 1e-8 * top]
        minus = spec.lambda_minus[spec.lambda_minus > 1e-8 * top]
        assert plus.size > 0
        # elementwise against the exact ordered spectrum: a ghost copy
        # would shift every later value off its partner
        assert np.allclose(plus, want[::-1][:plus.size], rtol=0,
                           atol=1e-10 * top)
        assert np.allclose(minus, -want[:minus.size], rtol=0,
                           atol=1e-10 * top)

    def test_psd_gram_bottom(self):
        rng = np.random.default_rng(30)
        B = rng.standard_normal((60, 40))
        G = B.T @ B
        spec = lanczos_extreme(map_from_dense(G), k=4, which="both_ends", seed=7)
        assert spec.meta["lambda_min_alg"] >= -1e-10 * spec.lambda_plus[0]
        assert spec.lambda_minus.size == 0 or np.all(spec.lambda_minus == 0.0)

    def test_interlacing_of_nested_sections(self):
        spec_sym = SymbolSpec("helson_a", alpha=1.0)
        small = dense_eig_oracle(HelsonTruncation(spec_sym, 32).dense()).lambda_plus
        big = dense_eig_oracle(HelsonTruncation(spec_sym, 48).dense()).lambda_plus
        assert np.all(small <= big[:small.size] + 1e-14)

    def test_nonconvergence_flagged_not_raised(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((300, 300))
        A = 0.5 * (A + A.T)
        spec = lanczos_extreme(map_from_dense(A), k=40, max_iter=45, seed=0)
        assert spec.meta["converged"] is False

    def test_nonconvergence_reaches_sidecar(self, tmp_path):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((300, 300))
        A = 0.5 * (A + A.T)
        spec = lanczos_extreme(map_from_dense(A), k=40, max_iter=45, seed=0)
        path = tmp_path / "s.meta.json"
        write_meta_sidecar(spec, path)
        meta = json.loads(path.read_text())
        assert meta["converged"] is False
        assert meta["method"] == "lanczos"
        assert meta["lambda_max_alg"] == spec.meta["lambda_max_alg"]

    def test_contract_errors(self):
        lm = map_from_dense(np.eye(3), symmetric=False)
        with pytest.raises(ValueError):
            lanczos_extreme(lm, k=1)
        with pytest.raises(ValueError):
            lanczos_extreme(map_from_dense(np.eye(3)), k=3)
        with pytest.raises(ValueError):
            lanczos_extreme(map_from_dense(np.eye(3)), k=1, which="middle")

    def test_zero_map(self):
        lm = LinearMap(6, 6, True, lambda u: np.zeros(6), "zero")
        spec = lanczos_extreme(lm, k=2, seed=0)
        assert spec.lambda_plus.size == 0
        assert spec.meta["converged"] is True


class TestSingularValues:
    def test_rank_one_harmonic(self):
        spec = singular_values(rank_one_dirichlet(4, 0.0), k=2)
        assert spec.singular[0] == pytest.approx(25.0 / 12.0, rel=1e-10)
        assert spec.singular[1] <= 1e-10

    def test_complex_rank_one_xi(self):
        lm = rank_one_dirichlet(9, 0.37)
        spec = singular_values(lm, k=1)
        want = np.sum(1.0 / np.arange(1, 10))
        assert spec.singular[0] == pytest.approx(want, rel=1e-10)

    def test_zero_map(self):
        lm = LinearMap(5, 5, True, lambda u: np.zeros(5), "zero")
        spec = singular_values(lm, k=3)
        assert np.allclose(spec.singular, 0.0, atol=1e-12)

    def test_rectangular_against_lapack(self):
        rng = np.random.default_rng(44)
        M = rng.standard_normal((100, 60))
        spec = singular_values(map_from_dense(M, symmetric=False), k=8)
        want = np.linalg.svd(M, compute_uv=False)[:8]
        assert np.allclose(spec.singular, want, rtol=1e-8)

    def test_symmetric_map_via_lanczos(self):
        rng = np.random.default_rng(45)
        A = rng.standard_normal((90, 90))
        A = 0.5 * (A + A.T)
        spec = singular_values(map_from_dense(A), k=5, seed=1)
        want = np.linalg.svd(A, compute_uv=False)[:5]
        assert np.allclose(spec.singular, want, rtol=1e-8)
