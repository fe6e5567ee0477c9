import json
import math

import numpy as np
import pytest

import helsonlab.eigen as eigen
from helsonlab.discretize import log_window_smooth_section
from helsonlab.eigen import (
    Spectrum, dense_eig_oracle, householder_tridiagonalize, lanczos_extreme,
    spectrum_from_csv, spectrum_to_csv, tridiag_eigenvalues, write_meta_sidecar,
)
from helsonlab.structured_ops import (
    HelsonTruncation, LinearMap, build_helson, build_smooth_helson,
)
from helsonlab.symbols import SymbolSpec


def map_from_dense(M):
    M = np.asarray(M, dtype=float)
    return LinearMap(M.shape[0], lambda u: M @ u)


def cap_sweeps(monkeypatch, steps):
    """Make every Lanczos sweep stop after at most `steps` steps."""
    sweep = eigen._lanczos_sweep
    monkeypatch.setattr(
        eigen, "_lanczos_sweep",
        lambda lm, k, max_iter, rng, both_ends=False:
            sweep(lm, k, min(max_iter, steps), rng, both_ends=both_ends))


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

    def test_ordering_is_scale_free(self):
        # a rise of 4e-16 in a list of size 1e-16 is no rounding slack
        with pytest.raises(ValueError):
            Spectrum(lambda_plus=np.array([1e-16, 5e-16, 3e-16]),
                     lambda_minus=np.array([]), singular=np.array([]),
                     residuals=np.array([]))
        # a rise of 1e-13 of the list's scale is rounding slack
        spec = Spectrum(lambda_plus=1e-16 * np.array([3.0, 3.0 + 3e-13, 1.0]),
                        lambda_minus=np.array([]), singular=np.array([]),
                        residuals=np.array([]))
        assert spec.lambda_plus.size == 3

    def test_meta_sidecar(self, tmp_path):
        spec = Spectrum(np.array([1.0]), np.array([]), np.array([]),
                        np.array([0.0]),
                        meta={"dim": 8, "iterations": 5, "reorthogonalized": 2,
                              "checks": 1, "seed": 3, "tol": 1e-10,
                              "extra": "dropped"})
        p = tmp_path / "s.json"
        write_meta_sidecar(spec, p)
        assert json.loads(p.read_text()) == {"dim": 8, "iterations": 5,
                                             "reorthogonalized": 2,
                                             "checks": 1, "seed": 3,
                                             "tol": 1e-10}


class TestTridiagQL:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_against_lapack(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        want = np.linalg.eigvalsh(T)
        got, _ = tridiag_eigenvalues(d, e)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1, np.abs(want).max()))

    def test_last_row_components(self):
        rng = np.random.default_rng(9)
        n = 12
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        vals, z = tridiag_eigenvalues(d, e)
        w, V = np.linalg.eigh(T)
        assert np.allclose(vals, w, atol=1e-12)
        assert np.allclose(np.abs(z), np.abs(V[-1]), atol=1e-10)

    def test_z_row_is_unit_norm(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal(30)
        e = rng.standard_normal(29)
        _, z = tridiag_eigenvalues(d, e)
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

    def test_both_ends_from_one_sweep(self):
        # geometric spectra at both ends: a sweep for each end took 72
        # steps here, 144 matvecs in all against max_iter = 112
        n, k = 1500, 20
        d = np.concatenate([0.85 ** np.arange(n // 2),
                            -0.6 * 0.85 ** np.arange(n // 2)])
        calls = []
        lm = LinearMap(n, lambda u: calls.append(1) or d * u)
        spec = lanczos_extreme(lm, k, which="both_ends", seed=0)
        want = np.linalg.eigvalsh(np.diag(d))
        assert spec.meta["converged"] is True
        assert len(calls) == spec.meta["iterations"] <= 4 * k + 32
        assert np.allclose(spec.lambda_plus, want[::-1][:k], rtol=0,
                           atol=1e-12 * want[-1])
        assert np.allclose(spec.lambda_minus, -want[:k], rtol=0,
                           atol=1e-12 * want[-1])

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
        # each sweep stops once its Krylov space is used up, and the
        # reported residuals are the dropped couplings, not a vacuous 0
        assert spec.meta["iterations"] <= 64
        assert 0.0 < spec.residuals.max() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [700, 1024])
    def test_semi_orthogonal_on_log_window_sections(self, alpha, n):
        # these sections are numerically low rank (at alpha = 1, n = 700,
        # lambda_216 is 4.8e-11 lambda_1 and 297 eigenvalues lie above
        # 1e-14 lambda_1): the sweep runs into the noise floor, where the
        # textbook omega rounding model lets orthogonality go
        lm = log_window_smooth_section(alpha, n).map
        want = dense_eig_oracle(lm).lambda_plus[:216]
        for seed in (0, 1, 3, 7):
            spec = lanczos_extreme(lm, 216, which="largest", seed=seed)
            assert spec.meta["converged"] is True
            assert np.allclose(spec.lambda_plus[:216], want, rtol=0,
                               atol=1e-12 * want[0])

    def test_reorthogonalizes_on_part_of_the_steps(self):
        lm = log_window_smooth_section(1.0, 4096).map
        spec = lanczos_extreme(lm, 100, which="largest", seed=0)
        assert spec.meta["converged"] is True
        assert 0 < spec.meta["reorthogonalized"] < spec.meta["iterations"]

    def test_residual_checks_wait_for_the_unconverged_pairs(self,
                                                             monkeypatch):
        # each check solves the tridiagonal of the steps so far: the first
        # at 2k + 16, the next ones max(16, 2u) steps later, u the pairs
        # still unconverged, which at lambda_i = i^-1/4 is more than 8 at
        # first; checks every 16 steps would run one per 16 steps after
        # the first
        sizes = []
        real = eigen.tridiag_eigenvalues

        def recording(d, e):
            sizes.append(len(d))
            return real(d, e)

        monkeypatch.setattr(eigen, "tridiag_eigenvalues", recording)
        d = np.arange(1, 3001) ** -0.25
        k = 40
        spec = lanczos_extreme(LinearMap(d.size, lambda u: d * u), k,
                               which="largest", seed=0)
        assert spec.meta["converged"] is True
        assert spec.meta["checks"] == len(sizes)
        assert sizes[0] == 2 * k + 16 and sizes[-1] == spec.meta["iterations"]
        gaps = np.diff(sizes)
        assert np.all(gaps >= 16) and np.any(gaps > 16)
        assert len(sizes) < (sizes[-1] - sizes[0]) // 16 + 1
        assert np.allclose(spec.lambda_plus, d[:k], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_eigenvalues_found_through_restarts(self, seed):
        # one Krylov space holds one copy of each eigenvalue; the other
        # two copies of 1 are reached only from restart directions, so a
        # sweep that stops at its first deflation misses them
        Q, _ = np.linalg.qr(np.random.default_rng(99).standard_normal((200, 200)))
        d = np.zeros(200)
        d[:4] = [1.0, 1.0, 1.0, 0.5]
        lm = map_from_dense(Q @ np.diag(d) @ Q.T)
        spec = lanczos_extreme(lm, k=5, which="both_ends", seed=seed)
        assert np.allclose(spec.lambda_plus[:4], [1.0, 1.0, 1.0, 0.5],
                           rtol=0, atol=1e-12)

    def test_restart_in_nonzero_eigenspace_keeps_going(self):
        # a restart direction of diag(3, 2, 1, ..., 1) deflates at once
        # but is not mapped to zero: the rest of the space is the
        # eigenvalue 1, and every requested copy of it is returned
        d = np.ones(200)
        d[:2] = [3.0, 2.0]
        spec = lanczos_extreme(map_from_dense(np.diag(d)), k=5, seed=0)
        assert np.allclose(spec.lambda_plus, [3.0, 2.0, 1.0, 1.0, 1.0],
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8, 1e-12, 1e-16])
    def test_deflation_test_is_scale_free(self, scale):
        # an absolute deflation floor deflated every step of a map of
        # norm ~1e-14 and returned values 90% off with residuals 0
        rng = np.random.default_rng(8)
        A = rng.standard_normal((200, 200))
        A = scale * 0.5 * (A + A.T)
        spec = lanczos_extreme(map_from_dense(A), k=5)
        want = np.linalg.eigvalsh(A)[::-1][:5]
        assert spec.meta["converged"] is True
        assert np.allclose(spec.lambda_plus[:5], want, rtol=0,
                           atol=1e-13 * want[0])

    def test_psd_gram_bottom(self):
        rng = np.random.default_rng(30)
        B = rng.standard_normal((60, 40))
        G = B.T @ B
        spec = lanczos_extreme(map_from_dense(G), k=4, which="both_ends", seed=7)
        assert spec.meta["lambda_min_alg"] >= -1e-10 * spec.lambda_plus[0]
        assert spec.lambda_minus.size == 0

    @pytest.mark.parametrize("seed", [1, 2, 4, 12345])
    def test_psd_section_bottom_snaps_to_zero(self, seed):
        # the smallest Ritz value of a PSD section with a numerically
        # singular tail is rounding noise of order 1e-16 lambda_1; it reads
        # 0, and lambda_minus leaves it out
        lm = build_smooth_helson(SymbolSpec("helson_a"), 1024)
        spec = lanczos_extreme(lm, k=20, which="both_ends", seed=seed)
        assert spec.meta["lambda_min_alg"] == 0.0
        assert spec.lambda_minus.size == 0

    def test_rounding_bottom_reads_alike_for_either_sign(self):
        # a bottom eigenvalue of size 1e-13 lambda_1 is below _NEG_SNAP:
        # whether it came out negative or positive, lambda_minus and
        # singular leave it out and lambda_min_alg reads 0
        specs = [lanczos_extreme(map_from_dense(np.diag([1.0, 0.5, bottom])),
                                 k=2, which="both_ends", seed=0)
                 for bottom in (1e-13, -1e-13)]
        for spec in specs:
            assert spec.lambda_minus.size == 0
            assert spec.meta["lambda_min_alg"] == 0.0
            assert spec.singular.size == spec.lambda_plus.size == 2
            assert spec.residuals.size == 2

    def test_interlacing_of_nested_sections(self):
        spec_sym = SymbolSpec("helson_a", alpha=1.0)
        small = dense_eig_oracle(HelsonTruncation(spec_sym, 32).dense()).lambda_plus
        big = dense_eig_oracle(HelsonTruncation(spec_sym, 48).dense()).lambda_plus
        assert np.all(small <= big[:small.size] + 1e-14)

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((300, 300))
        A = 0.5 * (A + A.T)
        cap_sweeps(monkeypatch, 45)
        spec = lanczos_extreme(map_from_dense(A), k=40, seed=0)
        assert spec.meta["converged"] is False
        assert spec.meta["iterations"] == 45

    def test_nonconvergence_reaches_sidecar(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((300, 300))
        A = 0.5 * (A + A.T)
        cap_sweeps(monkeypatch, 45)
        spec = lanczos_extreme(map_from_dense(A), k=40, seed=0)
        path = tmp_path / "s.meta.json"
        write_meta_sidecar(spec, path)
        meta = json.loads(path.read_text())
        assert meta["converged"] is False
        assert meta["method"] == "lanczos"
        assert meta["lambda_max_alg"] == spec.meta["lambda_max_alg"]

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            lanczos_extreme(map_from_dense(np.eye(3)), k=3)
        with pytest.raises(ValueError):
            lanczos_extreme(map_from_dense(np.eye(3)), k=1, which="middle")
        with pytest.raises(ValueError):
            lanczos_extreme(map_from_dense(np.eye(3)), k=1, which="smallest")
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed must be a non-negative"):
                lanczos_extreme(map_from_dense(np.eye(3)), k=1, seed=seed)

    def test_zero_map(self):
        lm = LinearMap(6, lambda u: np.zeros(6))
        spec = lanczos_extreme(lm, k=2, seed=0)
        assert spec.lambda_plus.size == 0
        assert spec.meta["converged"] is True

