import dataclasses

import numpy as np
import pytest

import helsonlab.structured_ops as structured_ops
from helsonlab.discretize import (log_window_smooth_section, nystrom_hankel,
                                  nystrom_helson, v_matched_grids)
from helsonlab.structured_ops import (
    GramSection, HelsonTruncation, LinearMap, build_hankel, build_helson,
    build_smooth_helson, dense_matrix, difference_section,
    toeplitz_gram_twin, toeplitz_section,
)
from helsonlab.symbols import DomainError, SymbolSpec, sequence_values


def hilbert_b(N):
    # b(n) = 1/(n+1): the Hankel section is the Hilbert matrix
    return 1.0 / (np.arange(2 * N - 1) + 1.0)


class TestLinearMap:
    def test_shape_checks(self):
        lm = LinearMap(3, lambda u: np.zeros(3))
        with pytest.raises(ValueError):
            lm.apply(np.zeros(2))
        assert lm.apply(np.zeros(3)).shape == (3,)
        with pytest.raises(ValueError):
            LinearMap(0, lambda u: u)

    def test_bad_matvec_shape_detected(self):
        lm = LinearMap(2, lambda u: np.zeros(3))
        with pytest.raises(ValueError):
            lm.apply(np.zeros(2))


# every constructor that knows its entries hands them to dense_matrix
_GRIDS = v_matched_grids((0.0, 18.0), 48)
DENSE_CONSTRUCTORS = {
    "helson": lambda: build_helson(SymbolSpec("helson_a", alpha=1.0), 64),
    "smooth_gram": lambda: build_smooth_helson(SymbolSpec("a0", alpha=1.0), 64),
    "hankel": lambda: build_hankel(hilbert_b(40)),
    "nystrom_helson": lambda: nystrom_helson(
        SymbolSpec("helson_a", alpha=1.0), _GRIDS[1]).map,
    "nystrom_hankel": lambda: nystrom_hankel(
        SymbolSpec("b0", alpha=1.0), _GRIDS[0]).map,
    "log_window": lambda: log_window_smooth_section(1.0, 96).map,
    "row1_difference": lambda: difference_section(
        build_helson(SymbolSpec("helson_a", alpha=1.0), 64),
        build_smooth_helson(SymbolSpec("helson_a", alpha=1.0), 64)),
}


class TestDenseShortcut:
    @pytest.mark.parametrize("name", sorted(DENSE_CONSTRUCTORS))
    def test_matches_column_materialization(self, name):
        lm = DENSE_CONSTRUCTORS[name]()
        assert lm.dense is not None
        by_columns = dense_matrix(dataclasses.replace(lm, dense=None))
        got = dense_matrix(lm)
        assert got.shape == (lm.cols, lm.cols)
        scale = np.abs(by_columns).max()
        assert scale > 0
        assert np.abs(got - by_columns).max() <= 1e-14 * scale
        assert np.abs(by_columns - by_columns.T).max() <= 1e-14 * scale
        u = np.random.default_rng(7).standard_normal(lm.cols)
        want = got @ u
        assert np.abs(lm.apply(u) - want).max() <= 1e-14 * np.abs(want).max()

    def test_size_cap_applies_before_shortcut(self, monkeypatch):
        lm = build_hankel(hilbert_b(40))
        monkeypatch.setattr(structured_ops, "MAX_DENSE", 39)
        with pytest.raises(ValueError, match="beyond 39"):
            dense_matrix(lm)


class TestHankel:
    def test_hilbert_two_by_two(self):
        M = dense_matrix(build_hankel(hilbert_b(2)))
        assert np.allclose(M, [[1.0, 0.5], [0.5, 1.0 / 3.0]], rtol=0, atol=1e-15)

    def test_delta_sequence(self):
        M = dense_matrix(build_hankel([1.0, 0.0, 0.0]))
        want = np.zeros((2, 2))
        want[0, 0] = 1.0
        assert np.allclose(M, want, rtol=0, atol=1e-15)

    def test_antidiagonal_constancy(self):
        rng = np.random.default_rng(3)
        M = build_hankel(rng.standard_normal(127)).dense()
        assert np.array_equal(M[1:, :-1], M[:-1, 1:])

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            build_hankel(np.ones(4))

    def test_scalar_case(self):
        H = build_hankel(np.array([2.5]))
        assert np.allclose(H.apply(np.array([3.0])), [7.5])

    def test_column_extraction(self):
        b = hilbert_b(16)
        e0 = np.zeros(16)
        e0[0] = 1.0
        got = build_hankel(b).apply(e0)
        assert np.allclose(got, b[:16], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("N", [2, 5, 64, 257, 1024, 2048])
    def test_fft_matches_dense(self, N):
        rng = np.random.default_rng(N)
        H = build_hankel(rng.standard_normal(2 * N - 1))
        u = rng.standard_normal(N)
        want = H.dense() @ u
        got = H.apply(u)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_hilbert_1024_against_dense(self):
        N = 1024
        rng = np.random.default_rng(0)
        H = build_hankel(hilbert_b(N))
        u = rng.standard_normal(N)
        want = H.dense() @ u
        got = H.apply(u)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_dimension_mismatch(self):
        H = build_hankel(np.ones(5))
        with pytest.raises(ValueError):
            H.apply(np.ones(4))

    @pytest.mark.parametrize("N", [2000, 8192])
    def test_one_block_of_2n_minus_1_points(self, N, monkeypatch):
        # the input has N entries, so 2N - 1 points keep the circular
        # wrap off the N kept outputs: 4000 and 16384, where 3N - 2
        # (6000 and 24576) were transformed before
        lengths = []
        rfft = np.fft.rfft

        def recording(a, n=None, axis=-1, **kw):
            lengths.append(np.shape(a)[axis] if n is None else n)
            return rfft(a, n=n, axis=axis, **kw)

        monkeypatch.setattr(np.fft, "rfft", recording)
        rng = np.random.default_rng(N)
        b = rng.standard_normal(2 * N - 1)
        u = rng.standard_normal(N)
        got = build_hankel(b).apply(u)
        assert set(lengths) == {structured_ops._fft_length(2 * N - 1)}
        want = np.convolve(b, u[::-1])[N - 1:2 * N - 1]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_symbol_gives_zero_map(self):
        # every tap is zero: the convolution keeps one, and reads 0
        H = build_hankel(np.zeros(7))
        assert np.array_equal(H.apply(np.ones(4)), np.zeros(4))


class TestToeplitzGramTwin:
    def test_band_limited_taps_give_a_smaller_map_with_their_spectrum(self):
        # Gaussian taps: the symbol falls below 1e-15 of its peak on about
        # a third of the circulant's modes, whatever the weights
        rng = np.random.default_rng(5)
        n = 400
        c = np.exp(-(np.arange(n) / 6.0) ** 2)
        d = rng.uniform(0.5, 2.0, n)
        twin = toeplitz_gram_twin(c, d)
        assert twin.cols < 0.75 * n
        G = dense_matrix(twin)
        assert np.abs(G - G.T).max() <= 1e-14 * np.abs(G).max()
        got = np.linalg.eigvalsh(G)[::-1]
        want = np.linalg.eigvalsh(toeplitz_section(c, d).dense())[::-1]
        assert np.abs(got - want[:twin.cols]).max() <= 1e-14 * want[0]
        assert np.abs(want[twin.cols:]).max() <= 1e-14 * want[0]

    @pytest.mark.parametrize("c1", [0.9, 0.0])
    def test_section_kept_unless_the_dropped_modes_are_zero(self, c1):
        # taps 1, 0.9: the symbol 1 + 1.8 cos(theta) dips to -0.8, so the
        # modes a twin of 49 < 64 columns would drop are not zero; taps
        # 1, 0 leave every mode, and no smaller side
        n = 64
        c = np.zeros(n)
        c[:2] = 1.0, c1
        lm = toeplitz_gram_twin(c, np.ones(n))
        assert lm.cols == n
        assert np.array_equal(dense_matrix(lm),
                              toeplitz_section(c, np.ones(n)).dense())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            toeplitz_gram_twin(np.ones(5), np.ones(4))


class TestHelson:
    def test_first_row_is_the_sequence(self):
        N = 30
        spec = SymbolSpec("helson_a", alpha=1.0)
        lm = build_helson(spec, N)
        e1 = np.zeros(N)
        e1[0] = 1.0
        want = sequence_values(spec, np.arange(1, N + 1))
        assert np.allclose(lm.apply(e1), want, rtol=0, atol=0)

    def test_two_by_two_expansion(self):
        t, s = 0.7, -0.2
        table = {1: 1.0, 2: t, 3: 0.0, 4: s}
        lm = build_helson(lambda n: np.vectorize(table.__getitem__)(n), 2)
        got = lm.apply(np.array([1.0, 1.0]))
        assert np.allclose(got, [1.0 + t, t + s], rtol=0, atol=1e-15)

    def test_matches_dense_oracle(self):
        N = 256
        spec = SymbolSpec("helson_a", alpha=1.0)
        lm = build_helson(spec, N)
        T = HelsonTruncation(spec, N)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(N)
        want = T.dense() @ u
        got = lm.apply(u)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_symmetry_exact(self):
        T = HelsonTruncation(SymbolSpec("helson_a", alpha=2.0), 50)
        M = T.dense()
        assert np.array_equal(M, M.T)

    def test_entry_accessor(self):
        spec = SymbolSpec("helson_a", alpha=1.0)
        M = HelsonTruncation(spec, 20).dense()
        seq = sequence_values(spec, np.arange(1, 401))
        assert M[12, 16] == seq[13 * 17 - 1]
        assert M[0, 0] == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_factor_matches_streamed_oracle(self, alpha):
        N = 1024
        spec = SymbolSpec("helson_a", alpha=alpha)
        got = build_helson(spec, N).dense()
        want = HelsonTruncation(spec, N).dense()
        nz = want != 0
        assert np.array_equal(got[~nz], want[~nz])
        assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-10
        ev_got = np.linalg.eigvalsh(got)
        ev_want = np.linalg.eigvalsh(want)
        lam1 = ev_want[-1]
        assert np.max(np.abs(ev_got[-20:] - ev_want[-20:])) <= 1e-9 * lam1
        assert np.max(np.abs(ev_got[:20] - ev_want[:20])) <= 1e-9 * lam1

    @pytest.mark.parametrize("N", [256, 1024])
    def test_factor_has_one_negative_eigenvalue(self, N):
        # on {x_1 = 0} the quadratic form is the Gram matrix E E^T >= 0,
        # so interlacing leaves room for one negative eigenvalue at most
        ev = np.linalg.eigvalsh(
            build_helson(SymbolSpec("helson_a", alpha=1.0), N).dense())
        assert np.sum(ev < -1e-11 * ev[-1]) <= 1

    def test_factor_columns_at_large_order(self):
        N = 1 << 16
        spec = SymbolSpec("helson_a", alpha=1.0)
        lm = build_helson(spec, N)
        j = np.arange(1, N + 1)
        for k in (2, 3, 1000, N):
            e = np.zeros(N)
            e[k - 1] = 1.0
            got = lm.apply(e)
            want = sequence_values(spec, j * k)
            nz = want != 0
            assert np.array_equal(got[~nz], want[~nz])
            assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-10

    def test_domain_error_carries_index_context(self):
        def bad(n):
            n = np.asarray(n)
            if np.any(n > 10):
                raise DomainError("boom")
            return np.zeros(n.shape)

        lm = build_helson(bad, 4)
        with pytest.raises(DomainError, match="rows"):
            lm.apply(np.ones(4))


    @pytest.mark.parametrize("kind", ["hankel_b", "b0", "weight_w"])
    def test_additive_kind_refused_by_name(self, kind):
        with pytest.raises(ValueError, match=repr(kind)):
            build_helson(SymbolSpec(kind, alpha=1.0), 8)
        with pytest.raises(ValueError, match=repr(kind)):
            HelsonTruncation(SymbolSpec(kind, alpha=1.0), 8)

    @pytest.mark.parametrize("kind", ["a0", "custom"])
    def test_other_multiplicative_kinds_stream(self, kind):
        # the a0 spec under the restriction convention, and a custom
        # symbol, which is given as a callable, stream their rows
        n = np.multiply.outer(np.arange(1, 9), np.arange(1, 9))
        if kind == "a0":
            a = SymbolSpec("a0", alpha=1.0)
            want = sequence_values(a, n)
        else:
            a, want = (lambda m: 1.0 / m), 1.0 / n
        lm = build_helson(a, 8)
        assert not isinstance(lm, GramSection)
        assert np.allclose(dense_matrix(lm), want, rtol=1e-14, atol=0)


class TestDifferenceSection:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_difference_of_the_two_sections(self, alpha):
        N = 64
        spec = SymbolSpec("helson_a", alpha=alpha)
        full, smooth = build_helson(spec, N), build_smooth_helson(spec, N)
        lm = difference_section(full, smooth)
        want = full.dense() - smooth.dense()
        scale = np.abs(want).max()
        assert np.abs(lm.dense() - want).max() <= 1e-14 * scale
        u = np.random.default_rng(11).standard_normal(N)
        want_u = full.apply(u) - smooth.apply(u)
        assert np.abs(lm.apply(u) - want_u).max() <= 1e-14 * np.abs(want_u).max()

    def test_unsupported_sections_rejected(self):
        spec = SymbolSpec("helson_a", alpha=1.0)
        full, smooth = build_helson(spec, 8), build_smooth_helson(spec, 8)
        with pytest.raises(TypeError):
            difference_section(build_helson(lambda n: 1.0 / n, 8), smooth)
        with pytest.raises(ValueError):
            difference_section(smooth, full)
        with pytest.raises(ValueError):
            difference_section(difference_section(full, smooth), smooth)


class TestInterlacing:
    def test_nested_truncations_interlace(self):
        # lambda_n of the N-section never exceeds lambda_n of the N'-section
        spec = SymbolSpec("helson_a", alpha=1.0)
        small = np.linalg.eigvalsh(HelsonTruncation(spec, 64).dense())[::-1]
        big = np.linalg.eigvalsh(HelsonTruncation(spec, 96).dense())[::-1]
        assert np.all(small <= big[:64] + 1e-14)
