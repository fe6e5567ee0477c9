"""Singular-value functionals, dyadic estimator, sampling and expansion checks."""

import json
import math
import pathlib

import numpy as np
import pytest

from helsonlab.discretize import make_grid, nystrom_hankel
from helsonlab.eigen import dense_eig_oracle
from helsonlab.schatten import (SchattenReport, band_limited_function,
                                dyadic_cutoff, dyadic_peller_estimate,
                                dyadic_window, rank_one_expansion,
                                sampling_check, schatten_lorentz_norm,
                                schatten_norm, schatten_report)
from helsonlab.structured_ops import dense_matrix
from helsonlab.symbols import SymbolSpec, kernel_fn

GOLDEN = pathlib.Path(__file__).parent / "golden"

# frozen from an independent Gauss-Legendre quadrature of the windowed
# transform (panel rule, both integration levels); the FFT route agreed
# to 2.6e-7 with the GL tail truncated at |xi| = 6
PIECE3_UNIT_WINDOW = 9.70233879156
TOTAL_UNIT_WINDOW = 15.03726418381078


# --- plain Schatten functional ---------------------------------------------

def test_euclidean_pair():
    assert schatten_norm([4.0, 3.0], 2.0) == pytest.approx(5.0, rel=1e-15)


def test_trace_pair():
    assert schatten_norm([4.0, 3.0], 1.0) == pytest.approx(7.0, rel=1e-15)


def test_schatten_rejects_bad_p():
    with pytest.raises(ValueError):
        schatten_norm([1.0], 0.0)
    with pytest.raises(ValueError):
        schatten_norm([1.0], -2.0)


def test_schatten_rejects_increasing():
    with pytest.raises(ValueError):
        schatten_norm([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        schatten_norm([1.0, -0.5], 1.0)


def test_empty_sequence_is_zero():
    assert schatten_norm([], 1.0) == 0.0
    assert schatten_lorentz_norm([], 0.5, math.inf) == 0.0


def test_quasi_triangle_inequality():
    rng = np.random.default_rng(3)
    for p in (0.25, 0.5, 0.75):
        for _ in range(6):
            A = rng.standard_normal((20, 20))
            B = rng.standard_normal((20, 20))
            sa = np.linalg.svd(A, compute_uv=False)
            sb = np.linalg.svd(B, compute_uv=False)
            sab = np.linalg.svd(A + B, compute_uv=False)
            lhs = schatten_norm(sab, p) ** p
            rhs = schatten_norm(sa, p) ** p + schatten_norm(sb, p) ** p
            assert lhs <= rhs * (1 + 1e-12)


# --- Lorentz scale ----------------------------------------------------------

def test_weak_norm_inverse_square():
    n = np.arange(1, 1001, dtype=float)
    assert schatten_lorentz_norm(n**-2.0, 0.5, math.inf) == pytest.approx(
        4.0, rel=1e-14)


def test_weak_norm_singleton():
    assert schatten_lorentz_norm([1.0], 1.0, math.inf) == pytest.approx(
        2.0, rel=1e-15)


def test_q_equals_p_reduces():
    rng = np.random.default_rng(11)
    s = np.sort(rng.uniform(0.01, 1.0, 40))[::-1]
    for p in (0.7, 1.0, 2.0):
        assert schatten_lorentz_norm(s, p, p) == pytest.approx(
            schatten_norm(s, p), rel=1e-14)


def test_lorentz_rejects_bad_exponents():
    with pytest.raises(ValueError):
        schatten_lorentz_norm([1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        schatten_lorentz_norm([1.0], 1.0, -1.0)


def test_weak_schatten_bridge():
    # exact power decay at the critical exponent: weak norm finite and
    # independent of length, any smaller-p sum grows without settling
    p = 0.5
    weak = []
    sums = []
    for m in (250, 1000, 4000):
        n = np.arange(1, m + 1, dtype=float)
        s = 2.0 * n ** (-1.0 / p)
        weak.append(schatten_lorentz_norm(s, p, math.inf))
        sums.append(schatten_norm(s, 0.4) ** 0.4)
    assert weak[0] == weak[1] == weak[2] == pytest.approx(8.0, rel=1e-14)
    assert sums[0] < sums[1] < sums[2]
    assert sums[2] - sums[1] > 0.5 * (sums[1] - sums[0])


def test_report_json_round_trip():
    rep = schatten_report(np.arange(1, 101, dtype=float) ** -3.0, 1.0)
    blob = json.loads(json.dumps(rep.to_json()))
    assert set(blob) == {"p", "q", "value", "n_used", "tail_estimate"}
    assert blob["n_used"] == 100
    # true tail of sum n^-3 past 100 is about 5e-5
    assert blob["tail_estimate"] == pytest.approx(5e-5, rel=0.5)


def test_report_divergent_tail_is_inf():
    s = np.arange(1, 101, dtype=float) ** -0.5
    assert schatten_report(s, 1.0).tail_estimate == math.inf


# --- dyadic window ----------------------------------------------------------

def test_partition_of_unity():
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(np.log(2.0**-9), np.log(2.0**25), 10000))
    total = sum(dyadic_window(x / 2.0**n) for n in range(-12, 28))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_at_most_two_windows_active():
    rng = np.random.default_rng(2)
    x = np.exp(rng.uniform(np.log(2.0**-9), np.log(2.0**25), 10000))
    active = sum((dyadic_window(x / 2.0**n) > 0).astype(int)
                 for n in range(-12, 28))
    assert active.max() == 2
    assert active.min() >= 1


def test_window_support():
    assert dyadic_window(0.5) == 0.0
    assert dyadic_window(2.0) == 0.0
    assert dyadic_window(0.4) == 0.0
    assert dyadic_window(3.0) == 0.0
    assert dyadic_window(1.0) == 1.0
    assert 0.0 < dyadic_window(0.7) < 1.0


def test_cutoff_matches_window_sum():
    x = np.exp(np.linspace(np.log(2.0**-7), np.log(2.0**19), 500))
    direct = sum(dyadic_window(x / 2.0**n) for n in range(-4, 17))
    assert np.max(np.abs(dyadic_cutoff(x, -4, 16) - direct)) <= 1e-14
    assert dyadic_cutoff(2.0**-4, -4, 16) == 1.0
    assert dyadic_cutoff(2.0**16, -4, 16) == 1.0
    assert dyadic_cutoff(2.0**-5, -4, 16) == 0.0
    assert dyadic_cutoff(2.0**17, -4, 16) == 0.0


# --- dyadic estimator -------------------------------------------------------

def test_zero_kernel_has_zero_pieces():
    d = dyadic_peller_estimate(lambda x: np.zeros_like(np.asarray(x)), 0.5,
                               n_range=(-2, 4), fft_size=64)
    assert d.total == 0.0
    assert np.all(d.piece_norms == 0.0)
    assert d.unresolved == []


def test_unit_window_pieces():
    b = lambda x: dyadic_window(np.asarray(x) / 8.0)
    d = dyadic_peller_estimate(b, 1.0, n_range=(-2, 8), fft_size=1024)
    nz = {n for n, v in zip(range(-2, 9), d.piece_norms) if v > 0}
    assert nz == {2, 3, 4}
    assert d.unresolved == []
    idx3 = 3 - (-2)
    assert d.piece_norms[idx3] == pytest.approx(PIECE3_UNIT_WINDOW, rel=1e-6)
    assert d.total == pytest.approx(TOTAL_UNIT_WINDOW, rel=1e-7)


def test_unit_window_resolution_stability():
    b = lambda x: dyadic_window(np.asarray(x) / 8.0)
    t1 = dyadic_peller_estimate(b, 1.0, n_range=(1, 6), fft_size=1024).total
    t2 = dyadic_peller_estimate(b, 1.0, n_range=(1, 6), fft_size=2048).total
    assert abs(t2 - t1) / t1 < 0.01


def test_jump_pieces_are_flagged():
    step = lambda x: ((np.asarray(x) >= 4.0) & (np.asarray(x) <= 16.0)) * 1.0
    d = dyadic_peller_estimate(step, 1.0, n_range=(1, 5), fft_size=64)
    # the two pieces containing the jumps fail the doubling test; the
    # middle piece is smooth (its window vanishes at both jump points)
    assert d.unresolved == [2, 4]


def test_pieces_reconstruct_kernel():
    base = kernel_fn(SymbolSpec(kind="hankel_b", alpha=2.0))
    bw = lambda x: np.asarray(base(x)) * dyadic_cutoff(x, -4, 16)
    d = dyadic_peller_estimate(bw, 1.0, n_range=(-5, 17), fft_size=64)
    x = np.exp(np.linspace(np.log(2.0**-4), np.log(2.0**16), 300))
    total = sum(piece(x) for piece in d.pieces)
    assert np.max(np.abs(total - bw(x))) <= 1e-12


def test_estimator_rejects_bad_inputs():
    b = lambda x: np.zeros_like(np.asarray(x))
    with pytest.raises(ValueError):
        dyadic_peller_estimate(b, 0.0)
    with pytest.raises(ValueError):
        dyadic_peller_estimate(b, 1.5)
    with pytest.raises(ValueError):
        dyadic_peller_estimate(b, 1.0, fft_size=100)
    with pytest.raises(ValueError):
        dyadic_peller_estimate(b, 1.0, n_range=(3, 1))


def test_decomposition_csv(tmp_path):
    b = lambda x: dyadic_window(np.asarray(x) / 8.0)
    d = dyadic_peller_estimate(b, 1.0, n_range=(2, 4), fft_size=256)
    path = tmp_path / "pieces.csv"
    d.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,piece_norm,error_estimate"
    assert len(lines) == 4
    n, v, e = lines[2].split(",")
    assert n == "3"
    assert float(v) == pytest.approx(PIECE3_UNIT_WINDOW, rel=1e-6)
    assert float(e) >= 0.0


def test_comparability_golden_bracket():
    blob = json.loads((GOLDEN / "peller_ratio.json").read_text())
    ratios = [row["ratio"] for row in blob["rows"]]
    lo, hi = blob["bracket"]
    assert lo == pytest.approx(min(ratios), rel=1e-12)
    assert hi == pytest.approx(max(ratios), rel=1e-12)
    # family stability: the recorded spread stays within +-25%
    assert hi / lo - 1.0 <= 0.25
    # live recomputation of two family members, both sides of the ratio
    grid = make_grid((blob["grid"]["lo"], blob["grid"]["hi"]),
                     blob["grid"]["n"], spacing=blob["grid"]["spacing"])
    for row in blob["rows"]:
        if row["gamma"] not in (2.0, 3.0):
            continue
        base = kernel_fn(SymbolSpec(kind="hankel_b", alpha=row["gamma"]))
        bw = lambda x: np.asarray(base(x)) * dyadic_cutoff(x, *blob["window"])
        dec = dyadic_peller_estimate(bw, blob["p"],
                                     n_range=tuple(blob["n_range"]),
                                     fft_size=blob["fft_size"])
        assert dec.total == pytest.approx(row["dyadic_total"], rel=1e-10)
        spec = dense_eig_oracle(nystrom_hankel(bw, grid).dense())
        s1 = float(np.sum(spec.singular))
        assert s1 == pytest.approx(row["s1"], rel=1e-9)
        assert lo * (1 - 1e-6) <= dec.total / s1 <= hi * (1 + 1e-6)


# --- sampling check ---------------------------------------------------------

def test_sampling_zero_vector():
    out = sampling_check(np.zeros(5), 16.0, 1.0)
    assert out["lhs"] == 0.0
    assert out["rhs_norm"] == 0.0
    assert math.isnan(out["ratio"])


def test_sampling_parseval_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(8)
        out = sampling_check(v, 16.0, 2.0)
        assert out["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_sampling_p1_quadrature_cross_check():
    # independent integration of N ||f||_1: growing Gauss-Legendre panels
    v = np.array([1.0, -2.0, 0.5])
    N = 8.0
    out = sampling_check(v, N, 1.0)
    f, sig, xi = band_limited_function(v, N)
    xg, wg = np.polynomial.legendre.leggauss(60)
    edges = [0.0]
    while edges[-1] < 3000.0:
        edges.append(edges[-1] + max(0.125, edges[-1] * 0.05))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (a + b) + 0.5 * (b - a) * xg
        total += 0.5 * (b - a) * np.sum(wg * (np.abs(f(xm)) + np.abs(f(-xm))))
    assert out["rhs_norm"] == pytest.approx(N * total, rel=1e-8)


def test_sampling_p1_golden_bound():
    blob = json.loads((GOLDEN / "sampling_p1.json").read_text())
    bound = blob["bound"]
    rng = np.random.default_rng(20250819)
    for recorded in blob["suites"]["20250819"]:
        v = rng.standard_normal(blob["n_samples"])
        ratio = sampling_check(v, blob["N"], blob["p"])["ratio"]
        assert ratio == pytest.approx(recorded, rel=1e-9)
        assert ratio <= bound
    rng = np.random.default_rng(314159)
    for _ in range(10):
        v = rng.standard_normal(blob["n_samples"])
        assert sampling_check(v, blob["N"], blob["p"])["ratio"] <= bound


def test_sampling_support_violation():
    with pytest.raises(ValueError):
        sampling_check(np.ones(4), 16.0, 1.0, sigma=8.0)
    with pytest.raises(ValueError):
        sampling_check(np.ones(4), 16.0, 1.0, xi0=0.5)
    with pytest.raises(ValueError):
        sampling_check(np.ones(4), 16.0, 0.0)


def test_bspline_gram_table():
    # the integer Gram used by the exact p=2 route, re-derived by direct
    # autocorrelation of the exact piecewise-cubic bump
    def cubic(t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        m1 = t <= 1.0
        out[m1] = (4.0 - 6.0 * t[m1] ** 2 + 3.0 * t[m1] ** 3) / 6.0
        m2 = (t > 1.0) & (t <= 2.0)
        out[m2] = (2.0 - t[m2]) ** 3 / 6.0
        return out

    g = np.linspace(-2.0, 2.0, 400001)
    table = {0: 151.0 / 315.0, 1: 397.0 / 1680.0, 2: 1.0 / 42.0,
             3: 1.0 / 5040.0}
    for k, expect in table.items():
        got = np.trapezoid(cubic(g) * cubic(g - k), g)
        assert got == pytest.approx(expect, abs=1e-12)


# --- rank-one expansion -----------------------------------------------------

def _direct_entries(v, N, J):
    j = np.arange(1, J + 1, dtype=float)
    t = np.multiply.outer(j, j)
    out = np.zeros((J, J), dtype=complex)
    for m, vm in enumerate(np.asarray(v, dtype=float)):
        out += (vm / N) * t ** (-0.5 + 2j * np.pi * m / N)
    return out


def test_single_delta_term():
    lm = rank_one_expansion([1.0], 4.0, 6)
    M = dense_matrix(lm)
    j = np.arange(1, 7, dtype=float)
    expect = np.multiply.outer(j, j) ** -0.5 / 4.0
    assert np.max(np.abs(M - expect)) <= 1e-15


def test_expansion_matches_direct_build():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(5)
    N = 8.0
    lm = rank_one_expansion(v, N, 64)
    M = dense_matrix(lm)
    assert np.max(np.abs(M - _direct_entries(v, N, 64))) <= 1e-8


def test_expansion_trace_norm_bound():
    rng = np.random.default_rng(9)
    for _ in range(4):
        v = rng.standard_normal(6)
        N = 8.0
        M = dense_matrix(rank_one_expansion(v, N, 32))
        s = np.linalg.svd(M, compute_uv=False)
        assert s.sum() <= (N + 1) * np.sum(np.abs(v)) / N + 1e-10


def test_expansion_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rank_one_expansion([], 4.0, 8)
    with pytest.raises(ValueError):
        rank_one_expansion([1.0], 4.0, 0)
    with pytest.raises(ValueError):
        rank_one_expansion([1.0], 0.0, 8)
