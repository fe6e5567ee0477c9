"""Singular-value functionals and the band-limited sampling check."""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from helsonlab.schatten import (band_limited_function, sampling_check,
                                schatten_lorentz_norm, schatten_norm,
                                schatten_report)

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


def test_golden_generator_loads():
    # the script that writes tests/golden/ runs only by hand; loading it
    # without its __main__ block catches a name it imports from the
    # package that no longer exists
    path = GOLDEN.parent.parent / "tools" / "generate_goldens.py"
    spec = importlib.util.spec_from_file_location("generate_goldens", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert callable(mod.sampling_bound)


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
