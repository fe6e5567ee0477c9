"""Singular-value functionals and the Schatten report."""

import json
import math

import numpy as np
import pytest

from helsonlab.schatten import (schatten_lorentz_norm, schatten_norm,
                                schatten_report)


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


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_non_finite_p_refused_by_name(p):
    # at p = inf the norm read sum(s^p)^0 = 1 for any s
    s = np.arange(20.0, 1.0, -1.0)
    for call in (lambda: schatten_norm(s, p),
                 lambda: schatten_lorentz_norm(s, p, 2.0),
                 lambda: schatten_lorentz_norm(s, p, math.inf),
                 lambda: schatten_report(s, p)):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            call()


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

