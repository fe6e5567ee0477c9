"""Schatten functionals and the band-limited sampling check.

Singular-value functionals are computed exactly from their defining
sums; the p = 2 sampling identity is checked against an exact B-spline
Gram form rather than by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def _check_singular(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError("singular values must be a 1-d sequence")
    if s.size and (np.any(s < 0) or np.any(np.diff(s) > 1e-12 * max(1.0, s[0]))):
        raise ValueError("singular values must be non-increasing and >= 0")
    return s


def schatten_norm(s, p: float) -> float:
    """(sum s_n^p)^(1/p)."""
    if not p > 0:
        raise ValueError("p must be positive")
    s = _check_singular(s)
    if s.size == 0:
        return 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def schatten_lorentz_norm(s, p: float, q: float) -> float:
    """Lorentz-scale functional; q = inf gives the weak norm sup (1+n)^(1/p) s_n.

    Indexing starts at n = 1 for the leading singular value.
    """
    if not p > 0 or not (q > 0 or q == math.inf):
        raise ValueError("need p > 0 and q > 0 (or inf)")
    s = _check_singular(s)
    if s.size == 0:
        return 0.0
    n = np.arange(1, s.size + 1, dtype=float)
    if q == math.inf:
        return float(np.max((1.0 + n) ** (1.0 / p) * s))
    return float(np.sum((1.0 + n) ** (q / p - 1.0) * s**q) ** (1.0 / q))


@dataclass
class SchattenReport:
    p: float
    q: float
    value: float
    n_used: int
    tail_estimate: float

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "value": self.value,
                "n_used": self.n_used, "tail_estimate": self.tail_estimate}


def schatten_report(s, p: float, q: Optional[float] = None) -> SchattenReport:
    """Functional value plus a crude power-extrapolated tail estimate."""
    q_eff = p if q is None else q
    if q_eff == math.inf:
        value = schatten_lorentz_norm(s, p, q_eff)
    elif q is None:
        value = schatten_norm(s, p)
    else:
        value = schatten_lorentz_norm(s, p, q_eff)
    s = _check_singular(s)
    tail = 0.0
    m = s.size
    if m >= 12 and s[-1] > 0:
        k = m // 3
        n = np.arange(m - k + 1, m + 1, dtype=float)
        seg = s[-k:]
        if np.all(seg > 0):
            x = np.log(n) - np.log(n).mean()
            slope = float(x @ (np.log(seg) - np.log(seg).mean()) / (x @ x))
            if slope * p < -1.0:
                # integral tail of c n^(slope p) past the last index
                tail = float(s[-1] ** p * m / (-slope * p - 1.0))
            else:
                tail = math.inf
    return SchattenReport(p=p, q=q_eff, value=value, n_used=int(m),
                          tail_estimate=tail)


# ---------------------------------------------------------------------------
# band-limited sampling check

# degree-7 cardinal B-spline at integer offsets: the autocorrelation of
# the cubic bump, Eulerian numbers over 7!
_B7_INT = {0: 151.0 / 315.0, 1: 397.0 / 1680.0, 2: 1.0 / 42.0,
           3: 1.0 / 5040.0}


def band_limited_function(v, N: float, sigma: Optional[float] = None,
                          xi0: Optional[float] = None):
    """f with spectrum sum v_i B3((xi - xi_i)/sigma), bumps inside [0, N].

    Returns (f, sigma, xi_list); f(x) = sigma sinc^4(sigma x) sum v_i
    e^(2 pi i xi_i x) under the e^(-2 pi i x xi) transform convention.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a 1-d nonempty sample vector")
    if sigma is None:
        sigma = N / (v.size + 3.0)
    if xi0 is None:
        xi0 = 2.0 * sigma
    xi = xi0 + sigma * np.arange(v.size)
    if xi[0] - 2 * sigma < -1e-12 * N or xi[-1] + 2 * sigma > N * (1 + 1e-12):
        raise ValueError("spectrum bumps leave [0, N]")

    def f(x):
        x = np.asarray(x, dtype=float)
        phases = np.exp(2j * np.pi * np.multiply.outer(x, xi)) @ v
        # np.sinc(t) = sin(pi t)/(pi t)
        return sigma * np.sinc(sigma * x) ** 4 * phases

    return f, float(sigma), xi


def sampling_check(v, N: float, p: float, sigma: Optional[float] = None,
                   xi0: Optional[float] = None) -> dict:
    """Compare the lattice p-sum of a band-limited f against N ||f||_p^p.

    At p = 2 the two sides agree exactly (sampling Parseval identity);
    the rhs is then computed independently through the B-spline
    autocorrelation quadratic form rather than by quadrature.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if not N > 0:
        raise ValueError("N must be positive")
    v = np.asarray(v, dtype=float)
    if not np.any(v != 0):
        return {"lhs": 0.0, "rhs_norm": 0.0, "ratio": math.nan}
    f, sig, xi = band_limited_function(v, N, sigma, xi0)

    # lattice sum with doubling until the tail is negligible
    lhs_prev, m_cut = None, int(64 * N / sig) + 64
    while True:
        m = np.arange(-m_cut, m_cut + 1)
        lhs = float(np.sum(np.abs(f(m / N)) ** p))
        if lhs_prev is not None and abs(lhs - lhs_prev) <= 1e-11 * lhs:
            break
        if m_cut > 10 ** 7:
            raise RuntimeError("lattice sum did not stabilize")
        lhs_prev, m_cut = lhs, 2 * m_cut

    if p == 2:
        # exact: N sigma v^T G v with G the integer B7 Gram
        idx = np.arange(v.size)
        offs = np.abs(idx[:, None] - idx[None, :])
        G = np.zeros(offs.shape)
        for k, val in _B7_INT.items():
            G[offs == k] = val
        rhs = float(N * sig * v @ G @ v)
    else:
        rhs_prev, x_max, dx = None, 64.0 / sig, 1.0 / (16.0 * N)
        while True:
            x = np.arange(-x_max, x_max, dx)
            rhs = float(N * np.sum(np.abs(f(x)) ** p) * dx)
            if rhs_prev is not None and abs(rhs - rhs_prev) <= 1e-9 * rhs:
                break
            if x_max > 1e6 / sig:
                raise RuntimeError("norm quadrature did not stabilize")
            rhs_prev, x_max = rhs, 2.0 * x_max
    ratio = lhs / rhs
    if p == 2 and abs(ratio - 1.0) > 1e-8:
        raise AssertionError(
            f"sampling Parseval identity violated: ratio {ratio!r}")
    return {"lhs": lhs, "rhs_norm": rhs, "ratio": ratio}
