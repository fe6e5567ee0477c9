"""Schatten functionals of a singular-value sequence.

Singular-value functionals are computed exactly from their defining
sums; the report adds a power-extrapolated estimate of the tail.
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


def _check_p(p) -> None:
    """Refuse p unless positive and finite (at p = inf, 1/p reads 0)."""
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p!r}")


def schatten_norm(s, p: float) -> float:
    """(sum s_n^p)^(1/p)."""
    _check_p(p)
    s = _check_singular(s)
    if s.size == 0:
        return 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def schatten_lorentz_norm(s, p: float, q: float) -> float:
    """Lorentz-scale functional; q = inf gives the weak norm sup (1+n)^(1/p) s_n.

    Indexing starts at n = 1 for the leading singular value.
    """
    _check_p(p)
    if not (q > 0 or q == math.inf):
        raise ValueError(f"q must be positive (or inf), got {q!r}")
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
        """The fields by name, an infinite one as "inf" (JSON has none)."""
        return {k: "inf" if v == math.inf else v
                for k, v in vars(self).items()}


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

