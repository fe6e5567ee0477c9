"""Tail constant, power-law fits, Laplace asymptotics, decay certification.

Everything here consumes plain arrays or kernel callables; no operator
assembly.  The tail constant takes Gamma from the standard library
(math.lgamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from helsonlab.eigen import Spectrum
from helsonlab.symbols import QuadratureError, gauss_panels

# eigenvalues below this fraction of lambda_1^+ are solver noise: the
# pipeline's resolved counts, sidecars and cross-row checks and the
# negative-part checks here all cut at it
NOISE_FLOOR = 1e-8


def kappa(alpha: float) -> float:
    """Tail constant: 2^-a pi^(1-2a) Beta(1/(2a), 1/2)^a.

    Beta goes through log-Gamma so small alpha (huge first argument)
    cannot overflow.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    a = 1.0 / (2.0 * alpha)
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return math.exp(-alpha * math.log(2.0)
                    + (1.0 - 2.0 * alpha) * math.log(math.pi)
                    + alpha * log_beta)


# ---------------------------------------------------------------------------
# power-law tail fitting


@dataclass
class FitResult:
    alpha_hat: float
    kappa_hat: float
    window: tuple
    residual_rms: float
    drift: float

    def to_json(self) -> dict:
        return {"alpha_hat": self.alpha_hat, "kappa_hat": self.kappa_hat,
                "n0": self.window[0], "n1": self.window[1],
                "residual_rms": self.residual_rms, "drift": self.drift}


def default_fit_window(n_available: int) -> tuple:
    """Skip the discretization-polluted head and truncation-polluted tail."""
    n0 = max(1, n_available // 20)
    n1 = max(n0 + 8, n_available // 4)
    return (n0, n1)


def fit_power_tail(lam: Sequence[float], window: Optional[tuple] = None) -> FitResult:
    """Least-squares line on (log n, log lambda_n) over a 1-based window.

    drift is the slope of log(lambda_n n^alpha_hat) between the first
    and last thirds of the window; its sign reports the direction from
    which the sequence approaches its power-law asymptote.
    """
    lam = np.asarray(lam, dtype=float)
    if window is None:
        window = default_fit_window(lam.size)
    n0, n1 = int(window[0]), int(window[1])
    if not (1 <= n0 and n1 <= lam.size):
        raise ValueError("window outside the available indices")
    if n1 - n0 < 8:
        raise ValueError("window too short: need n1 - n0 >= 8")
    seg = lam[n0 - 1:n1]
    if np.any(seg <= 0):
        raise ValueError("non-positive values inside the fit window")
    n = np.arange(n0, n1 + 1, dtype=float)
    X = np.log(n)
    Y = np.log(seg)
    xc = X - X.mean()
    slope = float(xc @ (Y - Y.mean()) / (xc @ xc))
    intercept = float(Y.mean() - slope * X.mean())
    resid = Y - (intercept + slope * X)
    alpha_hat = -slope
    third = max(1, len(n) // 3)
    log_r = Y + alpha_hat * X
    drift = float((log_r[-third:].mean() - log_r[:third].mean())
                  / (X[-third:].mean() - X[:third].mean()))
    return FitResult(alpha_hat=alpha_hat, kappa_hat=math.exp(intercept),
                     window=(n0, n1),
                     residual_rms=float(np.sqrt(np.mean(resid**2))),
                     drift=drift)


# ---------------------------------------------------------------------------
# Laplace-type integral with the slow logarithmic factor


def laplace_I(ell: int, alpha: float, c: float, x: float,
              rel_tol: float = 1e-11) -> float:
    """Integral of |log l|^(-alpha) l^ell e^(-l x) over (0, c).

    Computed after the substitution l = e^s / x, which keeps the
    integrand O(1) regardless of x; the raw value underflows in the
    naive form long before it stops being meaningful here.  Panel
    counts double until two successive refinements agree to rel_tol.
    """
    if ell < 0 or int(ell) != ell:
        raise ValueError("ell must be a non-negative integer")
    if not 0 < c < 1:
        raise ValueError("need c in (0, 1)")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not x > math.e:
        raise ValueError("need x > e")
    L = math.log(x)
    hi = L + math.log(c)

    def integrand(s):
        return (L - s) ** (-alpha) * np.exp((ell + 1) * s - np.exp(s))

    knots = np.array(sorted({-40.0, -10.0, -3.0, 0.0, 3.0, min(8.0, hi), hi}))
    knots = knots[knots <= hi]
    prev = None
    per = 16
    while per <= 1024:
        xs, ws = gauss_panels(knots, per)
        val = float(ws @ integrand(xs))
        if prev is not None and abs(val - prev) <= rel_tol * abs(val):
            return val * math.exp(-(ell + 1) * L)
        prev = val
        per *= 2
    raise QuadratureError("laplace_I refinement did not converge")


# ---------------------------------------------------------------------------
# kernel decay certification


def decay_order(gamma: float) -> int:
    """Derivative order for the decay hypothesis: floor(gamma)+1 if gamma >= 1/2."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return int(math.floor(gamma)) + 1 if gamma >= 0.5 else 0


@dataclass
class DecaySpec:
    gamma: float
    m: int
    x_samples: np.ndarray

    def __post_init__(self):
        self.x_samples = np.asarray(self.x_samples, dtype=float)
        if np.any(self.x_samples <= 0):
            raise ValueError("samples must be positive")
        if self.m != decay_order(self.gamma):
            raise ValueError("m does not match the case split for gamma")


def make_decay_spec(gamma: float, x_samples) -> DecaySpec:
    return DecaySpec(gamma=gamma, m=decay_order(gamma),
                     x_samples=np.asarray(x_samples, dtype=float))


def _central_derivative(fn: Callable, x: np.ndarray, order: int,
                        h: np.ndarray):
    """Iterated central difference of given order, vectorized over x."""
    if order == 0:
        return fn(x)
    ks = np.arange(order + 1)
    coef = np.array([math.comb(order, k) * (-1) ** k for k in ks])
    offs = order / 2.0 - ks
    acc = np.zeros_like(x)
    for cf, of in zip(coef, offs):
        acc = acc + cf * fn(x + of * h)
    return acc / h ** order


def _richardson_derivative(fn: Callable, x: np.ndarray, order: int,
                           h0: np.ndarray, levels: int = 2):
    """Richardson extrapolation of the order-2 central stencil.

    levels extrapolation stages need levels+1 stencil evaluations
    (h, h/2, ..., h/2^levels); each stage cancels the next even error
    term.
    """
    table = [_central_derivative(fn, x, order, h0 / 2 ** j)
             for j in range(levels + 1)]
    for stage in range(1, levels + 1):
        fac = 4.0 ** stage
        table = [(fac * table[j + 1] - table[j]) / (fac - 1.0)
                 for j in range(len(table) - 1)]
    return table[0]


def _end_trend(x: np.ndarray, ratio: np.ndarray, toward_zero: bool) -> float:
    """Log-log slope of the ratio toward the end (positive = growth)."""
    good = ratio > 0
    if good.sum() < 3:
        return 0.0
    t = np.log(x[good])
    if toward_zero:
        t = -t
    r = np.log(ratio[good])
    tc = t - t.mean()
    return float(tc @ (r - r.mean()) / (tc @ tc))


def verify_kernel_decay(b: Callable, gamma: float, spec: DecaySpec,
                        trend_tol: float = 0.05) -> dict:
    """Check |b^(l)(x)| x^(1+l) |log x|^gamma stays bounded at both ends.

    Derivatives come from Richardson-extrapolated central differences
    with relative step h = 0.01 x.  A derivative estimate below the
    rounding noise of its stencil marks the row inconclusive instead of
    failing it.
    """
    if gamma != spec.gamma:
        raise ValueError("gamma argument disagrees with the DecaySpec")
    x = np.sort(spec.x_samples)
    lo_m = x < 1.0
    hi_m = x > 1.0
    rows = []
    for ell in range(spec.m + 1):
        h = 0.01 * x
        if ell == 0:
            deriv = np.asarray(b(x), dtype=float)
        else:
            deriv = _richardson_derivative(b, x, ell, h)
        scale = np.abs(np.asarray(b(x), dtype=float))
        noise = 16.0 * np.finfo(float).eps * np.maximum(scale, 1e-300) \
            / (h / 4.0) ** ell
        inconclusive = bool(np.any((np.abs(deriv) < 10.0 * noise)
                                   & (np.abs(deriv) > 0)))
        ratio = np.abs(deriv) * x ** (1 + ell) * np.abs(np.log(x)) ** gamma
        sup0 = float(ratio[lo_m].max()) if lo_m.any() else float("nan")
        supi = float(ratio[hi_m].max()) if hi_m.any() else float("nan")
        tr0 = _end_trend(x[lo_m], ratio[lo_m], True) if lo_m.any() else 0.0
        tri = _end_trend(x[hi_m], ratio[hi_m], False) if hi_m.any() else 0.0
        finite = np.all(np.isfinite(ratio))
        ok = bool(finite and tr0 <= trend_tol and tri <= trend_tol)
        rows.append({"ell": ell, "sup_ratio_end0": sup0,
                     "sup_ratio_end_inf": supi, "trend_end0": tr0,
                     "trend_end_inf": tri, "pass": ok,
                     "inconclusive": inconclusive})
    return {"gamma": gamma, "m": spec.m, "rows": rows,
            "pass": all(r["pass"] for r in rows)}


def negative_part_domination(full_spec: Spectrum, a1_spec: Spectrum,
                             a0_spec: Spectrum, tol: float = 1e-10) -> dict:
    """Check lambda_n^-(full) <= lambda_n^-(residual part) + tol for all n.

    Valid only when the smooth part is positive semidefinite, so a
    certified spectrum of its truncation is required.  Negative
    eigenvalues below NOISE_FLOOR times the larger lambda_1^+ of the
    two spectra count as zero on both sides, so n_checked is the number
    of genuine negatives; the shorter list is padded with zeros (a
    truncation has finitely many negative eigenvalues and the rest are
    zero).
    """
    lam_max = a0_spec.lambda_plus[0] if a0_spec.lambda_plus.size else 0.0
    neg = a0_spec.meta.get("lambda_min_alg")
    if neg is None:
        neg = -a0_spec.lambda_minus[0] if a0_spec.lambda_minus.size else 0.0
    if neg < -1e-10 * max(lam_max, 1e-300):
        raise ValueError("smooth-part truncation is not certified PSD: "
                         f"min eigenvalue {neg:g} vs top {lam_max:g}")
    top = max(float(sp.lambda_plus[0]) if sp.lambda_plus.size else 0.0
              for sp in (full_spec, a1_spec))
    nf = full_spec.lambda_minus[full_spec.lambda_minus >= NOISE_FLOOR * top]
    na = a1_spec.lambda_minus[a1_spec.lambda_minus >= NOISE_FLOOR * top]
    m = max(nf.size, na.size)
    nf = np.pad(nf, (0, m - nf.size))
    na = np.pad(na, (0, m - na.size))
    excess = nf - na
    ok = bool(np.all(excess <= tol))
    return {"ok": ok, "n_checked": m,
            "max_excess": float(excess.max()) if m else 0.0}
