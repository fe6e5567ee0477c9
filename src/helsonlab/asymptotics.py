"""Tail constant, power-law fits, negative-part domination.

Everything here consumes plain arrays or spectra; no operator
assembly.  The tail constant takes Gamma from the standard library
(math.lgamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from helsonlab.eigen import Spectrum
from helsonlab.symbols import check_alpha

# eigenvalues below this fraction of lambda_1^+ are solver noise: the
# pipeline's resolved counts, sidecars and cross-row checks and the
# negative-part checks here all cut at it
NOISE_FLOOR = 1e-8


def kappa(alpha: float) -> float:
    """Tail constant: 2^-a pi^(1-2a) Beta(1/(2a), 1/2)^a.

    Beta goes through log-Gamma; an alpha whose constant or log-Gamma
    overflows a double (above about 226, below about 2e-306) raises
    ValueError.
    """
    check_alpha(alpha)
    a = 1.0 / (2.0 * alpha)
    try:
        log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
        value = math.exp(-alpha * math.log(2.0)
                         + (1.0 - 2.0 * alpha) * math.log(math.pi)
                         + alpha * log_beta)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"alpha={alpha!r} is out of range: kappa(alpha) "
                         f"is not a finite double")
    return value


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


def fit_power_tail(lam: Sequence[float], window: tuple) -> FitResult:
    """Least-squares line on (log n, log lambda_n) over a 1-based window.

    drift is the slope of log(lambda_n n^alpha_hat) between the first
    and last thirds of the window; its sign reports the direction from
    which the sequence approaches its power-law asymptote.
    """
    lam = np.asarray(lam, dtype=float)
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
# negative part


def negative_part_domination(full_spec: Spectrum, a1_spec: Spectrum,
                             a0_spec: Spectrum) -> dict:
    """Check lambda_n^-(full) <= lambda_n^-(residual part) + 1e-10 for all n.

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
    ok = bool(np.all(excess <= 1e-10))
    return {"ok": ok, "n_checked": m,
            "max_excess": float(excess.max()) if m else 0.0}
