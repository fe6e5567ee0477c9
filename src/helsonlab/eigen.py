"""Symmetric eigensolvers: matrix-free Lanczos and dense LAPACK spectra.

The Lanczos path keeps a full orthonormal basis (the operators here have
clustered, slowly decaying spectra where ghost copies are the main
failure mode) and certifies every reported Ritz pair by its residual
|beta_m| |last eigenvector component|.  Dense spectra, and the Ritz
values of the Lanczos tridiagonal, come from LAPACK through
``np.linalg.eigvalsh`` / ``np.linalg.eigh``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from helsonlab.structured_ops import LinearMap, dense_matrix

# negative eigenvalues below this fraction of lambda_1+ are reported as 0
# (below discretization noise for nearly-PSD operators)
_NEG_SNAP = 1e-12


@dataclass
class Spectrum:
    """Sign-split eigenvalue / singular value report.

    lambda_plus: positive eigenvalues, non-increasing.
    lambda_minus: absolute values of negative eigenvalues, non-increasing.
    singular: singular values, non-increasing.
    residuals: certified ||Av - lv|| / ||A|| per reported eigenvalue, in
    the order lambda_plus then lambda_minus (empty for dense results).
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    singular: np.ndarray
    residuals: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lambda_plus", "lambda_minus", "singular", "residuals"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("lambda_plus", "lambda_minus", "singular"):
            v = getattr(self, name)
            if v.size > 1 and np.any(np.diff(v) > 1e-12 * max(1.0, abs(float(v[0])))):
                raise ValueError(f"{name} must be non-increasing")
        if np.any(self.singular < 0):
            raise ValueError("singular values must be non-negative")


def spectrum_to_csv(spec: Spectrum, path) -> None:
    """CSV schema n,lambda_plus,lambda_minus,s_n; short lists leave blanks."""
    lists = (spec.lambda_plus, spec.lambda_minus, spec.singular)
    n_max = max((v.size for v in lists), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "lambda_plus", "lambda_minus", "s_n"])
        for n in range(n_max):
            row = [str(n + 1)]
            for v in lists:
                row.append("%.17g" % v[n] if n < v.size else "")
            w.writerow(row)


def spectrum_from_csv(path) -> Spectrum:
    cols = {"lambda_plus": [], "lambda_minus": [], "s_n": []}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key, acc in cols.items():
                if row[key] != "":
                    acc.append(float(row[key]))
    return Spectrum(lambda_plus=np.array(cols["lambda_plus"]),
                    lambda_minus=np.array(cols["lambda_minus"]),
                    singular=np.array(cols["s_n"]),
                    residuals=np.array([]), meta={"source": str(path)})


def write_meta_sidecar(spec: Spectrum, path) -> None:
    """Solver metadata next to a spectrum CSV, convergence flag included."""
    keep = {k: spec.meta[k] for k in ("dim", "iterations", "seed", "tol",
                                      "converged", "method", "lambda_max_alg",
                                      "lambda_min_alg")
            if k in spec.meta}
    with open(path, "w") as fh:
        json.dump(keep, fh)


# ---------------------------------------------------------------------------
# dense spectra


def householder_tridiagonalize(A: np.ndarray):
    """Orthogonal reduction of a symmetric matrix to tridiagonal (d, e).

    No solve path calls this any more; it is kept only because
    perfbench/spans.py wraps it by name.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("need a square matrix")
    d = np.empty(n)
    e = np.empty(max(n - 1, 0))
    for i in range(n - 2):
        x = A[i + 1:, i]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            e[i] = 0.0
            continue
        v = x.copy()
        v[0] += math.copysign(nx, x[0])
        v /= np.linalg.norm(v)
        sub = A[i + 1:, i + 1:]
        p = sub @ v
        q = p - v * float(v @ p)
        sub -= 2.0 * np.outer(v, q) + 2.0 * np.outer(q, v)
        e[i] = -math.copysign(nx, x[0])
        A[i + 1, i] = e[i]
    if n >= 2:
        e[n - 2] = A[n - 1, n - 2]
    d[:] = np.diag(A)
    return d, e


def tridiag_eigenvalues(d, e, last_row: bool = False):
    """Eigenvalues of the symmetric tridiagonal with diagonal d, off-diagonal e.

    Returns ascending eigenvalues (LAPACK through numpy); with
    last_row=True also the last row of the orthogonal eigenvector
    matrix, which is all Lanczos needs for residual certificates.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if e.size + 1 != d.size:
        raise ValueError("subdiagonal must have length n-1")
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    if last_row:
        vals, V = np.linalg.eigh(T)
        return vals, V[-1]
    return np.linalg.eigvalsh(T)


def _split_signs(vals_desc: np.ndarray):
    """(lambda_plus desc, lambda_minus desc) from algebraic eigenvalues."""
    pos = vals_desc[vals_desc > 0.0]
    neg = -vals_desc[vals_desc < 0.0]
    return np.sort(pos)[::-1], np.sort(neg)[::-1]


def dense_eig_oracle(target: Union[LinearMap, np.ndarray],
                     max_size: int = 4096) -> Spectrum:
    """Full spectrum of a real symmetric map or matrix (LAPACK eigvalsh).

    The input must be square, real and symmetric to 1e-12 of its largest
    entry, and at most max_size wide; it is symmetrized before the solve.
    """
    if isinstance(target, LinearMap):
        if not target.symmetric:
            raise ValueError("dense oracle requires a symmetric map")
        M = dense_matrix(target, max_size=max_size)
    else:
        M = np.asarray(target, dtype=float)
        if M.shape[0] != M.shape[1]:
            raise ValueError("need a square matrix")
        if M.shape[0] > max_size:
            raise ValueError(f"refusing to densify beyond {max_size}")
    if np.iscomplexobj(M):
        raise ValueError("dense oracle is real-symmetric only")
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    if scale > 0 and float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    M = 0.5 * (M + M.T)
    vals = np.linalg.eigvalsh(M)[::-1]
    plus, minus = _split_signs(vals)
    return Spectrum(lambda_plus=plus, lambda_minus=minus,
                    singular=np.sort(np.abs(vals))[::-1],
                    residuals=np.zeros(vals.size),
                    meta={"dim": int(M.shape[0]), "iterations": int(M.shape[0]),
                          "seed": None, "tol": 1e-10, "method": "dense",
                          "converged": True})


# ---------------------------------------------------------------------------
# Lanczos with full reorthogonalization

# a Gram-Schmidt pass that keeps less than this fraction of the norm has
# cancelled enough to lose orthogonality and is repeated once (Daniel,
# Gragg, Kaufman & Stewart, Math. Comp. 30 (1976); ARPACK's dsaitr)
_DGKS = 1.0 / math.sqrt(2.0)


def _lanczos_sweep(lm: LinearMap, k: int, tol: float, max_iter: int,
                   rng, negate: bool = False):
    """Top-k algebraic Ritz values of (-1)^negate * lm with residuals."""
    n = lm.cols
    sign = -1.0 if negate else 1.0
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((max_iter, n))
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    m = 0
    beta_last = 0.0
    vals = z = None
    while m < max_iter:
        basis[m] = q
        v = sign * lm.apply(q)
        a = float(q @ v)
        v -= a * q
        if m > 0:
            v -= betas[m - 1] * basis[m - 1]
        # full reorthogonalization against the whole basis
        B = basis[:m + 1]
        before = float(np.linalg.norm(v))
        v -= B.T @ (B @ v)
        b = float(np.linalg.norm(v))
        if b < _DGKS * before:
            v -= B.T @ (B @ v)
            b = float(np.linalg.norm(v))
        alphas[m] = a
        m += 1
        if b <= 1e-14 * max(1.0, float(np.max(np.abs(alphas[:m])))):
            if m >= n:
                beta_last = 0.0
                break
            # invariant subspace: restart deterministically from the stream
            q = rng.standard_normal(n)
            for _ in range(2):
                q -= basis[:m].T @ (basis[:m] @ q)
            nq = float(np.linalg.norm(q))
            if nq <= 1e-14:
                beta_last = 0.0
                break
            q = q / nq
            betas[m - 1] = 0.0
            beta_last = 0.0
        else:
            betas[m - 1] = b
            q = v / b
            beta_last = b
        check_now = (m >= min(2 * k + 16, n)) and (m % 16 == 0 or m == max_iter
                                                   or m >= n)
        if check_now or m >= n:
            vals, z = tridiag_eigenvalues(alphas[:m], betas[:m - 1], last_row=True)
            scale = max(float(np.max(np.abs(vals))), 1e-300)
            res = np.abs(beta_last * z) / scale
            top = np.argsort(vals)[::-1][:k]
            # beta_last == 0 right after a deflation restart would zero
            # every residual; only the full-space case is truly exact then
            if (np.all(res[top] <= tol) and beta_last > 0.0) or m >= n:
                break
    if vals is None:
        vals, z = tridiag_eigenvalues(alphas[:m], betas[:m - 1], last_row=True)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    res = np.abs(beta_last * z) / scale
    top = np.argsort(vals)[::-1][:k]
    converged = bool(np.all(res[top] <= tol))
    return sign * vals[top], res[top], m, converged


def lanczos_extreme(lm: LinearMap, k: int, which: str = "largest",
                    tol: float = 1e-10, max_iter: Optional[int] = None,
                    seed: int = 0) -> Spectrum:
    """Extreme eigenvalues of a symmetric map, residual-certified.

    which = largest | smallest | both_ends.  Deterministic for a fixed
    seed (start vectors from one PCG64 stream, fixed reduction order).
    Non-convergence is reported through meta["converged"], not raised.
    """
    if not lm.symmetric:
        raise ValueError("lanczos_extreme requires a symmetric map")
    if lm.rows != lm.cols:
        raise ValueError("square maps only")
    if not 1 <= k < lm.cols:
        raise ValueError("need 1 <= k < dim")
    if which not in ("largest", "smallest", "both_ends"):
        raise ValueError(f"unknown which={which!r}")
    n = lm.cols
    if max_iter is None:
        max_iter = min(n, max(4 * k + 32, 128))
    max_iter = min(max_iter, n)
    rng = np.random.default_rng(seed)

    meta = {"dim": n, "seed": seed, "tol": tol, "iterations": 0,
            "converged": True, "method": "lanczos"}
    plus = minus = np.array([])
    res_parts = []

    if which in ("largest", "both_ends"):
        vals, res, it, ok = _lanczos_sweep(lm, k, tol, max_iter, rng)
        meta["iterations"] += it
        meta["converged"] &= ok
        meta["lambda_max_alg"] = float(vals[0])
        plus, neg_from_top = _split_signs(vals)
        res_parts.append(res[:plus.size])
        if which == "largest":
            minus = neg_from_top
            res_parts.append(res[plus.size:])
    if which in ("smallest", "both_ends"):
        vals, res, it, ok = _lanczos_sweep(lm, k, tol, max_iter, rng, negate=True)
        meta["iterations"] += it
        meta["converged"] &= ok
        meta["lambda_min_alg"] = float(vals[0])
        # vals are the smallest algebraic eigenvalues of A, ascending
        minus, _ = _split_signs(-vals)
        res_parts.append(res[:minus.size])

    if plus.size and minus.size:
        minus = np.where(minus < _NEG_SNAP * plus[0], 0.0, minus)
    singular = np.sort(np.concatenate([plus, minus]))[::-1] \
        if which == "both_ends" else np.array([])
    residuals = np.concatenate(res_parts) if res_parts else np.array([])
    return Spectrum(lambda_plus=plus, lambda_minus=minus, singular=singular,
                    residuals=residuals, meta=meta)


def singular_values(lm: LinearMap, k: int, tol: float = 1e-10,
                    seed: int = 0, max_size: int = 4096) -> Spectrum:
    """Top-k singular values.

    Real symmetric maps go through two-sided Lanczos (singular values
    are the merged absolute eigenvalues); anything else is densified and
    its (possibly complex Hermitian) Gram matrix on the smaller side goes
    to LAPACK eigvalsh.
    """
    if k < 1 or k > min(lm.rows, lm.cols):
        raise ValueError("need 1 <= k <= min(rows, cols)")
    if lm.symmetric and lm.rows == lm.cols and k < lm.cols:
        spec = lanczos_extreme(lm, k, which="both_ends", tol=tol, seed=seed)
        s = spec.singular[:k]
        return Spectrum(lambda_plus=spec.lambda_plus, lambda_minus=spec.lambda_minus,
                        singular=s, residuals=spec.residuals, meta=spec.meta)
    M = dense_matrix(lm, max_size=max_size)
    if M.shape[0] >= M.shape[1]:
        G = M.conj().T @ M
    else:
        G = M @ M.conj().T
    vals = np.linalg.eigvalsh(G)[::-1]
    if vals.size and vals[0] > 0:
        # Gram eigenvalues below squaring roundoff are exact zeros
        vals = np.where(vals < 1e-13 * vals[0], 0.0, vals)
    s = np.sqrt(np.clip(vals, 0.0, None))
    s = np.concatenate([s, np.zeros(max(0, k - s.size))])[:k]
    return Spectrum(lambda_plus=np.array([]), lambda_minus=np.array([]),
                    singular=s, residuals=np.zeros(k),
                    meta={"dim": int(min(lm.rows, lm.cols)), "iterations": 0,
                          "seed": seed, "tol": tol, "method": "dense-gram"})
