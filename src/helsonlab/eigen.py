"""Symmetric eigensolvers: matrix-free Lanczos and dense LAPACK spectra.

The Lanczos path keeps its basis semi-orthogonal, |q_i.q_j| <= sqrt(eps),
which is enough for Ritz values accurate to working precision and free
of ghost copies (the operators here have clustered, slowly decaying
spectra where ghosts are the main failure mode).  Simon's partial
reorthogonalization (H. D. Simon, Math. Comp. 42 (1984)) estimates the
overlaps of each new Lanczos vector with the basis from the Lanczos
coefficients alone, through the omega-recurrence with a rounding term of
sqrt(n) eps |A|, and runs a Gram-Schmidt pass against the basis only on
the steps where the estimate passes sqrt(eps), and on the step after
each of them.  A step whose new direction falls below 1e-14 of the
largest Lanczos coefficient so far deflates: the basis spans an
invariant subspace, and the sweep restarts from a random vector
orthogonal to it, which is how repeated eigenvalues are found.  When
such a random direction is itself mapped below that floor, the operator
is at its noise floor on the rest of the space and the sweep stops:
the matrix sections of this package resolve only a handful of
eigenvalues and use up their Krylov space within a few dozen steps.
One sweep gives both ends of the spectrum from one basis.  Every
reported Ritz pair carries its residual bound, |beta_m| |last
eigenvector component| plus the couplings dropped at deflations; under
semi-orthogonality it holds up to O(eps |A|), and a sweep converges
once every bound it reports is at most _TOL.
Every map here is symmetric (structured_ops.LinearMap); a dense matrix
is checked for symmetry before its solve.  Dense spectra, and the Ritz
values of the Lanczos tridiagonal, come from LAPACK through
``np.linalg.eigvalsh`` / ``np.linalg.eigh``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from helsonlab.structured_ops import (LinearMap, _check_dense_order,
                                      dense_matrix)

# a negative Lanczos Ritz value smaller than this fraction of lambda_1+ is
# rounding noise of a nearly-PSD operator: lanczos_extreme leaves it out
# of lambda_minus and singular, and its lambda_min_alg reads 0
_NEG_SNAP = 1e-12

# residual bound, relative to the largest |Ritz value|, of a converged pair
_TOL = 1e-10


@dataclass
class Spectrum:
    """Sign-split eigenvalue / singular value report.

    lambda_plus: positive eigenvalues, non-increasing.
    lambda_minus: absolute values of negative eigenvalues, non-increasing
    (a Lanczos result omits those below _NEG_SNAP * lambda_1^+).
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
            # rises are allowed up to rounding of the list's own scale
            if v.size > 1 and np.any(np.diff(v) > 1e-12 * np.max(np.abs(v))):
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
    """Inverse of spectrum_to_csv; a file without the schema's value
    columns, a row shorter than its header or a cell that is not a
    finite number raises ValueError naming the file."""
    cols = {"lambda_plus": [], "lambda_minus": [], "s_n": []}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in cols if k not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the spectrum column(s) "
                             f"{', '.join(missing)}")
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path}, line {reader.line_num}: fewer "
                                 f"cells than the header")
            for key, acc in cols.items():
                if row[key] == "":
                    continue
                try:
                    acc.append(float(row[key]))
                except ValueError:
                    acc.append(math.nan)
                if not math.isfinite(acc[-1]):
                    raise ValueError(f"{path}, line {reader.line_num}, column "
                                     f"{key}: {row[key]!r} is not a finite "
                                     f"number")
    return Spectrum(lambda_plus=np.array(cols["lambda_plus"]),
                    lambda_minus=np.array(cols["lambda_minus"]),
                    singular=np.array(cols["s_n"]),
                    residuals=np.array([]), meta={"source": str(path)})


def write_meta_sidecar(spec: Spectrum, path) -> None:
    """Solver metadata next to a spectrum CSV: convergence flag, route,
    Lanczos steps, how many of them reorthogonalized and how many
    residual checks ran, the noise floor and resolved count, the
    operator, kernel, alpha and size of the spectrum verb, topk (the
    pairs asked, also on the headline), and the headline's n_cap and
    certified_count, each when the spectrum carries it.

    resolved counts the positive eigenvalues at or above the noise
    floor, NOISE_FLOOR * lambda_1; it says nothing about truncation by
    the window.  The headline fit reads certified_count, the leading
    eigenvalues whose turning points lie inside the window, capped at
    resolved, which can be far fewer."""
    keep = {k: spec.meta[k] for k in ("dim", "iterations", "reorthogonalized",
                                      "checks", "seed", "tol", "converged",
                                      "method",
                                      "lambda_max_alg", "lambda_min_alg",
                                      "noise_floor", "resolved", "operator",
                                      "kernel", "alpha", "size", "topk",
                                      "n_cap", "certified_count")
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


def tridiag_eigenvalues(d, e):
    """Eigenvalues of the symmetric tridiagonal with diagonal d, off-diagonal e.

    Returns the ascending eigenvalues (LAPACK through numpy) and the last
    row of the orthogonal eigenvector matrix, which is all Lanczos needs
    for residual certificates.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if e.size + 1 != d.size:
        raise ValueError("subdiagonal must have length n-1")
    n = d.size
    # one n x n array, filled along its three diagonals in place
    T = np.zeros((n, n))
    T.flat[::n + 1] = d
    T.flat[1::n + 1] = e
    T.flat[n::n + 1] = e
    vals, V = np.linalg.eigh(T)
    return vals, V[-1]


def dense_eig_oracle(target: Union[LinearMap, np.ndarray]) -> Spectrum:
    """Full spectrum of a real symmetric map or matrix (LAPACK eigvalsh).

    The input must be square, real and symmetric to 1e-12 of its largest
    entry, and at most structured_ops.MAX_DENSE wide; it is symmetrized
    before the solve.
    """
    if isinstance(target, LinearMap):
        M = dense_matrix(target)
    else:
        M = np.asarray(target, dtype=float)
        if M.shape[0] != M.shape[1]:
            raise ValueError("need a square matrix")
        _check_dense_order(M.shape[0])
    if np.iscomplexobj(M):
        raise ValueError("dense oracle is real-symmetric only")
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    if scale > 0 and float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    M = 0.5 * (M + M.T)
    vals = np.linalg.eigvalsh(M)[::-1]
    return Spectrum(lambda_plus=vals[vals > 0.0],
                    lambda_minus=-vals[vals < 0.0][::-1],
                    singular=np.sort(np.abs(vals))[::-1],
                    residuals=np.zeros(vals.size),
                    meta={"dim": int(M.shape[0]), "iterations": int(M.shape[0]),
                          "seed": None, "tol": _TOL, "method": "dense",
                          "converged": True})


# ---------------------------------------------------------------------------
# Lanczos with partial reorthogonalization

# a Gram-Schmidt pass that keeps less than this fraction of the norm has
# cancelled enough to lose orthogonality and is repeated once (Daniel,
# Gragg, Kaufman & Stewart, Math. Comp. 30 (1976); ARPACK's dsaitr)
_DGKS = 1.0 / math.sqrt(2.0)
# semi-orthogonality: a step is reorthogonalized against the basis once
# its estimated overlap with some basis vector exceeds sqrt(eps) (Simon,
# Math. Comp. 42 (1984))
_EPS = float(np.finfo(float).eps)
_SEMI_ORTH = math.sqrt(_EPS)


def _lanczos_sweep(lm: LinearMap, k: int, max_iter: int, rng,
                   both_ends: bool = False):
    """Top-k (and with both_ends bottom-k) Ritz values of lm, residuals.

    The basis is kept semi-orthogonal, |q_i.q_j| <= sqrt(eps), by
    Simon's partial reorthogonalization (H. D. Simon, "The Lanczos
    algorithm with partial reorthogonalization", Math. Comp. 42 (1984)).
    Each step carries the omega-recurrence, which estimates
    omega_{m+1,j} ~ q_{m+1}.q_j from the alphas and betas alone in O(m):

        beta_m w_{m+1,j} = beta_j w_{m,j+1} + (alpha_j - alpha_m) w_{m,j}
                           + beta_{j-1} w_{m,j-1} - beta_{m-1} w_{m-1,j}
                           +- sqrt(n) eps |A|,

    with |A| the largest |alpha_j| or beta_j so far and the rounding term
    taken with the sign of the rest; w_{m+1,m} itself is
    sqrt(n) eps |A| / beta_m.  Only when max_j |w_{m+1,j}| > sqrt(eps)
    does the step run a Gram-Schmidt pass against the whole basis (a
    second one when the DGKS test asks), and then the next step runs one
    too, as Simon's pairs require; the row is then reset to sqrt(n) eps
    times the factor by which the pass shrank the vector.  A step whose
    three-term remainder is already at the deflation floor runs the pass
    as well, so that the deflation test below sees a clean remainder.
    Every other step keeps only the three-term recurrence.  The textbook
    model (rounding term eps (beta_j + beta_m), w_{m+1,m} and the reset
    at eps) is too optimistic once beta_m / |A| is small: on log-window
    sections at n = 700 and 1024 with k = 216 it let orthogonality go
    and returned unconverged values off by up to 4e9 lambda_1.

    A step deflates when its new direction b is at most 1e-14 times the
    largest |alpha_j| or beta_j seen so far, so the test scales with the
    operator.  A deflation drops that coupling and restarts from a
    random vector orthogonal to the basis, whose omega row starts at
    rounding level.  The sweep ends at m = n, at max_iter, at a residual
    check that finds every selected pair converged (never right after a
    restart), or when the space is used up: a restart direction q that
    deflates at its first step with |q.Aq| below the same floor.  A
    random unit q has a component of order 1/sqrt(n - m) along every
    eigenvector of the operator on the rest of the space, so
    |A q| ~ floor puts every eigenvalue there within about sqrt(n) times
    the floor of zero (unless q is, against the odds, nearly orthogonal
    to its eigenvector): the basis already holds every eigenvalue above.
    A restart direction that deflates with |q.Aq| above the floor lies in
    an eigenspace of the rest (a repeated eigenvalue), and the sweep goes
    on.

    Each residual check is a dense eigensolve of the m x m tridiagonal.
    The first runs at m = 2k + 16, and each next one waits max(16, 2u)
    steps, u the selected pairs the one before left above _TOL: the top
    pairs converge at well under one per step, so a check sooner than
    that would mostly find them still unconverged.

    A Q - Q T is beta_last q e_m^T plus one column per dropped coupling
    plus the rounding of each step.  Under semi-orthogonality T equals
    the projection of A onto an orthonormal basis of span(Q) up to
    O(eps |A|) (Simon 1984), so |beta_last z_i| + sqrt(sum of the dropped
    beta^2) bounds the residual of Ritz pair i up to that level; it is
    reported relative to the largest |Ritz value| and is never 0 for a
    sweep that dropped anything.  One basis approximates both ends at
    once (Kaniel-Paige-Saad; Saad, SIAM J. Numer. Anal. 17 (1980)).
    Returns the selected Ritz values, non-increasing and each once where
    top and bottom meet, their residuals, the steps, the convergence
    flag (every selected residual at most _TOL), the number of steps
    that ran a Gram-Schmidt pass against the basis and the number of
    residual checks.
    """
    n = lm.cols
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((max_iter, n))
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    # omega rows of q_{m-1} and q_m, and the one being formed for q_{m+1}
    w_prev = np.zeros(max_iter + 1)
    w_cur = np.zeros(max_iter + 1)
    w_new = np.empty(max_iter + 1)
    w_cur[0] = 1.0
    rounding = math.sqrt(n) * _EPS
    m = 0
    beta_last = 0.0
    dropped2 = 0.0    # sum of squares of the couplings dropped at deflations
    level = 0.0       # largest |alpha_j| or beta_j so far
    fresh = True      # q is a random direction orthogonal to the basis
    paired = False    # the previous step reorthogonalized on the estimate
    passes = 0
    checks = 0
    checked = -1
    next_check = 2 * k + 16

    def ritz():
        nonlocal checks
        checks += 1
        vals, z = tridiag_eigenvalues(alphas[:m], betas[:m - 1])
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        res = (np.abs(beta_last * z) + math.sqrt(dropped2)) / scale
        order = np.argsort(vals)[::-1]
        if both_ends:
            # vals ascend, so descending indices are descending values
            return vals, res, np.union1d(order[:k], order[-k:])[::-1]
        return vals, res, order[:k]

    while m < max_iter:
        basis[m] = q
        v = lm.apply(q)
        a = float(q @ v)
        v -= a * q
        if m > 0:
            v -= betas[m - 1] * basis[m - 1]
        b = float(np.linalg.norm(v))
        level = max(level, abs(a), b)
        floor = 1e-14 * level
        estimated = False
        if b > floor and not paired:
            # omega-recurrence for row m + 1 over j < m; w_{m+1,m} is local
            t = (alphas[:m] - a) * w_cur[:m]
            t += betas[:m] * w_cur[1:m + 1]
            if m > 0:
                t[1:] += betas[:m - 1] * w_cur[:m - 1]
                t -= betas[m - 1] * w_prev[:m]
            w_new[:m] = (t + np.copysign(rounding * level, t)) / b
            w_new[m] = rounding * level / b
            estimated = bool(np.max(np.abs(w_new[:m + 1])) > _SEMI_ORTH)
        if paired or estimated or b <= floor:
            B = basis[:m + 1]
            before = b
            v -= B.T @ (B @ v)
            b = float(np.linalg.norm(v))
            if b < _DGKS * before:
                v -= B.T @ (B @ v)
                b = float(np.linalg.norm(v))
            passes += 1
            if b > 0.0:
                w_new[:m + 1] = rounding * max(1.0, before / b)
        paired = estimated
        alphas[m] = a
        m += 1
        if b <= floor:
            betas[m - 1] = 0.0
            beta_last = 0.0
            dropped2 += b * b
            if m >= n or (fresh and abs(a) <= floor):
                break
            # invariant subspace: restart deterministically from the stream
            q = rng.standard_normal(n)
            for _ in range(2):
                q -= basis[:m].T @ (basis[:m] @ q)
            nq = float(np.linalg.norm(q))
            if nq <= 1e-14:
                break
            q = q / nq
            fresh = True
            paired = False
            # q is orthogonal to the basis to rounding; betas[m - 1] = 0
            # drops the row of the last vector from the next recurrence
            w_new[:m] = rounding
        else:
            betas[m - 1] = b
            q = v / b
            beta_last = b
            fresh = False
        w_new[m] = 1.0
        w_prev, w_cur, w_new = w_cur, w_new, w_prev
        # max_iter is at most n
        if m >= next_check or m == max_iter:
            vals, res, top = ritz()
            checked = m
            open_pairs = int(np.count_nonzero(res[top] > _TOL))
            # right after a restart the Ritz values are those of an
            # invariant subspace, not yet the top k
            if open_pairs == 0 and beta_last > 0.0:
                break
            next_check = m + max(16, 2 * open_pairs)
    if checked != m:
        vals, res, top = ritz()
    converged = bool(np.all(res[top] <= _TOL))
    return vals[top], res[top], m, converged, passes, checks


def check_seed(seed) -> int:
    """seed as an int; anything but a non-negative integer is refused by
    name, before np.random.default_rng would refuse it without one."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def lanczos_extreme(lm: LinearMap, k: int, which: str = "largest",
                    seed: int = 0) -> Spectrum:
    """Extreme eigenvalues of a symmetric map, residual-certified.

    which = largest | both_ends.  One Lanczos sweep finds the top k
    Ritz values, and for both_ends the bottom k from the same basis.
    Deterministic for a fixed seed, a non-negative integer (start vectors
    from one PCG64 stream, fixed reduction order).  The sweep runs at most min(n, max(4k + 32,
    128)) steps and converges once every residual bound it selects is at
    most _TOL; non-convergence is reported through meta["converged"],
    not raised.  meta["iterations"] counts the Lanczos steps and
    meta["reorthogonalized"] those of them that ran a Gram-Schmidt pass
    against the basis; meta["checks"] counts the residual checks, each a
    dense eigensolve of the Lanczos tridiagonal.
    lambda_plus lists the positives among the top k; lambda_minus (and,
    for both_ends, singular) the negatives among the bottom k of size at
    least _NEG_SNAP * lambda_1^+.  A smallest Ritz value smaller than
    that in size is rounding noise and reads 0 in meta["lambda_min_alg"].
    An end may return fewer than k pairs: a sweep stops once its Krylov
    space is used up, so an operator with fewer than k eigenvalues above
    the deflation floor (1e-14 of its largest Lanczos coefficient) gives
    only the Ritz values that space holds.
    """
    seed = check_seed(seed)
    if not 1 <= k < lm.cols:
        raise ValueError("need 1 <= k < dim")
    if which not in ("largest", "both_ends"):
        raise ValueError(f"unknown which={which!r}")
    n = lm.cols
    max_iter = min(n, max(4 * k + 32, 128))
    rng = np.random.default_rng(seed)
    vals, res, it, ok, passes, checks = _lanczos_sweep(
        lm, k, max_iter, rng, both_ends=which == "both_ends")
    meta = {"dim": n, "seed": seed, "tol": _TOL, "iterations": it,
            "reorthogonalized": passes, "checks": checks, "converged": ok,
            "method": "lanczos", "lambda_max_alg": float(vals[0])}
    # vals come non-increasing: the top k lead, the bottom k close
    plus = vals[:k][vals[:k] > 0.0]
    res_plus = res[:plus.size]
    snap = _NEG_SNAP * plus[0] if plus.size else 0.0
    if which == "both_ends":
        lam_min = float(vals[-1])
        meta["lambda_min_alg"] = 0.0 if abs(lam_min) < snap else lam_min
    # ascending: the most negative first
    low, res_low = vals[-k:][::-1], res[-k:][::-1]
    keep = (low < 0.0) & (low <= -snap)
    minus = -low[keep]
    singular = np.sort(np.concatenate([plus, minus]))[::-1] \
        if which == "both_ends" else np.array([])
    return Spectrum(lambda_plus=plus, lambda_minus=minus, singular=singular,
                    residuals=np.concatenate([res_plus, res_low[keep]]),
                    meta=meta)
