"""Quadrature grids and symmetric Nystrom sections of the integral operators.

Additive kernels K(x+y) live on half-line grids, multiplicative kernels
K(ts) on grids in (1, inf); both are assembled in the symmetric form
sqrt(w) K sqrt(w) so the result feeds the symmetric eigensolver directly.
The smooth kernels (Laplace transforms of a weight) get an exact Gram
fast path: the section is formed as E E^T over the shared quadrature
rule of the weight, which makes positive semidefiniteness a property of
the construction rather than a numerical accident.  The difference
kernels a1 = a - a0 and b1 = b - b0 reuse that factor: their section is
the closed-form full kernel, assembled entrywise, minus the same E E^T,
so no entry is ever a quadrature sum of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from helsonlab.structured_ops import LinearMap
from helsonlab.symbols import (
    SymbolSpec, _weight_of, _weight_rule, _weight_support, _weight_values,
    chi_cutoff, kernel_fn, special_kernels, zeta1,
)

SPACINGS = ("uniform", "geometric", "gauss")

# element budget per evaluation block during dense assembly.  Every chain
# kernel that reaches _assemble is closed form (smooth and difference
# parts go through _GRAM_KINDS); a quadrature closure passed in as a
# callable, such as kernel_fn of a0, expands each element by its rule
# size, and _laplace_sum blocks that expansion itself
_ASSEMBLY_BUDGET = 1 << 13

# spec kinds whose section comes from the weight's Gram factor E E^T, per
# combine rule: the smooth parts are E E^T itself, the difference parts
# are the named closed-form full kernel assembled entrywise minus E E^T
_GRAM_KINDS = {("product", "a0"): None, ("product", "a1"): "helson_a",
               ("sum", "b0"): None, ("sum", "b1"): "hankel_b"}

# kernels with a 1/x-type singularity at the origin need lo > 0
_SINGULAR_AT_ZERO = ("carleman", "zeta1", "h_beta")


class ConstructionError(ValueError):
    """Grid/kernel combination cannot produce a finite section."""


@dataclass(eq=False)
class Grid:
    """Nodes and positive quadrature weights on [lo, hi].

    uniform: trapezoid weights, sum exactly hi - lo.
    geometric: uniform in log with weights h * x (trapezoid in log).
    gauss: composite Gauss-Legendre panels, sum exactly hi - lo.
    """

    nodes: np.ndarray
    weights: np.ndarray
    spacing: str
    domain: tuple

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        lo, hi = self.domain
        if self.spacing not in SPACINGS:
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("need at least two 1-d nodes")
        if self.weights.shape != self.nodes.shape:
            raise ValueError("weights/nodes shape mismatch")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] < lo - 1e-12 * max(1, abs(lo)) or \
           self.nodes[-1] > hi + 1e-12 * max(1, abs(hi)):
            raise ValueError("nodes leave the stated domain")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be positive")

    @property
    def n(self) -> int:
        return self.nodes.size

    def to_json(self) -> dict:
        return {"lo": self.domain[0], "hi": self.domain[1],
                "n": self.n, "spacing": self.spacing}

    @classmethod
    def from_json(cls, rec: dict) -> "Grid":
        return make_grid((rec["lo"], rec["hi"]), rec["n"], rec["spacing"])


def make_grid(domain, n: int, spacing: str = "uniform") -> Grid:
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("need lo < hi")
    if n < 2:
        raise ValueError("need n >= 2")
    if spacing == "uniform":
        nodes = np.linspace(lo, hi, n)
        h = (hi - lo) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    elif spacing == "geometric":
        if lo <= 0:
            raise ValueError("geometric spacing needs lo > 0")
        u = np.linspace(math.log(lo), math.log(hi), n)
        nodes = np.exp(u)
        nodes[0], nodes[-1] = lo, hi
        h = (math.log(hi) - math.log(lo)) / (n - 1)
        weights = h * nodes
        weights[0] *= 0.5
        weights[-1] *= 0.5
    elif spacing == "gauss":
        panels = max(1, n // 32)
        base, rem = divmod(n, panels)
        edges = np.linspace(lo, hi, panels + 1)
        xs, ws = [], []
        for i in range(panels):
            cnt = base + (1 if i < rem else 0)
            gx, gw = np.polynomial.legendre.leggauss(cnt)
            mid = 0.5 * (edges[i] + edges[i + 1])
            hw = 0.5 * (edges[i + 1] - edges[i])
            xs.append(mid + hw * gx)
            ws.append(hw * gw)
        nodes = np.concatenate(xs)
        weights = np.concatenate(ws)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    return Grid(nodes=nodes, weights=weights, spacing=spacing, domain=(lo, hi))


def v_matched_grids(x_domain, n: int):
    """Uniform grid in x and its exact exponential image in t = e^x.

    The pair discretizes the change of variable that carries additive
    sections onto multiplicative ones; entries of matched Nystrom
    matrices coincide to rounding.
    """
    gx = make_grid(x_domain, n, "uniform")
    if x_domain[1] > 700.0:
        raise ConstructionError("node map t = e^x overflows for x > 700")
    t = np.exp(gx.nodes)
    h = (x_domain[1] - x_domain[0]) / (n - 1)
    wt = h * t
    wt[0] *= 0.5
    wt[-1] *= 0.5
    gt = Grid(nodes=t, weights=wt, spacing="geometric",
              domain=(float(t[0]), float(t[-1])))
    return gx, gt


def change_of_variable(f, uniform_grid: Grid, geometric_grid: Grid):
    """(Vf)(t) = t^(-1/2) f(log t) on the matched grid pair.

    Discrete norms match exactly: the 1/t from |Vf|^2 cancels the t in
    the geometric weights.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != uniform_grid.nodes.shape:
        raise ValueError("f must live on the uniform grid")
    t = geometric_grid.nodes
    if t.shape != uniform_grid.nodes.shape or not np.allclose(
            t, np.exp(uniform_grid.nodes), rtol=1e-12, atol=0):
        raise ValueError("geometric grid is not the exponential image "
                         "of the uniform grid")
    return f / np.sqrt(t)


# ---------------------------------------------------------------------------
# symmetric Nystrom assembly


@dataclass(eq=False)
class NystromOperator:
    """Symmetric section sqrt(w_m) K(x_m, x_n) sqrt(w_n) of an integral kernel."""

    grid: Grid
    kernel: Union[SymbolSpec, Callable]
    map: LinearMap

    def dense(self) -> np.ndarray:
        return self.map.dense()


def _kernel_callable(kernel) -> Callable:
    if isinstance(kernel, SymbolSpec):
        return kernel_fn(kernel)
    if callable(kernel):
        return lambda x: np.asarray(kernel(x), dtype=float)
    raise TypeError("kernel must be a SymbolSpec or a callable")


def _check_singularity(kernel, grid: Grid, combine: str) -> None:
    if isinstance(kernel, SymbolSpec) and kernel.kind in _SINGULAR_AT_ZERO:
        lo = grid.domain[0]
        if (combine == "sum" and lo <= 0) or (combine == "product" and lo <= 0):
            raise ConstructionError(
                f"{kernel.kind} kernel is singular at 0: need lo > 0")


def _assemble(fn: Callable, grid: Grid, combine: str) -> np.ndarray:
    x = grid.nodes
    n = x.size
    sq = np.sqrt(grid.weights)
    out = np.empty((n, n))
    step = max(1, _ASSEMBLY_BUDGET // n)
    for lo_i in range(0, n, step):
        hi_i = min(lo_i + step, n)
        if combine == "sum":
            args = x[lo_i:hi_i, None] + x[None, :]
        else:
            args = x[lo_i:hi_i, None] * x[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = fn(args.ravel()).reshape(args.shape)
        out[lo_i:hi_i] = sq[lo_i:hi_i, None] * vals * sq[None, :]
    if not np.all(np.isfinite(out)):
        raise ConstructionError(
            "kernel produced non-finite entries on the truncated domain "
            "(singular kernels need lo > 0)")
    return 0.5 * (out + out.T)


def _gram_fast_path(spec: SymbolSpec, grid: Grid, combine: str,
                    Q: int = 2000) -> np.ndarray:
    """Exact-PSD assembly of a Laplace-transform kernel section.

    The section sqrt(w_m) K sqrt(w_n) with K the transform of a weight
    rho is E E^T for E_mq = sqrt(w_m) phi(x_m, l_q) sqrt(rho_q), using
    the same cached rule as the scalar quadrature, so the two agree to
    rounding and the section is PSD by construction.
    """
    lam, rho = _weight_rule(_weight_of(spec), Q)
    if np.any(rho < 0):
        raise ConstructionError("weight rule produced negative masses")
    x = grid.nodes
    if combine == "sum":
        expo = -np.multiply.outer(x, lam)
    else:
        expo = -np.multiply.outer(np.log(x), lam) - 0.5 * np.log(x)[:, None]
    E = np.exp(expo) * np.sqrt(rho)[None, :]
    E *= np.sqrt(grid.weights)[:, None]
    return E @ E.T


def _section(kernel, grid: Grid, combine: str) -> np.ndarray:
    """Dense symmetric section of a spec or callable kernel on the grid."""
    key = (combine, kernel.kind if isinstance(kernel, SymbolSpec) else None)
    if key not in _GRAM_KINDS:
        return _assemble(_kernel_callable(kernel), grid, combine)
    gram = _gram_fast_path(kernel, grid, combine)
    full = _GRAM_KINDS[key]
    if full is None:
        return gram
    closed = _assemble(kernel_fn(replace(kernel, kind=full)), grid, combine)
    return closed - gram


def _wrap_operator(matrix: np.ndarray, grid: Grid, kernel,
                   what: str) -> NystromOperator:
    lm = LinearMap(rows=grid.n, cols=grid.n, symmetric=True,
                   matvec=lambda u: matrix @ u,
                   description=f"{what} section, n={grid.n} "
                               f"[{grid.domain[0]:g}, {grid.domain[1]:g}] "
                               f"{grid.spacing}",
                   dense=lambda: matrix)
    return NystromOperator(grid=grid, kernel=kernel, map=lm)


def nystrom_hankel(b, grid: Grid, max_nodes: int = 4096) -> NystromOperator:
    """Section of the additive kernel: entries sqrt(w_m) b(x_m+x_n) sqrt(w_n).

    b0 is the Gram factor E E^T of its weight rule; b1 is the closed-form
    hankel_b section minus that same E E^T.
    """
    if grid.n > max_nodes:
        raise ConstructionError(f"dense assembly capped at {max_nodes} nodes")
    _check_singularity(b, grid, "sum")
    return _wrap_operator(_section(b, grid, "sum"), grid, b,
                          "additive-kernel")


def nystrom_helson(a, grid: Grid, max_nodes: int = 4096) -> NystromOperator:
    """Section of the multiplicative kernel: sqrt(w_m) a(t_m t_n) sqrt(w_n).

    a0 is the Gram factor E E^T of its weight rule; a1 is the closed-form
    helson_a section minus that same E E^T.
    """
    if grid.domain[0] < 1.0:
        raise ConstructionError("multiplicative sections need lo >= 1")
    if grid.n > max_nodes:
        raise ConstructionError(f"dense assembly capped at {max_nodes} nodes")
    return _wrap_operator(_section(a, grid, "product"), grid, a,
                          "multiplicative-kernel")


# ---------------------------------------------------------------------------
# factorization of the smooth part


def _coverage_check(w_spec: SymbolSpec, grid: Grid) -> None:
    lo, hi = _weight_support(w_spec)
    span = hi - lo
    if grid.domain[1] < hi - 1e-12 * max(1.0, abs(hi)) or \
       grid.domain[0] > lo + 0.05 * span:
        raise ConstructionError(
            f"grid [{grid.domain[0]:g}, {grid.domain[1]:g}] does not cover "
            f"the weight support [{lo:g}, {hi:g}]")


def factor_N_dense(w_spec: SymbolSpec, J: int, grid: Grid) -> np.ndarray:
    """Rectangular factor F_jq = j^(-x_q - 1/2) sqrt(w(x_q) omega_q).

    F F^T reproduces the smooth multiplicative section on integers and
    F^T F is the weighted finite zeta sum; both products share every
    nonzero singular value.
    """
    if J < 1:
        raise ValueError("J must be positive")
    _coverage_check(w_spec, grid)
    x = grid.nodes
    wvals = np.atleast_1d(_weight_values(w_spec, x))
    if np.any(wvals < 0):
        raise ConstructionError("weight takes negative values on the grid")
    j = np.arange(1, J + 1, dtype=float)
    F = np.exp(np.multiply.outer(-np.log(j), x + 0.5))
    F *= np.sqrt(wvals * grid.weights)[None, :]
    return F


def weighted_operator(kind: str, w_spec: SymbolSpec, grid: Grid) -> NystromOperator:
    """Section sqrt(w om)_m K(x_m + x_n) sqrt(w om)_n for a named kernel.

    The kernel argument stays strictly positive (lo > 0 enforced: every
    named kind here has a 1/x-type singularity at the origin).
    """
    if kind == "zeta1":
        fn = zeta1
    elif kind == "carleman":
        fn = lambda s: 1.0 / np.asarray(s, dtype=float)
    elif kind == "h_beta":
        fn = lambda s: special_kernels("h_beta", s, w_spec.beta)
    else:
        raise ValueError(f"unknown weighted kernel {kind!r}")
    if grid.domain[0] <= 0:
        raise ConstructionError(f"{kind} kernel is singular at 0: need lo > 0")
    wvals = np.atleast_1d(_weight_values(w_spec, grid.nodes))
    if np.any(wvals < 0):
        raise ConstructionError("weight takes negative values on the grid")
    x = grid.nodes
    sq = np.sqrt(wvals * grid.weights)
    vals = fn((x[:, None] + x[None, :]).ravel()).reshape(grid.n, grid.n)
    M = sq[:, None] * vals * sq[None, :]
    if not np.all(np.isfinite(M)):
        raise ConstructionError("kernel produced non-finite entries")
    M = 0.5 * (M + M.T)
    return _wrap_operator(M, grid, w_spec, f"weighted-{kind}")


# ---------------------------------------------------------------------------
# wide-window section of the smooth additive kernel in log coordinates


def _toeplitz_plans(tvals: np.ndarray, n_rows: int, n_cols: int):
    """FFT plan for y_m = sum_q T[m-q] v_q with T[k] = tvals[k + n_cols - 1]."""
    L = tvals.size
    assert L == n_rows + n_cols - 1
    M = 1 << int(math.ceil(math.log2(L + max(n_rows, n_cols) - 1)))
    return M, np.fft.rfft(tvals, n=M)


def log_window_smooth_section(alpha: float, n: int, step: float = 0.135,
                              u_lo: float = -6.0, pad: float = 80.0,
                              chi_lo: float = 0.25, chi_hi: float = 0.75,
                              t0: float = 16.0) -> NystromOperator:
    """Smooth additive-kernel section in log coordinates, window grown with n.

    The additive smooth kernel conjugated to u = log x has the exact form
    K(u,v) = integral of g(u-mu) g(v-mu) W(mu) dmu with g(d) = e^(d/2-e^d)
    and W(mu) = w(e^-mu), so the section over a uniform u-grid is E E^T
    for a Toeplitz-structured E; the matvec runs through two FFT
    convolutions without materializing anything n x n.  map.dense forms
    E E^T explicitly and refuses windows with n * Q > 2^24 factor
    entries (Q quadrature nodes in mu).  Keeping the step
    fixed while n grows widens the window, which is the actual accuracy
    knob: truncation error falls like 1/width^2 while the quadrature
    error in mu is already superexponentially small at this step.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if step <= 0 or not 0 < chi_lo < chi_hi <= 1:
        raise ValueError("bad window parameters")
    h = float(step)
    u = u_lo + h * np.arange(n)
    # W(mu) = w(e^-mu) vanishes for mu <= -log(chi_hi); align mu to step h
    mu_lo = -math.log(chi_hi) + 1e-12
    mu_hi = u[-1] + pad
    Q = int(math.ceil((mu_hi - mu_lo) / h)) + 1
    mu = mu_lo + h * np.arange(Q)
    # evaluated in mu as mu^-alpha chi(e^-mu): w(e^-mu) itself reads 0 once
    # e^-mu underflows (mu > ~745), which would stop the window growing
    W = mu ** -alpha * chi_cutoff(np.exp(-mu), chi_lo, chi_hi)
    s = h * np.sqrt(W)

    # T[k] = g(delta + k h), k in [-(Q-1), n-1]
    k = np.arange(-(Q - 1), n)
    d = (u[0] - mu[0]) + h * k
    expo = 0.5 * d - np.exp(np.minimum(d, 40.0))
    tvals = np.exp(expo)
    M, F = _toeplitz_plans(tvals, n, Q)

    def conv(vec, out_lo, out_hi):
        y = np.fft.irfft(F * np.fft.rfft(vec, n=M), n=M)
        return y[out_lo:out_hi]

    def mv(vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n,):
            raise ValueError(f"expected a length-{n} vector, got {vec.shape}")
        # (E^T vec)_q = s_q sum_m T[m-q] vec_m  via conv with reversed input
        y1 = s * conv(vec[::-1], n - 1, n + Q - 1)[::-1]
        # (E y1)_m = sum_q T[m-q] s_q y1_q
        return conv(s * y1, Q - 1, n + Q - 1)

    def dense():
        if n * Q > 1 << 24:
            raise ConstructionError("window too large to materialize")
        E = tvals[(np.arange(n)[:, None] - np.arange(Q)[None, :]) + Q - 1]
        E = E * s[None, :]
        return E @ E.T

    grid = Grid(nodes=u, weights=np.full(n, h), spacing="uniform",
                domain=(float(u[0]), float(u[-1])))
    lm = LinearMap(rows=n, cols=n, symmetric=True, matvec=mv,
                   description=f"log-coordinate smooth section n={n} "
                               f"step={h:g} window=[{u[0]:g}, {u[-1]:g}]",
                   dense=dense)
    spec_b0 = SymbolSpec("b0", alpha=alpha, t0=t0, chi_lo=chi_lo, chi_hi=chi_hi)
    return NystromOperator(grid=grid, kernel=spec_b0, map=lm)
