"""Quadrature grids and symmetric Nystrom sections of the integral operators.

Additive kernels K(x+y) live on half-line grids, multiplicative kernels
K(ts) on grids in (1, inf); both are assembled in the symmetric form
sqrt(w) K sqrt(w) so the result feeds the symmetric eigensolver directly.
The matched grid pair of v_matched_grids carries one onto the other
under t = e^x.  The smooth kernels (Laplace transforms of a weight) get
an exact Gram fast path: the section is formed as E E^T over the shared
quadrature rule of the weight, which makes positive semidefiniteness a
property of the construction rather than a numerical accident; on the
multiplicative side E is the Dirichlet-exponential factor of
structured_ops, as is the integer-side factor of factor_N_dense.  The
difference kernels a1 = a - a0 and b1 = b - b0 reuse that product:
nystrom_difference subtracts the smooth section E E^T from the
closed-form full kernel's section, assembled entrywise on the same grid,
so no entry is ever a quadrature sum of its own.
weighted_operator gives the quadrature-side sections of the
factorization, the weighted zeta(1+s) and 1/s kernels, through the same
blocked entrywise assembly.  The headline section,
log_window_smooth_section, is never assembled: in log coordinates its
Gram factor is Toeplitz in taps of a kernel that decays exponentially,
so its matvec applies two short filters by overlap-save
(_overlap_save), in transforms whose length the kernel sets, not the
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from helsonlab.structured_ops import (LinearMap, _dirichlet_factor,
                                      _smooth_nodes)
from helsonlab.symbols import (
    SymbolSpec, _weight_support, _weight_values, chi_cutoff, kernel_fn, zeta1,
)

SPACINGS = ("uniform", "geometric", "gauss")

# element budget per evaluation block during dense assembly.  Every chain
# kernel that reaches _assemble is closed form (the smooth parts go
# through _GRAM_KINDS, the difference parts through nystrom_difference);
# a kernel that expands each element, such as zeta1 into its 63-term
# partial sum, holds one block's worth of that expansion, and a
# quadrature closure passed in as a callable, such as kernel_fn of a0,
# blocks its own expansion in _laplace_sum
_ASSEMBLY_BUDGET = 1 << 13

# (combine rule, spec kind) of the smooth parts, whose section is the
# weight's Gram product E E^T
_GRAM_KINDS = {("product", "a0"), ("sum", "b0")}

# kernels of weighted_operator, by name; both are singular at 0
_WEIGHTED_KERNELS = {"zeta1": zeta1, "carleman": lambda s: 1.0 / s}


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
    matrices coincide to rounding.  The weights match exactly,
    w_t = w_x * t, so (Vf)(t) = t^(-1/2) f(log t) keeps discrete norms.
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


def _assemble(fn: Callable, x: np.ndarray, sq: np.ndarray,
              combine: str) -> np.ndarray:
    """Symmetrized sq_m K(x_m, x_n) sq_n, the kernel evaluated in blocks of
    rows of at most _ASSEMBLY_BUDGET entries; combine is "sum" for
    K = fn(x_m + x_n) and "product" for K = fn(x_m x_n)."""
    n = x.size
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
    rounding and the section is PSD by construction.  On the product
    side phi(t, l) sqrt(rho) is the Dirichlet-exponential factor.
    """
    lam, log_rho = _smooth_nodes(spec, Q)
    x = grid.nodes
    if combine == "sum":
        E = np.exp(-np.multiply.outer(x, lam)) * np.exp(0.5 * log_rho)
    else:
        E = _dirichlet_factor(x, lam, log_rho)
    E *= np.sqrt(grid.weights)[:, None]
    return E @ E.T


def _section(kernel, grid: Grid, combine: str) -> np.ndarray:
    """Dense symmetric section of a spec or callable kernel on the grid."""
    key = (combine, kernel.kind if isinstance(kernel, SymbolSpec) else None)
    if key in _GRAM_KINDS:
        return _gram_fast_path(kernel, grid, combine)
    return _assemble(_kernel_callable(kernel), grid.nodes,
                     np.sqrt(grid.weights), combine)


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

    b0 is the Gram factor E E^T of its weight rule; b1 = hankel_b - b0
    comes from nystrom_difference.
    """
    if grid.n > max_nodes:
        raise ConstructionError(f"dense assembly capped at {max_nodes} nodes")
    return _wrap_operator(_section(b, grid, "sum"), grid, b,
                          "additive-kernel")


def nystrom_helson(a, grid: Grid, max_nodes: int = 4096) -> NystromOperator:
    """Section of the multiplicative kernel: sqrt(w_m) a(t_m t_n) sqrt(w_n).

    a0 is the Gram factor E E^T of its weight rule; a1 = helson_a - a0
    comes from nystrom_difference.
    """
    if grid.domain[0] < 1.0:
        raise ConstructionError("multiplicative sections need lo >= 1")
    if grid.n > max_nodes:
        raise ConstructionError(f"dense assembly capped at {max_nodes} nodes")
    return _wrap_operator(_section(a, grid, "product"), grid, a,
                          "multiplicative-kernel")


def nystrom_difference(full: NystromOperator,
                       smooth: NystromOperator) -> NystromOperator:
    """Section of the difference kernel full - smooth on their shared grid.

    full is the closed-form full kernel's section and smooth its smooth
    part's Gram product E E^T, so a1 and b1 reuse a product already made
    for row 0 instead of forming it again.
    """
    if full.grid is not smooth.grid:
        raise ValueError("difference of sections on different grids")
    fa, f0 = _kernel_callable(full.kernel), _kernel_callable(smooth.kernel)
    return _wrap_operator(full.dense() - smooth.dense(), full.grid,
                          lambda x: fa(x) - f0(x), "difference-kernel")


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
    wvals = np.atleast_1d(_weight_values(w_spec, grid.nodes))
    if np.any(wvals < 0):
        raise ConstructionError("weight takes negative values on the grid")
    with np.errstate(divide="ignore"):
        return _dirichlet_factor(np.arange(1, J + 1, dtype=float),
                                 grid.nodes, np.log(wvals * grid.weights))


def weighted_operator(kind: str, w_spec: SymbolSpec, grid: Grid) -> NystromOperator:
    """Section sqrt(w om)_m K(x_m + x_n) sqrt(w om)_n for a named kernel,
    zeta1 (K(s) = zeta(1+s)) or carleman (K(s) = 1/s).

    The kernel argument stays strictly positive (lo > 0 enforced: both
    kernels have a 1/x-type singularity at the origin).
    """
    if kind not in _WEIGHTED_KERNELS:
        raise ValueError(f"unknown weighted kernel {kind!r}")
    if grid.domain[0] <= 0:
        raise ConstructionError(f"{kind} kernel is singular at 0: need lo > 0")
    wvals = np.atleast_1d(_weight_values(w_spec, grid.nodes))
    if np.any(wvals < 0):
        raise ConstructionError("weight takes negative values on the grid")
    M = _assemble(_WEIGHTED_KERNELS[kind], grid.nodes,
                  np.sqrt(wvals * grid.weights), "sum")
    return _wrap_operator(M, grid, w_spec, f"weighted-{kind}")


# ---------------------------------------------------------------------------
# wide-window section of the smooth additive kernel in log coordinates


def _fft_length(L: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= L."""
    best = 1 << (L - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2^a >= L
            best = min(best, p35 << (-(-L // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# share of a filter's l1 mass that _overlap_save may drop from its head,
# and again from its tail.  By Young's inequality the Toeplitz operator of
# the dropped taps has norm at most their l1 mass, 2 * _TAIL_MASS *
# ||f||_1, against the bound ||f||_1 on that of all taps; a product
# E E^T with E = T diag(s) moves by at most twice that share, 4e-20 of
# its own bound ||f||_1^2 max(s)^2, far below rounding
_TAIL_MASS = 1e-20


def _support(f: np.ndarray) -> tuple:
    """(lo, hi) of the shortest f[lo:hi] whose dropped head f[:lo] and
    tail f[hi:] each carry at most _TAIL_MASS of the l1 mass of f."""
    a = np.abs(f)
    tol = _TAIL_MASS * a.sum()
    lo = int(np.searchsorted(np.cumsum(a), tol, side="right"))
    hi = a.size - int(np.searchsorted(np.cumsum(a[::-1]), tol, side="right"))
    return lo, hi


def _overlap_save(f: np.ndarray, i0: int, count: int) -> Callable:
    """x -> (f * x)[i0 : i0 + count], x read as zero outside its indices.

    Overlap-save (Stockham, AFIPS 1966) over the numerical support
    f[lo:hi] of the taps (_support), P = hi - lo of them.  A block of B
    inputs gives B - P + 1 outputs.  The block count is the one that
    blocks of _fft_length(4P) points need, which weighs the log B cost
    per point of a transform against the P - 1 outputs every block
    discards; B is then the shortest 5-smooth length that covers count
    in that many blocks (one block when count is below about 3P).  All
    blocks go through one 2-D rfft/irfft along axis 1.  The filter's
    transform, the padded input and its block view are made here, once;
    the transforms' outputs are allocated per call, since buffers kept
    for them raised a whole chain's peak RSS by ~1.3 MB.
    """
    lo, hi = _support(f)
    P = hi - lo
    blocks = -(-count // (_fft_length(4 * P) - P + 1))
    B = _fft_length(-(-count // blocks) + P - 1)
    S = B - P + 1
    F = np.fft.rfft(f[lo:hi], n=B)
    # block j writes outputs i0 + jS .. i0 + jS + S - 1 and reads inputs
    # first + jS .. first + jS + B - 1
    first = i0 - lo - (P - 1)
    span = (blocks - 1) * S + B
    xp = np.zeros(span)
    X = np.lib.stride_tricks.sliding_window_view(xp, B)[::S]

    def apply(x):
        a, b = max(first, 0), min(first + span, x.size)
        xp[:] = 0.0
        if a < b:
            xp[a - first:b - first] = x[a:b]
        Xf = np.fft.rfft(X, axis=1)
        Xf *= F
        Y = np.fft.irfft(Xf, n=B, axis=1)
        # a copy, so that the result does not keep Y alive
        return Y[:, P - 1:].flatten()[:count]

    return apply


def log_window_smooth_section(alpha: float, n: int, step: float = 0.135,
                              u_lo: float = -6.0, pad: float = 80.0,
                              chi_lo: float = 0.25, chi_hi: float = 0.75,
                              t0: float = 16.0) -> NystromOperator:
    """Smooth additive-kernel section in log coordinates, window grown with n.

    The additive smooth kernel conjugated to u = log x has the exact form
    K(u,v) = integral of g(u-mu) g(v-mu) W(mu) dmu with g(d) = e^(d/2-e^d)
    and W(mu) = w(e^-mu), so the section over a uniform u-grid is E E^T
    for E = T diag(s), T Toeplitz in the taps g(u_m - mu_q) and s the
    quadrature weights in mu.  The matvec applies E^T and then E as one
    correlation and one convolution with the taps, each by overlap-save
    over g's numerical support (_overlap_save), so nothing n x n or of
    length n + Q is transformed: g decays like e^(d/2) to the left and
    like e^(-e^d) to the right, so its support is d in [-92.3, 3.7], 712
    taps at the default step, whatever n is.
    map.dense forms E E^T explicitly from every tap and refuses windows
    with n * Q > 2^24 factor entries (Q quadrature nodes in mu).  Keeping
    the step fixed while n grows widens the window, which is the actual
    accuracy knob: truncation error falls like 1/width^2 while the
    quadrature error in mu is already superexponentially small at this
    step.
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
    # E y = (tvals * y)[Q-1 : Q-1+n] and E^T v = (rev(tvals) * v)[n-1 : n-1+Q]
    conv = _overlap_save(tvals, Q - 1, n)
    corr = _overlap_save(tvals[::-1], n - 1, Q)

    def mv(vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n,):
            raise ValueError(f"expected a length-{n} vector, got {vec.shape}")
        return conv(s * (s * corr(vec)))

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
