"""Quadrature grids and symmetric Nystrom sections of the integral operators.

Grids are uniform, geometric or composite Gauss-Legendre
(symbols.gauss_panels).  Additive kernels K(x+y) live on half-line
grids, multiplicative kernels K(ts) on grids in (1, inf); each side
takes only its own kinds of symbols.SIDE_KINDS.  Both are assembled in
the symmetric form sqrt(w) K sqrt(w), wrapped in the square symmetric
structured_ops.LinearMap that feeds the eigensolver directly.
The matched grid pair of v_matched_grids carries one onto the other
under t = e^x.  The smooth kernels (Laplace transforms of a weight) get
an exact Gram fast path: the section is formed as E E^T over the shared
quadrature rule of the weight, which makes positive semidefiniteness a
property of the construction rather than a numerical accident; on the
multiplicative side E is the Dirichlet-exponential factor of
structured_ops, as is the integer-side factor of factor_N_dense.  The
difference kernels a - a0 and b - b0 reuse that product:
nystrom_difference subtracts the smooth section E E^T from the
closed-form full kernel's section, assembled entrywise on the same grid,
so no entry is ever a quadrature sum of its own.  Any other kernel is
passed as a callable and assembled entrywise.
weighted_operator gives the quadrature-side sections of the
factorization, the weighted zeta(1+s) and 1/s kernels, through the same
blocked entrywise assembly.  The headline section,
log_window_smooth_section, is the smooth additive kernel's Gram kernel
in log coordinates on a uniform grid: a symmetric Toeplitz map
A = diag(d) T diag(d) with taps that decay exponentially.  Its symbol is
band-limited, so the map solved is A's Gram twin
(structured_ops.toeplitz_gram_twin), of order r ~ n/2 at chain sizes,
with A's nonzero spectrum; a window too short for the taps to decay
keeps A itself (structured_ops.toeplitz_section).  The classical
turning point of that kernel's symbol, at most (pi / lambda)^(1/alpha),
gives the smallest eigenvalue a window certifies (certified_floor),
which of its eigenvalues it certifies (certified_count), Weyl's count
of them (weyl_count) and how wide a window a given index needs
(window_nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from helsonlab.asymptotics import NOISE_FLOOR, kappa
from helsonlab.structured_ops import (MAX_DENSE, LinearMap,
                                      _dirichlet_factor, _smooth_nodes,
                                      dense_matrix, toeplitz_gram_twin)
from helsonlab.symbols import (
    CHI_HI, SIDE_KINDS, SymbolSpec, _weight_values,
    chi_cutoff, gauss_panels, kernel_fn, zeta1,
)

# largest x whose node t = e^x v_matched_grids maps (float64 overflows
# past x ~ 709.8)
X_MAX = 700.0

# element budget per evaluation block during dense assembly.  Every chain
# kernel that reaches _assemble is closed form (the smooth parts go
# through _GRAM_KINDS, the difference parts through nystrom_difference);
# a kernel that expands each element, such as zeta1 into its 63-term
# partial sum, holds one block's worth of that expansion, and a
# quadrature closure passed in as a callable, such as
# lambda t: a0_quadrature(alpha, t), blocks its own expansion in _laplace_sum
_ASSEMBLY_BUDGET = 1 << 13

# kinds of the smooth parts, whose section is the weight's Gram product
# E E^T
_GRAM_KINDS = ("a0", "b0")

# kernels of weighted_operator, by name; both are singular at 0
_WEIGHTED_KERNELS = {"zeta1": zeta1, "carleman": lambda s: 1.0 / s}


class ConstructionError(ValueError):
    """Grid/kernel combination cannot produce a finite section."""


@dataclass(eq=False)
class Grid:
    """Nodes and positive quadrature weights on [lo, hi]."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        lo, hi = self.domain
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
    """n nodes on domain: uniform (trapezoid weights), geometric (uniform
    in log, trapezoid weights h * x) or gauss (composite Gauss-Legendre
    panels); any other spacing is refused."""
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
        nodes, weights = gauss_panels(
            np.linspace(lo, hi, panels + 1),
            [base + (i < rem) for i in range(panels)])
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    return Grid(nodes=nodes, weights=weights, domain=(lo, hi))


def v_matched_grids(x_domain, n: int):
    """Uniform grid in x and its exact exponential image in t = e^x.

    The pair discretizes the change of variable that carries additive
    sections onto multiplicative ones; entries of matched Nystrom
    matrices coincide to rounding.  The weights match exactly,
    w_t = w_x * t, so (Vf)(t) = t^(-1/2) f(log t) keeps discrete norms.
    """
    gx = make_grid(x_domain, n, "uniform")
    if x_domain[1] > X_MAX:
        raise ConstructionError(
            f"node map t = e^x overflows for x > {X_MAX:g}")
    t = np.exp(gx.nodes)
    h = (x_domain[1] - x_domain[0]) / (n - 1)
    wt = h * t
    wt[0] *= 0.5
    wt[-1] *= 0.5
    gt = Grid(nodes=t, weights=wt, domain=(float(t[0]), float(t[-1])))
    return gx, gt


# ---------------------------------------------------------------------------
# symmetric Nystrom assembly


@dataclass(eq=False)
class NystromOperator:
    """Symmetric section sqrt(w_m) K(x_m, x_n) sqrt(w_n) of an integral kernel."""

    grid: Grid
    map: LinearMap

    def dense(self) -> np.ndarray:
        return dense_matrix(self.map)


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


def _gram_fast_path(spec: SymbolSpec, grid: Grid, combine: str) -> np.ndarray:
    """Exact-PSD assembly of a Laplace-transform kernel section.

    The section sqrt(w_m) K sqrt(w_n) with K the transform of a weight
    rho is E E^T for E_mq = sqrt(w_m) phi(x_m, l_q) sqrt(rho_q), using
    the same cached rule as the scalar quadrature, so the two agree to
    rounding and the section is PSD by construction.  On the product
    side phi(t, l) sqrt(rho) is the Dirichlet-exponential factor.
    """
    lam, log_rho = _smooth_nodes(spec)
    x = grid.nodes
    if combine == "sum":
        E = np.exp(-np.multiply.outer(x, lam)) * np.exp(0.5 * log_rho)
    else:
        E = _dirichlet_factor(x, lam, log_rho)
    E *= np.sqrt(grid.weights)[:, None]
    return E @ E.T


def _section(kernel, grid: Grid, combine: str) -> np.ndarray:
    """Dense symmetric section of a callable kernel, or a spec of one of
    the combine rule's SIDE_KINDS, on the grid."""
    if isinstance(kernel, SymbolSpec):
        if kernel.kind not in SIDE_KINDS[combine]:
            raise ValueError(f"{kernel.kind!r} is not a {combine}-side kernel")
        if kernel.kind in _GRAM_KINDS:
            return _gram_fast_path(kernel, grid, combine)
    return _assemble(_kernel_callable(kernel), grid.nodes,
                     np.sqrt(grid.weights), combine)


def _wrap_operator(matrix: np.ndarray, grid: Grid) -> NystromOperator:
    lm = LinearMap(cols=grid.n, matvec=lambda u: matrix @ u,
                   dense=lambda: matrix)
    return NystromOperator(grid=grid, map=lm)


def nystrom_hankel(b, grid: Grid) -> NystromOperator:
    """Section of the additive kernel: entries sqrt(w_m) b(x_m+x_n) sqrt(w_n).

    b0 is the Gram factor E E^T of its weight rule; hankel_b - b0 comes
    from nystrom_difference.
    """
    if grid.n > MAX_DENSE:
        raise ConstructionError(f"dense assembly capped at {MAX_DENSE} nodes")
    return _wrap_operator(_section(b, grid, "sum"), grid)


def nystrom_helson(a, grid: Grid) -> NystromOperator:
    """Section of the multiplicative kernel: sqrt(w_m) a(t_m t_n) sqrt(w_n).

    a0 is the Gram factor E E^T of its weight rule; helson_a - a0 comes
    from nystrom_difference.
    """
    if grid.domain[0] < 1.0:
        raise ConstructionError("multiplicative sections need lo >= 1")
    if grid.n > MAX_DENSE:
        raise ConstructionError(f"dense assembly capped at {MAX_DENSE} nodes")
    return _wrap_operator(_section(a, grid, "product"), grid)


def nystrom_difference(full: NystromOperator,
                       smooth: NystromOperator) -> NystromOperator:
    """Section of the difference kernel full - smooth on their shared grid.

    full is the closed-form full kernel's section and smooth its smooth
    part's Gram product E E^T, so the rough parts reuse a product already
    made for row 0 instead of forming it again.
    """
    if full.grid is not smooth.grid:
        raise ValueError("difference of sections on different grids")
    return _wrap_operator(full.dense() - smooth.dense(), full.grid)


# ---------------------------------------------------------------------------
# factorization of the smooth part


def _coverage_check(grid: Grid) -> None:
    """Refuse a grid that misses the top of supp w = [0, CHI_HI] or more
    than its bottom 5%, where w vanishes."""
    if grid.domain[1] < CHI_HI - 1e-12 or grid.domain[0] > 0.05 * CHI_HI:
        raise ConstructionError(
            f"grid [{grid.domain[0]:g}, {grid.domain[1]:g}] does not cover "
            f"the weight support [0, {CHI_HI:g}]")


def factor_N_dense(alpha: float, J: int, grid: Grid) -> np.ndarray:
    """Rectangular factor F_jq = j^(-x_q - 1/2) sqrt(w(x_q) omega_q) of
    the weight at alpha on a grid that covers its support.

    F F^T reproduces the smooth multiplicative section [a0(jk)] on
    integers and F^T F is the weighted finite zeta sum; both products
    share every nonzero singular value.
    """
    if J < 1:
        raise ValueError("J must be positive")
    _coverage_check(grid)
    wvals = _weight_values(alpha, grid.nodes)
    with np.errstate(divide="ignore"):
        return _dirichlet_factor(np.arange(1, J + 1, dtype=float),
                                 grid.nodes, np.log(wvals * grid.weights))


def weighted_operator(kind: str, alpha: float, grid: Grid) -> NystromOperator:
    """Section sqrt(w om)_m K(x_m + x_n) sqrt(w om)_n for a named kernel,
    zeta1 (K(s) = zeta(1+s)) or carleman (K(s) = 1/s), weighted by the
    weight at alpha.

    The kernel argument stays strictly positive (lo > 0 enforced: both
    kernels have a 1/x-type singularity at the origin).
    """
    if kind not in _WEIGHTED_KERNELS:
        raise ValueError(f"unknown weighted kernel {kind!r}")
    if grid.domain[0] <= 0:
        raise ConstructionError(f"{kind} kernel is singular at 0: need lo > 0")
    wvals = _weight_values(alpha, grid.nodes)
    M = _assemble(_WEIGHTED_KERNELS[kind], grid.nodes,
                  np.sqrt(wvals * grid.weights), "sum")
    return _wrap_operator(M, grid)


# ---------------------------------------------------------------------------
# the smooth additive kernel's Gram operator in log coordinates

# node step in mu
_LOG_STEP = 0.135

# an eigenvalue of the window is certified when its turning point lies
# within this share of the last node: against a wider window, truncation
# first moves an eigenvalue by 1e-8 at 0.924-0.940 of the width, at
# alpha = 0.5, 1 and 2
CERTIFY_SHARE = 0.9


def _log_weight(alpha: float, mu, h: float = 1.0):
    """h W(mu), W(mu) = mu^-alpha chi(e^-mu) the weight in log coordinates.

    Evaluated in mu: w(e^-mu) itself reads 0 once e^-mu underflows
    (mu > ~745), which would stop the window growing.
    """
    mu = np.asarray(mu, dtype=float)
    return h * mu ** -alpha * chi_cutoff(np.exp(-mu))


def _node(q):
    """mu_q = -log(CHI_HI) + h q, the q-th node of every window."""
    return -math.log(CHI_HI) + _LOG_STEP * q


def _log_window(alpha: float, n: int) -> tuple:
    """Nodes mu_q, taps c_k and weights d_q of log_window_smooth_section."""
    if n < 2:
        raise ValueError("need n >= 2")
    h = _LOG_STEP
    mu = _node(np.arange(n))
    d = np.sqrt(_log_weight(alpha, mu, h))
    t = h * np.arange(n)
    return mu, np.exp(-0.5 * t) / (1.0 + np.exp(-t)), d


def certified_floor(alpha: float, n: int) -> float:
    """Smallest eigenvalue the n-node window certifies:
    pi (CERTIFY_SHARE mu_{n-1})^-alpha.

    The kernel sqrt(W(mu) W(nu)) / (2 cosh((mu - nu)/2)) has the symbol
    W(mu) pi / cosh(pi xi), so an eigenvalue lambda lives where
    pi W(mu) >= lambda, up to its classical turning point mu*(lambda);
    counting that phase space gives lambda_n ~ kappa(alpha) n^-alpha.
    W = mu^-alpha past the cutoff band and W <= mu^-alpha inside it, so
    mu* is at most (pi / lambda)^(1/alpha), and equal to it past the
    band.  An eigenvalue at or above the floor turns within
    CERTIFY_SHARE of the last node; past that share the window's end
    truncates the eigenfunction.  From 11 nodes on, that share of the
    last node lies past the band, and the floor is pi W there.
    """
    return math.pi * (CERTIFY_SHARE * _node(n - 1)) ** -alpha


def certified_count(alpha: float, lam, n: int) -> int:
    """Leading eigenvalues of the n-node window that it certifies: index
    i counts while every lambda_j, j <= i, is at or above both
    certified_floor(alpha, n) and the noise floor NOISE_FLOOR *
    lambda_1, so the count is at most the resolved count."""
    lam = np.asarray(lam)
    keep = (lam >= certified_floor(alpha, n)) & (lam >= NOISE_FLOOR * lam[:1])
    return int(np.cumprod(keep).sum())


def weyl_count(alpha: float, n: int) -> float:
    """Weyl's count of the eigenvalues at or above certified_floor(alpha,
    n): (kappa(alpha) / pi)^(1/alpha) CERTIFY_SHARE mu_{n-1}.  The
    alpha-th power stays unformed: kappa(alpha) / certified_floor
    overflows from alpha ~ 135 on."""
    return ((kappa(alpha) / math.pi) ** (1.0 / alpha)
            * CERTIFY_SHARE * _node(n - 1))


def window_nodes(alpha: float, k: int) -> int:
    """Fewest nodes (at least 2) whose window certifies index k at its
    Weyl estimate kappa(alpha) k^-alpha: the last node reaches that
    eigenvalue's turning point (pi / kappa(alpha))^(1/alpha) k over
    CERTIFY_SHARE, which weyl_count inverts."""
    if not k >= 1:
        raise ValueError(f"no window certifies index {k!r}: indices "
                         f"start at 1")
    reach = (math.pi / kappa(alpha)) ** (1.0 / alpha) * k / CERTIFY_SHARE
    n = max(2, math.ceil((reach + math.log(CHI_HI)) / _LOG_STEP) + 1)
    # step past rounding in the ceil, on the nodes themselves
    while n > 2 and _node(n - 2) >= reach:
        n -= 1
    while _node(n - 1) < reach:
        n += 1
    return n


def log_window_smooth_section(alpha: float, n: int) -> NystromOperator:
    """Smooth additive-kernel section in log coordinates, window grown with n.

    The smooth additive kernel, integral of e^(-lambda (x+y)) w(lambda)
    dlambda, is a Gram operator, so its nonzero spectrum is that of the
    kernel sqrt(W(mu) W(nu)) / (2 cosh((mu - nu)/2)) in mu = -log(lambda),
    W(mu) = w(e^-mu) (Pushnitski and Yafaev, IMRN 2015).  The section is
    that kernel on the nodes mu_q = -log(CHI_HI) + h q, q < n, where W
    starts: the map A = diag(d) T diag(d) with d_q^2 = h W(mu_q) and
    taps c_k = e^(-kh/2) / (1 + e^(-kh)), the form of 1/(2 cosh(kh/2))
    that cannot overflow.  The step h = _LOG_STEP stays fixed, where the
    quadrature error in mu is already superexponentially small, so n
    sets the window's width, and the width decides which eigenvalues
    the section resolves: lambda_i agrees with a wider window's to
    rounding while its turning point (certified_floor) lies well inside
    the window, and is truncated past that.  certified_count reads the
    resolved indices off a returned spectrum, and window_nodes gives the
    n that certifies a given index.

    The map solved is structured_ops.toeplitz_gram_twin: the kernel's
    symbol pi / cosh(pi xi) is band-limited, so about half the Fourier
    modes of the circulant that embeds T are zero to rounding, and A's
    nonzero spectrum is that of an r x r Gram twin on the rest.  Once
    the taps decay inside the window and r < n, that twin is the map,
    and its cols is r, not n: r/n is 0.96 at n = 600, 0.81 at 1024 and
    0.51 at 16384.  A shorter window (n = 12, 96 or 300) leaves the
    circulant indefinite and gets toeplitz_section itself.  The grid
    keeps the n nodes either way.
    """
    mu, c, d = _log_window(alpha, n)
    grid = Grid(nodes=mu, weights=np.full(n, _LOG_STEP),
                domain=(float(mu[0]), float(mu[-1])))
    return NystromOperator(grid=grid, map=toeplitz_gram_twin(c, d))
