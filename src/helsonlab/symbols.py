"""Closed-form kernels, weights, and integer-restricted sequences.

The central objects are a family of slowly decaying symbols and their
smooth/rough decomposition:

    a(t)  = t^(-1/2) (log t)^(-1) (log log t)^(-alpha)      (multiplicative)
    b(x)  = x^(-1) (log x)^(-alpha)                          (additive)
    w(l)  = |log l|^(-alpha) chi(l)                          (Laplace weight)
    a0(t) = integral of t^(-1/2-l) w(l) dl   over l > 0      (smooth part)
    a1    = a - a0                                           (residual)

with b0 the additive-variable counterpart of a0 under x = log t,
b(x) = e^(x/2) a(e^x).  A SymbolSpec names a, b, a0 or b0 at one alpha.
The weight has no kind: alpha fixes it, and the functions that need it
(_weight_values, a0_quadrature, b0_quadrature, and discretize's
factor_N_dense and weighted_operator) take alpha.  The residual has no
kind either: it is only ever a difference of two sections
(structured_ops.difference_section, discretize.nystrom_difference).  An
ad-hoc kernel is a plain callable, not a spec.  zeta1, zeta(1+x), is a
plain function, the kernel of discretize.weighted_operator.  Everything
here is a pure function of its inputs.

gauss_panels is the package's one composite Gauss-Legendre rule.  Every
value and Gram factor of the smooth part at one alpha shares its cached
weight rule of RULE_NODES nodes (a0_quadrature alone takes other sizes,
to measure convergence); the full symbol's exponential-sum rule is
cached per alpha as well.  The weight rule's panels, one fixed set for
every alpha, end at the cutoff band's edges CHI_LO and CHI_HI, where w
is smooth but not analytic, so that RULE_NODES = 605 nodes integrate a0
and b0 to rounding; every smooth Gram factor is that many columns wide.

sequence_values restricts one symbol to the integers.  There are no
per-product sequences of the smooth or difference part: matrix sections
of a0 and a - a0 are the Gram factors of structured_ops, built from
a0's weight rule and the full symbol's exponential-sum rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

E = math.e

# transition band of the cutoff chi, so supp w = [0, CHI_HI]
CHI_LO, CHI_HI = 0.25, 0.75

# activation point of the full symbols' integral-operator kernels: their
# kernel_fn is the closed form at t >= T0 and zero below
T0 = 16.0

KINDS = ("helson_a", "hankel_b", "a0", "b0")

# kernels a(jk), a(ts) of the product side and b(x+y) of the sum side
SIDE_KINDS = {"product": ("helson_a", "a0"), "sum": ("hankel_b", "b0")}


class DomainError(ValueError):
    """Argument outside the symbol's real-valued domain."""


def check_alpha(alpha) -> None:
    """Refuse an exponent that is not a positive finite number."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


@dataclass(frozen=True)
class SymbolSpec:
    """Descriptor of one closed-form kernel: its kind, one of KINDS, and
    its exponent alpha."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        check_alpha(self.alpha)


def smoothstep(s):
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1, exp(-1/s) gluing."""
    s_in = np.asarray(s, dtype=float)
    s = np.atleast_1d(s_in)
    out = np.empty_like(s)
    lo = s <= 0.0
    hi = s >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out if s_in.ndim else float(out[0])


def chi_cutoff(lam):
    """Smooth cutoff: 1 on (0, CHI_LO], 0 on [CHI_HI, inf)."""
    return smoothstep((CHI_HI - np.asarray(lam, dtype=float))
                      / (CHI_HI - CHI_LO))


def _weight_values(alpha: float, lam):
    """w(l) = |log l|^(-alpha) chi(l) on (0, CHI_HI), and 0 elsewhere."""
    check_alpha(alpha)
    lam_in = np.asarray(lam, dtype=float)
    lam = np.atleast_1d(lam_in)
    out = np.zeros_like(lam)
    inside = (lam > 0.0) & (lam < CHI_HI)
    li = lam[inside]
    out[inside] = np.abs(np.log(li)) ** (-alpha) * chi_cutoff(li)
    return out if lam_in.ndim else float(out[0])


# ---------------------------------------------------------------------------
# fixed quadrature rule for the Laplace-type integrals

# node count of the weight rule, the one size every operator built from
# the weight uses (Gram consistency): 11 Gauss nodes on each of the
# rule's 55 panels, which give a0 and b0 to rounding for x = log t up
# to 700 at alpha in {0.5, 1, 2}; at 10 nodes per panel the error is
# already 2-3 times rounding, at 9 it reaches 3.5e-14
RULE_NODES = 605

# halvings of the weight rule's panels toward 0, and toward each end of
# the cutoff band.  The smallest panel at 0 is 0.25 * 2^-44 ~ 1.4e-14
# wide: its share of b0(700) is below rounding, while 40 halvings leave
# 1e-14.  Four halvings at the band edges are the fewest that resolve
# exp(-1/s) there.
_ZERO_HALVINGS = 45
_EDGE_HALVINGS = 5

# bytes of the points x terms array a blocked evaluation (a Laplace sum,
# zeta1's partial sums) holds at once
_BLOCK_BYTES = 32 << 20


def gauss_panels(edges, per):
    """Composite Gauss-Legendre rule over the panels [edges[i], edges[i+1]].

    per is the node count of every panel, or a sequence with one count per
    panel.  Returns (nodes, weights); the weights sum to edges[-1] -
    edges[0] up to rounding.
    """
    edges = np.asarray(edges, dtype=float)
    counts = np.broadcast_to(per, edges.size - 1).tolist()
    rules = {c: np.polynomial.legendre.leggauss(c) for c in set(counts)}
    nodes, weights = [], []
    for a, b, c in zip(edges[:-1], edges[1:], counts):
        gx, gw = rules[c]
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + hw * gx)
        weights.append(hw * gw)
    return np.concatenate(nodes), np.concatenate(weights)


def _rule_edges() -> np.ndarray:
    """Panel edges of the weight rule on supp w = [0, CHI_HI], the same
    for every alpha.

    Panels halve _ZERO_HALVINGS times from CHI_LO toward 0, where
    |log l|^(-alpha) is not analytic.  The band [CHI_LO, CHI_HI] gets
    panels that halve _EDGE_HALVINGS times toward each of its ends: there
    the smoothstep's exp(-1/s) join is flat but not analytic.  A panel
    across an edge converges only algebraically: halving panels from
    CHI_HI to 0 need 2000 nodes for the accuracy these panels reach with
    RULE_NODES.
    """
    half = 0.5 * (CHI_HI - CHI_LO)
    steps = half * 0.5 ** np.arange(_EDGE_HALVINGS - 1, 0, -1)
    return np.concatenate([
        [0.0], CHI_LO * 0.5 ** np.arange(_ZERO_HALVINGS - 1, -1, -1),
        CHI_LO + steps, [CHI_LO + half], CHI_HI - steps[::-1], [CHI_HI]])


@functools.cache
def _weight_rule(alpha: float, Q: int):
    """Composite Gauss-Legendre rule of exactly Q nodes for the weight at
    alpha, over the panels of _rule_edges, Q spread over them as evenly
    as it goes.

    Returns (nodes, weights * w(nodes)); cached so that every operator
    built at one alpha shares one rule (Gram consistency).
    """
    edges = _rule_edges()
    panels = edges.size - 1
    if Q < 2 * panels:
        raise ValueError(f"need Q >= {2 * panels} quadrature nodes, two "
                         f"per panel")
    base, extra = divmod(Q, panels)
    x, om = gauss_panels(edges, [base + (i < extra) for i in range(panels)])
    return x, om * _weight_values(alpha, x)


def _laplace_sum(x, nodes, om):
    """sum_q om_q e^(-x nodes_q) at every point x, any shape.

    Walks the points in blocks of at most _BLOCK_BYTES of
    exponentials, however many points are asked for.  Every block is
    written into one reused points x nodes buffer: the exponent goes in
    with multiply.outer(x, -nodes, out=) and exp overwrites it in place,
    so the sum holds one block and its output, never a second temporary.
    x * (-nodes) is the same float as -(x * nodes), so the values do not
    depend on the buffering.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size)
    step = max(1, _BLOCK_BYTES // (8 * nodes.size))
    buf = np.empty((min(step, flat.size), nodes.size))
    neg = -nodes
    for lo in range(0, flat.size, step):
        hi = min(lo + step, flat.size)
        blk = buf[:hi - lo]
        np.multiply.outer(flat[lo:hi], neg, out=blk)
        np.exp(blk, out=blk)
        out[lo:hi] = blk @ om
    return out.reshape(x.shape)


@functools.cache
def _exponential_sum_rule(alpha: float):
    """Positive exponential sum for F(x) = 1/(x (log x)^alpha), x > 1.

    Returns (s, log_c) with F(x) = sum_q c_q e^(-s_q x), every c_q > 0,
    so that the full symbol factors as a(jk) = sum_q c_q
    j^(-1/2-s_q) k^(-1/2-s_q) for jk >= 3 (x = log jk > 1).  F is completely
    monotone, F(x) = integral of e^(-s x) rho(s) ds with

        rho(s) = Gamma(alpha)^-1 integral of u^(alpha-1) s^u / Gamma(1+u) du,

    and the rule is the trapezoid rule in log s, step 0.25, from s = 1e-12
    to just past s = 700 (138 nodes).  log rho is integrated in y = log u
    with a log-sum-exp, since c_q reaches about e^750.  For alpha in
    {0.5, 1, 2} the sum matches the closed form to 8e-12 relative from
    jk = 3 up to jk = 2^36, the error growing slowly with jk from the
    mass below the first node.  Built on first use and cached per alpha.
    """
    h = 0.25
    R = int(math.ceil(math.log(700.0 / 1e-12) / h)) + 1
    log_s = math.log(1e-12) + h * np.arange(R)
    # u = e^y: the integrand e^(alpha y) s^u / Gamma(1+u) is e^(alpha y)
    # below the peak and dies superexponentially past u ~ s_max ~ 750;
    # dy = 0.01 resolves the peak width ~ s^(-1/2) of the largest nodes
    dy = 0.01
    y = np.arange(-40.0 / alpha - 5.0, 8.0, dy)
    u = np.exp(y)
    base = alpha * y - np.array([math.lgamma(1.0 + v) for v in u])
    log_rho = np.empty(R)
    for q in range(R):
        e = base + u * log_s[q]
        top = e.max()
        log_rho[q] = top + math.log(dy * np.exp(e - top).sum())
    log_rho -= math.lgamma(alpha)
    return np.exp(log_s), math.log(h) + log_s + log_rho


def a0_quadrature(alpha: float, t, Q: int = RULE_NODES):
    """a0(t), the integral of t^(-1/2-l) w(l) dl for the weight at alpha,
    at t >= 1, by the weight rule of Q nodes (RULE_NODES unless a
    convergence study varies it)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 1.0):
        raise DomainError("a0 integral is evaluated for t >= 1")
    x, om = _weight_rule(alpha, Q)
    val = np.sqrt(1.0 / t_arr) * _laplace_sum(np.log(t_arr), x, om)
    return val if val.ndim else float(val)


def b0_quadrature(alpha: float, x):
    """b0(x), the Laplace transform of the weight at alpha: the integral
    of e^(-x l) w(l) dl at x > 0, by the weight rule of RULE_NODES
    nodes."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise DomainError("Laplace transform evaluated for x > 0")
    xs, om = _weight_rule(alpha, RULE_NODES)
    val = _laplace_sum(x_arr, xs, om)
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# zeta(1+x) by partial sum plus Euler-Maclaurin tail

_ZETA_J = 64
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66)


def zeta1(x):
    """zeta(1+x) for x > 0, any shape, absolute error below 1e-13.

    The partial sums walk the points in blocks of at most _BLOCK_BYTES
    of points x terms, however many points are asked for; each point's
    terms are summed in the same order whatever its block, so the values
    do not depend on the blocking.
    """
    x_in = np.asarray(x, dtype=float)
    if np.any(x_in <= 0.0):
        raise DomainError("zeta1 needs x > 0")
    x_arr = x_in.ravel()
    s = 1.0 + x_arr
    j = np.arange(1, _ZETA_J, dtype=float)
    head = np.empty(s.size)
    step = max(1, _BLOCK_BYTES // (8 * j.size))
    for lo in range(0, s.size, step):
        blk = s[lo:lo + step]
        head[lo:lo + step] = np.sum(np.power(j[None, :], -blk[:, None]),
                                    axis=-1)
    J = float(_ZETA_J)
    val = head + J ** (-x_arr) / x_arr + 0.5 * J ** (-s)
    # Euler-Maclaurin corrections: B_2k/(2k)! * s(s+1)...(s+2k-2) * J^(-s-2k+1)
    rising = s.copy()
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        if k > 1:
            rising = rising * (s + (2 * k - 3)) * (s + (2 * k - 2))
        fact *= (2 * k) * (2 * k - 1)
        val = val + (b2k / fact) * rising * J ** (-s - (2 * k - 1))
    return val.reshape(x_in.shape) if x_in.ndim else float(val[0])


# ---------------------------------------------------------------------------
# symbol evaluation (pure closed forms on their real domains)


def _helson_a_values(alpha, t):
    logt = np.log(t)
    return t ** (-0.5) / logt * np.log(logt) ** (-alpha)


def _hankel_b_values(alpha, x):
    logx = np.log(x)
    return x ** (-1.0) * logx ** (-alpha)


def eval_symbol(spec: SymbolSpec, t):
    """Value of the closed form at t; raises DomainError off-domain."""
    t_arr = np.asarray(t, dtype=float)
    k = spec.kind
    if k == "helson_a":
        if np.any(t_arr <= E):
            raise DomainError("helson_a is real-valued for t > e only")
        val = _helson_a_values(spec.alpha, t_arr)
    elif k == "hankel_b":
        if np.any(t_arr <= 1.0):
            raise DomainError("hankel_b is real-valued for x > 1 only")
        val = _hankel_b_values(spec.alpha, t_arr)
    elif k == "a0":
        val = np.asarray(a0_quadrature(spec.alpha, t_arr), dtype=float)
    else:
        val = np.asarray(b0_quadrature(spec.alpha, t_arr), dtype=float)
    if np.any(~np.isfinite(np.atleast_1d(val))):
        raise DomainError(f"{k} evaluated to a non-finite value")
    return val if np.ndim(val) else float(val)


def kernel_fn(spec: SymbolSpec) -> Callable:
    """Total kernel function of a full symbol, helson_a or hankel_b, for
    integral-operator assembly.

    Unlike eval_symbol, the returned callable is defined on the whole
    half-line: the full symbols activate at T0 (zero below), so that
    b_kernel(x) = e^(x/2) a_kernel(e^x) holds identically; the additive
    form is computed directly in x and stays finite past x = 709.  The
    smooth parts have no kernel_fn: their sections are Gram products
    (discretize._gram_fast_path), their values a0_quadrature and
    b0_quadrature.
    """
    k = spec.kind
    if k == "helson_a":
        lo, values = T0, _helson_a_values
    elif k == "hankel_b":
        lo, values = math.log(T0), _hankel_b_values
    else:
        raise ValueError(f"no kernel_fn for {k!r}: only helson_a and "
                         f"hankel_b are total kernels")

    def f(t, alpha=spec.alpha):
        t_in = np.asarray(t, dtype=float)
        t = np.atleast_1d(t_in)
        out = np.zeros_like(t)
        m = t >= lo
        out[m] = values(alpha, t[m])
        return out if t_in.ndim else float(out[0])
    return f


def sequence_values(spec: SymbolSpec, n):
    """a(n) on arbitrary positive integers under the restriction convention.

    Index 1 maps to 0; the full multiplicative symbol also zeroes index 2
    and starts at n = 3, the first integer past e, where log log n is
    real and positive; every other kind applies eval_symbol from n = 2.
    """
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise DomainError("sequence indices start at 1")
    values = np.zeros(n_arr.shape, dtype=float)
    head = 3 if spec.kind == "helson_a" else 2
    m = n_arr >= head
    if np.any(m):
        if spec.kind == "helson_a":
            values[m] = _helson_a_values(spec.alpha, n_arr[m].astype(float))
        else:
            values[m] = np.asarray(eval_symbol(spec, n_arr[m].astype(float)),
                                   dtype=float)
    return values
