"""Hankel, Toeplitz and multiplicative-Hankel sections with fast matvecs.

Every Toeplitz and Hankel product is one circular convolution in a
5-smooth length (_fft_length), in O(N log N).  A symmetric Toeplitz
section d_j c(|j-k|) d_k (toeplitz_section) multiplies on the circulant
that embeds its taps' numerical support (_support, _circulant).  A
Hankel section {b(j+k)} (build_hankel) convolves b with the reversed
vector over 2N - 1 points or more, whose wrap misses the outputs kept.
When the taps' symbol is band-limited, so that about half the
circulant's eigenvalues are zero to rounding, toeplitz_gram_twin solves
the section on the smaller side of its factorization L L^T instead: the
r x r map L^T L, one irfft and one rfft per matvec.  It is the headline
map of discretize; toeplitz_section stays the map of windows too short
for it and the tests' reference.

A multiplicative section {a(jk)} whose symbol is a sum of Dirichlet
exponentials, a(n) = sum_q m_q n^(-1/2-s_q), is a Gram matrix E E^T
with the N x R factor E_jq = sqrt(m_q) j^(-1/2-s_q) of
_dirichlet_factor, so it multiplies in O(N R); the smooth part's factor
is built on its weight rule at the one size symbols.RULE_NODES.  One
signed Gram map, GramSection, serves every such section: the smooth
part (build_smooth_helson), the full symbol (build_helson, with an
exact row and column 1) and the full symbol minus its smooth part
(difference_section, the factor of the first with sign + and that of
the second with sign -).  A callable symbol, and the a0 spec under the
restriction convention of symbols.sequence_values, stream rows through
HelsonTruncation in O(N^2) time with O(N) memory; that path also serves
as the entrywise oracle of the factored ones.  All are
wrapped in the same LinearMap, a square symmetric map (every section
here is self-adjoint), so the eigensolver does not care which one it
is driving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from helsonlab.symbols import (RULE_NODES, SIDE_KINDS, DomainError,
                               SymbolSpec, _exponential_sum_rule,
                               _weight_rule, sequence_values)

# rows per evaluation block in the streaming multiplicative matvec;
# keeps the working set at ~64 rows regardless of N
_BLOCK_BUDGET = 1 << 18

# largest order any section or matrix is densified at
MAX_DENSE = 4096


def _check_dense_order(n: int) -> None:
    if n > MAX_DENSE:
        raise ValueError(f"refusing to densify beyond {MAX_DENSE}")


@dataclass(frozen=True)
class LinearMap:
    """Matrix-free symmetric operator on vectors of length cols.

    matvec is called only through apply, which checks the length of its
    argument and of its result.  dense, when set, returns the explicit
    matrix from entries the constructor already holds, so densifying
    costs no matvecs.
    """

    cols: int
    matvec: Callable
    dense: Optional[Callable] = None

    def __post_init__(self):
        if self.cols < 1:
            raise ValueError("map order must be positive")

    def apply(self, u):
        u = np.asarray(u)
        if u.shape != (self.cols,):
            raise ValueError(f"expected a length-{self.cols} vector, got {u.shape}")
        out = np.asarray(self.matvec(u))
        if out.shape != (self.cols,):
            raise ValueError("matvec returned a wrong-shaped vector")
        return out


def dense_matrix(lm: LinearMap) -> np.ndarray:
    """Explicit matrix of the map, the input of the dense eigensolver.

    Uses lm.dense when the constructor set it (the result may be the
    map's own storage: do not modify it) and otherwise applies the map
    to each unit vector in turn.  Refuses orders above MAX_DENSE.
    """
    _check_dense_order(lm.cols)
    if lm.dense is not None:
        return lm.dense()
    out = np.zeros((lm.cols, lm.cols))
    e = np.zeros(lm.cols)
    for k in range(lm.cols):
        e[k] = 1.0
        out[:, k] = lm.apply(e)
        e[k] = 0.0
    return out


# ---------------------------------------------------------------------------
# one circulant: every Toeplitz and Hankel product is a circular convolution


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


# share of the taps' l1 mass that _support drops from their tail.  The
# circulant of _circulant holds the kept taps c[:K] on both sides of lag
# 0, so by Young's inequality T moves in norm by at most the dropped
# two-sided mass, 2 * _TAIL_MASS * ||c||_1.  The l1 mass of all two-sided
# taps, 2 ||c||_1 - |c_0| >= ||c||_1, bounds the norm of T, so a section
# diag(d) T diag(d) moves by at most 2e-20 of its own bound, that mass
# times max(d)^2: far below rounding
_TAIL_MASS = 1e-20

# share of the embedding circulant's peak eigenvalue s_0 at or below
# which toeplitz_gram_twin drops a mode.  The eigenvalues are one rfft of
# taps whose l1 norm bounds s_0, so each carries a rounding of a few
# 1e-16 s_0 (the headline circulants' smallest read -1.5e-16 s_0).  By
# Weyl's inequality, dropping modes no larger than _TWIN_FLOOR * s_0
# moves each eigenvalue of diag(d) T diag(d) by at most _TWIN_FLOOR *
# s_0 * max(d)^2, that share of the bound s_0 max(d)^2 on its norm
_TWIN_FLOOR = 1e-15


def _support(c: np.ndarray) -> int:
    """Length K of the shortest head c[:K] whose dropped tail c[K:]
    carries at most _TAIL_MASS of the l1 mass of c; 1 when every tap is
    zero."""
    a = np.abs(c)
    tail = np.cumsum(a[::-1])
    return max(1, a.size - int(np.searchsorted(tail, _TAIL_MASS * a.sum(),
                                               side="right")))


def _circulant(c: np.ndarray) -> tuple:
    """Order M = _fft_length(N + K) and eigenvalues s (the rfft of its
    first column) of the circulant whose first column holds c[:K],
    K = _support(c), at its head and c[K-1:0:-1] at its tail.  Every lag
    of T = {c[|j-k|]} from K to N - 1 lands on the zeros between them,
    so the circulant's leading N x N block is T without its taps past K.
    """
    N = c.size
    K = _support(c)
    M = _fft_length(N + K)
    first_col = np.zeros(M)
    first_col[:K] = c[:K]
    first_col[M - K + 1:] = c[K - 1:0:-1]
    return M, np.fft.rfft(first_col).real


# ---------------------------------------------------------------------------
# additive structure: H(b) = {b(j+k)}


def build_hankel(b) -> LinearMap:
    """Symmetric N x N map entry(j,k) = b(j+k) from 2N-1 symbol values.

    The matvec is y = (b * reversed u)[N-1 : 2N-1], one circular
    convolution of L = _fft_length(2N - 1) points: the linear one has
    3N - 2 points, and those past L wrap onto indices at most 3N - 3 - L
    <= N - 2, below the ones kept.  dense() indexes b directly.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size % 2 == 0:
        raise ValueError("need an odd number 2N-1 of symbol values")
    N = (b.size + 1) // 2
    L = _fft_length(b.size)
    B = np.fft.rfft(b, L)
    idx = np.arange(N)
    return LinearMap(
        cols=N,
        matvec=lambda u: np.fft.irfft(B * np.fft.rfft(u[::-1], L),
                                      L)[N - 1:2 * N - 1],
        dense=lambda: b[idx[:, None] + idx[None, :]])


# ---------------------------------------------------------------------------
# Toeplitz structure: diag(d) T diag(d), T = {c(|j-k|)}


def toeplitz_section(c, d) -> LinearMap:
    """Symmetric N x N map x -> d * T(d * x), T_jk = c[|j-k|].

    The matvec is d * irfft(s * rfft(d * x, M))[:N] on the embedding
    circulant (M, s) of _circulant; dense() scales the two-sided taps
    c[N-1], ..., c[1], c[0], c[1], ..., c[N-1] by d_j d_k, formed first
    so that the matrix is bitwise symmetric.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.ndim != 1 or c.shape != d.shape:
        raise ValueError("need taps c and weights d of one length N")
    N = c.size
    M, s = _circulant(c)
    taps = np.concatenate([c[:0:-1], c])
    # row j is taps[N-1-j : 2N-1-j], that is c[|j-k|] in column k
    rows = np.lib.stride_tricks.sliding_window_view(taps, N)[::-1]
    return LinearMap(
        cols=N,
        matvec=lambda x: d * np.fft.irfft(s * np.fft.rfft(d * x, M), M)[:N],
        dense=lambda: np.outer(d, d) * rows)


def toeplitz_gram_twin(c, d) -> LinearMap:
    """toeplitz_section(c, d) solved on the smaller side of A = L L^T.

    T embeds in the circulant C of order M of _circulant, whose
    eigenvalues s_j are the rfft of its first column.  Over the real
    Fourier modes of order M
    (cos and sin of 2 pi j m / M scaled by sqrt(2/M); the constant and,
    for even M, the alternating mode by sqrt(1/M)), C = S diag(s) S^T.
    Keeping the r modes S_r with s_j > _TWIN_FLOOR * s_0, s_0 = max
    |s_j|, gives A ~ L L^T with L = diag(d) P S_r diag(s_r)^(1/2), P
    the first N entries, and the map returned is the r x r Gram twin
    L^T L: it has A's nonzero spectrum up to the Weyl bound
    _TWIN_FLOOR * s_0 * max(d)^2.  Its matvec is one irfft and one rfft
    of length M, and it has no dense(): dense_matrix applies it to each
    unit vector.

    The twin is returned only when every dropped mode lies within
    +-_TWIN_FLOOR * s_0 and r < N.  A window that ends before the taps
    decay leaves C indefinite (at N = 12 it has modes down to -4.8e-2
    s_0), and then the section itself is returned.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.ndim != 1 or c.shape != d.shape:
        raise ValueError("need taps c and weights d of one length N")
    N = c.size
    M, s = _circulant(c)
    floor = _TWIN_FLOOR * np.abs(s).max()
    keep = np.flatnonzero(s > floor)
    # modes 0 and M/2 have no sine partner
    pair = (keep > 0) & (2 * keep < M)
    r = int(keep.size + np.count_nonzero(pair))
    if s.min() < -floor or not 0 < r < N:
        return toeplitz_section(c, d)
    # a unit cosine or sine mode is cos or sin(2 pi j m / M) / sqrt(M/2),
    # an unpaired one has norm sqrt(M): then S_r diag(s_r)^(1/2) y is irfft
    # of the coefficients sqrt(s_j) nu_j y (cosine parts real, sine parts
    # imaginary), and diag(s_r)^(1/2) S_r^T x is sqrt(s_j) / nu_j rfft(x)
    nu = np.sqrt(np.where(pair, M / 2, M))
    fwd = np.sqrt(s[keep]) * nu
    back = np.sqrt(s[keep]) / nu
    m, paired = keep.size, keep[pair]
    d2 = d * d

    def mv(y):
        Z = np.zeros(M // 2 + 1, dtype=complex)
        Z[keep] = fwd * y[:m]
        Z[paired] += 1j * fwd[pair] * y[m:]
        X = np.fft.rfft(d2 * np.fft.irfft(Z, n=M)[:N], n=M)
        return np.concatenate([back * X.real[keep],
                               back[pair] * X.imag[paired]])

    return LinearMap(cols=r, matvec=mv)


# ---------------------------------------------------------------------------
# multiplicative structure: M(a) = {a(jk)}


def _product_contract(a) -> Callable:
    """Vectorized n -> a(n) on integers, from a SymbolSpec of a
    multiplicative kind or a callable."""
    if isinstance(a, SymbolSpec):
        if a.kind not in SIDE_KINDS["product"]:
            raise ValueError(f"{a.kind!r} is not a multiplicative symbol")
        return lambda n: sequence_values(a, n)
    if callable(a):
        return lambda n: np.asarray(a(np.asarray(n)), dtype=float)
    raise TypeError("a must be a SymbolSpec or a callable")


@dataclass(eq=False)
class HelsonTruncation:
    """N x N section entry(j,k) = a(jk), indices 1-based in the symbol.

    Streams a(jk) entry by entry, so it is the closed-form oracle of the
    factored sections: the reference of their tests and the closed-form
    side of run_chain's additivity check.
    """

    a: Union[SymbolSpec, Callable]
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        self._fetch = _product_contract(self.a)
        # spec'd memo: a(n) for n <= N, shared by every row
        self._head = np.asarray(self._fetch(np.arange(1, self.N + 1)), dtype=float)

    def _row_block(self, j_lo: int, j_hi: int) -> np.ndarray:
        """Rows j_lo..j_hi-1 (0-based) as a dense block."""
        k = np.arange(1, self.N + 1)
        j = np.arange(j_lo + 1, j_hi + 1)
        prod = j[:, None] * k[None, :]
        out = np.empty(prod.shape)
        small = prod <= self.N
        out[small] = self._head[prod[small] - 1]
        big = ~small
        if np.any(big):
            try:
                out[big] = self._fetch(prod[big])
            except DomainError as exc:
                raise DomainError(
                    f"symbol evaluation failed in rows {j_lo + 1}..{j_hi}: {exc}"
                ) from exc
        return out

    def dense(self) -> np.ndarray:
        _check_dense_order(self.N)
        return self._row_block(0, self.N)

    def matvec(self, u):
        u = np.asarray(u)
        if u.shape != (self.N,):
            raise ValueError(f"expected a length-{self.N} vector, got {u.shape}")
        out = np.empty(self.N, dtype=np.result_type(float, u.dtype))
        step = max(1, _BLOCK_BUDGET // self.N)
        for j_lo in range(0, self.N, step):
            j_hi = min(j_lo + step, self.N)
            out[j_lo:j_hi] = self._row_block(j_lo, j_hi) @ u
        return out


def build_helson(a, N: int) -> LinearMap:
    """Symmetric N x N map entry(j,k) = a(jk).

    The full symbol, SymbolSpec(kind="helson_a"), is factored: row and
    column 1 hold the exact values a(k) (a(1) = a(2) = 0), and indices
    2..N hold E E^T over the cached exponential-sum rule of
    symbols._exponential_sum_rule, R = 138 positive terms.  Every entry
    matches a(jk) to 8e-12 relative for alpha in {0.5, 1, 2} and
    N <= 2^18; a matvec costs O(N R) and dense() returns the factor's own
    matrix.  Index 1 stays out of the Gram part: the sum diverges at
    jk = 2, and the smallest product left, 4, is where it converges.
    A callable, or SymbolSpec(kind="a0") restricted to the integers by
    symbols.sequence_values (index 1 zeroed, unlike build_smooth_helson),
    streams rows through HelsonTruncation in O(N^2) per matvec.
    """
    if isinstance(a, SymbolSpec) and a.kind == "helson_a":
        return _helson_gram(a, N)
    T = HelsonTruncation(a, N)
    return LinearMap(cols=N, matvec=T.matvec, dense=T.dense)


def _dirichlet_factor(x, s, log_m) -> np.ndarray:
    """len(x) x len(s) factor E_jq = m_q^(1/2) x_j^(-1/2-s_q).

    Formed in log space, 0.5 log m_q - (1/2 + s_q) log x_j, because the
    exponential-sum masses reach ~e^750; a zero mass (log_m = -inf) gives
    a zero column.  Entries below the normal range are flushed to 0
    rather than left subnormal in every GEMV.
    """
    E = np.multiply.outer(np.log(x), -(0.5 + s))
    E += 0.5 * log_m
    np.exp(E, out=E)
    E[E < np.finfo(float).tiny] = 0.0
    return E


@dataclass(frozen=True)
class GramSection(LinearMap):
    """LinearMap P P^T - M M^T, plus head as exact row and column 1.

    plus (P) and minus (M, absent when None) stay on the map so that
    difference_section can reuse two sections' factors without copying.
    """

    plus: Optional[np.ndarray] = None
    minus: Optional[np.ndarray] = None
    head: Optional[np.ndarray] = None


def _gram_section(plus: np.ndarray, minus, head) -> GramSection:
    """GramSection; head, when given, is added to row 1 and to column 1
    (entry (1,1) once) on top of the Gram part."""
    N = plus.shape[0]

    def mv(u):
        out = plus @ (plus.T @ u)
        if minus is not None:
            out -= minus @ (minus.T @ u)
        if head is not None:
            out[0] += head @ u
            out[1:] += head[1:] * u[0]
        return out

    def dense():
        M = plus @ plus.T
        if minus is not None:
            M -= minus @ minus.T
        if head is not None:
            M[0] += head
            M[1:, 0] += head[1:]
        return M

    return GramSection(cols=N, matvec=mv, dense=dense, plus=plus,
                       minus=minus, head=head)


def _smooth_nodes(spec: SymbolSpec):
    """Nodes and log masses of the smooth part's cached weight rule."""
    lam, rho = _weight_rule(spec.alpha, RULE_NODES)
    with np.errstate(divide="ignore"):
        return lam, np.log(rho)


def _helson_gram(spec: SymbolSpec, N: int) -> GramSection:
    """Exact row and column 1 plus E E^T on indices 2..N: the full
    symbol's exponential-sum factor with its row 1 set to 0."""
    if N < 1:
        raise ValueError("N must be positive")
    s, log_c = _exponential_sum_rule(spec.alpha)
    F = _dirichlet_factor(np.arange(1, N + 1, dtype=float), s, log_c)
    F[0] = 0.0
    head = sequence_values(spec, np.arange(1, N + 1))
    return _gram_section(F, None, head)


def difference_section(full: GramSection, smooth: GramSection) -> GramSection:
    """The row-1 section full - smooth as one signed Gram section.

    full is build_helson's section of the full symbol, smooth is
    build_smooth_helson's section of its smooth part.  full's factor
    and exact row and column 1 keep sign +, smooth's factor takes sign
    -, so the smooth part is subtracted on every row, row 1 included.
    """
    if not (isinstance(full, GramSection) and isinstance(smooth, GramSection)):
        raise TypeError("difference_section takes two factored sections")
    if full.minus is not None or smooth.minus is not None or \
            smooth.head is not None:
        raise ValueError("difference_section takes two positive Gram "
                         "sections, the second without a head")
    return _gram_section(full.plus, smooth.plus, full.head)


def build_smooth_helson(spec: SymbolSpec, N: int) -> GramSection:
    """Matrix-free Gram section of the smooth part: entry(j,k) = a0(jk).

    Holds the factored form E E^T with E_jq = j^(-1/2-l_q) sqrt(rho_q)
    over the same cached quadrature rule as the scalar smooth-part
    values, so entries agree with those to rounding while a matvec costs
    two thin GEMVs instead of re-integrating N^2 products.  Positive
    semidefinite by construction (the genuine value at every product,
    including jk = 1, is what makes the factorization close).
    """
    if N < 1:
        raise ValueError("N must be positive")
    lam, log_rho = _smooth_nodes(spec)
    F = _dirichlet_factor(np.arange(1, N + 1, dtype=float), lam, log_rho)
    return _gram_section(F, None, None)
