"""End-to-end orchestration: decomposition rows, spectra, fits, reports.

run_chain drives the whole reduction for one exponent: matrix sections
of the multiplicative symbol and both of its parts, the matched pair of
integral-operator discretizations for each part, cross-checks between
the rows, the tail fit against the closed-form constant, and the
negative-part domination check.  Every stage writes its artifacts
before the next one starts, so a failure leaves a usable partial run.
"""

from __future__ import annotations

import contextlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from helsonlab._svg import loglog_figure
# default_fit_window is unused here but stays importable from this module:
# perfbench/spans.py wraps pipeline.default_fit_window by name
from helsonlab.asymptotics import (default_fit_window,  # noqa: F401
                                   fit_power_tail, kappa,
                                   negative_part_domination)
from helsonlab.discretize import (log_window_smooth_section, make_grid,
                                  nystrom_hankel, nystrom_helson,
                                  v_matched_grids)
from helsonlab.eigen import (Spectrum, dense_eig_oracle, lanczos_extreme,
                             singular_values, spectrum_to_csv,
                             write_meta_sidecar)
from helsonlab.schatten import schatten_norm
from helsonlab.structured_ops import (HelsonTruncation, LinearMap,
                                      build_helson, build_smooth_helson)
from helsonlab.symbols import (SymbolSpec, difference_part_sequence,
                               sequence_values, smooth_part_sequence)

# solve() gives sections at or below this order the full dense spectrum;
# above it the solver reports solver["k"] certified extreme pairs instead
_DENSE_LIMIT = 600

# fewest resolved eigenvalues the matrix trend fit runs on
_MIN_RESOLVED_FIT = 10


class StageError(RuntimeError):
    """Failure wrapper carrying the pipeline stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass
class RunConfig:
    alpha: float = 1.0
    sizes: tuple = (512, 1024, 2048, 4096, 8192)
    helson_cap: int = 4096
    x_domain: tuple = (0.0, 30.0)
    nystrom_n: int = 220
    solver: dict = field(default_factory=dict)
    out_dir: str = "chain_out"
    fit_window: Optional[tuple] = None
    weight_zero: bool = False
    negativity_size: int = 512

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError("sizes must be >= 2")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        lo, hi = self.x_domain
        if not (0.0 <= lo < hi):
            raise ValueError("x_domain must satisfy 0 <= lo < hi")
        if self.nystrom_n < 8:
            raise ValueError("nystrom_n too small")
        base = {"k": 20, "tol": 1e-10, "max_iter": None, "seed": 0}
        base.update(self.solver)
        self.solver = base
        if self.fit_window is not None:
            self.fit_window = (int(self.fit_window[0]),
                               int(self.fit_window[1]))

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "sizes": list(self.sizes),
            "helson_cap": self.helson_cap,
            "grids": {"x_lo": self.x_domain[0], "x_hi": self.x_domain[1],
                      "n": self.nystrom_n},
            "solver": self.solver,
            "outputs": {"dir": str(self.out_dir)},
            "fit_window": list(self.fit_window) if self.fit_window else None,
            "weight_zero": self.weight_zero,
            "negativity_size": self.negativity_size,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "RunConfig":
        grids = blob.get("grids", {})
        kwargs = {
            "alpha": blob.get("alpha", 1.0),
            "sizes": tuple(blob.get("sizes", (512, 1024, 2048, 4096, 8192))),
            "helson_cap": blob.get("helson_cap", 4096),
            "x_domain": (grids.get("x_lo", 0.0), grids.get("x_hi", 30.0)),
            "nystrom_n": grids.get("n", 220),
            "solver": blob.get("solver", {}),
            "out_dir": blob.get("outputs", {}).get("dir", "chain_out"),
            "weight_zero": blob.get("weight_zero", False),
            "negativity_size": blob.get("negativity_size", 512),
        }
        if blob.get("fit_window"):
            kwargs["fit_window"] = tuple(blob["fit_window"])
        return cls(**kwargs)


def _zero_symbol(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _resolved_count(lam: np.ndarray, floor: float = 1e-8) -> int:
    """Positive eigenvalues above floor * lambda_1 (solver noise cut)."""
    if lam.size == 0 or lam[0] <= 0:
        return 0
    return int(np.sum(lam >= floor * lam[0]))


def solve(lm: LinearMap, solver: dict, k: Optional[int] = None,
          which: str = "both_ends") -> Spectrum:
    """Spectrum of a symmetric section under the one solve policy.

    Orders up to _DENSE_LIMIT get the full dense spectrum; larger ones
    get k (default solver["k"]) certified Lanczos pairs per requested
    end, with the solver's tol, max_iter and seed.
    """
    if lm.cols <= _DENSE_LIMIT:
        return dense_eig_oracle(lm)
    k = min(solver["k"] if k is None else k, lm.cols - 1)
    return lanczos_extreme(lm, k, which=which, tol=solver["tol"],
                           max_iter=solver["max_iter"], seed=solver["seed"])


def difference_section(spec: SymbolSpec, N: int) -> LinearMap:
    """Row-1 matrix section: the full symbol minus its factored smooth part."""
    m_full = build_helson(spec, N)
    m0 = build_smooth_helson(spec, N)
    return LinearMap(
        rows=N, cols=N, symmetric=True,
        matvec=lambda u: m_full.matvec(u) - m0.matvec(u),
        description=f"difference multiplicative section N={N}",
        dense=lambda: m_full.dense() - m0.dense())


def _write_spectrum(spec: Spectrum, out_dir: pathlib.Path, name: str,
                    report: dict) -> None:
    """CSV and sidecar of one spectrum; a non-converged solve is listed
    by name in report["unconverged"]."""
    csv_path = out_dir / f"{name}.csv"
    spectrum_to_csv(spec, csv_path)
    write_meta_sidecar(spec, out_dir / f"{name}.meta.json")
    report["artifacts"].append(str(csv_path))
    if not spec.meta.get("converged", True):
        report["unconverged"].append(name)


def _top_agreement(sa: Spectrum, sb: Spectrum, count: int = 20,
                   floor: float = 1e-8) -> dict:
    """Relative agreement of the leading positive eigenvalues.

    Entries below floor * lambda_1 on either side are excluded: matched
    discretizations agree entrywise to rounding, so eigenvalues under
    the solver's absolute noise floor carry no information and their
    relative differences are meaningless.
    """
    m = min(sa.lambda_plus.size, sb.lambda_plus.size, count)
    if m == 0:
        return {"compared": 0, "max_rel_diff": 0.0, "floor": floor}
    a = sa.lambda_plus[:m]
    b = sb.lambda_plus[:m]
    top = max(float(a[0]), float(b[0]), 1e-300)
    keep = (a >= floor * top) & (b >= floor * top)
    if not np.any(keep):
        return {"compared": 0, "max_rel_diff": 0.0, "floor": floor}
    rel = np.abs(a[keep] - b[keep]) / np.abs(a[keep])
    return {"compared": int(np.count_nonzero(keep)),
            "max_rel_diff": float(np.max(rel)), "floor": floor}


def run_chain(config: RunConfig) -> dict:
    """Execute the full decomposition run; returns the report bundle."""
    out_dir = pathlib.Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: list = []
    report: dict = {"config": config.to_json(), "stages": [],
                    "artifacts": artifacts, "unconverged": []}
    alpha = config.alpha

    @contextlib.contextmanager
    def stage(name: str):
        # a StageError keeps its own tag; any other failure gets this one
        report["stages"].append(name)
        try:
            yield
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc

    # symbol table for both rows; a degenerate weight empties row 0.
    # Matrix rows use the Gram-flavored sequence pair (genuine head for
    # the smooth part, compensated difference part): row-0 sections stay
    # positive and the two rows still sum to the restricted full symbol.
    full_spec = SymbolSpec(kind="helson_a", alpha=alpha)
    a_specs: dict = {0: SymbolSpec(kind="a0", alpha=alpha),
                     1: SymbolSpec(kind="a1", alpha=alpha)}
    b_specs: dict = {0: SymbolSpec(kind="b0", alpha=alpha),
                     1: SymbolSpec(kind="b1", alpha=alpha)}
    row_seq: dict = {0: (lambda n: smooth_part_sequence(full_spec, n)),
                     1: (lambda n: difference_part_sequence(full_spec, n))}

    def row_map(i: int, size: int) -> LinearMap:
        # spectra go through the factored smooth section (exact PSD,
        # GEMV matvec) and its complement; entry-level checks elsewhere
        # use row_seq, which re-integrates every product independently
        if i == 0:
            return build_smooth_helson(full_spec, size)
        return difference_section(full_spec, size)

    if config.weight_zero:
        # zero weight: the smooth part vanishes identically and the
        # difference part carries the whole symbol on both sides
        a_specs = {0: _zero_symbol, 1: full_spec}
        b_specs = {0: _zero_symbol,
                   1: SymbolSpec(kind="hankel_b", alpha=alpha)}
        row_seq = {0: _zero_symbol,
                   1: (lambda n: sequence_values(full_spec, n))}

        def row_map(i: int, size: int) -> LinearMap:
            # row 1 is built from the spec, as the combined section is,
            # so both take the same factored path
            return build_helson(full_spec if i == 1 else row_seq[0], size)

    matrix_sizes = [s for s in config.sizes if s <= config.helson_cap]
    if not matrix_sizes:
        raise StageError("config", "no sizes at or below the matrix cap")

    row_spectra: dict = {}
    with stage("row_matrices"):
        for i in (0, 1):
            for size in matrix_sizes:
                spec = solve(row_map(i, size), config.solver)
                row_spectra[(i, size)] = spec
                _write_spectrum(spec, out_dir, f"row{i}_matrix_N{size}",
                                report)

    with stage("row_integrals"):
        gx, gt = v_matched_grids(config.x_domain, config.nystrom_n)
        cross = {}
        integral_spectra: dict = {}
        for i in (0, 1):
            op_m = nystrom_helson(a_specs[i], gt,
                                  max_nodes=max(4096, config.nystrom_n))
            op_h = nystrom_hankel(b_specs[i], gx,
                                  max_nodes=max(4096, config.nystrom_n))
            sm = solve(op_m.map, config.solver)
            sh = solve(op_h.map, config.solver)
            integral_spectra[(i, "helson")] = sm
            integral_spectra[(i, "hankel")] = sh
            _write_spectrum(sm, out_dir, f"row{i}_integral_helson", report)
            _write_spectrum(sh, out_dir, f"row{i}_integral_hankel", report)
            cross[f"row{i}"] = _top_agreement(sm, sh)
        report["cross_row"] = cross
        h0 = integral_spectra[(0, "hankel")]
        lam_max = float(h0.lambda_plus[0]) if h0.lambda_plus.size else 0.0
        lam_min_neg = float(h0.lambda_minus[0]) if h0.lambda_minus.size else 0.0
        report["h_b0_psd"] = {
            "lambda_max": lam_max,
            "lambda_min": -lam_min_neg,
            "ok": bool(lam_min_neg <= 1e-10 * max(lam_max, 1e-300)),
        }

    with stage("combined_matrix"):
        combined: dict = {}
        for size in matrix_sizes:
            spec = solve(build_helson(full_spec, size), config.solver)
            combined[size] = spec
            _write_spectrum(spec, out_dir, f"combined_matrix_N{size}",
                            report)
        # additivity: assembled symbol vs entrywise sum of the two parts,
        # each row re-integrated independently (not the factored maps)
        check_size = min(matrix_sizes[0], _DENSE_LIMIT)
        assembled = HelsonTruncation(full_spec, check_size).dense()
        summed = (HelsonTruncation(row_seq[0], check_size).dense() +
                  HelsonTruncation(row_seq[1], check_size).dense())
        spec_sum = dense_eig_oracle(summed)
        spec_asm = dense_eig_oracle(assembled)
        m = min(spec_sum.singular.size, spec_asm.singular.size)
        top = max(float(spec_asm.singular[0]), 1e-300) if m else 1e-300
        add_diff = float(np.max(np.abs(
            spec_sum.singular[:m] - spec_asm.singular[:m]))) / top if m else 0.0
        report["additivity"] = {"size": check_size, "max_rel_diff": add_diff,
                                "ok": bool(add_diff <= 1e-12)}

    with stage("fit"):
        fits = {}
        # headline: the smooth additive kernel in log coordinates at the
        # top ladder size, the one object whose tail corrections shrink
        # fast enough to observe the power law at desk scale.  The
        # combined matrix only gets a trend check.
        n_top = config.sizes[-1]
        if not config.weight_zero:
            window = config.fit_window or (20, 200)
            sec = log_window_smooth_section(alpha, n_top)
            sp_head = solve(sec.map, config.solver, k=window[1] + 16,
                            which="largest")
            _write_spectrum(sp_head, out_dir, f"headline_section_n{n_top}",
                            report)
            lam = sp_head.lambda_plus
            n0 = min(window[0], max(1, lam.size // 2))
            n1 = min(window[1], lam.size)
            if n1 - n0 >= 8:
                fit = fit_power_tail(lam, (n0, n1))
                fits["headline"] = dict(fit.to_json(),
                                        object="log_window_smooth_section",
                                        n_nodes=n_top, window=[n0, n1],
                                        kappa_ref=kappa(alpha))
                ref_n = np.arange(n0, n1 + 1, dtype=float)
                loglog_figure(
                    out_dir / "fit_figure.svg",
                    [("positive spectrum",
                      np.arange(1, lam.size + 1), lam)],
                    reference=("reference decay", ref_n,
                               kappa(alpha) / ref_n**alpha),
                    title=f"tail fit, alpha={alpha:g}",
                    x_label="n", y_label="lambda_n")
                artifacts.append(str(out_dir / "fit_figure.svg"))
        # matrix truncations resolve only O(log N) tail eigenvalues before
        # the solver floor (the multiplicative section is near rank-one,
        # unfolding logarithmically), so the trend fit runs over the
        # resolved range when it is long enough and is refused otherwise
        big = combined[matrix_sizes[-1]]
        m_res = _resolved_count(big.lambda_plus)
        if m_res >= _MIN_RESOLVED_FIT:
            win_m = (max(2, m_res // 20), m_res)
            fit = fit_power_tail(big.lambda_plus, win_m)
            fits["matrix_trend"] = dict(fit.to_json(),
                                        object="combined_matrix",
                                        resolved_count=m_res,
                                        window=list(win_m))
        else:
            fits["matrix_trend"] = {
                "object": "combined_matrix", "resolved_count": m_res,
                "refused": f"{m_res} resolved eigenvalues, a fit needs "
                           f"at least {_MIN_RESOLVED_FIT}"}
        report["fits"] = fits
        fit_path = out_dir / "fit_report.json"
        fit_path.write_text(json.dumps(fits, indent=1, sort_keys=True))
        artifacts.append(str(fit_path))

    with stage("negativity"):
        neg_size = min(config.negativity_size, matrix_sizes[-1])
        spec_full = (combined[neg_size] if neg_size in combined else
                     solve(build_helson(full_spec, neg_size), config.solver))
        spec_a1 = (row_spectra[(1, neg_size)]
                   if (1, neg_size) in row_spectra else
                   solve(row_map(1, neg_size), config.solver))
        spec_a0 = (row_spectra[(0, neg_size)]
                   if (0, neg_size) in row_spectra else
                   solve(row_map(0, neg_size), config.solver))
        dom = negative_part_domination(spec_full, spec_a1, spec_a0)
        # the ratio is only meaningful over resolved positive eigenvalues
        # past the head: index 1 carries the symbol's divergence at the
        # left end of its domain (one genuine O(1) +/- pair), and indices
        # under the solver floor compare noise with noise
        m_res = _resolved_count(spec_full.lambda_plus)
        if config.fit_window is not None:
            n0, n1 = config.fit_window
            n1 = min(int(n1), spec_full.lambda_plus.size)
            n0 = max(1, int(n0))
        else:
            n0 = max(2, m_res // 20)
            n1 = m_res
        ratio = 0.0
        m = spec_full.lambda_minus.size
        for n in range(n0, n1 + 1):
            if n <= m:
                ratio = max(ratio, float(spec_full.lambda_minus[n - 1]
                                         / spec_full.lambda_plus[n - 1]))
        report["negativity"] = dict(dom, size=neg_size,
                                    window=[n0, n1],
                                    resolved_count=m_res,
                                    max_neg_to_pos=ratio)

    report_path = out_dir / "run_report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return report


# ---------------------------------------------------------------------------
# restriction experiment: matrix section norm vs integral operator norm


def cubic_bspline(t) -> np.ndarray:
    """Centered piecewise-cubic bump, support (-2, 2), unit integral."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    m1 = t <= 1.0
    out[m1] = (4.0 - 6.0 * t[m1] ** 2 + 3.0 * t[m1] ** 3) / 6.0
    m2 = (t > 1.0) & (t <= 2.0)
    out[m2] = (2.0 - t[m2]) ** 3 / 6.0
    return out


def band_limited_symbol(coeffs, N: float) -> Callable:
    """Multiplicative symbol t^(-1/2) f(log t) with f a smooth compactly
    supported spline combination on [0, N]; vanishes off [1, e^N]."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("need a nonempty coefficient vector")
    if not N > 0:
        raise ValueError("N must be positive")
    h = N / (coeffs.size + 3.0)
    centers = 2.0 * h + h * np.arange(coeffs.size)

    def a(t):
        t_in = np.asarray(t, dtype=float)
        t_arr = np.atleast_1d(t_in).astype(float)
        out = np.zeros_like(t_arr)
        pos = t_arr >= 1.0
        x = np.log(t_arr[pos])
        f = np.zeros_like(x)
        for c, x0 in zip(coeffs, centers):
            f += c * cubic_bspline((x - x0) / h)
        out[pos] = t_arr[pos] ** -0.5 * f
        return out if t_in.ndim else float(out[0])

    return a


def _schatten_of_matrix(A: np.ndarray, p: float) -> float:
    """S_p of a small dense section, real-symmetric or complex-symmetric."""
    n = A.shape[0]
    if not np.iscomplexobj(A):
        s = dense_eig_oracle(A).singular
    else:
        lm = LinearMap(rows=n, cols=n, symmetric=False,
                       matvec=lambda u: A @ u, description="complex section")
        s = singular_values(lm, n).singular
    if s.size and s[0] > 0:
        s = s[s >= 1e-13 * s[0]]
    return schatten_norm(s, p)


def restriction_ratio(a: Callable, N: float, p: float = 1.0,
                      grid_n: int = 256) -> dict:
    """One symbol's matrix-to-integral Schatten ratio with a doubling check.

    The matrix side truncates at J = ceil(e^N), which already contains
    every nonzero entry of the full section when supp a is in [1, e^N];
    the integral side is flagged when grid doubling moves it over 10%.
    """
    J = int(math.ceil(math.exp(N)))
    j = np.arange(1, J + 1, dtype=float)
    matrix_norm = _schatten_of_matrix(np.asarray(a(np.multiply.outer(j, j))),
                                      p)

    def integral_norm(n: int) -> float:
        grid = make_grid((1.0, math.exp(N)), n, spacing="geometric")
        t = grid.nodes
        sq = np.sqrt(grid.weights)
        K = np.asarray(a(np.multiply.outer(t, t))) * np.outer(sq, sq)
        return _schatten_of_matrix(K, p)

    coarse = integral_norm(grid_n)
    fine = integral_norm(2 * grid_n)
    if fine == 0.0:
        return {"matrix_norm": matrix_norm, "integral_norm": 0.0,
                "ratio": math.nan, "sensitivity": 0.0, "unresolved": False}
    sens = abs(fine - coarse) / fine
    return {"matrix_norm": matrix_norm, "integral_norm": fine,
            "ratio": matrix_norm / fine, "sensitivity": sens,
            "unresolved": bool(sens > 0.10)}


def restriction_schatten_experiment(p: float = 1.0, n_symbols: int = 10,
                                    n_modes: int = 4, N: float = 3.0,
                                    grid_n: int = 256, seed: int = 20250819,
                                    out_path=None) -> dict:
    """Family table of S_p ratios between matrix sections and integral
    operators for random compactly supported symbols."""
    if not 0 < p <= 1:
        raise ValueError("experiment targets p in (0, 1]")
    rng = np.random.default_rng(seed)
    rows = []
    for idx in range(n_symbols):
        coeffs = rng.standard_normal(n_modes)
        a = band_limited_symbol(coeffs, N)
        row = restriction_ratio(a, N, p, grid_n)
        row["symbol"] = idx
        rows.append(row)
    ratios = [r["ratio"] for r in rows]
    report = {"p": p, "N": N, "n_modes": n_modes, "grid_n": grid_n,
              "seed": seed, "rows": rows,
              "max_ratio": max(ratios),
              "unresolved": [r["symbol"] for r in rows if r["unresolved"]]}
    if out_path is not None:
        pathlib.Path(out_path).write_text(
            json.dumps(report, indent=1, sort_keys=True))
    return report
