"""End-to-end orchestration: decomposition rows, spectra, fits, reports.

run_chain drives the whole reduction for one exponent: the headline
section's tail fit against the closed-form constant, matrix sections of
the multiplicative symbol and both of its parts, the matched pair of
integral-operator discretizations for each part (row 1 as the closed
form minus row 0's Gram product on the same grid), cross-checks between
the rows, and the negative-part domination check.  The split is always
a = a0 + a1 with the symbol's own weight; there is no zero-weight mode.
The headline goes first: its Lanczos basis is the largest block a run
allocates, and made on a fresh heap it sets a lower peak RSS than on
top of what the matrix stages leave behind.  Every stage writes its
artifacts before the next one starts, so a failure leaves a usable
partial run, and records its seconds and the peak RSS so far under
"stage_stats".
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import pathlib
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from helsonlab._svg import loglog_figure
# default_fit_window is unused here but stays importable from this module:
# perfbench/spans.py wraps pipeline.default_fit_window by name
from helsonlab.asymptotics import (NOISE_FLOOR,
                                   default_fit_window,  # noqa: F401
                                   fit_power_tail, kappa,
                                   negative_part_domination)
from helsonlab.discretize import (certified_count,
                                  log_window_smooth_section,
                                  nystrom_difference, nystrom_hankel,
                                  nystrom_helson, v_matched_grids,
                                  weyl_count, window_nodes)
from helsonlab.eigen import (Spectrum, check_seed, dense_eig_oracle,
                             lanczos_extreme, spectrum_to_csv,
                             write_meta_sidecar)
from helsonlab.structured_ops import (MAX_DENSE, HelsonTruncation,
                                      LinearMap, build_helson,
                                      build_smooth_helson, difference_section)
from helsonlab.symbols import SymbolSpec

# solve() gives sections at or below this order the full dense spectrum;
# above it Lanczos reports k (default _LANCZOS_K) certified extreme pairs
# per end
_DENSE_LIMIT = 600
_LANCZOS_K = 20

# x-range of the matched Nystrom grids (t = e^x on the multiplicative side)
_X_DOMAIN = (0.0, 30.0)

# index window (1-based) of the headline tail fit; its top index also
# sizes the headline window, and the fit stops at the last certified index
_FIT_WINDOW = (20, 200)

# pairs the headline asks past the Weyl estimate of its certified count,
# so that the solve reaches the first uncertified index
_WEYL_MARGIN = 8


class StageError(RuntimeError):
    """Failure wrapper carrying the pipeline stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def _need_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _need_object(where: str, blob) -> None:
    if not isinstance(blob, dict):
        raise ValueError(f"{where} must be an object, got {blob!r}")


def _refuse_unknown(where: str, blob: dict, known) -> None:
    unknown = sorted(set(blob) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


@dataclass
class RunConfig:
    """Settings of one chain run.

    sizes lists the matrix sections' orders, solved up to helson_cap;
    its last entry also caps the headline window, which is otherwise
    as wide as the fit window needs (pipeline._headline_fit).
    """

    alpha: float = 1.0
    sizes: tuple = (512, 1024, 2048, 4096, 8192)
    helson_cap: int = 4096
    nystrom_n: int = 220
    solver: dict = field(default_factory=dict)
    out_dir: str = "chain_out"

    def __post_init__(self):
        if isinstance(self.alpha, bool) or \
                not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha must be real, got {self.alpha!r}")
        if not isinstance(self.sizes, (list, tuple)):
            raise ValueError(f"sizes must be a list, got {self.sizes!r}")
        self.sizes = tuple(_need_int("sizes", s) for s in self.sizes)
        self.helson_cap = _need_int("helson_cap", self.helson_cap)
        self.nystrom_n = _need_int("nystrom_n", self.nystrom_n)
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError("sizes must be >= 2")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        kappa(self.alpha)  # refuses an alpha without a finite tail constant
        if not 8 <= self.nystrom_n <= MAX_DENSE:
            raise ValueError(f"nystrom_n must lie in [8, {MAX_DENSE}], "
                             f"got {self.nystrom_n}")
        _need_object("solver", self.solver)
        _refuse_unknown("solver", self.solver, ("seed",))
        self.solver = {"seed": check_seed(self.solver.get("seed", 0))}

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "sizes": list(self.sizes),
            "helson_cap": self.helson_cap,
            "grids": {"n": self.nystrom_n},
            "solver": self.solver,
            "outputs": {"dir": str(self.out_dir)},
        }

    @classmethod
    def from_json(cls, blob: dict) -> "RunConfig":
        """Inverse of to_json; a missing key keeps the field's default, and
        a key that to_json does not write, a config that is not an object
        or a block of one that is not an object raises ValueError."""
        known = cls().to_json()
        _need_object("config", blob)
        _refuse_unknown("config", blob, known)
        for part in ("grids", "outputs"):
            _need_object(part, blob.get(part, {}))
            _refuse_unknown(part, blob.get(part, {}), known[part])
        kwargs = {k: blob[k] for k in ("alpha", "sizes", "helson_cap",
                                       "solver") if k in blob}
        if "n" in blob.get("grids", {}):
            kwargs["nystrom_n"] = blob["grids"]["n"]
        if "dir" in blob.get("outputs", {}):
            kwargs["out_dir"] = blob["outputs"]["dir"]
        return cls(**kwargs)


def _resolved_count(lam: np.ndarray) -> int:
    """Positive eigenvalues at or above NOISE_FLOOR * lambda_1."""
    if lam.size == 0 or lam[0] <= 0:
        return 0
    return int(np.sum(lam >= NOISE_FLOOR * lam[0]))


def _neg_to_pos_ratio(spec: Spectrum, n0: int, n1: int) -> float:
    """Largest lambda_n^- / lambda_n^+ over n0 <= n <= n1 (1-based).

    Negatives below NOISE_FLOOR * lambda_1^+ count as zero, as in
    negative_part_domination: past the resolved head a dense spectrum's
    lambda_n^- are rounding noise, and their ratio reads the solver.
    """
    hi = min(n1, spec.lambda_minus.size)
    if hi < n0:
        return 0.0
    neg = spec.lambda_minus[n0 - 1:hi]
    pos = spec.lambda_plus[n0 - 1:hi]
    keep = neg >= NOISE_FLOOR * spec.lambda_plus[0]
    return float(np.max(neg[keep] / pos[keep], initial=0.0))


def solve(lm: LinearMap, k: int = _LANCZOS_K, seed: int = 0,
          which: str = "both_ends") -> Spectrum:
    """Spectrum of a symmetric section under the one solve policy.

    Orders up to _DENSE_LIMIT get the full dense spectrum; larger ones
    get k Lanczos pairs per requested end, started from seed and
    certified to lanczos_extreme's residual tolerance.  A seed that is
    not a non-negative integer is refused on either route.
    """
    check_seed(seed)
    if lm.cols <= _DENSE_LIMIT:
        return dense_eig_oracle(lm)
    return lanczos_extreme(lm, min(k, lm.cols - 1), which=which, seed=seed)


def _write_spectrum(spec: Spectrum, out_dir: pathlib.Path, name: str,
                    report: dict) -> None:
    """CSV and sidecar of one spectrum; a non-converged solve is listed
    by name in report["unconverged"].

    The CSV lists every eigenvalue the solver returned; the sidecar marks
    which are resolved: noise_floor is NOISE_FLOOR * lambda_1^+ and
    resolved the count of positive eigenvalues at or above it.  resolved
    is not what the headline fit reads: that is the sidecar's
    certified_count, the leading eigenvalues the window does not
    truncate, capped at resolved.
    """
    lam1 = float(spec.lambda_plus[0]) if spec.lambda_plus.size else 0.0
    spec = replace(spec, meta=dict(spec.meta,
                                   noise_floor=NOISE_FLOOR * max(lam1, 0.0),
                                   resolved=_resolved_count(spec.lambda_plus)))
    csv_path = out_dir / f"{name}.csv"
    spectrum_to_csv(spec, csv_path)
    write_meta_sidecar(spec, out_dir / f"{name}.meta.json")
    report["artifacts"].append(str(csv_path))
    if not spec.meta.get("converged", True):
        report["unconverged"].append(name)


def _top_agreement(sa: Spectrum, sb: Spectrum) -> dict:
    """Relative agreement of the leading 20 positive eigenvalues.

    Entries below NOISE_FLOOR * lambda_1 on either side are excluded: matched
    discretizations agree entrywise to rounding, so eigenvalues under
    the solver's absolute noise floor carry no information and their
    relative differences are meaningless.
    """
    m = min(sa.lambda_plus.size, sb.lambda_plus.size, 20)
    if m == 0:
        return {"compared": 0, "max_rel_diff": 0.0, "floor": NOISE_FLOOR}
    a = sa.lambda_plus[:m]
    b = sb.lambda_plus[:m]
    top = max(float(a[0]), float(b[0]), 1e-300)
    keep = (a >= NOISE_FLOOR * top) & (b >= NOISE_FLOOR * top)
    if not np.any(keep):
        return {"compared": 0, "max_rel_diff": 0.0, "floor": NOISE_FLOOR}
    rel = np.abs(a[keep] - b[keep]) / np.abs(a[keep])
    return {"compared": int(np.count_nonzero(keep)),
            "max_rel_diff": float(np.max(rel)), "floor": NOISE_FLOOR}


def headline_series(lam: np.ndarray, certified: int) -> list:
    """loglog_figure series of a headline spectrum: its certified leading
    eigenvalues, then, when the solve returned more, the rest as a
    second series, truncated by the window."""
    n = np.arange(1, lam.size + 1)
    series = [("positive spectrum", n[:certified], lam[:certified])]
    if certified < lam.size:
        series.append(("truncated by the window", n[certified:],
                       lam[certified:]))
    return series


def _headline_pairs(alpha: float, n: int) -> int:
    """Pairs the headline asks of the n-node window: its Weyl count
    (discretize.weyl_count), rounded up, plus _WEYL_MARGIN, and at most
    the fit window's top index."""
    top = _FIT_WINDOW[1]
    count = weyl_count(alpha, n)
    if count >= top:
        return top
    return min(top, math.ceil(count) + _WEYL_MARGIN)


def _headline_fit(alpha: float, n_cap: int, seed: int,
                  out_dir: pathlib.Path, report: dict) -> None:
    """Headline section, its spectrum and tail fit into report["fits"].

    The headline is log_window_smooth_section, the smooth part's integral
    Hankel operator as the Toeplitz map diag(d) T diag(d) in
    mu = -log(lambda), whose kernel carries the reference kappa(alpha):
    the one object whose tail corrections shrink fast enough to observe
    the power law at desk scale.  Its width is the fewest nodes that
    certify the fit window's top index at the Weyl estimate
    kappa(alpha) k^-alpha (discretize.window_nodes), capped at n_cap, the
    chain's last size.  Each returned eigenvalue is certified by its
    turning point and the noise floor (discretize.certified_count, at
    most the sidecar's resolved), and the fit reads indices
    _FIT_WINDOW[0] up to the last certified one; a window that certifies
    fewer than _FIT_WINDOW[0] + 8 is reported under "fit_skipped" with
    its certified count instead of a fit.  The solve asks only for the
    pairs the window can certify (_headline_pairs): Weyl's count at the
    smallest certifiable eigenvalue, plus a margin, and at most
    _FIT_WINDOW[1].  If every pair it returns is certified, that
    estimate fell short, and the window is solved once more for
    _FIT_WINDOW[1] pairs: the fit then reads what asking for them at
    once would give.  fits.headline and the sidecar record n_nodes (the
    width solved, which names the CSV), n_cap and certified_count, and
    the sidecar records the pairs asked as topk.  fit_figure.svg draws
    the eigenvalues past certified_count as a second series, truncated
    by the window.  Once the window is wide enough the map solved is
    its Gram twin, so the sidecar's dim reads the twin's order, below
    n_nodes.  Matrix sections get no fit: they resolve only 8-9
    eigenvalues above the noise floor, in geometric rather than
    power-law decay.  The section and its Lanczos basis are dead when
    this returns.
    """
    artifacts = report["artifacts"]
    fits = {}
    n_top = min(n_cap, window_nodes(alpha, _FIT_WINDOW[1]))
    sec = log_window_smooth_section(alpha, n_top)
    k = _headline_pairs(alpha, n_top)
    sp_head = solve(sec.map, k=k, seed=seed, which="largest")
    certified = certified_count(alpha, sp_head.lambda_plus, n_top)
    if certified == sp_head.lambda_plus.size and k < _FIT_WINDOW[1]:
        k = _FIT_WINDOW[1]
        sp_head = solve(sec.map, k=k, seed=seed, which="largest")
        certified = certified_count(alpha, sp_head.lambda_plus, n_top)
    lam = sp_head.lambda_plus
    sp_head = replace(sp_head, meta=dict(sp_head.meta, n_cap=n_cap, topk=k,
                                         certified_count=certified))
    _write_spectrum(sp_head, out_dir, f"headline_section_n{n_top}", report)
    n0, n1 = _FIT_WINDOW[0], min(_FIT_WINDOW[1], certified)
    if n1 - n0 < 8:
        report["fit_skipped"] = {"certified_count": certified,
                                 "window": list(_FIT_WINDOW)}
    else:
        fit = fit_power_tail(lam, (n0, n1))
        fits["headline"] = dict(fit.to_json(),
                                object="log_window_smooth_section",
                                n_nodes=n_top, n_cap=n_cap,
                                certified_count=certified, window=[n0, n1],
                                kappa_ref=kappa(alpha))
        ref_n = np.arange(n0, n1 + 1, dtype=float)
        loglog_figure(
            out_dir / "fit_figure.svg", headline_series(lam, certified),
            reference=("reference decay", ref_n,
                       kappa(alpha) / ref_n**alpha),
            title=f"tail fit, alpha={alpha:g}",
            x_label="n", y_label="lambda_n")
        artifacts.append(str(out_dir / "fit_figure.svg"))
    report["fits"] = fits
    fit_path = out_dir / "fit_report.json"
    fit_path.write_text(json.dumps(fits, indent=1, sort_keys=True))
    artifacts.append(str(fit_path))


def run_chain(config: RunConfig) -> dict:
    """Execute the full decomposition run; returns the report bundle.

    Stages run in the order fit, row_matrices, row_integrals,
    combined_matrix, negativity.  The headline fit comes first so that
    its Lanczos basis, the largest block of the run, is allocated before
    the matrix stages grow the heap; negativity comes last, since it
    reads the row and combined spectra.

    Each section is solved only at the sizes a report number reads: row 0
    and the combined section at every matrix size, row 1 once, at the
    negativity size, which is the largest matrix size on the dense route
    (the smallest matrix size if none is); the headline is solved on the
    narrowest window that certifies the fit window's top index, with
    config.sizes[-1] as a cap on its width, for the largest pairs that
    window can certify (_headline_fit), at most that top index.
    Every solved spectrum gets its CSV and sidecar.  A headline that
    certifies too few eigenvalues for the fit window is reported under
    "fit_skipped" instead of a fit.
    """
    matrix_sizes = [s for s in config.sizes if s <= config.helson_cap]
    if not matrix_sizes:
        raise StageError("config", "no sizes at or below the matrix cap")
    # the negativity check reads full spectra: the largest matrix size on
    # the dense route, or the smallest one if every size is above it
    dense_sizes = [s for s in matrix_sizes if s <= _DENSE_LIMIT]
    neg_size = dense_sizes[-1] if dense_sizes else matrix_sizes[0]

    out_dir = pathlib.Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"config": config.to_json(), "stages": [],
                    "stage_stats": {}, "artifacts": [], "unconverged": []}
    alpha = config.alpha
    seed = config.solver["seed"]

    @contextlib.contextmanager
    def stage(name: str):
        # a StageError keeps its own tag; any other failure gets this one
        report["stages"].append(name)
        t0 = time.perf_counter()
        try:
            yield
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
        # the process's peak so far: ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["stage_stats"][name] = {
            "seconds": time.perf_counter() - t0, "peak_rss_mb": peak}

    with stage("fit"):
        _headline_fit(alpha, config.sizes[-1], seed, out_dir, report)

    # row 0 is the smooth part a0 and row 1 the rest a - a0.  Both matrix
    # rows are factored sections: row 0 is the positive Gram matrix over
    # a0's weight rule, and row 1 takes the full symbol's factor and exact
    # row and column 1 with sign + and that same smooth factor with sign -.
    full_spec = SymbolSpec(kind="helson_a", alpha=alpha)

    def row_map(i: int, size: int) -> LinearMap:
        if i == 0:
            return build_smooth_helson(full_spec, size)
        return difference_section(build_helson(full_spec, size),
                                  build_smooth_helson(full_spec, size))

    # row 0 is solved at every matrix size; row 1 only at neg_size, where
    # the negativity stage reads it (the additivity check builds its own)
    row_spectra: dict = {}
    with stage("row_matrices"):
        jobs = [(0, size) for size in matrix_sizes] + [(1, neg_size)]
        for i, size in jobs:
            spec = solve(row_map(i, size), seed=seed)
            row_spectra[(i, size)] = spec
            _write_spectrum(spec, out_dir, f"row{i}_matrix_N{size}", report)

    with stage("row_integrals"):
        gx, gt = v_matched_grids(_X_DOMAIN, config.nystrom_n)
        integral_spectra: dict = {}
        # per grid, row 0 is the smooth part's Gram product E E^T, built
        # once, and row 1 the closed-form full kernel minus that product
        for name, build, grid, full, smooth in (
                ("helson", nystrom_helson, gt, "helson_a", "a0"),
                ("hankel", nystrom_hankel, gx, "hankel_b", "b0")):
            op0 = build(SymbolSpec(kind=smooth, alpha=alpha), grid)
            op1 = nystrom_difference(
                build(SymbolSpec(kind=full, alpha=alpha), grid), op0)
            for i, op in enumerate((op0, op1)):
                spec = solve(op.map, seed=seed)
                integral_spectra[(i, name)] = spec
                _write_spectrum(spec, out_dir, f"row{i}_integral_{name}",
                                report)
        report["cross_row"] = {
            f"row{i}": _top_agreement(integral_spectra[(i, "helson")],
                                      integral_spectra[(i, "hankel")])
            for i in (0, 1)}
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
            spec = solve(build_helson(full_spec, size), seed=seed)
            combined[size] = spec
            _write_spectrum(spec, out_dir, f"combined_matrix_N{size}",
                            report)
        # additivity: the sum of the two row sections as row_map builds
        # them, made here at check_size (row 1 is solved only at
        # neg_size), against the closed-form section a(jk), streamed entry
        # by entry.  The smooth factor enters row 0 with + and row 1 with
        # -, so it cancels in the sum: what this checks is row 1's wiring
        # (its exact row and column 1, its minus factor) and the full
        # symbol's exponential-sum factor against the closed form.
        check_size = min(matrix_sizes[0], _DENSE_LIMIT)
        assembled = HelsonTruncation(full_spec, check_size).dense()
        summed = (row_map(0, check_size).dense() +
                  row_map(1, check_size).dense())
        spec_sum = dense_eig_oracle(summed)
        spec_asm = dense_eig_oracle(assembled)
        m = min(spec_sum.singular.size, spec_asm.singular.size)
        top = max(float(spec_asm.singular[0]), 1e-300) if m else 1e-300
        add_diff = float(np.max(np.abs(
            spec_sum.singular[:m] - spec_asm.singular[:m]))) / top if m else 0.0
        report["additivity"] = {"size": check_size, "max_rel_diff": add_diff,
                                "ok": bool(add_diff <= 1e-12)}

    with stage("negativity"):
        spec_full = combined[neg_size]
        dom = negative_part_domination(spec_full, row_spectra[(1, neg_size)],
                                       row_spectra[(0, neg_size)])
        # the ratio is only meaningful over resolved positive eigenvalues
        # past the head: index 1 carries the symbol's divergence at the
        # left end of its domain (one genuine O(1) +/- pair), and indices
        # under the solver floor compare noise with noise
        m_res = _resolved_count(spec_full.lambda_plus)
        n0, n1 = max(2, m_res // 20), m_res
        report["negativity"] = dict(
            dom, size=neg_size, window=[n0, n1], resolved_count=m_res,
            max_neg_to_pos=_neg_to_pos_ratio(spec_full, n0, n1))

    report_path = out_dir / "run_report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return report
