"""Command-line surface over the laboratory modules.

Verbs: kappa, spectrum, fit, schatten, verify, chain, report.  verify
runs one of four suites: chain, factorization, s0diff, decay; each
exits 0 on the shipped code.  stdout carries data (numbers, CSV, JSON,
artifact paths); diagnostics go to stderr.  Exit codes: 0 success,
1 failed verification, 2 usage error.  chain takes its settings with
the precedence flags > config file > defaults; an interrupted run
renames whatever it was writing to *.partial and exits 130.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from helsonlab.asymptotics import (NOISE_FLOOR, default_fit_window,
                                   fit_power_tail, kappa)
from helsonlab.discretize import (ConstructionError, factor_N_dense,
                                  make_grid, nystrom_hankel, nystrom_helson,
                                  v_matched_grids, weighted_operator)
from helsonlab.eigen import (Spectrum, check_seed, dense_eig_oracle,
                             lanczos_extreme, spectrum_from_csv,
                             spectrum_to_csv, write_meta_sidecar)
from helsonlab.pipeline import (RunConfig, StageError, _top_agreement,
                                headline_series, run_chain, solve)
from helsonlab.schatten import schatten_report
from helsonlab.structured_ops import (LinearMap, build_hankel, build_helson,
                                      build_smooth_helson)
from helsonlab.symbols import (DomainError, SymbolSpec, _weight_values,
                               a0_quadrature, sequence_values, zeta1)
from helsonlab._svg import loglog_figure


class _UsageError(Exception):
    pass


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextlib.contextmanager
def _partial_on_interrupt(*paths):
    """Rename the named artifacts to *.partial if Ctrl-C lands inside."""
    try:
        yield
    except KeyboardInterrupt:
        for p in paths:
            p = Path(p)
            if p.exists():
                p.rename(p.with_name(p.name + ".partial"))
        raise


def _mark_partial_since(out_dir, t_start: float) -> None:
    out = Path(out_dir)
    if not out.is_dir():
        return
    for p in sorted(out.iterdir()):
        if p.is_file() and not p.name.endswith(".partial") \
                and p.stat().st_mtime >= t_start:
            p.rename(p.with_name(p.name + ".partial"))


# ---------------------------------------------------------------------------
# kappa


def _cmd_kappa(args) -> int:
    print(f"{kappa(args.alpha):.12g}")
    return 0


# ---------------------------------------------------------------------------
# spectrum

_MATRIX_OPS = ("hankel", "helson")
_INTEGRAL_OPS = ("integral-hankel", "integral-helson")


def _build_operator(args):
    """LinearMap for the requested operator/kernel pair."""
    smooth = args.kernel == "smooth"
    alpha = args.alpha
    N = args.size
    if args.operator == "helson":
        if smooth:
            return build_smooth_helson(SymbolSpec("a0", alpha=alpha), N)
        return build_helson(SymbolSpec("helson_a", alpha=alpha), N)
    if args.operator == "hankel":
        kind = "b0" if smooth else "hankel_b"
        vals = sequence_values(SymbolSpec(kind, alpha=alpha),
                               np.arange(2, 2 * N + 1))
        return build_hankel(vals)
    # integral operators: grid defaults cover the useful window of each
    # kernel family (wide log window additively, t >= 1 multiplicatively)
    if args.operator == "integral-hankel":
        lo = args.grid_lo if args.grid_lo is not None else 1e-6
        hi = args.grid_hi if args.grid_hi is not None else 200.0
        kind = "b0" if smooth else "hankel_b"
        op = nystrom_hankel(SymbolSpec(kind, alpha=alpha),
                            make_grid((lo, hi), N, args.spacing))
    else:
        lo = args.grid_lo if args.grid_lo is not None else 1.0
        hi = args.grid_hi if args.grid_hi is not None else 1e6
        kind = "a0" if smooth else "helson_a"
        op = nystrom_helson(SymbolSpec(kind, alpha=alpha),
                            make_grid((lo, hi), N, args.spacing))
    return op.map


def _cmd_spectrum(args) -> int:
    if args.topk < 0:
        raise _UsageError(f"--topk must be >= 0, got {args.topk}")
    if args.operator in _MATRIX_OPS and (args.grid_lo is not None or
                                         args.grid_hi is not None):
        _diag("note: grid flags only apply to integral operators; ignored")
    spec = solve(_build_operator(args), k=args.topk or 64, seed=args.seed)
    if args.topk:
        K = args.topk
        spec = Spectrum(lambda_plus=spec.lambda_plus[:K],
                        lambda_minus=spec.lambda_minus[:K],
                        singular=spec.singular[:K],
                        residuals=np.empty(0),
                        meta=dict(spec.meta, topk=K))
    spec.meta.update(operator=args.operator, kernel=args.kernel,
                     alpha=args.alpha, size=args.size)
    if args.out:
        out = Path(args.out)
        meta = out.with_name(out.stem + ".meta.json")
        with _partial_on_interrupt(out, meta):
            spectrum_to_csv(spec, out)
            write_meta_sidecar(spec, meta)
        print(out)
        return 0
    # no --out: stream the same CSV schema to stdout
    with tempfile.NamedTemporaryFile("r", suffix=".csv", delete=False) as fh:
        tmp = fh.name
    try:
        spectrum_to_csv(spec, tmp)
        sys.stdout.write(Path(tmp).read_text())
    finally:
        os.unlink(tmp)
    return 0


# ---------------------------------------------------------------------------
# fit / schatten (CSV consumers)


def _parse_window(text):
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"window must look like n0:n1, got {text!r}")
    try:
        n0, n1 = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"window bounds must be integers, got {text!r}")
    return n0, n1


def _cmd_fit(args) -> int:
    spec = spectrum_from_csv(args.input)
    lam = spec.lambda_plus
    if lam.size == 0:
        raise _UsageError(f"{args.input} holds no positive eigenvalues")
    window = _parse_window(args.window) or default_fit_window(lam.size)
    result = fit_power_tail(lam, window)
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def _cmd_schatten(args) -> int:
    spec = spectrum_from_csv(args.input)
    s = spec.singular
    if s.size == 0:
        s = np.sort(np.concatenate([spec.lambda_plus, spec.lambda_minus]))[::-1]
    if s.size == 0:
        raise _UsageError(f"{args.input} holds no spectral data")
    report = schatten_report(s, args.p, args.q)
    print(json.dumps(report.to_json(), sort_keys=True, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# verify suites: each returns [(ok, line)] with measured values spelled out


def _suite_chain(seed: int):
    del seed  # dense route, nothing stochastic
    checks = []
    for alpha in (0.5, 1.0, 2.0):
        gx, gt = v_matched_grids((0.0, 25.0), 220)
        ea = dense_eig_oracle(
            nystrom_helson(SymbolSpec("helson_a", alpha=alpha), gt).dense())
        eb = dense_eig_oracle(
            nystrom_hankel(SymbolSpec("hankel_b", alpha=alpha), gx).dense())
        # the chain's cross_row statistic on the same pair of sections
        agree = _top_agreement(ea, eb)
        rel = agree["max_rel_diff"]
        checks.append((rel <= 1e-6,
                       f"alpha={alpha:g} matched-grid top-20 agreement "
                       f"{rel:.3e} over {agree['compared']} resolved values "
                       f"(tol 1e-06)"))
    return checks


def _suite_factorization(seed: int):
    alpha = 1.0
    g = make_grid((1e-12, 0.75), 2000, "geometric")
    F = factor_N_dense(alpha, 64, g)
    P = F @ F.T
    jk = np.multiply.outer(np.arange(1, 65), np.arange(1, 65)).astype(float)
    target = a0_quadrature(alpha, jk)
    entry_err = float(np.abs(P - target).max())
    checks = [(entry_err <= 1e-8,
               f"row-product entries vs smooth-part values: max abs diff "
               f"{entry_err:.3e} (tol 1e-08)")]
    # the two Gram orders share their nonzero spectrum; compare every
    # eigenvalue resolved above the relative noise floor
    small = dense_eig_oracle(P).lambda_plus
    lm = LinearMap(cols=g.n, matvec=lambda u: F.T @ (F @ u))
    big = lanczos_extreme(lm, k=10, which="largest", seed=seed).lambda_plus
    keep = small >= NOISE_FLOOR * small[0]
    m = min(int(keep.sum()), big.size)
    rel = float(np.max(np.abs(small[:m] - big[:m]) / small[:m]))
    checks.append((rel <= 1e-8,
                   f"gram-order spectra over {m} resolved values: max rel "
                   f"diff {rel:.3e} (tol 1e-08)"))
    return checks


def _suite_s0diff(seed: int):
    del seed
    alpha = 1.0
    g = make_grid((1e-8, 0.75), 1024, "geometric")
    D = (weighted_operator("zeta1", alpha, g).dense()
         - weighted_operator("carleman", alpha, g).dense())
    sq = np.sqrt(_weight_values(alpha, g.nodes) * g.weights)
    D -= np.outer(sq, sq)
    s = dense_eig_oracle(D).singular
    # the remainder is entire, so its singular values fall
    # superexponentially: only the first few clear the noise floor
    resolved = int(np.sum(s >= NOISE_FLOOR * s[0]))
    head = float(s[3] / s[0])
    return [
        (resolved <= 4,
         f"{resolved} singular values at or above {NOISE_FLOOR:g} s1 "
         f"(tol 4)"),
        (head <= 1e-9,
         f"resolved head decay s4/s1 = {head:.3e} (tol 1e-09)"),
    ]


def _suite_decay(seed: int):
    # 2^(-1-x) < zeta(1+x) - 1 < 1/x, the first by the j = 2 term alone;
    # x stops at 30, where zeta(1+x) - 1 ~ 5e-10 is still far above the
    # 1e-13 absolute error of zeta1 that the lower clause forgives
    del seed
    x = np.logspace(-2.0, math.log10(30.0), 1000)
    z = zeta1(x) - 1.0
    lower = float((z - 2.0 ** (-1.0 - x)).min())
    upper = float((1.0 / x - z).min())
    return [
        (lower >= -1e-13,
         f"zeta(1+x)-1 >= 2^(-1-x) - 1e-13: min margin {lower:.3e}"),
        (upper >= 0.0, f"1/x - (zeta(1+x)-1) >= 0: min margin {upper:.3e}"),
    ]


_SUITES = {
    "chain": _suite_chain,
    "factorization": _suite_factorization,
    "s0diff": _suite_s0diff,
    "decay": _suite_decay,
}


def _cmd_verify(args) -> int:
    checks = _SUITES[args.suite](check_seed(args.seed))
    all_ok = True
    for ok, line in checks:
        print(("PASS: " if ok else "FAIL: ") + line)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# chain / report


def _cmd_chain(args) -> int:
    config = RunConfig.from_json(json.loads(Path(args.config).read_text()))
    # precedence: flags > config file > defaults
    flags = {k: v for k, v in (("alpha", args.alpha),
                               ("out_dir", args.out_dir)) if v is not None}
    if args.seed is not None:
        flags["solver"] = {"seed": args.seed}
    config = replace(config, **flags)
    t_start = time.time()
    try:
        report = run_chain(config)
    except KeyboardInterrupt:
        _mark_partial_since(config.out_dir, t_start)
        raise
    skipped = report.get("fit_skipped")
    if skipped:
        _diag(f"note: no headline fit: {skipped['certified_count']} "
              f"certified eigenvalues are too few for the fit window "
              f"{skipped['window']}")
    print(json.dumps({"out_dir": str(config.out_dir),
                      "stages": report["stages"],
                      "report": str(Path(config.out_dir) / "run_report.json")},
                     sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    config = RunConfig.from_json(json.loads(Path(args.config).read_text()))
    out_dir = Path(config.out_dir)
    rep_path = out_dir / "run_report.json"
    if not rep_path.is_file():
        raise _UsageError(f"{rep_path} not found; run the chain verb first")
    rep = json.loads(rep_path.read_text())
    head = rep.get("fits", {}).get("headline")
    if head is not None:
        csv_path = out_dir / f"headline_section_n{head['n_nodes']}.csv"
        title = f"tail of the smooth additive section, alpha={config.alpha:g}"
    else:
        # the chain solves combined sections only up to the matrix cap
        size = max(s for s in config.sizes if s <= config.helson_cap)
        csv_path = out_dir / f"combined_matrix_N{size}.csv"
        title = f"combined matrix tail, N={size}"
        _diag(f"note: the run has no headline fit; plotting {csv_path.name}")
    if not csv_path.is_file():
        raise _UsageError(f"{csv_path} not found; run the chain verb first")
    spec = spectrum_from_csv(csv_path)
    lam = spec.lambda_plus
    if lam.size == 0:
        raise _UsageError(f"{csv_path} holds no positive eigenvalues")
    n = np.arange(1, lam.size + 1, dtype=float)
    # the headline's eigenvalues past certified_count are truncated by
    # its window; a combined matrix section has no such count
    series = (headline_series(lam, head["certified_count"])
              if head is not None
              else [("positive spectrum", n, lam)])
    svg = Path(args.svg)
    with _partial_on_interrupt(svg):
        loglog_figure(svg, series,
                      reference=("reference decay", n,
                                 kappa(config.alpha) / n**config.alpha),
                      title=title, x_label="n", y_label="lambda_n")
    print(svg)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="helsonlab",
        description="spectral laboratory for multiplicative Hankel sections "
                    "and their integral analogues")
    sub = p.add_subparsers(dest="verb", required=True)

    k = sub.add_parser("kappa", help="tail constant for a decay exponent")
    k.add_argument("--alpha", type=float, required=True)

    s = sub.add_parser("spectrum", help="eigenvalues of one operator section")
    s.add_argument("--operator", required=True,
                   choices=_MATRIX_OPS + _INTEGRAL_OPS)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--size", type=int, required=True,
                   help="matrix size or quadrature node count")
    s.add_argument("--kernel", choices=("full", "smooth"), default="full")
    s.add_argument("--grid-lo", type=float, default=None)
    s.add_argument("--grid-hi", type=float, default=None)
    s.add_argument("--spacing", choices=("geometric", "uniform", "gauss"),
                   default="geometric")
    s.add_argument("--topk", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="CSV path (default: stdout)")

    f = sub.add_parser("fit", help="power-law tail fit of a spectrum CSV")
    f.add_argument("--input", required=True)
    f.add_argument("--window", default=None, help="n0:n1")

    sc = sub.add_parser("schatten", help="Schatten functional of a CSV, "
                        "as JSON; an infinite value prints as \"inf\"")
    sc.add_argument("--input", required=True)
    sc.add_argument("--p", type=float, required=True)
    sc.add_argument("--q", type=float, default=None)

    v = sub.add_parser("verify", help="named verification suite")
    v.add_argument("--suite", required=True, choices=tuple(_SUITES))
    v.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("chain", help="full reduction-chain pipeline run")
    c.add_argument("--config", required=True)
    c.add_argument("--alpha", type=float, default=None)
    c.add_argument("--out-dir", default=None)
    c.add_argument("--seed", type=int, default=None)

    r = sub.add_parser("report", help="SVG figure from a finished run")
    r.add_argument("--config", required=True)
    r.add_argument("--svg", required=True)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "kappa": _cmd_kappa,
        "spectrum": _cmd_spectrum,
        "fit": _cmd_fit,
        "schatten": _cmd_schatten,
        "verify": _cmd_verify,
        "chain": _cmd_chain,
        "report": _cmd_report,
    }[args.verb]
    try:
        return handler(args)
    except KeyboardInterrupt:
        _diag("interrupted; partial artifacts carry a .partial suffix")
        return 130
    except _UsageError as exc:
        _diag(f"error: {exc}")
        return 2
    except StageError as exc:
        _diag(f"error: {exc}")
        return 1
    except (DomainError, ConstructionError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        _diag(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
