"""One `run_chain` in a fresh process: capped, timed, optionally traced, checked.

run.py starts this file as ``python3 perfbench/chain.py '<job json>'``.
The job holds the RunConfig fields, the Lanczos seed, the output
directory, the address-space cap and whether to trace. The last line on
stdout is one JSON result. The output checks run after the timed
region, against references computed here with numpy alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pathlib
import platform
import resource
import sys
import time

import numpy as np

import spans
from helsonlab.pipeline import RunConfig, run_chain

# tolerances of the output checks
EIG_TOL = 1e-8        # combined-section eigenvalues, relative to lambda_1
CROSS_ROW_TOL = 1e-6  # matched integral discretizations, relative
TOP = 20              # eigenvalues compared per sign
MIN_TOP_LEVEL_SHARE = 0.9  # traced time the outermost spans must cover


def helson_section(alpha: float, N: int):
    """a(jk) for j, k <= N with a(n) = n^-1/2 (log n)^-1 (log log n)^-alpha
    for n >= 3 and a(1) = a(2) = 0 (log log n > 0 needs n >= 3)."""
    j = np.arange(1, N + 1, dtype=float)
    n = np.multiply.outer(j, j)
    out = np.zeros_like(n)
    m = n >= 3
    logn = np.log(n[m])
    out[m] = n[m] ** -0.5 / logn * np.log(logn) ** -alpha
    return out


def kappa(alpha: float) -> float:
    """2^-a pi^(1-2a) B(1/(2a), 1/2)^a, the constant in lambda_n ~ kappa n^-a."""
    a = 1.0 / (2.0 * alpha)
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return math.exp(-alpha * math.log(2.0)
                    + (1.0 - 2.0 * alpha) * math.log(math.pi)
                    + alpha * log_beta)


def _csv_column(rows: list, key: str):
    return np.array([float(r[key]) for r in rows if r[key] != ""])


def check_section(path: pathlib.Path, alpha: float, N: int) -> list:
    """Top eigenvalues of each sign in one combined_matrix CSV vs LAPACK."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ref = np.linalg.eigvalsh(helson_section(alpha, N))
    ref_plus = ref[ref > 0][::-1]
    ref_minus = -ref[ref < 0]
    lam1 = float(ref_plus[0])
    problems = []
    for key, want in (("lambda_plus", ref_plus), ("lambda_minus", ref_minus)):
        got = _csv_column(rows, key)[:TOP]
        needed = int(np.sum(want[:TOP] >= EIG_TOL * lam1))
        if got.size < needed:
            problems.append(f"N={N} {key}: {got.size} values, "
                            f"{needed} above the noise floor")
        want = np.pad(want[:got.size], (0, max(0, got.size - want.size)))
        err = float(np.max(np.abs(got - want), initial=0.0)) / lam1
        if not err <= EIG_TOL:
            problems.append(f"N={N} {key}: off by {err:.3g} lambda_1")
    return problems


def check_report(report: dict, alpha: float) -> list:
    problems = []
    for key in ("additivity", "h_b0_psd"):
        if not report.get(key, {}).get("ok"):
            problems.append(f"{key} not ok: {report.get(key)}")
    cross = report.get("cross_row", {})
    for row in ("row0", "row1"):
        diff = cross.get(row, {}).get("max_rel_diff")
        if diff is None or not diff <= CROSS_ROW_TOL:
            problems.append(f"cross_row {row} max_rel_diff {diff}")
    head = report.get("fits", {}).get("headline")
    if head is None:
        problems.append("no headline fit")
    elif not abs(head["kappa_ref"] - kappa(alpha)) <= 1e-9 * kappa(alpha):
        problems.append(f"kappa_ref {head['kappa_ref']} != {kappa(alpha)}")
    return problems


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv: list) -> dict:
    job = json.loads(argv[1])
    cap = int(job["mem_cap_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    config = dict(job["config"])
    alpha = float(config["alpha"])
    out_dir = pathlib.Path(job["out_dir"])
    cfg = RunConfig(**config, out_dir=str(out_dir),
                    solver={"seed": int(job["seed"])})
    tracer = spans.Tracer()
    install = spans.install_layers if job["trace"] else \
        spans.install_convergence_watch
    result = {"ok": False, "problems": []}
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with tracer.installed(install):
            report = run_chain(cfg)
    except Exception as exc:  # any failure of the program is a failed run
        report = None
        result["problems"].append(f"run_chain raised {type(exc).__name__}: "
                                  f"{exc}")
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        wall_s=wall,
        cpu_s=(r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        peak_rss_mb=r1.ru_maxrss / 1024.0,
        env=environment())
    if report is None:
        return result

    problems = result["problems"]
    if tracer.totals["eigen.lanczos.unconverged"]:
        problems.append(f"{tracer.totals['eigen.lanczos.unconverged']:g} "
                        "Lanczos solves did not converge")
    problems += check_report(report, alpha)
    for N in (s for s in cfg.sizes if s <= cfg.helson_cap):
        problems += check_section(out_dir / f"combined_matrix_N{N}.csv",
                                  alpha, N)
    head = report.get("fits", {}).get("headline")
    if head is not None:
        result["kappa_rel_err"] = abs(head["kappa_hat"] - kappa(alpha)) \
            / kappa(alpha)
        result["alpha_rel_err"] = abs(head["alpha_hat"] - alpha) / alpha
    if job["trace"]:
        result["layers"] = spans.layer_metrics(tracer, wall)
        share = result["layers"]["trace.top_level_share"]
        if not share >= MIN_TOP_LEVEL_SHARE:
            problems.append(f"layer spans cover {share:.3f} of wall_s")
    result["ok"] = not problems
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
