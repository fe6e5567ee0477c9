"""One-time generation of the frozen reference files under tests/golden/.

Each file records measured reference quantities together with the exact
recipe that produced them; the test suite recomputes a subset and
asserts agreement, so regenerate only when the underlying algorithms
change on purpose.
"""

import json
import pathlib
import time

import numpy as np

from helsonlab.schatten import sampling_check

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def sampling_bound():
    suites = {}
    overall = 0.0
    for seed in (20250819, 777):
        rng = np.random.default_rng(seed)
        ratios = []
        for _ in range(20):
            v = rng.standard_normal(8)
            ratios.append(sampling_check(v, 16.0, 1.0)["ratio"])
        suites[str(seed)] = ratios
        overall = max(overall, max(ratios))
        print(f"seed {seed}: max ratio {max(ratios):.6f}")
    out = {"p": 1.0, "N": 16.0, "n_samples": 8, "suites": suites,
           "bound": round(overall * 1.15, 6)}
    (GOLDEN / "sampling_p1.json").write_text(json.dumps(out, indent=1))
    print("recorded bound:", out["bound"])


def restriction_family():
    from helsonlab.pipeline import restriction_schatten_experiment

    kw = dict(p=1.0, n_symbols=10, n_modes=4, N=3.0, seed=20250819)
    t0 = time.time()
    base = restriction_schatten_experiment(grid_n=256, **kw)
    doubled = restriction_schatten_experiment(grid_n=512, **kw)
    drift = abs(doubled["max_ratio"] - base["max_ratio"]) / doubled["max_ratio"]
    out = {
        "p": 1.0, "N": 3.0, "n_modes": 4, "seed": 20250819,
        "grid_n": 256,
        "ratios": [r["ratio"] for r in base["rows"]],
        "sensitivities": [r["sensitivity"] for r in base["rows"]],
        "max_ratio": base["max_ratio"],
        "max_ratio_doubled_grid": doubled["max_ratio"],
        "doubling_drift": drift,
        "seconds": round(time.time() - t0, 2),
    }
    (GOLDEN / "restriction_family.json").write_text(json.dumps(out, indent=1))
    print("max ratio:", base["max_ratio"], "doubled:", doubled["max_ratio"],
          "drift:", drift, f"({out['seconds']}s)")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sampling_bound()
    restriction_family()
