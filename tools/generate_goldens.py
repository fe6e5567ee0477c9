"""One-time generation of the frozen reference files under tests/golden/.

Each file records measured reference quantities together with the exact
recipe that produced them; the test suite recomputes a subset and
asserts agreement, so regenerate only when the underlying algorithms
change on purpose.
"""

import json
import pathlib

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


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sampling_bound()
