"""Chain benchmark: helsonlab's `run_chain`, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 60 --trace 0

Every chain runs in a fresh interpreter (chain.py) under an address-space
cap, with one BLAS thread; the seed becomes the Lanczos start
seed, the only random input. A run makes as many chains as fit in
--seconds (at least one), and each metric is the median over the chains
that passed their output checks. --trace 0 reports the end-to-end metrics;
--trace 1 runs each chain untraced and then traced, and reports the
per-layer metrics of the traced one plus the difference in wall time.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Lines before it print each metric with its unit.

baseline.json holds the figures of the parent commit and the machine
they were measured on; ``python3 -m pytest perfbench/check_smoke.py``
runs every workload at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

# Each workload is one RunConfig; every other field keeps its default.
# The shipped default is not one: its additivity check alone asks for
# two 3.9 GiB arrays. A headline-only chain (sizes (64, 32768)) is not
# one either: bound by memory bandwidth, its wall_s spread 17% between
# runs on a shared 2-core box; ladder's headline section at n = 16384
# still measures the log-window matvecs and Lanczos reorthogonalization.
WORKLOADS = {
    # shipped chain with the top matrix size cut to 1024: streamed Helson
    # matvecs, dense route at N <= 600, Lanczos at N = 1024 and the ~2 GB
    # unblocked a0 quadrature of the additivity check
    "ladder": {"alpha": 1.0, "sizes": (256, 512, 1024, 16384),
               "helson_cap": 1024},
    # alpha = 0.5 with 600-node Nystrom sections: per-entry kernel
    # quadrature and dense eigenproblems on explicit matrices
    "integral": {"alpha": 0.5, "sizes": (64, 8192), "helson_cap": 64,
                 "nystrom_n": 600},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "kappa_rel_err": "ratio",
    "alpha_rel_err": "ratio",
}

SETUP_REPEATS = 15
MEM_CAP_BYTES = 5 * 2**30       # below the 7 GB of a 2-core test box
DEADLINE_S = 170.0              # whole run, set-up included


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: with two on a shared 2-core box, wall_s of the
    # same chain ranged over 40% between runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(config: dict, env: dict, repeats: int) -> list:
    """Fresh interpreter to helsonlab.pipeline imported and RunConfig built."""
    code = ("import json, sys; import helsonlab.pipeline as p; "
            "p.RunConfig(**json.loads(sys.argv[1]))")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, json.dumps(config)],
                       env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def run_chain_child(job: dict, env: dict, timeout: float) -> dict:
    """One chain.py process; a crash, kill or timeout is a failed result."""
    out_dir = pathlib.Path(job["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "chain.py"), json.dumps(job)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False,
                "problems": [f"exit code {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def median_of(results: list, key: str):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool,
        config: dict = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result object run.py prints."""
    start = time.perf_counter()
    config = dict(WORKLOADS[workload] if config is None else config)
    env = child_env()
    rng = random.Random(seed)
    setup = measure_setup(config, env, setup_repeats) if not trace else []

    def chain(traced: bool, index: int, chain_seed: int) -> dict:
        job = {"config": config, "seed": chain_seed, "trace": traced,
               "mem_cap_bytes": MEM_CAP_BYTES,
               "out_dir": str(SCRATCH / f"{workload}-{os.getpid()}-{index}")}
        left = DEADLINE_S - (time.perf_counter() - start)
        return run_chain_child(job, env, left)

    attempts = []    # one entry per chain, or per untraced+traced pair
    index = 0
    while True:
        chain_seed = rng.randrange(2**32)
        t0 = time.perf_counter()
        plain = chain(False, index, chain_seed)
        if trace:
            traced = chain(True, index + 1, chain_seed)
            attempt = dict(traced, ok=plain["ok"] and traced["ok"],
                           problems=plain["problems"] + traced["problems"])
            if attempt["ok"]:
                attempt["layers"]["trace.overhead_s"] = \
                    traced["wall_s"] - plain["wall_s"]
        else:
            attempt = plain
        attempts.append(attempt)
        index += 2
        # repeat only while another attempt as long as this one fits
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > min(seconds, DEADLINE_S):
            break

    passed = [a for a in attempts if a["ok"]]
    if trace:
        layers = [a["layers"] for a in passed]
        metrics = {name: {"value": median_of(layers, name), "unit": unit}
                   for name, unit in spans.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": median_of(passed, name), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        metrics["setup_s"]["value"] = statistics.median(setup)
    return {"correct": len(passed) == len(attempts),
            "attempted": len(attempts),
            "failed": len(attempts) - len(passed),
            "metrics": metrics,
            "problems": [p for a in attempts for p in a["problems"]],
            "wall_samples": [a["wall_s"] for a in passed],
            "env": next((a["env"] for a in attempts if "env" in a), None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "helsonlab" / "pipeline.py").is_file():
        print(f"no helsonlab source tree under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = result.pop("problems")
    env = result.pop("env")
    samples = result.pop("wall_samples")
    print(f"# workload {args.workload} seed {args.seed} env {env}")
    print(f"# wall_s of the {len(samples)} passing chains: "
          + " ".join(f"{w:.3f}" for w in samples))
    for problem in problems:
        print(f"# FAILED CHECK {problem}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} ratio")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
