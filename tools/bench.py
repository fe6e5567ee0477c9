"""Paired benchmark of the working tree against a parent commit.

Run from the repository root:

    python3 tools/bench.py --parent HEAD --out BENCH_6.json

The parent's committed files are unpacked into .bench_build/ with
``git archive``; the working tree is the change. For every workload that
BENCHMARK.json declares, each tree runs its own, unchanged benchmark
command (perfbench/run.py) in PAIRS = 10 alternating pairs with
--trace 0 and BENCHMARK.json's run_seconds: pair i gives both sides the
seed SEED + i (SEED = 1), and the parent runs first in even pairs, the
change in odd ones. Then each side runs once with --trace 1 and seed
SEED + PAIRS for the layer split. Both are fixed so that every BENCH
file follows the same protocol.

The output file holds the environment, every sample (one run.py result
per side and pair), each side's median, q1 and q3 of every end-to-end
metric, the median, q1 and q3 of the per-pair change/parent ratio, the
pairs the change won, its median against the parent's with the
benchmark's bound, a verdict (gain, regressed, unresolved or within
bound; see verdict()), each side's attempted and failed chains, and
both traced layer splits. "unresolved" says that the parent's own runs
spread wider than the bound, so one median against another cannot
settle that metric. The ratio is the paired statistic: when the box
speeds up or slows down during a series, each side's quartiles widen
and overlap, while the ratio within a pair, whose two runs are
adjacent, does not drift with it. It is
rewritten after every run, so an interrupted session keeps what it
measured. Nothing under perfbench/ is edited.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PAIRS = 10
SEED = 1
# share of the pairs a change must win for a gain verdict: 9 of 10
GAIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack_parent(rev: str) -> tuple:
    """(sha, directory) of the committed files of rev under .bench_build/."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / f"parent-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").is_file():
        partial = dest.with_name(dest.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial, filter="data")
        shutil.rmtree(dest, ignore_errors=True)
        partial.rename(dest)
    return sha, dest


def run_once(command: list, tree: pathlib.Path, workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One benchmark run in tree; its last stdout line is the result."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"seed": seed, "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    env_line = next((ln for ln in lines if ln.startswith("# workload")), "")
    return {"seed": seed, "env_line": env_line,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of one side's samples."""
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def chain_counts(runs: list) -> dict:
    """Chains attempted and failed over one side's runs; a run that gave
    no result counts as one failed chain."""
    attempted = failed = 0
    for run in runs:
        attempted += run.get("attempted", 1)
        failed += run.get("failed", 1)
    return {"attempted": attempted, "failed": failed}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: both sides' spread, the spread of the per-pair
    change/parent ratio, change wins and the median shift vs the bound.

    A pair enters a metric only when both sides measured it (the ratio
    also needs a nonzero parent value); "chains"
    holds each side's attempted and failed chain totals, so a run that
    failed is counted even though no median sees it.
    """
    out = {"chains": {side: chain_counts([p[side] for p in pairs])
                      for side in ("parent", "change")}}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs
                if "metrics" in p["parent"] and "metrics" in p["change"]
                and None not in (p["parent"]["metrics"].get(name),
                                 p["change"]["metrics"].get(name))]
        parent = spread([a for a, _ in both])
        change = spread([b for _, b in both])
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "bound": spec["bound"], "parent": parent, "change": change,
                 "change_over_parent": spread([b / a for a, b in both if a]),
                 "change_wins": wins, "pairs": len(both)}
        if both and parent["median"]:
            worse = (change["median"] - parent["median"]) / parent["median"]
            entry["change_worse_by"] = worse if lower else -worse
            entry["median_gap_over_parent_iqr"] = (
                abs(change["median"] - parent["median"])
                / max(parent["q3"] - parent["q1"], 1e-300))
            entry["verdict"] = verdict(entry, both)
        out[name] = entry
    return out


def verdict(entry: dict, both: list) -> str:
    """One word on a metric's pairs, from the first test that holds:

    gain: the change wins at least GAIN_SHARE of the pairs and its median
    is better than the parent's by more than the parent's IQR;
    regressed: its median is worse by more than the bound;
    unresolved: the parent's IQR over its median is wider than the bound,
    and not every change run beats every parent run;
    within bound: anything else.
    """
    parent = entry["parent"]
    iqr = parent["q3"] - parent["q1"]
    if entry["change_wins"] >= GAIN_SHARE * len(both) \
            and entry["change_worse_by"] < 0 \
            and entry["median_gap_over_parent_iqr"] > 1:
        return "gain"
    if entry["change_worse_by"] > entry["bound"]:
        return "regressed"
    a, b = zip(*both)
    if entry["better"] == "lower":
        separated = max(b) < min(a)
    else:
        separated = min(b) > max(a)
    if iqr / abs(parent["median"]) > entry["bound"] and not separated:
        return "unresolved"
    return "within bound"


def environment(parent_sha: str) -> dict:
    import numpy
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "parent": parent_sha, "change_head": git("rev-parse", "HEAD"),
            "change_uncommitted": dirty}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=pathlib.Path,
                        help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if c in ("python", "python3") else c
               for c in bench["command"]]
    seconds = float(bench["run_seconds"])
    sha, parent_tree = unpack_parent(args.parent)
    trees = {"parent": parent_tree, "change": ROOT}
    doc = {"environment": environment(sha), "command": bench["command"],
           "run_seconds": seconds, "pairs_per_workload": PAIRS,
           "workloads": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for wl in (w["name"] for w in bench["workloads"]):
        rec = {"pairs": [], "traced": {}}
        doc["workloads"][wl] = rec
        for i in range(PAIRS):
            seed = SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(command, trees[side], wl, seed,
                                      seconds, 0)
                wall = pair[side].get("metrics", {}).get("wall_s")
                print(f"{wl} pair {i} {side}: wall_s {wall}",
                      file=sys.stderr, flush=True)
            rec["pairs"].append(pair)
            rec["summary"] = summarize(rec["pairs"], bench["end_to_end"])
            save()
        for side in ("parent", "change"):
            rec["traced"][side] = run_once(command, trees[side], wl,
                                           SEED + PAIRS,
                                           seconds, 1)
            print(f"{wl} traced {side} done", file=sys.stderr, flush=True)
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
