"""Output equality of the working tree against a parent commit.

Run from the repository root:

    python3 tools/same_outputs.py --parent HEAD

The parent's committed files are unpacked into .bench_build/ as
tools/bench.py does. For every workload config in perfbench/run.py's
WORKLOADS, each tree runs `run_chain` once at solver seed SEED = 12345,
in a fresh interpreter with one BLAS thread, into
.bench_build/same_outputs/<workload>/<side>/. Every output file that
differs between the two sides is listed, and so is a file that only one
side wrote. run_report.json is compared without `artifacts` and
`config.outputs`, which name the output directory, and without
`stage_stats`, which holds timings and memory; every other file byte
for byte. For a spectrum CSV that differs, the line also gives
max |Δ| / λ₁ over the sorted algebraic spectrum, λ⁺ together with −λ⁻:
eigenvalues at rounding level can switch between the two columns, so
the columns alone would overstate the change. For a JSON file that
differs (run_report.json after the exclusions above), one line per
differing key reads `key: parent → change`, with a key of a nested
block, such as run_report.json's `fits`, spelled `block.key`. The
headline's files carry the width of its window in their names
(headline_section_n<N>.csv and .meta.json); when the two sides solved
different widths, each such file is paired with the other side's and
listed once as `parent name → change name`, with the same notes. A
headline CSV is compared over the eigenvalues both sides hold, whether
its width changed or only the number of pairs solved. The outputs stay
on disk for inspection.

Then both trees run each of the fixed CLI commands in COMMANDS, which
reach code that no chain does: the four `verify` suites, `spectrum` on
every operator and kernel at --size 64, on the dense route, and the
matrix Hankel operator at --size 700, on the Lanczos route, where its
convolution matvec runs. Each command whose stdout
(compared byte for byte) or exit status differs between the two trees
is listed. Exit status 1 if any file or command differs or a chain
fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import bench

ROOT = bench.ROOT
OUT = bench.BUILD / "same_outputs"
SEED = 12345
REPORT = "run_report.json"
# a headline artifact, its window width in the name: the suffix pairs it
HEADLINE = re.compile(r"headline_section_n\d+(\..+)")
CHAIN = ("import json, sys; "
         "from helsonlab.pipeline import RunConfig, run_chain; "
         "run_chain(RunConfig(**json.loads(sys.argv[1])))")
# CLI runs the chain never makes, as argument lists of `helsonlab`
COMMANDS = tuple(
    [["verify", "--suite", suite]
     for suite in ("chain", "factorization", "s0diff", "decay")]
    + [["spectrum", "--operator", op, "--kernel", kernel, "--size", "64"]
       for op in ("hankel", "helson", "integral-hankel", "integral-helson")
       for kernel in ("full", "smooth")]
    + [["spectrum", "--operator", "hankel", "--kernel", kernel,
        "--size", "700", "--topk", "8"] for kernel in ("full", "smooth")])


def workloads() -> dict:
    """perfbench/run.py's WORKLOADS, read without importing the script."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no WORKLOADS")


def _comparable_report(path: pathlib.Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("artifacts", None)
    report.pop("stage_stats", None)
    report.get("config", {}).pop("outputs", None)
    return report


def differing_files(a: pathlib.Path, b: pathlib.Path) -> list:
    """Relative paths of the files under a and b that differ, sorted."""
    files = {p.relative_to(root) for root in (a, b)
             for p in root.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            same = False
        elif rel.name == REPORT:
            same = _comparable_report(pa) == _comparable_report(pb)
        else:
            same = pa.read_bytes() == pb.read_bytes()
        if not same:
            out.append(str(rel))
    return out


def _algebraic_spectrum(path: pathlib.Path):
    """λ⁺ and −λ⁻ of a spectrum CSV in one list, largest first, or None
    when the file is not a spectrum CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or not {"lambda_plus", "lambda_minus"} <= set(rows[0]):
        return None
    values = [float(r["lambda_plus"]) for r in rows if r["lambda_plus"]]
    values += [-float(r["lambda_minus"]) for r in rows if r["lambda_minus"]]
    return sorted(values, reverse=True)


def spectrum_change(a: pathlib.Path, b: pathlib.Path, leading=False):
    """max |Δ| / λ₁ between the sorted algebraic spectra of two spectrum
    CSVs, λ₁ the first one's largest eigenvalue in modulus, as a
    printable note; None for any other pair of files. Spectra of
    different lengths are compared over the leading values both hold if
    leading is set, and only counted otherwise."""
    if a.suffix != ".csv" or not (a.is_file() and b.is_file()):
        return None
    sa, sb = _algebraic_spectrum(a), _algebraic_spectrum(b)
    if sa is None or sb is None:
        return None
    span = ""
    if len(sa) != len(sb):
        if not leading:
            return f"{len(sa)} against {len(sb)} eigenvalues"
        span = f" over the leading {min(len(sa), len(sb))}"
    top = max((abs(v) for v in sa), default=0.0)
    gap = max((abs(x - y) for x, y in zip(sa, sb)), default=0.0)
    return f"max |Δ| / λ₁ = {gap / top if top else gap:.3g}{span}"


def width_pairs(a: pathlib.Path, b: pathlib.Path) -> list:
    """(path under a, path under b) for each headline file that only one
    side wrote, paired with the other side's one-sided headline file of
    the same directory and suffix, sorted."""
    def one_sided(root, other):
        return {(p.parent, HEADLINE.fullmatch(p.name).group(1)): p
                for p in (q.relative_to(root) for q in root.rglob("*"))
                if HEADLINE.fullmatch(p.name) and not (other / p).exists()}

    only_a, only_b = one_sided(a, b), one_sided(b, a)
    return sorted((only_a[key], only_b[key]) for key in only_a
                  if key in only_b)


def file_changes(a: pathlib.Path, b: pathlib.Path) -> list:
    """The printed lines for the outputs under a (parent) and b (change):
    a count, then each differing file or width pair with its notes."""
    pairs = width_pairs(a, b)
    paired = {str(p) for pair in pairs for p in pair}
    diff = [rel for rel in differing_files(a, b) if rel not in paired]
    count = sum(1 for p in b.rglob("*") if p.is_file())
    lines = [f"{len(diff) + len(pairs)} of {count} output files differ"]
    listed = [(rel, rel, str(rel)) for rel in diff] + [
        (ra, rb, f"{ra} → {rb}") for ra, rb in pairs]
    for ra, rb, name in listed:
        # a headline CSV may hold fewer pairs on one side
        leading = bool(HEADLINE.fullmatch(pathlib.Path(ra).name))
        note = spectrum_change(a / ra, b / rb, leading)
        lines.append(f"  {name}" + (f": {note}" if note else ""))
        lines += [f"    {line}" for line in json_changes(a / ra, b / rb)]
    return lines


_ABSENT = object()


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def json_changes(a: pathlib.Path, b: pathlib.Path) -> list:
    """`key: parent → change` for each key whose value differs between
    two JSON objects, one level of nested objects deep (`block.key`);
    [] for any other pair of files."""
    if a.suffix != ".json" or not (a.is_file() and b.is_file()):
        return []
    if a.name == REPORT:
        ja, jb = _comparable_report(a), _comparable_report(b)
    else:
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
    if not (isinstance(ja, dict) and isinstance(jb, dict)):
        return []
    return _key_changes(ja, jb, nested=True)


def _key_changes(ja: dict, jb: dict, nested: bool) -> list:
    out = []
    for key in dict.fromkeys([*ja, *jb]):
        va, vb = ja.get(key, _ABSENT), jb.get(key, _ABSENT)
        if va == vb:
            continue
        if nested and isinstance(va, dict) and isinstance(vb, dict):
            out += [f"{key}.{line}" for line in _key_changes(va, vb, False)]
        else:
            out.append(f"{key}: {_show(va)} → {_show(vb)}")
    return out


def _env(tree: pathlib.Path) -> dict:
    """The environment of a run in tree: its package, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_chain_in(tree: pathlib.Path, config: dict,
                 out_dir: pathlib.Path) -> subprocess.CompletedProcess:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job = dict(config, out_dir=str(out_dir), solver={"seed": SEED})
    return subprocess.run([sys.executable, "-c", CHAIN, json.dumps(job)],
                          cwd=tree, env=_env(tree), capture_output=True,
                          text=True)


def run_cli_in(tree: pathlib.Path, argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "helsonlab.cli", *argv],
                          cwd=tree, env=_env(tree), capture_output=True)


def differing_commands(parent: pathlib.Path, change: pathlib.Path,
                       commands=COMMANDS) -> list:
    """`helsonlab <args>` for each command whose stdout or exit status
    differs between the two trees, a differing status noted after it."""
    out = []
    for argv in commands:
        a, b = run_cli_in(parent, argv), run_cli_in(change, argv)
        if (a.returncode, a.stdout) == (b.returncode, b.stdout):
            continue
        line = " ".join(["helsonlab", *argv])
        if a.returncode != b.returncode:
            line += f": exit {a.returncode} → {b.returncode}"
        out.append(line)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    args = parser.parse_args(argv)
    _, parent_tree = bench.unpack_parent(args.parent)
    trees = {"parent": parent_tree, "change": ROOT}
    status = 0
    for name, config in workloads().items():
        dirs = {side: OUT / name / side for side in trees}
        for side, tree in trees.items():
            proc = run_chain_in(tree, config, dirs[side])
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                print(f"{name} {side}: chain failed: {tail[0]}")
                status = 1
        head, *rest = file_changes(dirs["parent"], dirs["change"])
        print(f"{name}: {head}")
        for line in rest:
            print(line)
        if rest:
            status = 1
    diff = differing_commands(parent_tree, ROOT)
    print(f"cli: {len(diff)} of {len(COMMANDS)} commands differ")
    for line in diff:
        print(f"  {line}")
    if diff:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
