"""Smoke test of the chain benchmark at tiny sizes, about a minute.

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {
    "ladder": {"alpha": 1.0, "sizes": (24, 48, 700), "helson_cap": 48,
               "nystrom_n": 48},
    "integral": {"alpha": 0.5, "sizes": (16, 256), "helson_cap": 16,
                 "nystrom_n": 64},
}


def declared() -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")} | {
        "workloads": [w["name"] for w in bench["workloads"]]}


def test_workloads_match_declaration():
    assert sorted(run.WORKLOADS) == sorted(declared()["workloads"])
    assert sorted(TINY) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace,
                     config=TINY[workload], setup_repeats=1)
    assert result["correct"], result["problems"]
    assert result["attempted"] == 1 and result["failed"] == 0
    want = declared()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_memory_cap_turns_oom_into_failed_run(tmp_path):
    # the additivity check at N=300 asks for two ~1.3 GiB arrays
    job = {"config": {"alpha": 1.0, "sizes": (300,), "helson_cap": 300,
                      "nystrom_n": 48},
           "seed": 0, "trace": False, "mem_cap_bytes": 2**30,
           "out_dir": str(tmp_path / "out")}
    result = run.run_chain_child(job, run.child_env(), timeout=120)
    assert not result["ok"]
    assert any("Unable to allocate" in p for p in result["problems"])


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


@pytest.mark.parametrize("install", [spans.install_layers,
                                     spans.install_convergence_watch])
def test_wrappers_restore_originals(install):
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(install):
            patched = list(tracer._patches)
            assert patched
            for owner, attr, orig in patched:
                assert _current(owner, attr) is not orig
            raise RuntimeError("body failed")
    for owner, attr, orig in patched:
        assert _current(owner, attr) is orig, attr


def test_traced_calls_nest_and_count():
    import helsonlab.pipeline as pipeline
    from helsonlab.symbols import SymbolSpec

    tracer = spans.Tracer()
    with tracer.installed(spans.install_layers):
        lm = pipeline.build_helson(SymbolSpec("helson_a"), 40)
        pipeline.lanczos_extreme(lm, 4, which="both_ends")
    layers = spans.layer_metrics(tracer, tracer.top_level_seconds())
    matvecs = layers["eigen.lanczos.matvecs"]
    assert layers["eigen.lanczos.calls"] == 1
    assert matvecs == tracer.calls(spans.APPLY) > 0
    assert layers["structured_ops.helson_matvec.calls"] == matvecs
    assert layers["structured_ops.helson_matvec.entries"] == 40**2 * matvecs
    assert 0 <= layers["eigen.lanczos.self_s"] <= layers["eigen.lanczos.s"]
    assert layers["trace.top_level_share"] == pytest.approx(1.0)


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
