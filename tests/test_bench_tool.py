import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "bench.py"
END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower",
               "bound": 0.25}]


@pytest.fixture(scope="module")
def bench():
    # the paired benchmark runs only by hand; load it without its
    # __main__ block to test its bookkeeping
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(wall, attempted=3, failed=0):
    return {"seed": 1, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": wall}}


def test_spread_quartiles(bench):
    assert bench.spread([]) == {"n": 0}
    assert bench.spread([2.0]) == {"n": 1, "median": 2.0, "q1": 2.0,
                                   "q3": 2.0}
    got = bench.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert got == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_failed_run_left_out_of_medians_and_counted(bench):
    pairs = [{"parent": run(4.0), "change": run(3.0)},
             {"parent": run(5.0), "change": {"seed": 2,
                                             "error": "exit 1: killed"}},
             {"parent": run(6.0), "change": run(4.0, failed=1)}]
    out = bench.summarize(pairs, END_TO_END)
    wall = out["wall_s"]
    assert wall["pairs"] == 2
    assert wall["parent"]["median"] == 5.0
    assert wall["change"]["median"] == 3.5
    assert wall["change_wins"] == 2
    assert wall["change_worse_by"] == pytest.approx(-0.3)
    assert out["chains"] == {"parent": {"attempted": 9, "failed": 0},
                             "change": {"attempted": 7, "failed": 2}}



def test_paired_ratio_sees_through_drift(bench):
    # the box speeds up during the series: each side's quartiles overlap,
    # but every pair has the change at 0.8 of the parent
    parents = [4.0, 3.6, 3.2, 2.8, 2.4]
    pairs = [{"parent": run(a), "change": run(0.8 * a)} for a in parents]
    wall = bench.summarize(pairs, END_TO_END)["wall_s"]
    assert wall["change"]["q3"] > wall["parent"]["q1"]
    ratio = wall["change_over_parent"]
    assert ratio["n"] == 5
    for key in ("median", "q1", "q3"):
        assert ratio[key] == pytest.approx(0.8)


def test_paired_ratio_skips_zero_parent(bench):
    pairs = [{"parent": run(0.0), "change": run(0.0)},
             {"parent": run(2.0), "change": run(3.0)}]
    wall = bench.summarize(pairs, END_TO_END)["wall_s"]
    assert wall["pairs"] == 2
    assert wall["change_over_parent"] == {"n": 1, "median": 1.5, "q1": 1.5,
                                          "q3": 1.5}
