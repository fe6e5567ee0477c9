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


def _verdict(bench, parents, changes, better="lower"):
    spec = [{"name": "wall_s", "unit": "s", "better": better, "bound": 0.25}]
    pairs = [{"parent": run(a), "change": run(b)}
             for a, b in zip(parents, changes)]
    return bench.summarize(pairs, spec)["wall_s"]["verdict"]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_verdict_gain_needs_nine_wins_and_a_gap_past_the_iqr(bench):
    assert _verdict(bench, PARENT, [0.7 * a for a in PARENT]) == "gain"
    # 8 of 10 wins is not enough, whatever the gap
    eight = [0.7 * a for a in PARENT[:8]] + [1.1, 1.1]
    assert _verdict(bench, PARENT, eight) == "within bound"
    # 10 wins by less than the parent's IQR (0.02) is no gain either
    assert _verdict(bench, PARENT, [a - 0.005 for a in PARENT]) \
        == "within bound"
    # a metric where higher is better
    assert _verdict(bench, PARENT, [1.5 * a for a in PARENT],
                    better="higher") == "gain"


def test_verdict_regressed_past_the_bound(bench):
    assert _verdict(bench, PARENT, [1.3 * a for a in PARENT]) == "regressed"
    assert _verdict(bench, PARENT, [0.7 * a for a in PARENT],
                    better="higher") == "regressed"
    assert _verdict(bench, PARENT, [1.2 * a for a in PARENT]) \
        == "within bound"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound(bench):
    # the parent's IQR is 0.45 of its median, against a 0.25 bound
    wide = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]
    assert _verdict(bench, wide, [1.05 * a for a in wide]) == "unresolved"
    # a change worse past the bound is regressed first
    assert _verdict(bench, wide, [1.4 * a for a in wide]) == "regressed"
    # every change run beating every parent run settles it, here with a
    # median gap (0.35) inside the parent's IQR (0.6)
    split = [0.9, 1.5] * 5
    assert _verdict(bench, split, [0.85] * 10) == "within bound"
    assert _verdict(bench, split, [0.95] * 10) == "unresolved"
