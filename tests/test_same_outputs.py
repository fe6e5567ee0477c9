import importlib.util
import json
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).parent.parent / "tools"


@pytest.fixture
def tool(monkeypatch):
    # the output comparison runs only by hand; load it without its
    # __main__ block (it imports its sibling bench.py) to test its checks
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location(
        "same_outputs", TOOLS / "same_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write_run(root: pathlib.Path, report: dict, csv: str) -> None:
    (root / "sub").mkdir(parents=True)
    (root / "run_report.json").write_text(json.dumps(report, indent=1))
    (root / "sub" / "row0_matrix_N48.csv").write_text(csv)


REPORT = {"artifacts": ["/a/row0_matrix_N48.csv"],
          "config": {"alpha": 1.0, "outputs": {"dir": "/a"}},
          "fits": {"headline": {"kappa_hat": 0.5}}}
CSV = "n,lambda_plus,lambda_minus,s_n\n1,1.0,0,1.0\n"


def test_same_outputs_ignore_the_output_directory(tool, tmp_path):
    moved = dict(REPORT, artifacts=["/b/row0_matrix_N48.csv"],
                 config={"outputs": {"dir": "/b"}, "alpha": 1.0})
    write_run(tmp_path / "a", REPORT, CSV)
    write_run(tmp_path / "b", moved, CSV)
    assert tool.differing_files(tmp_path / "a", tmp_path / "b") == []


def test_stage_stats_are_not_compared(tool, tmp_path):
    timed = dict(REPORT, stage_stats={"fit": {"seconds": 0.5,
                                              "peak_rss_mb": 70.0}})
    write_run(tmp_path / "a", REPORT, CSV)
    write_run(tmp_path / "b", timed, CSV)
    assert tool.differing_files(tmp_path / "a", tmp_path / "b") == []


def test_spectrum_change_reads_the_sorted_algebraic_spectrum(tool, tmp_path):
    # a rounding-level eigenvalue that switches from lambda_plus to
    # lambda_minus moves the sorted spectrum by 2e-17, not by a column
    a = "n,lambda_plus,lambda_minus,s_n\n1,2.0,3e-17,2.0\n2,1e-17,,3e-17\n"
    b = "n,lambda_plus,lambda_minus,s_n\n1,2.0,3e-17,2.0\n2,,1e-17,3e-17\n"
    (tmp_path / "a.csv").write_text(a)
    (tmp_path / "b.csv").write_text(b)
    note = tool.spectrum_change(tmp_path / "a.csv", tmp_path / "b.csv")
    assert note == "max |Δ| / λ₁ = 1e-17"
    (tmp_path / "short.csv").write_text("n,lambda_plus,lambda_minus,s_n\n"
                                        "1,2.0,,2.0\n")
    assert tool.spectrum_change(tmp_path / "a.csv", tmp_path / "short.csv") \
        == "3 against 1 eigenvalues"
    (tmp_path / "other.csv").write_text("x,y\n1,2\n")
    assert tool.spectrum_change(tmp_path / "a.csv",
                                tmp_path / "other.csv") is None
    assert tool.spectrum_change(tmp_path / "a.csv",
                                tmp_path / "missing.csv") is None


def test_every_kind_of_difference_is_listed(tool, tmp_path):
    changed = dict(REPORT, fits={"headline": {"kappa_hat": 0.5000001}})
    write_run(tmp_path / "a", REPORT, CSV)
    write_run(tmp_path / "b", changed, CSV.replace(",0,", ",,"))
    (tmp_path / "a" / "only_here.svg").write_text("<svg/>")
    assert tool.differing_files(tmp_path / "a", tmp_path / "b") == [
        "only_here.svg", "run_report.json", "sub/row0_matrix_N48.csv"]


def test_workloads_are_the_benchmarks(tool):
    declared = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    names = {w["name"] for w in declared["workloads"]}
    configs = tool.workloads()
    assert set(configs) == names
    assert all("alpha" in c and "sizes" in c for c in configs.values())


def test_json_changes_name_the_moved_values(tool, tmp_path):
    for side, steps in (("a", 31), ("b", 15)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "s.meta.json").write_text(json.dumps(
            {"dim": 1024, "iterations": steps, "converged": True}))
    assert tool.json_changes(tmp_path / "a" / "s.meta.json",
                             tmp_path / "b" / "s.meta.json") \
        == ["iterations: 31 → 15"]


def test_json_changes_reach_into_report_blocks(tool, tmp_path):
    # the output directory and stage_stats stay out, as in differing_files
    changed = dict(REPORT, artifacts=["/b/x.csv"],
                   stage_stats={"fit": {"seconds": 0.5}},
                   fits={"headline": {"kappa_hat": 0.25}}, extra=[1])
    write_run(tmp_path / "a", REPORT, CSV)
    write_run(tmp_path / "b", changed, CSV)
    assert tool.json_changes(tmp_path / "a" / "run_report.json",
                             tmp_path / "b" / "run_report.json") == [
        'fits.headline: {"kappa_hat": 0.5} → {"kappa_hat": 0.25}',
        "extra: (absent) → [1]"]
    assert tool.json_changes(tmp_path / "a" / "sub" / "row0_matrix_N48.csv",
                             tmp_path / "b" / "sub" / "row0_matrix_N48.csv") \
        == []


def test_commands_cover_every_suite_operator_and_kernel(tool):
    # the fixed list reaches what the chain does not: factor_N_dense and
    # weighted_operator through verify, b0_quadrature through spectrum,
    # and the Hankel convolution through the Lanczos route past size 600
    from helsonlab import cli

    suites = {c[2] for c in tool.COMMANDS if c[0] == "verify"}
    assert suites == set(cli._SUITES)
    runs = {(c[2], c[4], c[6]) for c in tool.COMMANDS if c[0] == "spectrum"}
    assert runs == {(op, kernel, "64")
                    for op in cli._MATRIX_OPS + cli._INTEGRAL_OPS
                    for kernel in ("full", "smooth")} | {
        ("hankel", kernel, "700") for kernel in ("full", "smooth")}
    assert len(tool.COMMANDS) == len(suites) + len(runs)


def _fake_cli(tree: pathlib.Path, body: str) -> pathlib.Path:
    pkg = tree / "src" / "helsonlab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("import sys\nargs = sys.argv[1:]\n" + body)
    return tree


def test_differing_commands_compare_stdout_and_exit_status(tool, tmp_path):
    # "same" prints alike in both trees; "text" prints other bytes, and
    # "status" prints alike but exits 1 in the change
    parent = _fake_cli(tmp_path / "parent", "print(args[0])\n")
    change = _fake_cli(tmp_path / "change", (
        "print(args[0] + ('!' if args[0] == 'text' else ''))\n"
        "sys.exit(1 if args[0] == 'status' else 0)\n"))
    commands = (["same", "--x", "1"], ["text"], ["status"])
    assert tool.differing_commands(parent, change, commands) == [
        "helsonlab text", "helsonlab status: exit 0 → 1"]


def test_headline_files_of_another_width_are_paired(tool, tmp_path):
    # the parent solved 16384 nodes and the change 10342: each headline
    # file is listed once against its counterpart, not as two one-sided
    # files; the CSVs are compared over the eigenvalues both hold
    head = "n,lambda_plus,lambda_minus,s_n\n"
    for side, n, rows, dim in (
            ("a", 16384, "1,1.0,,1.0\n2,0.5,,0.5\n3,0.25,,0.25\n", 8333),
            ("b", 10342, "1,1.0,,1.0\n2,0.5000000001,,0.5000000001\n",
             5423)):
        write_run(tmp_path / side, REPORT, CSV)
        (tmp_path / side / f"headline_section_n{n}.csv").write_text(
            head + rows)
        (tmp_path / side / f"headline_section_n{n}.meta.json").write_text(
            json.dumps({"dim": dim, "converged": True}))
    (tmp_path / "a" / "headline_section_n77.svg").write_text("<svg/>")
    assert tool.width_pairs(tmp_path / "a", tmp_path / "b") == [
        (pathlib.Path("headline_section_n16384.csv"),
         pathlib.Path("headline_section_n10342.csv")),
        (pathlib.Path("headline_section_n16384.meta.json"),
         pathlib.Path("headline_section_n10342.meta.json"))]
    assert tool.file_changes(tmp_path / "a", tmp_path / "b") == [
        "3 of 4 output files differ",
        "  headline_section_n77.svg",
        "  headline_section_n16384.csv → headline_section_n10342.csv: "
        "max |Δ| / λ₁ = 1e-10 over the leading 2",
        "  headline_section_n16384.meta.json → "
        "headline_section_n10342.meta.json",
        "    dim: 8333 → 5423"]
    # the same width on both sides pairs nothing
    assert tool.width_pairs(tmp_path / "a", tmp_path / "a") == []


def test_headline_csv_of_another_length_is_compared_over_both(tool,
                                                              tmp_path):
    # the same width solved for fewer pairs: the headline CSV keeps its
    # name and is compared over the leading eigenvalues both sides hold;
    # any other spectrum CSV of another length is only counted
    head = "n,lambda_plus,lambda_minus,s_n\n"
    for side, rows in (("a", "1,1.0,,1.0\n2,0.5,,0.5\n3,0.25,,0.25\n"),
                       ("b", "1,1.0,,1.0\n2,0.5000000002,,0.5000000002\n")):
        write_run(tmp_path / side, REPORT, head + rows)
        (tmp_path / side / "headline_section_n8192.csv").write_text(
            head + rows)
    assert tool.file_changes(tmp_path / "a", tmp_path / "b") == [
        "2 of 3 output files differ",
        "  headline_section_n8192.csv: max |Δ| / λ₁ = 2e-10 over the "
        "leading 2",
        "  sub/row0_matrix_N48.csv: 3 against 2 eigenvalues"]
