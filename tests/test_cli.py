"""End-to-end checks of the command-line surface.

Everything runs in-process through main(argv) so exit codes and the
stdout/stderr split are asserted directly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import helsonlab.cli as cli
from helsonlab.cli import main
from helsonlab.eigen import Spectrum, dense_eig_oracle, spectrum_from_csv, spectrum_to_csv
from helsonlab.structured_ops import build_helson, dense_matrix
from helsonlab.symbols import SymbolSpec

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# kappa


class TestKappa:
    def test_alpha_one_prints_half(self, capsys):
        code, out, _ = _run(capsys, "kappa", "--alpha", "1")
        assert code == 0
        assert out.strip() == "0.5"

    def test_alpha_half_prints_one(self, capsys):
        code, out, _ = _run(capsys, "kappa", "--alpha", "0.5")
        assert code == 0
        assert out.strip() == "1"

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "kappa")
        assert code == 2
        assert "usage" in err.lower() or "required" in err.lower()

    def test_unknown_verb_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "transmogrify")
        assert code == 2


# ---------------------------------------------------------------------------
# spectrum


class TestSpectrum:
    def test_stdout_csv_matches_direct_solve(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--operator", "helson",
                            "--alpha", "1", "--size", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,lambda_plus,lambda_minus,s_n"
        top = float(lines[1].split(",")[1])
        want = dense_eig_oracle(dense_matrix(
            build_helson(SymbolSpec("helson_a", alpha=1.0), 32))).lambda_plus[0]
        assert top == pytest.approx(want, rel=1e-12)

    def test_out_file_and_sidecar(self, tmp_path, capsys):
        out_csv = tmp_path / "spec.csv"
        code, out, _ = _run(capsys, "spectrum", "--operator", "hankel",
                            "--alpha", "1", "--size", "24",
                            "--out", str(out_csv))
        assert code == 0
        assert out.strip() == str(out_csv)
        spec = spectrum_from_csv(out_csv)
        assert spec.lambda_plus.size > 0
        meta = json.loads((tmp_path / "spec.meta.json").read_text())
        assert meta["operator"] == "hankel"
        assert meta["size"] == 24

    def test_topk_truncates(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--operator", "helson",
                            "--alpha", "1", "--size", "40", "--topk", "5")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 6  # header + 5

    def test_smooth_matrix_section_is_psd(self, tmp_path, capsys):
        out_csv = tmp_path / "smooth.csv"
        code, _, _ = _run(capsys, "spectrum", "--operator", "hankel",
                          "--kernel", "smooth", "--alpha", "1",
                          "--size", "48", "--out", str(out_csv))
        assert code == 0
        spec = spectrum_from_csv(out_csv)
        if spec.lambda_minus.size:
            assert spec.lambda_minus[0] <= 1e-10 * spec.lambda_plus[0]

    def test_grid_flags_on_matrix_operator_warn(self, capsys):
        code, _, err = _run(capsys, "spectrum", "--operator", "helson",
                            "--alpha", "1", "--size", "16",
                            "--grid-lo", "0.5")
        assert code == 0
        assert "ignored" in err

    def test_integral_operator_with_grid(self, tmp_path, capsys):
        out_csv = tmp_path / "int.csv"
        code, _, _ = _run(capsys, "spectrum", "--operator", "integral-hankel",
                          "--kernel", "smooth", "--alpha", "1",
                          "--size", "96", "--grid-lo", "1e-4",
                          "--grid-hi", "80", "--out", str(out_csv))
        assert code == 0
        spec = spectrum_from_csv(out_csv)
        assert spec.lambda_plus[0] > 0

    @pytest.mark.parametrize("size,method", [(600, "dense"),
                                             (601, "lanczos")])
    def test_route_switches_at_dense_limit(self, tmp_path, capsys, size,
                                           method):
        out_csv = tmp_path / "route.csv"
        code, _, _ = _run(capsys, "spectrum", "--operator", "hankel",
                          "--alpha", "1", "--size", str(size), "--topk", "4",
                          "--out", str(out_csv))
        assert code == 0
        meta = json.loads((tmp_path / "route.meta.json").read_text())
        assert meta["method"] == method
        assert meta["dim"] == size

    def test_bad_operator_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "spectrum", "--operator", "toeplitz",
                          "--size", "8")
        assert code == 2

    def test_integral_helson_rejects_low_grid(self, capsys):
        # multiplicative sections live on [1, inf)
        code, _, err = _run(capsys, "spectrum", "--operator",
                            "integral-helson", "--size", "32",
                            "--grid-lo", "0.25", "--grid-hi", "10")
        assert code == 2
        assert "error" in err


# ---------------------------------------------------------------------------
# fit / schatten


@pytest.fixture()
def synthetic_csv(tmp_path):
    n = np.arange(1, 161, dtype=float)
    lam = 0.5 / n
    path = tmp_path / "synthetic.csv"
    spectrum_to_csv(Spectrum(lam, np.empty(0), lam, np.empty(0)), path)
    return path


class TestFit:
    def test_exact_power_law(self, synthetic_csv, capsys):
        code, out, _ = _run(capsys, "fit", "--input", str(synthetic_csv),
                            "--window", "10:100")
        assert code == 0
        rec = json.loads(out)
        assert rec["alpha_hat"] == pytest.approx(1.0, abs=1e-10)
        assert rec["kappa_hat"] == pytest.approx(0.5, rel=1e-10)
        assert rec["n0"] == 10 and rec["n1"] == 100

    def test_default_window_used_when_omitted(self, synthetic_csv, capsys):
        code, out, _ = _run(capsys, "fit", "--input", str(synthetic_csv))
        assert code == 0
        rec = json.loads(out)
        assert rec["alpha_hat"] == pytest.approx(1.0, abs=1e-8)

    def test_malformed_window(self, synthetic_csv, capsys):
        for bad in ("10", "a:b", "10:20:30"):
            code, _, err = _run(capsys, "fit", "--input",
                                str(synthetic_csv), "--window", bad)
            assert code == 2
            assert "window" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = _run(capsys, "fit", "--input",
                          str(tmp_path / "nope.csv"))
        assert code == 2


class TestSchatten:
    def test_euclidean_value(self, tmp_path, capsys):
        s = np.array([3.0, 4.0])[::-1]
        path = tmp_path / "s.csv"
        spectrum_to_csv(Spectrum(np.sort(s)[::-1], np.empty(0),
                                 np.sort(s)[::-1], np.empty(0)), path)
        code, out, _ = _run(capsys, "schatten", "--input", str(path),
                            "--p", "2")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(5.0, rel=1e-15)
        assert rec["p"] == 2.0

    def test_lorentz_flag(self, synthetic_csv, capsys):
        code, out, _ = _run(capsys, "schatten", "--input",
                            str(synthetic_csv), "--p", "1", "--q", "2")
        assert code == 0
        assert json.loads(out)["q"] == 2.0

    def test_header_only_csv(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("n,lambda_plus,lambda_minus,s_n\n")
        code, _, err = _run(capsys, "schatten", "--input", str(path),
                            "--p", "1")
        assert code == 2
        assert "no spectral data" in err


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_decay_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "decay")
        assert code == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_chain_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "chain")
        assert code == 0
        assert out.count("PASS") == 3

    def test_factorization_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "factorization")
        assert code == 0
        assert out.count("PASS") == 2

    def test_carleman_suite_reports_truncation_gap(self, capsys):
        # the 16-decade window tops out 2.8% below the continuum norm, so
        # the 2% clause fails honestly while the widening clause passes
        code, out, _ = _run(capsys, "verify", "--suite", "carleman")
        assert code == 1
        assert "FAIL" in out and "2.83" in out
        assert "PASS: wider domain" in out

    def test_s0diff_suite_reports_floor(self, capsys):
        # true ratio is ~1e-50; double precision bottoms out near 1e-17,
        # so the literal s20/s5 clause fails while the resolved head
        # confirms the decay
        code, out, _ = _run(capsys, "verify", "--suite", "s0diff")
        assert code == 1
        assert "FAIL: s20/s5" in out
        assert "PASS: resolved head decay" in out

    def test_sampling_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "sampling",
                            "--golden", str(GOLDEN / "sampling_p1.json"))
        assert code == 0
        assert out.count("PASS") == 3

    def test_sampling_missing_golden(self, tmp_path, capsys):
        code, _, err = _run(capsys, "verify", "--suite", "sampling",
                            "--golden", str(tmp_path / "gone.json"))
        assert code == 2
        assert "golden" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = _run(capsys, "verify", "--suite", "everything")
        assert code == 2

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HELSON_SEED", "three")
        code, _, err = _run(capsys, "verify", "--suite", "decay")
        assert code == 2
        assert "HELSON_SEED" in err


# ---------------------------------------------------------------------------
# chain / report


@pytest.fixture(scope="module")
def chain_cfg(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("chain_out")
    cfg = {"alpha": 1.0, "sizes": [48, 96],
           "grids": {"x_lo": 0.0, "x_hi": 18.0, "n": 120},
           "solver": {"k": 12}, "outputs": {"dir": str(out_dir)},
           "negativity_size": 96}
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(cfg))
    return path, out_dir


class TestChainVerb:
    def test_run_and_report_artifacts(self, chain_cfg, capsys):
        cfg_path, out_dir = chain_cfg
        code, out, _ = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0
        rec = json.loads(out)
        assert rec["stages"] == ["row_matrices", "row_integrals",
                                 "combined_matrix", "fit", "negativity"]
        assert (out_dir / "run_report.json").is_file()

    def test_report_verb_emits_svg(self, chain_cfg, capsys):
        cfg_path, out_dir = chain_cfg
        svg = out_dir / "replot.svg"
        code, out, _ = _run(capsys, "report", "--config", str(cfg_path),
                            "--svg", str(svg))
        assert code == 0
        assert out.strip() == str(svg)
        assert svg.read_text().startswith("<svg")

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = {"alpha": 2.0, "sizes": [32, 64],
               "grids": {"x_lo": 0.0, "x_hi": 16.0, "n": 100},
               "solver": {"k": 10}, "outputs": {"dir": str(tmp_path / "o")},
               "negativity_size": 64}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = _run(capsys, "chain", "--config", str(cfg_path),
                          "--alpha", "1.0", "--seed", "11")
        assert code == 0
        rec = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert rec["config"]["alpha"] == 1.0
        assert rec["config"]["solver"]["seed"] == 11

    def test_env_seed_fills_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HELSON_SEED", "23")
        cfg = {"alpha": 1.0, "sizes": [32, 64],
               "grids": {"x_lo": 0.0, "x_hi": 16.0, "n": 100},
               "solver": {"k": 10}, "outputs": {"dir": str(tmp_path / "o")},
               "negativity_size": 64}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0
        rec = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert rec["config"]["solver"]["seed"] == 23

    def test_explicit_config_seed_beats_env(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("HELSON_SEED", "23")
        cfg = {"alpha": 1.0, "sizes": [32, 64],
               "grids": {"x_lo": 0.0, "x_hi": 16.0, "n": 100},
               "solver": {"k": 10, "seed": 5},
               "outputs": {"dir": str(tmp_path / "o")},
               "negativity_size": 64}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0
        rec = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert rec["config"]["solver"]["seed"] == 5

    def test_stage_failure_exits_one(self, tmp_path, capsys):
        # every ladder size above the cap: the config stage rejects the run
        cfg = {"alpha": 1.0, "sizes": [512, 1024], "helson_cap": 256,
               "grids": {"x_lo": 0.0, "x_hi": 16.0, "n": 100},
               "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 1
        assert "stage" in err

    def test_report_before_chain(self, tmp_path, capsys):
        cfg = {"alpha": 1.0, "sizes": [32, 64],
               "outputs": {"dir": str(tmp_path / "never_ran")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "report", "--config", str(cfg_path),
                            "--svg", str(tmp_path / "x.svg"))
        assert code == 2
        assert "run the chain verb first" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = _run(capsys, "chain", "--config",
                          str(tmp_path / "nope.json"))
        assert code == 2


# ---------------------------------------------------------------------------
# interrupt handling


class TestInterrupt:
    def test_chain_renames_fresh_artifacts(self, tmp_path, capsys,
                                           monkeypatch):
        out_dir = tmp_path / "o"

        def fake_run(config):
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
            (Path(config.out_dir) / "row0_matrix_N32.csv").write_text("n\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_chain", fake_run)
        cfg = {"alpha": 1.0, "sizes": [32, 64],
               "outputs": {"dir": str(out_dir)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 130
        assert "partial" in err
        assert (out_dir / "row0_matrix_N32.csv.partial").is_file()
        assert not (out_dir / "row0_matrix_N32.csv").exists()

    def test_spectrum_renames_written_csv(self, tmp_path, capsys,
                                          monkeypatch):
        real = cli.spectrum_to_csv

        def boom(spec, path):
            real(spec, path)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "spectrum_to_csv", boom)
        out_csv = tmp_path / "spec.csv"
        code, _, _ = _run(capsys, "spectrum", "--operator", "helson",
                          "--alpha", "1", "--size", "16",
                          "--out", str(out_csv))
        assert code == 130
        assert (tmp_path / "spec.csv.partial").is_file()
        assert not out_csv.exists()
