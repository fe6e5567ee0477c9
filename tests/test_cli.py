"""End-to-end checks of the command-line surface.

Everything runs in-process through main(argv) so exit codes and the
stdout/stderr split are asserted directly.
"""

import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import helsonlab.cli as cli
from helsonlab.cli import main
from helsonlab.eigen import Spectrum, dense_eig_oracle, spectrum_from_csv, spectrum_to_csv
from helsonlab.structured_ops import build_helson, dense_matrix
from helsonlab.symbols import SymbolSpec


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


class TestNonFiniteAlpha:
    @pytest.mark.parametrize("verb", ["kappa", "spectrum", "chain-flag",
                                      "chain-config"])
    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_refused_by_name(self, verb, alpha, tmp_path,
                                              capsys):
        # asymptotics.kappa, SymbolSpec and RunConfig each refuse it
        # before any work starts
        cfg_path = tmp_path / "cfg.json"
        cfg = {"sizes": [32, 64], "outputs": {"dir": str(tmp_path / "o")}}
        if verb == "chain-config":
            cfg["alpha"] = float(alpha)
        cfg_path.write_text(json.dumps(cfg))
        argv = {"kappa": ["kappa", "--alpha", alpha],
                "spectrum": ["spectrum", "--operator", "helson", "--size",
                             "16", "--alpha", alpha],
                "chain-flag": ["chain", "--config", str(cfg_path),
                               "--alpha", alpha],
                "chain-config": ["chain", "--config", str(cfg_path)]}[verb]
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: alpha must be positive and finite, " \
                      f"got {float(alpha)!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["kappa", "chain-flag", "chain-config",
                                      "report"])
    @pytest.mark.parametrize("alpha", ["250", "1e-310"])
    def test_alpha_without_finite_kappa_refused(self, verb, alpha, tmp_path,
                                                capsys):
        # kappa(250) overflowed a double and kappa(1e-310) read nan; chain
        # solved the headline and then failed in its fit stage
        cfg_path = tmp_path / "cfg.json"
        cfg = {"sizes": [32, 64], "outputs": {"dir": str(tmp_path / "o")}}
        if verb in ("chain-config", "report"):
            cfg["alpha"] = float(alpha)
        cfg_path.write_text(json.dumps(cfg))
        argv = {"kappa": ["kappa", "--alpha", alpha],
                "chain-flag": ["chain", "--config", str(cfg_path),
                               "--alpha", alpha],
                "chain-config": ["chain", "--config", str(cfg_path)],
                "report": ["report", "--config", str(cfg_path), "--svg",
                           str(tmp_path / "f.svg")]}[verb]
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: alpha={float(alpha)!r} is out of range: " \
                      f"kappa(alpha) is not a finite double\n"
        assert not (tmp_path / "o").exists()


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
        # the chain's sidecar writer: solver keys plus the verb's own
        assert set(meta) == {"dim", "iterations", "seed", "tol", "converged",
                             "method", "operator", "kernel", "alpha", "size"}

    def test_topk_truncates(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--operator", "helson",
                            "--alpha", "1", "--size", "40", "--topk", "5")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 6  # header + 5

    def test_negative_topk_is_usage_error(self, capsys):
        # a negative count would cut entries off the end of each column
        code, out, err = _run(capsys, "spectrum", "--operator", "helson",
                              "--size", "8", "--topk", "-3")
        assert code == 2
        assert out == ""
        assert "--topk" in err

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

    @pytest.mark.parametrize("size", [64, 700])
    def test_negative_seed_refused_by_name(self, size, tmp_path, capsys):
        # 64 is on the dense route, which used to accept the seed, and 700
        # on the Lanczos route, where numpy refused it without naming it
        out_csv = tmp_path / "s.csv"
        for flags in ([], ["--out", str(out_csv)]):
            code, out, err = _run(capsys, "spectrum", "--operator", "hankel",
                                  "--size", str(size), "--seed", "-1",
                                  *flags)
            assert code == 2 and out == ""
            assert err == "error: seed must be a non-negative integer, " \
                          "got -1\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n",
         " lacks the spectrum column(s) lambda_plus, lambda_minus, s_n"),
        ("n,lambda_plus,lambda_minus,s_n\n1,2,,\n2\n",
         ", line 3: fewer cells than the header"),
        ("n,lambda_plus,lambda_minus,s_n\n1,abc,,\n",
         ", line 2, column lambda_plus: 'abc' is not a finite number"),
        ("n,lambda_plus,lambda_minus,s_n\n1,nan,,\n",
         ", line 2, column lambda_plus: 'nan' is not a finite number"),
        ("n,lambda_plus,lambda_minus,s_n\n1,2,,\n2,1,-inf,\n",
         ", line 3, column lambda_minus: '-inf' is not a finite number"),
    ])
    def test_malformed_csv(self, text, message, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text(text)
        code, out, err = _run(capsys, "fit", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}{message}\n"


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

    @pytest.mark.parametrize("flags, key", [
        (("--p", "1", "--q", "inf"), "q"),
        (("--p", "1"), "tail_estimate"),
    ])
    def test_infinity_prints_as_strict_json(self, flags, key, tmp_path,
                                            capsys):
        # lambda_n = n^-1/2 decays too slowly for a finite p = 1 tail
        s = np.arange(1, 201, dtype=float) ** -0.5
        path = tmp_path / "s.csv"
        spectrum_to_csv(Spectrum(s, np.empty(0), s, np.empty(0)), path)
        code, out, _ = _run(capsys, "schatten", "--input", str(path), *flags)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert code == 0
        assert json.loads(out, parse_constant=refuse)[key] == "inf"

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_p_refused_by_name(self, p, tmp_path, capsys):
        # at p = inf the tail estimate was inf / inf, with a RuntimeWarning
        s = np.linspace(20.0, 2.0, 30)
        path = tmp_path / "s.csv"
        spectrum_to_csv(Spectrum(s, np.empty(0), s, np.empty(0)), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, "schatten", "--input", str(path),
                                  "--p", p)
        assert caught == []
        assert code == 2 and out == ""
        assert err == f"error: p must be positive and finite, got {p}\n"

    def test_csv_without_spectrum_columns(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("n,lambda_plus\n1,2\n")
        code, out, err = _run(capsys, "schatten", "--input", str(path),
                              "--p", "1")
        assert code == 2 and out == ""
        assert err == (f"error: {path} lacks the spectrum column(s) "
                       f"lambda_minus, s_n\n")

    @pytest.mark.parametrize("row, column", [
        ("1,nan,,", "lambda_plus"), ("1,inf,,", "lambda_plus"),
        ("1,2,,Infinity", "s_n"),
    ])
    def test_non_finite_cell(self, row, column, tmp_path, capsys):
        # json.dumps would print NaN or Infinity, which is not JSON
        path = tmp_path / "x.csv"
        path.write_text(f"n,lambda_plus,lambda_minus,s_n\n{row}\n")
        code, out, err = _run(capsys, "schatten", "--input", str(path),
                              "--p", "1")
        assert code == 2 and out == ""
        cell = row.split(",")[("lambda_plus", "s_n").index(column) * 2 + 1]
        assert err == (f"error: {path}, line 2, column {column}: "
                       f"{cell!r} is not a finite number\n")

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

    def test_decay_suite_fails_without_the_j2_term(self, capsys,
                                                   monkeypatch):
        # zeta(1+x) - 1 with its 2^(-1-x) term dropped stays positive, so
        # only the 2^(-1-x) lower bound sees it
        real = cli.zeta1
        monkeypatch.setattr(cli, "zeta1",
                            lambda x: real(x) - 2.0 ** (-1.0 - x))
        code, out, _ = _run(capsys, "verify", "--suite", "decay")
        assert code == 1
        assert "FAIL: zeta(1+x)-1 >= 2^(-1-x)" in out

    def test_chain_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "chain")
        assert code == 0
        assert out.count("PASS") == 3

    def test_factorization_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "factorization")
        assert code == 0
        assert out.count("PASS") == 2

    def test_s0diff_suite_reports_floor(self, capsys):
        # zeta(1+s) - 1/s - 1 is entire, so its weighted section has
        # superexponentially falling singular values: 3 clear the noise
        # floor, and the resolved head confirms the decay
        code, out, _ = _run(capsys, "verify", "--suite", "s0diff")
        assert code == 0
        assert "PASS: 3 singular values" in out
        assert "PASS: resolved head decay s4/s1 = 1.487e-10" in out

    def test_s0diff_suite_fails_without_the_carleman_subtraction(
            self, capsys, monkeypatch):
        # left with its 1/s singularity, the section keeps dozens of
        # singular values above the floor and a head decay of order 0.1
        real = cli.weighted_operator

        def no_carleman(kind, alpha, grid):
            if kind == "carleman":
                return SimpleNamespace(dense=lambda: np.zeros((grid.n,
                                                               grid.n)))
            return real(kind, alpha, grid)

        monkeypatch.setattr(cli, "weighted_operator", no_carleman)
        code, out, _ = _run(capsys, "verify", "--suite", "s0diff")
        assert code == 1
        assert "FAIL: 36 singular values" in out
        assert "FAIL: resolved head decay" in out

    # PASS lines each suite prints on the shipped code
    PASSES = {"chain": 3, "factorization": 2, "s0diff": 2, "decay": 2}

    @pytest.mark.parametrize("suite", sorted(PASSES))
    def test_every_suite_passes_on_shipped_code(self, suite, capsys):
        assert set(cli._SUITES) == set(self.PASSES)
        code, out, _ = _run(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert "FAIL" not in out and out.count("PASS") == self.PASSES[suite]

    @pytest.mark.parametrize("suite", ["everything", "sampling"])
    def test_unknown_suite(self, suite, capsys):
        code, _, _ = _run(capsys, "verify", "--suite", suite)
        assert code == 2

    @pytest.mark.parametrize("suite", sorted(PASSES))
    def test_negative_seed_refused_by_every_suite(self, suite, capsys,
                                                  monkeypatch):
        # refused before the suite runs, also by the suites that ignore
        # their seed
        monkeypatch.setitem(cli._SUITES, suite, lambda seed: pytest.fail(
            "the suite ran"))
        code, out, err = _run(capsys, "verify", "--suite", suite,
                              "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"


# ---------------------------------------------------------------------------
# chain / report


@pytest.fixture(scope="module")
def chain_cfg(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("chain_out")
    cfg = {"alpha": 1.0, "sizes": [48, 96], "grids": {"n": 120},
           "outputs": {"dir": str(out_dir)}}
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(cfg))
    return path, out_dir


class TestChainVerb:
    def test_run_and_report_artifacts(self, chain_cfg, capsys):
        cfg_path, out_dir = chain_cfg
        code, out, _ = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0
        rec = json.loads(out)
        assert rec["stages"] == ["fit", "row_matrices", "row_integrals",
                                 "combined_matrix", "negativity"]
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
        cfg = {"alpha": 2.0, "sizes": [32, 64], "grids": {"n": 100},
               "solver": {"seed": 5}, "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = _run(capsys, "chain", "--config", str(cfg_path),
                          "--alpha", "1.0", "--seed", "11")
        assert code == 0
        rec = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert rec["config"]["alpha"] == 1.0
        assert rec["config"]["solver"]["seed"] == 11

    def test_stage_failure_exits_one(self, tmp_path, capsys):
        # every ladder size above the cap: the config stage rejects the run
        cfg = {"alpha": 1.0, "sizes": [512, 1024], "helson_cap": 256,
               "grids": {"n": 100}, "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 1
        assert "stage" in err

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        # a key the run would ignore is refused before any stage starts
        cfg = {"alpha": 1.0, "sizes": [32, 64], "weight_zero": True,
               "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 2
        assert "weight_zero" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cfg, field", [
        ({"sizes": [32, 64], "helson_cap": "64"}, "helson_cap"),
        ({"sizes": [32, 64], "solver": {"seed": "abc"}}, "seed"),
        ({"sizes": [32, 64.0]}, "sizes"),
        ({"alpha": "1", "sizes": [32, 64]}, "alpha"),
    ])
    def test_wrong_config_type_exits_two(self, cfg, field, tmp_path, capsys):
        cfg = dict(cfg, outputs={"dir": str(tmp_path / "o")})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 2
        assert field in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cfg, flags", [
        ({"solver": {"seed": -3}}, []),
        ({}, ["--seed", "-1"]),
    ])
    def test_negative_seed_exits_two(self, cfg, flags, tmp_path, capsys):
        # refused by name before any stage, from the file or the flag
        cfg = dict(cfg, sizes=[32, 64], outputs={"dir": str(tmp_path / "o")})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = _run(capsys, "chain", "--config", str(cfg_path),
                              *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be a non-negative integer")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("part, key", [
        (None, "negativity_size"), (None, "fit_window"),
        ("grids", "x_lo"), ("solver", "k"),
    ])
    def test_removed_config_key_exits_two(self, part, key, tmp_path,
                                          capsys):
        # settings that are now constants of the chain are refused by name
        cfg = {"alpha": 1.0, "sizes": [32, 64],
               "outputs": {"dir": str(tmp_path / "o")}}
        (cfg.setdefault(part, {}) if part else cfg)[key] = 20
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 2
        assert f"keys: {key}\n" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blob, where", [
        ({"grids": 5}, "grids"), ([1, 2], "config"),
        ({"solver": [1]}, "solver"),
    ])
    @pytest.mark.parametrize("verb", ["chain", "report"])
    def test_config_of_the_wrong_shape_exits_two(self, blob, where, verb,
                                                 tmp_path, capsys):
        # refused before any flag is merged into it or any stage starts
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob))
        flags = {"chain": ["--out-dir", str(tmp_path / "o"), "--seed", "1",
                           "--alpha", "1"],
                 "report": ["--svg", str(tmp_path / "x.svg")]}[verb]
        code, out, err = _run(capsys, verb, "--config", str(cfg_path),
                              *flags)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {where} must be an object")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_report_without_fit_reads_the_capped_combined_section(
            self, tmp_path, capsys):
        # a 12-node headline section certifies too few eigenvalues to
        # fit, and the chain writes combined sections only up to
        # helson_cap = 4
        cfg = {"alpha": 1.0, "sizes": [4, 12], "helson_cap": 4,
               "grids": {"n": 64}, "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0
        rep = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert rep["fits"] == {}
        meta = json.loads((tmp_path / "o" /
                           "headline_section_n12.meta.json").read_text())
        assert meta["certified_count"] < 28 and meta["n_cap"] == 12
        assert rep["fit_skipped"] == {
            "certified_count": meta["certified_count"], "window": [20, 200]}
        assert err.count("\n") == 1 and "no headline fit" in err
        assert f"{meta['certified_count']} certified eigenvalues" in err
        svg = tmp_path / "tail.svg"
        code, out, err = _run(capsys, "report", "--config", str(cfg_path),
                              "--svg", str(svg))
        assert code == 0, err
        assert "combined matrix tail, N=4" in svg.read_text()
        assert "combined_matrix_N4.csv" in err

    def test_report_plots_the_headline_at_its_solved_width(self, tmp_path,
                                                             capsys):
        # at alpha = 2 the fit window needs 6195 nodes, below the last
        # size: the CSV is named by the width solved, and report finds it
        cfg = {"alpha": 2.0, "sizes": [24, 8192], "helson_cap": 24,
               "grids": {"n": 48}, "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0 and err == ""
        rep = json.loads((tmp_path / "o" / "run_report.json").read_text())
        head = rep["fits"]["headline"]
        assert (head["n_nodes"], head["n_cap"]) == (6195, 8192)
        assert head["certified_count"] == 200
        svg = tmp_path / "tail.svg"
        code, out, err = _run(capsys, "report", "--config", str(cfg_path),
                              "--svg", str(svg))
        assert code == 0 and err == ""
        assert "tail of the smooth additive section" in svg.read_text()

    def test_report_draws_the_truncated_headline_apart(self, tmp_path,
                                                       capsys):
        # at alpha = 0.5 the 8192-node window certifies 101 eigenvalues:
        # report reads that count from fits.headline and draws the rest of
        # the solve as a second series, truncated by the window
        cfg = {"alpha": 0.5, "sizes": [24, 8192], "helson_cap": 24,
               "grids": {"n": 48}, "outputs": {"dir": str(tmp_path / "o")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = _run(capsys, "chain", "--config", str(cfg_path))
        assert code == 0, err
        rep = json.loads((tmp_path / "o" / "run_report.json").read_text())
        head = rep["fits"]["headline"]
        assert head["certified_count"] == 101
        meta = json.loads((tmp_path / "o" /
                           "headline_section_n8192.meta.json").read_text())
        svg = tmp_path / "tail.svg"
        code, out, err = _run(capsys, "report", "--config", str(cfg_path),
                              "--svg", str(svg))
        assert code == 0 and err == ""
        text = svg.read_text()
        assert "truncated by the window" in text
        assert text.count('r="2" fill="#1f77b4"') == 101
        assert text.count('r="2" fill="#d62728"') == meta["topk"] - 101 > 0

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
