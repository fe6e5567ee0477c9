import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import helsonlab.pipeline as pipeline
from helsonlab.eigen import spectrum_from_csv
from helsonlab.pipeline import (RunConfig, StageError, band_limited_symbol,
                                cubic_bspline, restriction_ratio,
                                restriction_schatten_experiment, run_chain,
                                solve)
from helsonlab.structured_ops import LinearMap

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestRunConfig:
    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            RunConfig(sizes=(128, 128))
        with pytest.raises(ValueError):
            RunConfig(sizes=(128, 64))
        with pytest.raises(ValueError):
            RunConfig(sizes=())

    @pytest.mark.parametrize("kw", [
        dict(alpha=0.0), dict(alpha=-2.0),
        dict(x_domain=(-1.0, 10.0)), dict(x_domain=(5.0, 5.0)),
        dict(nystrom_n=4), dict(sizes=(1, 64)),
    ])
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    def test_solver_defaults_merged(self):
        cfg = RunConfig(solver={"k": 7})
        assert cfg.solver["k"] == 7
        assert cfg.solver["tol"] == 1e-10
        assert cfg.solver["seed"] == 0

    def test_json_round_trip(self):
        cfg = RunConfig(alpha=0.5, sizes=(32, 64), x_domain=(0.0, 12.0),
                        nystrom_n=80, solver={"k": 9, "seed": 3},
                        out_dir="somewhere", fit_window=(4, 20),
                        weight_zero=True, negativity_size=64)
        back = RunConfig.from_json(cfg.to_json())
        assert back.alpha == cfg.alpha
        assert back.sizes == cfg.sizes
        assert back.x_domain == cfg.x_domain
        assert back.nystrom_n == cfg.nystrom_n
        assert back.solver == cfg.solver
        assert back.out_dir == cfg.out_dir
        assert back.fit_window == cfg.fit_window
        assert back.weight_zero is True
        assert back.negativity_size == 64


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain_small")
    cfg = RunConfig(alpha=1.0, sizes=(48, 96), x_domain=(0.0, 18.0),
                    nystrom_n=120, solver={"k": 12}, negativity_size=96,
                    out_dir=str(out))
    return cfg, run_chain(cfg)


class TestRunChain:
    def test_stages_complete_in_order(self, small_run):
        _, rep = small_run
        assert rep["stages"] == ["row_matrices", "row_integrals",
                                 "combined_matrix", "fit", "negativity"]

    def test_smooth_hankel_psd(self, small_run):
        _, rep = small_run
        psd = rep["h_b0_psd"]
        assert psd["ok"]
        assert psd["lambda_min"] >= -1e-10 * psd["lambda_max"]

    def test_chain_agreement(self, small_run):
        # matched discretizations of the multiplicative and additive
        # sections carry the same numbers; resolved eigenvalues agree
        # far below the 1e-6 report threshold
        _, rep = small_run
        for row in ("row0", "row1"):
            entry = rep["cross_row"][row]
            assert entry["compared"] >= 5
            assert entry["max_rel_diff"] <= 1e-6

    def test_additivity(self, small_run):
        _, rep = small_run
        assert rep["additivity"]["ok"]
        assert rep["additivity"]["max_rel_diff"] <= 1e-12

    def test_negative_part_domination(self, small_run):
        _, rep = small_run
        neg = rep["negativity"]
        assert neg["ok"]
        assert neg["max_excess"] <= 1e-10
        assert neg["max_neg_to_pos"] <= 0.05

    def test_fit_fields_populated(self, small_run):
        _, rep = small_run
        head = rep["fits"]["headline"]
        assert math.isfinite(head["alpha_hat"]) and head["kappa_hat"] > 0
        assert head["kappa_ref"] == pytest.approx(0.5)
        # the trend fit runs over ten or more resolved indices, or is refused
        trend = rep["fits"]["matrix_trend"]
        if "refused" in trend:
            assert trend["resolved_count"] < 10
            assert "alpha_hat" not in trend and "kappa_hat" not in trend
        else:
            assert 10 <= trend["window"][1] <= trend["resolved_count"]
            assert math.isfinite(trend["alpha_hat"])
            assert trend["kappa_hat"] > 0

    def test_all_solves_converged(self, small_run):
        _, rep = small_run
        assert rep["unconverged"] == []

    def test_artifacts_exist_and_parse(self, small_run):
        cfg, rep = small_run
        assert rep["artifacts"], "no artifacts recorded"
        for path in rep["artifacts"]:
            assert pathlib.Path(path).exists(), path
        spec = spectrum_from_csv(
            pathlib.Path(cfg.out_dir) / "row0_matrix_N48.csv")
        assert spec.lambda_plus.size > 0
        assert np.all(np.diff(spec.lambda_plus) <= 0)
        report_path = pathlib.Path(cfg.out_dir) / "run_report.json"
        on_disk = json.loads(report_path.read_text())
        assert on_disk["stages"] == rep["stages"]

    def test_row0_truncation_psd(self, small_run):
        cfg, _ = small_run
        for size in (48, 96):
            spec = spectrum_from_csv(
                pathlib.Path(cfg.out_dir) / f"row0_matrix_N{size}.csv")
            top = spec.lambda_plus[0]
            worst = spec.lambda_minus[0] if spec.lambda_minus.size else 0.0
            assert worst <= 1e-10 * top

    def test_sidecars_record_dense_route(self, small_run):
        # every section of this run is at most _DENSE_LIMIT wide
        cfg, _ = small_run
        sidecars = sorted(pathlib.Path(cfg.out_dir).glob("*.meta.json"))
        assert len(sidecars) == 11
        for path in sidecars:
            meta = json.loads(path.read_text())
            assert meta["method"] == "dense", path.name

    def test_determinism(self, small_run, tmp_path):
        cfg, _ = small_run
        rerun_cfg = RunConfig.from_json(cfg.to_json())
        rerun_cfg.out_dir = str(tmp_path / "again")
        run_chain(rerun_cfg)
        names = [pathlib.Path(p).name for p in
                 sorted(pathlib.Path(cfg.out_dir).glob("*.csv"))]
        assert names, "no CSV artifacts to compare"
        for name in names:
            a = (pathlib.Path(cfg.out_dir) / name).read_bytes()
            b = (pathlib.Path(rerun_cfg.out_dir) / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        fa = (pathlib.Path(cfg.out_dir) / "fit_report.json").read_bytes()
        fb = (pathlib.Path(rerun_cfg.out_dir) / "fit_report.json").read_bytes()
        assert fa == fb


def test_unconverged_solve_listed_in_report(tmp_path):
    # the headline at n = 1024 takes the Lanczos route with k = 24 + 16 = 40
    # pairs and at most 45 iterations, which cannot converge
    cfg = RunConfig(alpha=1.0, sizes=(24, 1024), helson_cap=24,
                    x_domain=(0.0, 18.0), nystrom_n=48,
                    solver={"k": 12, "max_iter": 45}, fit_window=(4, 24),
                    out_dir=str(tmp_path))
    rep = run_chain(cfg)
    assert rep["unconverged"] == ["headline_section_n1024"]
    on_disk = json.loads((tmp_path / "run_report.json").read_text())
    assert on_disk["unconverged"] == rep["unconverged"]


@pytest.fixture(scope="module")
def zero_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain_zero")
    cfg = RunConfig(alpha=1.0, sizes=(48, 96), x_domain=(0.0, 18.0),
                    nystrom_n=120, solver={"k": 12}, weight_zero=True,
                    negativity_size=96, out_dir=str(out))
    return cfg, run_chain(cfg)


class TestWeightZero:
    def test_row0_spectra_vanish(self, zero_run):
        cfg, _ = zero_run
        for name in ("row0_matrix_N48", "row0_matrix_N96",
                     "row0_integral_helson", "row0_integral_hankel"):
            spec = spectrum_from_csv(pathlib.Path(cfg.out_dir) / f"{name}.csv")
            vals = np.concatenate([spec.lambda_plus, spec.lambda_minus])
            assert vals.size == 0 or np.max(np.abs(vals)) == 0.0

    def test_combined_equals_difference_row(self, zero_run):
        cfg, _ = zero_run
        a = spectrum_from_csv(
            pathlib.Path(cfg.out_dir) / "combined_matrix_N96.csv")
        b = spectrum_from_csv(pathlib.Path(cfg.out_dir) / "row1_matrix_N96.csv")
        assert np.array_equal(a.lambda_plus, b.lambda_plus)
        assert np.array_equal(a.lambda_minus, b.lambda_minus)

    def test_report_shape(self, zero_run):
        _, rep = zero_run
        assert rep["additivity"]["ok"]
        assert "headline" not in rep["fits"]
        assert "matrix_trend" in rep["fits"]


class TestStageTagging:
    def test_config_stage_error(self, tmp_path):
        cfg = RunConfig(sizes=(512,), helson_cap=256, out_dir=str(tmp_path))
        with pytest.raises(StageError) as err:
            run_chain(cfg)
        assert err.value.stage == "config"

    def test_integral_stage_tagged_and_partials_kept(self, tmp_path):
        # e^900 overflows the node map, so the second stage dies; the
        # first stage's spectra must already be on disk
        cfg = RunConfig(alpha=1.0, sizes=(24, 48), x_domain=(0.0, 900.0),
                        nystrom_n=64, solver={"k": 8}, out_dir=str(tmp_path))
        with pytest.raises(StageError) as err:
            run_chain(cfg)
        assert err.value.stage == "row_integrals"
        assert (tmp_path / "row0_matrix_N24.csv").exists()
        assert not (tmp_path / "run_report.json").exists()


_DEFAULT_RUN = """
import resource, sys
cap = 5 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from helsonlab.pipeline import RunConfig, run_chain
run_chain(RunConfig(out_dir=sys.argv[1]))
"""


def test_shipped_defaults_finish_under_memory_cap(tmp_path):
    # RunConfig() as shipped: sizes up to 8192, Lanczos on every matrix
    # section above 600, and the additivity check at N = 512, all under a
    # 5 GiB address-space cap
    out = tmp_path / "defaults"
    src = str(pathlib.Path(pipeline.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _DEFAULT_RUN, str(out)],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((out / "run_report.json").read_text())
    assert report["additivity"]["ok"]
    sidecars = sorted(out.glob("*.meta.json"))
    assert sidecars
    for path in sidecars:
        assert json.loads(path.read_text())["converged"] is True, path.name


def _identity(n: int) -> LinearMap:
    return LinearMap(n, n, True, lambda u: u, "identity")


class TestSolvePolicy:
    @pytest.fixture()
    def routes(self, monkeypatch):
        seen = []
        monkeypatch.setattr(pipeline, "dense_eig_oracle",
                            lambda lm: seen.append(("dense", lm.cols)))
        monkeypatch.setattr(
            pipeline, "lanczos_extreme",
            lambda lm, k, **kw: seen.append(("lanczos", lm.cols, k,
                                             kw["which"])))
        return seen

    def test_dense_up_to_limit_lanczos_above(self, routes):
        solver = RunConfig().solver
        limit = pipeline._DENSE_LIMIT
        for n in (2, limit, limit + 1):
            solve(_identity(n), solver)
        assert routes == [("dense", 2), ("dense", limit),
                          ("lanczos", limit + 1, solver["k"], "both_ends")]

    def test_k_and_which_pass_through_capped_by_order(self, routes):
        solver = RunConfig().solver
        n = pipeline._DENSE_LIMIT + 1
        solve(_identity(n), solver, k=216, which="largest")
        solve(_identity(n), solver, k=10 * n)
        assert routes == [("lanczos", n, 216, "largest"),
                          ("lanczos", n, n - 1, "both_ends")]


class TestRestrictionExperiment:
    def test_cubic_bspline_shape(self):
        assert cubic_bspline(0.0) == pytest.approx(2.0 / 3.0)
        assert cubic_bspline(1.0) == pytest.approx(1.0 / 6.0)
        assert cubic_bspline(2.0) == 0.0
        assert cubic_bspline(-2.5) == 0.0
        # cardinal property: integer translates sum to one
        x = np.linspace(0.0, 4.0, 97)
        total = sum(cubic_bspline(x - k) for k in range(-3, 9))
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        x = np.linspace(-2.0, 2.0, 20001)
        assert np.trapezoid(cubic_bspline(x), x) == pytest.approx(1.0, abs=1e-6)

    def test_band_limited_symbol_support(self):
        a = band_limited_symbol([1.0, -0.5], 2.0)
        assert a(0.5) == 0.0
        assert a(math.exp(2.0) * 1.001) == pytest.approx(0.0, abs=1e-15)
        assert abs(a(math.exp(1.0))) > 0
        with pytest.raises(ValueError):
            band_limited_symbol([], 2.0)
        with pytest.raises(ValueError):
            band_limited_symbol([1.0], -1.0)

    def test_zero_symbol_ratio(self):
        out = restriction_ratio(lambda t: np.zeros_like(np.asarray(t, float)),
                                N=2.0, p=1.0, grid_n=48)
        assert out["matrix_norm"] == 0.0
        assert out["integral_norm"] == 0.0
        assert math.isnan(out["ratio"])

    def test_rank_one_complex_symbol(self):
        # oscillating character windowed inside [1, e^3]; both Schatten
        # sides finite, integral side stable under grid doubling
        xi = 0.7

        def a(t):
            t_in = np.asarray(t, dtype=float)
            t_arr = np.atleast_1d(t_in)
            out = np.zeros_like(t_arr, dtype=complex)
            pos = t_arr >= 1.0
            x = np.log(t_arr[pos])
            window = cubic_bspline((x - 1.5) / 0.75)
            out[pos] = t_arr[pos] ** -0.5 * np.exp(2j * math.pi * xi * x) * window
            return out if t_in.ndim else complex(out[0])

        res = restriction_ratio(a, N=3.0, p=1.0, grid_n=96)
        assert math.isfinite(res["ratio"])
        assert res["ratio"] > 0
        assert res["sensitivity"] <= 0.10
        assert not res["unresolved"]

    def test_experiment_reproducible(self, tmp_path):
        kw = dict(p=1.0, n_symbols=3, n_modes=3, N=2.5, grid_n=96, seed=123)
        rep1 = restriction_schatten_experiment(**kw)
        rep2 = restriction_schatten_experiment(
            out_path=tmp_path / "restriction.json", **kw)
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2,
                                                              sort_keys=True)
        assert math.isfinite(rep1["max_ratio"]) and rep1["max_ratio"] > 0
        on_disk = json.loads((tmp_path / "restriction.json").read_text())
        assert on_disk["max_ratio"] == rep1["max_ratio"]
        assert len(on_disk["rows"]) == 3

    def test_golden_first_symbol_replays(self):
        blob = json.loads((GOLDEN / "restriction_family.json").read_text())
        rep = restriction_schatten_experiment(
            p=blob["p"], n_symbols=1, n_modes=blob["n_modes"], N=blob["N"],
            seed=blob["seed"], grid_n=blob["grid_n"])
        row = rep["rows"][0]
        assert row["ratio"] == pytest.approx(blob["ratios"][0], rel=1e-12,
                                             abs=0)
        # sensitivity = |fine - coarse| / fine for two Schatten norms that
        # agree to ~6e-5, so a rounding change of 3e-16 in each norm moves
        # it by ~5e-11 relative. Norms held to the ratio's 1e-12 relative
        # bound it by (|dfine| + |dcoarse|) / fine <= 2e-12 absolute.
        assert row["sensitivity"] == pytest.approx(blob["sensitivities"][0],
                                                   rel=0, abs=2e-12)

    def test_experiment_rejects_large_p(self):
        with pytest.raises(ValueError):
            restriction_schatten_experiment(p=2.0, n_symbols=1)
