import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import helsonlab.discretize as discretize
import helsonlab.eigen as eigen
import helsonlab.pipeline as pipeline
import helsonlab.structured_ops as structured_ops
from helsonlab.eigen import Spectrum, spectrum_from_csv
from helsonlab.pipeline import RunConfig, StageError, run_chain, solve
from helsonlab.structured_ops import LinearMap
from helsonlab.symbols import SymbolSpec, kernel_fn

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
        dict(nystrom_n=4), dict(sizes=(1, 64)),
    ])
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    @pytest.mark.parametrize("kw, field", [
        (dict(alpha=True), "alpha"), (dict(alpha="1"), "alpha"),
        (dict(sizes=(32, 64.0)), "sizes"), (dict(sizes=(32, "64")), "sizes"),
        (dict(sizes=(True, 64)), "sizes"), (dict(sizes="64"), "sizes"),
        (dict(helson_cap="64"), "helson_cap"),
        (dict(helson_cap=64.0), "helson_cap"),
        (dict(nystrom_n=True), "nystrom_n"),
        (dict(nystrom_n=48.5), "nystrom_n"),
        (dict(solver={"seed": "abc"}), "seed"),
        (dict(solver={"seed": 1.0}), "seed"),
        (dict(solver={"seed": False}), "seed"),
    ])
    def test_wrong_types_refused_by_name(self, kw, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**kw)

    def test_negative_seed_refused_by_name(self, monkeypatch):
        # refused by RunConfig, before run_chain could start a stage; the
        # parent's chain ran the headline and exited 1 with
        # "stage fit: expected non-negative integer"
        with pytest.raises(ValueError,
                           match="seed must be a non-negative integer, "
                                 "got -3"):
            RunConfig(solver={"seed": -3})
        with pytest.raises(ValueError, match="seed"):
            RunConfig.from_json({"solver": {"seed": -1}})
        assert RunConfig(solver={"seed": 0}).solver == {"seed": 0}

    def test_nystrom_n_capped_at_max_dense(self):
        # the Nystrom builders' one node cap, refused before any stage
        cap = structured_ops.MAX_DENSE
        assert RunConfig(nystrom_n=cap).nystrom_n == cap
        with pytest.raises(ValueError,
                           match=r"nystrom_n must lie in \[8, 4096\], got 4097"):
            RunConfig(nystrom_n=cap + 1)

    def test_integer_like_values_accepted(self):
        cfg = RunConfig(alpha=2, sizes=[np.int64(32), 64],
                        helson_cap=np.int64(32), solver={"seed": np.int32(4)})
        assert cfg.sizes == (32, 64)
        assert type(cfg.helson_cap) is int
        assert type(cfg.solver["seed"]) is int
        json.dumps(cfg.to_json())

    def test_from_json_validates(self):
        with pytest.raises(ValueError, match="sizes"):
            RunConfig.from_json({"sizes": [64, 32]})

    def test_solver_defaults_merged(self):
        assert RunConfig().solver == {"seed": 0}
        assert RunConfig(solver={"seed": 7}).solver == {"seed": 7}

    def test_json_round_trip(self):
        cfg = RunConfig(alpha=0.5, sizes=(32, 64), helson_cap=32,
                        nystrom_n=80, solver={"seed": 3},
                        out_dir="somewhere")
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_from_json_defaults_come_from_the_fields(self):
        assert RunConfig.from_json({}).to_json() == RunConfig().to_json()
        partial = {"alpha": 2.0, "grids": {"n": 80},
                   "solver": {"seed": 5}, "outputs": {"dir": "elsewhere"}}
        want = RunConfig(alpha=2.0, nystrom_n=80, solver={"seed": 5},
                         out_dir="elsewhere")
        assert RunConfig.from_json(partial).to_json() == want.to_json()

    @pytest.mark.parametrize("blob, key", [
        ({"negativty_size": 64}, "negativty_size"),
        ({"weight_zero": True}, "weight_zero"),
        ({"grids": {"n": 80, "nodes": 80}}, "nodes"),
        ({"outputs": {"directory": "elsewhere"}}, "directory"),
        ({"solver": {"seed": 5, "tolerance": 1e-6}}, "tolerance"),
        # settings that are now constants of the chain
        ({"negativity_size": 512}, "negativity_size"),
        ({"fit_window": [20, 200]}, "fit_window"),
        ({"grids": {"x_lo": 0.0}}, "x_lo"),
        ({"solver": {"k": 20}}, "k"),
    ])
    def test_from_json_refuses_unknown_keys(self, blob, key):
        with pytest.raises(ValueError, match=rf"keys: (.*, )?{key}(,|$)"):
            RunConfig.from_json(blob)

    def test_solver_refuses_unknown_keys(self):
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(solver={"tolerance": 1e-6})


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain_small")
    cfg = RunConfig(alpha=1.0, sizes=(48, 96), nystrom_n=120,
                    out_dir=str(out))
    return cfg, run_chain(cfg)


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain_fit")
    cfg = RunConfig(alpha=1.0, sizes=(24, 2000), helson_cap=24,
                    nystrom_n=48, out_dir=str(out))
    return cfg, run_chain(cfg)


class TestRunChain:
    def test_stages_complete_in_order(self, small_run):
        _, rep = small_run
        assert rep["stages"] == ["fit", "row_matrices", "row_integrals",
                                 "combined_matrix", "negativity"]

    def test_stage_stats_time_and_peak_every_stage(self, small_run):
        # one entry per stage: its seconds and the process's peak RSS at
        # its end, which can only grow from stage to stage
        _, rep = small_run
        stats = rep["stage_stats"]
        assert list(stats) == rep["stages"]
        assert all(s["seconds"] >= 0.0 for s in stats.values())
        peaks = [stats[name]["peak_rss_mb"] for name in rep["stages"]]
        assert peaks[0] > 1.0
        assert peaks == sorted(peaks)

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
        # the factored rows against the streamed closed form: rounding,
        # not an identity that reads exactly 0
        assert 0 < rep["additivity"]["max_rel_diff"] <= 1e-12

    def test_negative_part_domination(self, small_run):
        _, rep = small_run
        neg = rep["negativity"]
        assert neg["ok"]
        assert neg["max_excess"] <= 1e-10
        assert neg["max_neg_to_pos"] <= 0.05

    def test_fit_fields_populated(self, fit_run):
        # the cap of 2000 nodes, below the 10342 that the fit window asks
        # for, certifies 39 indices: the fit reads 20..39
        cfg, rep = fit_run
        head = rep["fits"]["headline"]
        assert math.isfinite(head["alpha_hat"]) and head["kappa_hat"] > 0
        assert head["kappa_ref"] == pytest.approx(0.5)
        assert head["n_nodes"] == head["n_cap"] == 2000
        assert 28 <= head["certified_count"] < 200
        assert head["window"] == [20, head["certified_count"]]
        meta = json.loads((pathlib.Path(cfg.out_dir) /
                           "headline_section_n2000.meta.json").read_text())
        assert (meta["n_cap"], meta["certified_count"]) == (
            2000, head["certified_count"])
        # matrix sections get no fit of their own
        assert set(rep["fits"]) == {"headline"}

    def test_short_headline_refuses_its_fit(self, small_run):
        # 96 nodes certify too few indices for the fit window
        cfg, rep = small_run
        assert rep["fits"] == {}
        meta = json.loads((pathlib.Path(cfg.out_dir) /
                           "headline_section_n96.meta.json").read_text())
        assert meta["certified_count"] < 28
        assert rep["fit_skipped"] == {
            "certified_count": meta["certified_count"], "window": [20, 200]}

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
        # every section of this run is at most _DENSE_LIMIT wide: row 0
        # and combined at N = 48 and 96, row 1 at 96, four integral
        # sections and the headline
        cfg, _ = small_run
        sidecars = sorted(pathlib.Path(cfg.out_dir).glob("*.meta.json"))
        assert len(sidecars) == 10
        for path in sidecars:
            meta = json.loads(path.read_text())
            assert meta["method"] == "dense", path.name

    def test_row1_solved_only_at_negativity_size(self, small_run):
        # the negativity stage is row 1's only reader, at the largest
        # dense-route matrix size, N = 96
        cfg, rep = small_run
        out = pathlib.Path(cfg.out_dir)
        assert (out / "row1_matrix_N96.csv").exists()
        assert (out / "row1_matrix_N96.meta.json").exists()
        assert not (out / "row1_matrix_N48.csv").exists()
        assert rep["negativity"]["size"] == 96

    def test_sidecars_mark_resolved_entries(self, small_run):
        cfg, _ = small_run
        sidecars = sorted(pathlib.Path(cfg.out_dir).glob("*.meta.json"))
        assert sidecars
        for path in sidecars:
            meta = json.loads(path.read_text())
            spec = spectrum_from_csv(
                path.with_name(path.name.replace(".meta.json", ".csv")))
            assert meta["noise_floor"] == 1e-8 * spec.lambda_plus[0], path.name
            assert meta["resolved"] == int(np.sum(
                spec.lambda_plus >= meta["noise_floor"])), path.name

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


class TestNegToPosRatio:
    @staticmethod
    def _spectrum(minus):
        plus = 1.0 / np.arange(1, 21)
        return Spectrum(lambda_plus=plus, lambda_minus=np.asarray(minus),
                        singular=np.array([]), residuals=np.array([]))

    def test_noise_negatives_read_zero(self):
        spec = self._spectrum(np.full(20, 1e-12))
        assert pipeline._neg_to_pos_ratio(spec, 2, 20) == 0.0

    def test_genuine_negative_counts(self):
        # lambda_2^- = 1e-3 lambda_1 against lambda_2^+ = lambda_1 / 2
        spec = self._spectrum(np.array([0.5, 1e-3] + [1e-12] * 18))
        assert pipeline._neg_to_pos_ratio(spec, 2, 20) == pytest.approx(2e-3)
        assert pipeline._neg_to_pos_ratio(spec, 3, 20) == 0.0


def test_negativity_window_ignores_fit_window(monkeypatch, tmp_path):
    # _FIT_WINDOW is the headline fit's window; the negativity ratio
    # always reads the resolved indices of the combined section past its
    # head, which at N = 128 are a handful, far below index 20
    kw = dict(alpha=1.0, sizes=(64, 128), nystrom_n=48)
    plain = run_chain(RunConfig(out_dir=str(tmp_path / "plain"), **kw))
    monkeypatch.setattr(pipeline, "_FIT_WINDOW", (4, 24))
    knob = run_chain(RunConfig(out_dir=str(tmp_path / "knob"), **kw))
    m_res = plain["negativity"]["resolved_count"]
    assert 2 <= m_res < 20
    assert plain["negativity"]["window"] == [2, m_res]
    assert knob["negativity"]["window"] == plain["negativity"]["window"]

def test_unconverged_solve_listed_in_report(monkeypatch, tmp_path):
    # the headline at n = 1024 takes the Lanczos route with k = 24 pairs
    # (the fit window's top index) and sweeps cut to 45 steps, which stop
    # before the first Ritz check at step 2k + 16 = 64 and cannot converge
    sweep = eigen._lanczos_sweep
    monkeypatch.setattr(
        eigen, "_lanczos_sweep",
        lambda lm, k, max_iter, rng, both_ends=False:
            sweep(lm, k, min(max_iter, 45), rng, both_ends=both_ends))
    monkeypatch.setattr(pipeline, "_FIT_WINDOW", (4, 24))
    cfg = RunConfig(alpha=1.0, sizes=(24, 1024), helson_cap=24,
                    nystrom_n=48, out_dir=str(tmp_path))
    rep = run_chain(cfg)
    assert rep["unconverged"] == ["headline_section_n1024"]
    on_disk = json.loads((tmp_path / "run_report.json").read_text())
    assert on_disk["unconverged"] == rep["unconverged"]


def _headline(alpha, n_cap, out_dir, seed=0):
    """_headline_fit alone: its report, its sidecar and the k of each
    solve it ran."""
    asked = []
    real = pipeline.solve

    def recording(lm, k=pipeline._LANCZOS_K, seed=0, which="both_ends"):
        asked.append(k)
        return real(lm, k=k, seed=seed, which=which)

    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"artifacts": [], "unconverged": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "solve", recording)
        pipeline._headline_fit(alpha, n_cap, seed, out_dir, report)
    meta, = [json.loads(p.read_text())
             for p in out_dir.glob("headline_section_n*.meta.json")]
    return report, meta, asked


@pytest.fixture(scope="module")
def integral_headline(tmp_path_factory):
    # the integral benchmark's headline: alpha = 0.5 capped at 8192 nodes,
    # whose window certifies 101 of the fit window's 200 indices
    out_dir = tmp_path_factory.mktemp("integral_headline")
    return (*_headline(0.5, 8192, out_dir), out_dir)


def test_headline_asks_for_the_fit_windows_top_index(integral_headline,
                                                     tmp_path):
    # a window that certifies the fit window's top index is asked for
    # all of it (ladder's headline, alpha = 1 on 10342 nodes) ...
    _, meta, asked = _headline(1.0, 16384, tmp_path)
    assert asked == [pipeline._FIT_WINDOW[1]]
    assert meta["certified_count"] == meta["topk"] == 200
    # ... and one that certifies fewer for its Weyl count plus the
    # margin: past the last certified index, short of the top index
    report, meta, asked, _ = integral_headline
    assert len(asked) == 1
    assert meta["certified_count"] == 101
    assert 101 < asked[0] == meta["topk"] < pipeline._FIT_WINDOW[1]
    assert report["fits"]["headline"]["window"] == [20, 101]


def test_short_weyl_count_solves_again_for_the_top_index(
        integral_headline, monkeypatch, tmp_path):
    # when every pair asked is certified, the Weyl estimate fell short:
    # the window is solved again for _FIT_WINDOW[1] pairs, and the fit is
    # the one that asking for them at once gives
    top = pipeline._FIT_WINDOW[1]
    monkeypatch.setattr(pipeline, "weyl_count", lambda alpha, n: math.inf)
    once, _, asked = _headline(0.5, 8192, tmp_path / "once")
    assert asked == [top]
    monkeypatch.setattr(pipeline, "weyl_count", lambda alpha, n: 0.0)
    again, meta, asked = _headline(0.5, 8192, tmp_path / "again")
    assert asked == [pipeline._WEYL_MARGIN, top]
    assert meta["topk"] == top and meta["certified_count"] == 101
    assert again["fits"] == once["fits"]
    # the fit of the pairs the window certifies reads the same figures
    fit = integral_headline[0]["fits"]["headline"]
    for key in ("kappa_hat", "alpha_hat"):
        assert fit[key] == pytest.approx(once["fits"]["headline"][key],
                                         rel=1e-12, abs=0.0)
    assert fit["window"] == once["fits"]["headline"]["window"]


def test_integral_headline_sidecar_records_pairs_steps_and_checks(
        integral_headline):
    # asking 200 pairs took 416 Lanczos steps and one residual check at
    # seed 0; the 109 the window can certify take fewer steps, and the
    # checks after the first wait for the pairs still unconverged
    _, meta, asked, _ = integral_headline
    assert meta["topk"] == asked[0] == 109
    assert meta["iterations"] < 2 * pipeline._FIT_WINDOW[1] + 16
    assert 1 <= meta["checks"] <= 4
    assert meta["certified_count"] <= meta["resolved"] <= meta["topk"]


def _circles(svg: str, color: str) -> int:
    return svg.count(f'r="2" fill="{color}"')


def test_fit_figure_draws_truncated_eigenvalues_apart(integral_headline,
                                                      tmp_path):
    # the certified eigenvalues in the first series' colour, the rest of
    # the solve in the second, labelled as truncated by the window
    _, meta, _, out_dir = integral_headline
    svg = (out_dir / "fit_figure.svg").read_text()
    assert "truncated by the window" in svg
    assert _circles(svg, "#1f77b4") == meta["certified_count"] == 101
    assert _circles(svg, "#d62728") == meta["topk"] - 101
    # a window that certifies every pair it returns draws one series
    _, meta, _ = _headline(2.0, 8192, tmp_path)
    svg = (tmp_path / "fit_figure.svg").read_text()
    assert "truncated by the window" not in svg
    assert _circles(svg, "#1f77b4") == meta["certified_count"] == 200


@pytest.mark.parametrize("alpha, cap, want", [
    (1.0, 16384, 10342), (0.5, 32768, 16246), (0.5, 8192, 8192),
    (1.0, 2000, 2000)])
def test_headline_width_certifies_the_fit_window_under_the_cap(
        alpha, cap, want, monkeypatch, tmp_path):
    # the fewest nodes whose window certifies kappa(alpha) 200^-alpha,
    # unless the last size caps it
    asked = []

    def stop(alpha, n):
        asked.append(n)
        raise RuntimeError("stop after sizing")

    monkeypatch.setattr(pipeline, "log_window_smooth_section", stop)
    with pytest.raises(StageError, match="stop after sizing"):
        run_chain(RunConfig(alpha=alpha, sizes=(24, cap), helson_cap=24,
                            out_dir=str(tmp_path)))
    assert asked == [want]


def test_headline_fit_reads_no_index_below_the_noise_floor(tmp_path):
    # at alpha = 4 the turning points certify all 200 pairs of the
    # 3490-node window, but only 70 clear the noise floor
    report, meta, _ = _headline(4.0, 8192, tmp_path)
    assert report["fits"]["headline"]["window"][1] <= meta["resolved"]
    assert meta["certified_count"] == meta["resolved"] < meta["topk"]


@pytest.mark.parametrize("alpha, top, resolved", [
    (6.0, 8192, 17), (135.0, 4096, 1), (150.0, 4096, 1)])
def test_steep_alpha_chain_reports_fit_skipped(alpha, top, resolved,
                                               tmp_path):
    # too few eigenvalues clear the noise floor for the fit window.  From
    # alpha = 135 on, kappa / certified_floor overflows, and from 141 on
    # kappa 200^-alpha underflows to 0; the window and the pairs asked
    # are sized without either
    rep = run_chain(RunConfig(alpha=alpha, sizes=(16, 64, top),
                              helson_cap=64, nystrom_n=64,
                              out_dir=str(tmp_path)))
    assert rep["stages"][-1] == "negativity"
    assert rep["fits"] == {}
    assert rep["fit_skipped"] == {"certified_count": resolved,
                                  "window": [20, 200]}


def test_negativity_size_is_the_largest_dense_matrix_size(monkeypatch,
                                                          tmp_path):
    # 1024 takes the Lanczos route, so row 1 and the negativity check run
    # at 256 and nothing is solved at any other size
    solved = []
    real = pipeline.solve

    def recording(lm, *args, **kwargs):
        solved.append(lm.cols)
        return real(lm, *args, **kwargs)

    monkeypatch.setattr(pipeline, "solve", recording)
    rep = run_chain(RunConfig(alpha=1.0, sizes=(256, 1024), helson_cap=1024,
                              nystrom_n=48, out_dir=str(tmp_path)))
    assert rep["negativity"]["size"] == 256
    assert [p.name for p in tmp_path.glob("row1_matrix_N*.csv")] == [
        "row1_matrix_N256.csv"]
    assert 512 not in solved


def test_integral_row1_is_closed_form_minus_row0_gram(monkeypatch, tmp_path):
    # row 1's Nystrom sections reuse row 0's Gram product and stay
    # bitwise what subtracting a freshly made one gives
    made = []
    real = pipeline.nystrom_difference

    def recording(full, smooth):
        op = real(full, smooth)
        made.append(op.dense().copy())
        return op

    monkeypatch.setattr(pipeline, "nystrom_difference", recording)
    alpha = 1.0
    run_chain(RunConfig(alpha=alpha, sizes=(24, 48), nystrom_n=120,
                        out_dir=str(tmp_path)))
    gx, gt = discretize.v_matched_grids(pipeline._X_DOMAIN, 120)
    want = []
    for combine, grid, full, smooth in (("product", gt, "helson_a", "a0"),
                                        ("sum", gx, "hankel_b", "b0")):
        closed = discretize._assemble(
            kernel_fn(SymbolSpec(full, alpha=alpha)), grid.nodes,
            np.sqrt(grid.weights), combine)
        gram = discretize._gram_fast_path(SymbolSpec(smooth, alpha=alpha),
                                          grid, combine)
        want.append(closed - gram)
    assert len(made) == 2
    for got, ref in zip(made, want):
        assert np.array_equal(got, ref)


def _row1_without_head(full, smooth):
    # row 1 without its exact row and column 1
    return structured_ops._gram_section(full.plus, smooth.plus, None)


def _row1_without_minus(full, smooth):
    # row 1 without the smooth factor
    return structured_ops._gram_section(full.plus, None, full.head)


@pytest.mark.parametrize("broken", [_row1_without_head, _row1_without_minus])
def test_additivity_sees_row1_wiring(broken, monkeypatch, tmp_path):
    # the check sums the row sections the chain solves, so a row 1 that
    # misses a piece of a - a0 shows in it
    monkeypatch.setattr(pipeline, "difference_section", broken)
    cfg = RunConfig(alpha=1.0, sizes=(48, 64), nystrom_n=48,
                    out_dir=str(tmp_path))
    rep = run_chain(cfg)
    assert rep["additivity"]["size"] == 48
    assert not rep["additivity"]["ok"]
    assert rep["additivity"]["max_rel_diff"] > 1e-3


class TestStageTagging:
    def test_config_stage_error(self, tmp_path):
        cfg = RunConfig(sizes=(512,), helson_cap=256, out_dir=str(tmp_path))
        with pytest.raises(StageError) as err:
            run_chain(cfg)
        assert err.value.stage == "config"

    def test_integral_stage_tagged_and_partials_kept(self, monkeypatch,
                                                     tmp_path):
        # the second stage dies building its grids; the first stage's
        # spectra must already be on disk
        def overflow(x_domain, n):
            raise discretize.ConstructionError("node map overflows")

        monkeypatch.setattr(pipeline, "v_matched_grids", overflow)
        cfg = RunConfig(alpha=1.0, sizes=(24, 48), nystrom_n=64,
                        out_dir=str(tmp_path))
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


def _fresh_interpreter(script: str, *argv: str, timeout: float):
    """script run by a new interpreter on one BLAS thread, this package
    first on its path."""
    src = str(pathlib.Path(pipeline.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_shipped_defaults_finish_under_memory_cap(tmp_path):
    # RunConfig() as shipped: sizes up to 8192, Lanczos on every matrix
    # section above 600, and the additivity check at N = 512, all under a
    # 5 GiB address-space cap
    out = tmp_path / "defaults"
    proc = _fresh_interpreter(_DEFAULT_RUN, str(out), timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((out / "run_report.json").read_text())
    assert report["additivity"]["ok"]
    # the last size caps the headline below the 10342 nodes its fit window
    # asks for; 158 indices were certified
    head = report["fits"]["headline"]
    assert head["n_nodes"] == head["n_cap"] == 8192
    assert 150 <= head["certified_count"] < 160
    assert head["window"] == [20, head["certified_count"]]
    sidecars = sorted(out.glob("*.meta.json"))
    assert sidecars
    for path in sidecars:
        assert json.loads(path.read_text())["converged"] is True, path.name


_LANCZOS_SOLVE = """
import sys
from helsonlab.pipeline import _DENSE_LIMIT, solve
from helsonlab.structured_ops import build_helson
from helsonlab.symbols import SymbolSpec
assert 1024 > _DENSE_LIMIT
spec = solve(build_helson(SymbolSpec("helson_a"), 1024))
assert spec.meta["method"] == "lanczos" and spec.meta["converged"]
print("numpy.random" in sys.modules)
"""


def test_lanczos_solve_leaves_numpy_random_unloaded():
    # numpy.random's extension modules hold ~5.6 MB of resident memory;
    # a chain draws its start vectors from the stdlib's random.Random
    proc = _fresh_interpreter(_LANCZOS_SOLVE, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def _identity(n: int) -> LinearMap:
    return LinearMap(n, lambda u: u)


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
        limit = pipeline._DENSE_LIMIT
        for n in (2, limit, limit + 1):
            solve(_identity(n))
        assert routes == [("dense", 2), ("dense", limit),
                          ("lanczos", limit + 1, pipeline._LANCZOS_K,
                           "both_ends")]

    @pytest.mark.parametrize("n", [2, pipeline._DENSE_LIMIT + 1])
    def test_negative_seed_refused_on_either_route(self, routes, n):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            solve(_identity(n), seed=-1)
        assert routes == []

    def test_k_and_which_pass_through_capped_by_order(self, routes):
        n = pipeline._DENSE_LIMIT + 1
        solve(_identity(n), k=216, which="largest")
        solve(_identity(n), k=10 * n)
        assert routes == [("lanczos", n, 216, "largest"),
                          ("lanczos", n, n - 1, "both_ends")]

