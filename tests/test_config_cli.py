import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpi_sim.cli
import cpi_sim.correlator
import cpi_sim.errors
import cpi_sim.refocus
import cpi_sim.runner
from cpi_sim import (
    DEMOS,
    ParseError,
    RefocusSpec,
    ResourceLimit,
    SpeckleRun,
    ValidationError,
    default_sampling,
    estimate_gamma,
    gamma_quadrature,
    QuadratureSpec,
    parse_config,
    refocused_image,
    run_experiment,
)
from cpi_sim.cli import main as cli_main
from cpi_sim.metrics import normalized_linf
from cpi_sim.optics import source_quadrature
from cpi_sim.runner import write_image_csv, write_json

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

BASE_EXIT = {cpi_sim.errors.ConfigError: 2, cpi_sim.errors.ComputationError: 3}

MINIMAL = """
geometry.z_a = 0.1
geometry.z_b = 0.1
geometry.S_o = 0.2
geometry.F = 0.05
geometry.lambda0 = 500e-9
source.kind = gaussian
source.sigma = 0.5e-3
object.kind = double_slit
object.slit_width = 50e-6
object.separation = 150e-6
run.mode = analytic
"""


def _sampled_config(tmp_path, mode: str = "analytic", extra: str = "") -> str:
    """MINIMAL with a Gaussian-profile sampled mask read from a CSV file."""
    coords = np.linspace(-100e-6, 100e-6, 81)
    profile = np.exp(-(coords**2) / (2 * (30e-6) ** 2))
    path = tmp_path / "mask.csv"
    path.write_text(
        "# rho_m,re\n"
        + "\n".join(f"{float(x)!r},{float(v)!r}" for x, v in zip(coords, profile))
        + "\n"
    )
    return (
        MINIMAL.replace("object.kind = double_slit", "object.kind = sampled")
        .replace("object.slit_width = 50e-6", f"object.file = {path}")
        .replace("object.separation = 150e-6\n", extra)
        .replace("run.mode = analytic", f"run.mode = {mode}")
    )


class TestParseConfig:
    def test_minimal_config_fills_defaults_and_round_trips(self):
        cfg = parse_config(MINIMAL)
        assert cfg.get("run.seed") == 0
        assert cfg.get("run.threads") == 1
        assert cfg.get("grids.n_a") == 64
        assert parse_config(cfg.serialize()) == cfg

    def test_negative_length_names_the_field(self):
        with pytest.raises(ValidationError, match="geometry.z_a"):
            parse_config(MINIMAL.replace("geometry.z_a = 0.1", "geometry.z_a = -0.1"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="geometry.zz_a"):
            parse_config(MINIMAL + "geometry.zz_a = 0.1\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("# fine\nnot an assignment\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(MINIMAL + "geometry.z_a = 0.2\n")

    def test_diagnostics_aggregate(self):
        bad = MINIMAL.replace("geometry.z_a = 0.1", "geometry.z_a = -1") + "source.bogus = 2\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert len(err.value.problems) >= 2

    def test_one_of_si_f_enforced(self):
        with pytest.raises(ValidationError, match="S_i"):
            parse_config(MINIMAL + "geometry.S_i = 0.0666\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="run.mode"):
            parse_config(MINIMAL.replace("run.mode = analytic", "run.mode = magic"))

    @pytest.mark.parametrize("demo", ["refocus", "budget"])
    @pytest.mark.parametrize(
        "key, bad",
        [
            ("geometry.z_a", "-0.1"),
            ("geometry.z_b", "0"),
            ("geometry.S_o", "-0.2"),
            ("geometry.S_i", "-0.1"),
            ("geometry.F", "0"),
            ("geometry.lambda0", "-5e-7"),
            ("source.sigma", "-1e-3"),  # beside the refocus demo's top hat
            ("source.width", "0"),
            ("object.slit_width", "-1e-6"),
            ("object.separation", "0"),
            ("object.feature_size", "-1e-6"),
            ("grids.n_a", "1"),
            ("grids.n_b", "0"),
            ("grids.span_a", "-1e-3"),
            ("grids.span_b", "0"),
            ("grids.n_source", "15"),
            ("grids.n_source", "0"),
            ("grids.n_object", "-16"),
            ("grids.n_object", "0"),
            ("grids.source_span", "0"),
            ("grids.guard_factor", "0.5"),
            ("run.seed", "-1"),
            ("run.n_realizations", "0"),
            ("run.n_batches", "-2"),
            ("run.threads", "0"),
            ("budget.n_tot", "1"),  # in the refocus demo's analytic mode
            ("budget.delta", "-1e-6"),
        ],
    )
    def test_range_rules_hold_in_every_mode(self, demo, key, bad):
        kept = [l for l in DEMOS[demo].splitlines() if not l.startswith(f"{key} =")]
        with pytest.raises(ValidationError) as err:
            parse_config("\n".join(kept) + f"\n{key} = {bad}\n")
        assert any(p.startswith(f"{key}:") for p in err.value.problems)

    def test_demo_configs_parse(self):
        for name, text in DEMOS.items():
            cfg = parse_config(text)
            assert cfg.mode in ("analytic", "montecarlo", "budget")


class TestRunExperiment:
    def test_budget_mode_emits_both_curves(self, tmp_path):
        manifest = run_experiment(parse_config(DEMOS["budget"]), out_dir=tmp_path)
        rows = (tmp_path / "budget.csv").read_text().splitlines()
        data = [r.split(",") for r in rows if r and not r.startswith("#")][1:]
        plen = {(int(x), int(u)) for s, x, u in data if s == "plenoptic"}
        cpi = {(int(x), int(u)) for s, x, u in data if s == "cpi"}
        assert (10, 5) in plen and (10, 40) in cpi
        assert all(x * u == 50 for x, u in plen)
        assert all(x + u == 50 for x, u in cpi)
        assert (tmp_path / "budget_continuous.csv").exists()
        assert manifest.results["n_pairs_cpi"] == 49

    def test_override_fails_like_the_file_value_and_writes_nothing(self, tmp_path):
        with pytest.raises(ValidationError) as from_file:
            parse_config(DEMOS["budget"] + "run.threads = 0\n")
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as from_override:
            run_experiment(parse_config(DEMOS["budget"]), out_dir=out, threads=0)
        assert str(from_override.value) == str(from_file.value)
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"threads": 2.5}, "run.threads: expected a int, got 2.5"),
            ({"seed": True}, "run.seed: expected a int, got True"),
            ({"seed": "3"}, "run.seed: expected a int, got '3'"),
        ],
        ids=["float_threads", "bool_seed", "str_seed"],
    )
    def test_mistyped_override_fails_and_writes_nothing(self, tmp_path, override, message):
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as exc:
            run_experiment(parse_config(DEMOS["budget"]), out_dir=out, **override)
        assert str(exc.value) == message
        assert not out.exists()

    def test_overrides_reach_the_manifest(self, tmp_path):
        run_experiment(parse_config(DEMOS["budget"]), out_dir=tmp_path, seed=5, threads=2)
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert (config["run.seed"], config["run.threads"]) == (5, 2)
        assert config["run.out_dir"] == str(tmp_path)  # the directory written

    def test_montecarlo_mode_is_seed_deterministic(self, tmp_path):
        text = DEMOS["montecarlo"].replace(
            "run.n_realizations = 2000", "run.n_realizations = 200"
        )
        cfg = parse_config(text)
        m1 = run_experiment(cfg, out_dir=tmp_path / "r1", seed=7)
        m2 = run_experiment(cfg, out_dir=tmp_path / "r2", seed=7)
        d1 = {f["name"]: f["sha256"] for f in m1.files}
        d2 = {f["name"]: f["sha256"] for f in m2.files}
        assert d1 == d2
        assert "gamma_mc.csv" in d1 and "convergence.json" in d1

    def test_manifest_lists_every_file_with_matching_digest(self, tmp_path):
        cfg = parse_config(MINIMAL + "grids.n_a = 32\ngrids.n_b = 16\n"
                           "grids.span_a = 150e-6\ngrids.span_b = 400e-6\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        emitted = {p.name for p in tmp_path.iterdir()}
        assert emitted == {f["name"] for f in manifest.files} | {"manifest.json"}
        for entry in manifest.files:
            digest = hashlib.sha256((tmp_path / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_file_formats(self, tmp_path):
        cfg = parse_config(MINIMAL + "grids.n_a = 32\ngrids.n_b = 16\n"
                           "grids.span_a = 150e-6\ngrids.span_b = 400e-6\n")
        run_experiment(cfg, out_dir=tmp_path)
        # CSV: LF endings, '#' metadata comments, one header row
        raw = (tmp_path / "ghost.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("axis" in c for c in comments)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "rho_m,value"
        # every data field is a plain decimal that round-trips through float
        for row in lines[lines.index(header) + 1:]:
            for cell in row.split(","):
                if cell:
                    assert float(cell) == float(repr(float(cell)))
        # PGM: binary P5, 16-bit big-endian
        pgm = (tmp_path / "gamma.pgm").read_bytes()
        assert pgm.startswith(b"P5\n")
        dims = pgm.split(b"\n", 3)
        assert dims[2] == b"65535"
        w, h = map(int, dims[1].split())
        assert (w, h) == (16, 32)
        payload = pgm.split(b"\n", 3)[3]
        assert len(payload) == w * h * 2
        top = np.frombuffer(payload, dtype=">u2").max()
        assert top == 65535
        # JSON: sorted keys
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert list(man) == sorted(man)
        scale_entries = [f for f in man["files"] if f["name"].endswith(".pgm")]
        assert all("pgm_min" in f and "pgm_max" in f for f in scale_entries)

    def test_refocus_demo_reports_refocusing_gain(self, tmp_path):
        manifest = run_experiment(parse_config(DEMOS["refocus"]), out_dir=tmp_path)
        assert manifest.results["ghost_contrast"] < 0.3
        assert manifest.results["refocused_contrast"] > 0.8

    def test_sampled_object_loaded_from_csv(self, tmp_path):
        cfg = parse_config(
            _sampled_config(tmp_path, extra="object.feature_size = 60e-6\n")
            + "grids.n_a = 24\ngrids.n_b = 12\n"
        )
        mask = cfg.build_mask()
        assert mask.kind == "sampled"
        assert mask.feature_size == 60e-6
        manifest = run_experiment(cfg, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "gamma.csv").exists()
        assert manifest.results["psf_width_incoherent_m"] > 0.0

    def test_geometric_mode_outputs(self, tmp_path):
        cfg = parse_config(
            MINIMAL.replace("run.mode = analytic", "run.mode = geometric")
            + "grids.n_a = 32\ngrids.n_b = 16\n"
        )
        manifest = run_experiment(cfg, out_dir=tmp_path)
        names = {f["name"] for f in manifest.files}
        assert {"geometric.csv", "geometric.pgm"} <= names

    def test_refocus_mode_outputs(self, tmp_path):
        cfg = parse_config(
            DEMOS["refocus"].replace("run.mode = analytic", "run.mode = refocus")
        )
        manifest = run_experiment(cfg, out_dir=tmp_path)
        names = {f["name"] for f in manifest.files}
        assert {"refocused_grid.csv", "refocused_grid.pgm", "refocused.csv"} <= names
        assert manifest.results["refocused_contrast"] > 0.8
        # masked samples serialize as empty value fields
        rows = (tmp_path / "refocused_grid.csv").read_text().splitlines()
        assert any(r.endswith(",") for r in rows)

    def test_single_slit_reports_no_two_sided_peaks(self, tmp_path):
        cfg = parse_config(
            DEMOS["refocus"]
            .replace("object.kind = double_slit", "object.kind = single_slit")
            .replace("object.separation = 600e-6\n", "")
        )
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert not any("peak" in key for key in manifest.results)
        double = run_experiment(parse_config(DEMOS["refocus"]), out_dir=tmp_path / "double")
        assert {"ghost_peak_neg_m", "refocused_peak_pos_m"} <= set(double.results)

    def test_sampled_mask_reports_no_two_sided_peaks(self, tmp_path):
        manifest = run_experiment(
            parse_config(_sampled_config(tmp_path) + "grids.n_a = 24\ngrids.n_b = 12\n"),
            out_dir=tmp_path / "out",
        )
        assert not any("peak" in key for key in manifest.results)

    def test_axis_too_narrow_for_contrast_still_writes_manifest(self, tmp_path):
        # no rho_a sample reaches separation/4 = 37.5 um, so neither image can
        # measure slit contrast; the run still finishes and says so by omission
        path = tmp_path / "narrow.cfg"
        path.write_text(
            DEMOS["montecarlo"]
            .replace("run.mode = montecarlo", "run.mode = analytic")
            .replace("grids.span_a = 200e-6", "grids.span_a = 30e-6")
        )
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert not any(key.endswith("_contrast") for key in results)
        assert {"ghost_peak_pos_m", "refocused_peak_pos_m"} <= set(results)

    def test_auto_sizing_covers_a_configured_source_span(self, tmp_path):
        # absent n_source/n_object are sized for the 1.5e-2 m half-width
        # that is integrated, not for the default 5 sigma = 2.5e-3 m, so the
        # run passes its own guard
        analytic = DEMOS["montecarlo"].replace("run.mode = montecarlo", "run.mode = analytic")
        cfg = parse_config(analytic + "grids.source_span = 1.5e-2\n")
        quad = cfg.build_quadrature()
        default = parse_config(analytic).build_quadrature()
        assert quad.source_span == 1.5e-2
        assert quad.n_source > 5 * default.n_source
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert "gamma.csv" in {f["name"] for f in manifest.files}

    def test_refocus_mode_resamples_once(self, tmp_path, monkeypatch):
        cfg = parse_config(
            DEMOS["refocus"].replace("run.mode = analytic", "run.mode = refocus")
        )
        calls = []
        original = cpi_sim.refocus.refocus_grid

        def counted(grid, spec):
            calls.append(spec)
            return original(grid, spec)

        monkeypatch.setattr(cpi_sim.refocus, "refocus_grid", counted)
        monkeypatch.setattr(cpi_sim.runner, "refocus_grid", counted)
        run_experiment(cfg, out_dir=tmp_path / "run")
        assert len(calls) == 1
        monkeypatch.undo()

        # the runner's image equals the public refocused_image of its grid
        axis_a, axis_b = cfg.build_axes()
        grid = gamma_quadrature(
            cfg.build_geometry(), cfg.build_source(), cfg.build_mask(),
            axis_a, axis_b, cfg.build_quadrature(),
        )
        write_image_csv(tmp_path / "expected.csv", refocused_image(grid, RefocusSpec()))
        assert (tmp_path / "run" / "refocused.csv").read_bytes() == (
            tmp_path / "expected.csv"
        ).read_bytes()

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo", "refocus", "geometric"])
    def test_sampled_mask_is_read_once_per_run(self, tmp_path, monkeypatch, mode):
        cfg = parse_config(
            _sampled_config(tmp_path, mode)
            + "grids.n_a = 24\ngrids.n_b = 12\nrun.n_realizations = 100\n"
        )
        calls = []
        original = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        run_experiment(cfg, out_dir=tmp_path / "out")
        assert len(calls) == 1

    def test_montecarlo_is_judged_against_the_resolved_reference(self, tmp_path):
        cfg = parse_config(
            DEMOS["montecarlo"].replace("run.n_realizations = 2000", "run.n_realizations = 200")
        )
        manifest = run_experiment(cfg, out_dir=tmp_path / "run")
        stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stage_seconds"]
        assert {"reference_quadrature", "estimate_gamma"} <= set(stages)
        assert set(stages) == set(manifest.stage_seconds)

        exp = cfg.resolve()
        reference = gamma_quadrature(
            exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad
        )
        axis_s, n_object = default_sampling(
            exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b
        )
        run = SpeckleRun(
            seed=cfg.get("run.seed"), n_realizations=200, axis_s=axis_s,
            axis_a=exp.axis_a, axis_b=exp.axis_b, n_object=n_object,
            n_batches=cfg.get("run.n_batches"),
        )
        _, report = estimate_gamma(run, exp.geom, exp.source, exp.mask, reference)
        write_json(tmp_path / "expected.json", report.to_dict())
        assert (tmp_path / "run" / "convergence.json").read_bytes() == (
            tmp_path / "expected.json"
        ).read_bytes()


class TestResolvedQuadrature:
    def test_narrow_double_slit_converges_under_node_doubling(self):
        # 30 um slits 50 um apart: with the slit edges read as opaque, the
        # auto quadrature converged at first order and doubling moved the
        # surface by ~6e-3 of its peak
        cfg = parse_config(
            MINIMAL.replace("object.slit_width = 50e-6", "object.slit_width = 30e-6")
            .replace("object.separation = 150e-6", "object.separation = 50e-6")
        )
        exp = cfg.resolve()
        base, doubled = (
            gamma_quadrature(
                exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b,
                QuadratureSpec(
                    n_source=k * exp.quad.n_source,
                    n_object=k * exp.quad.n_object,
                    source_span=exp.quad.source_span,
                ),
            )
            for k in (1, 2)
        )
        assert normalized_linf(base.values, doubled.values) < 1e-3


    def test_source_span_is_the_one_integrated(self):
        # a top hat is integrated over exactly its support, so a wider
        # grids.source_span changes neither the nodes nor the recorded span
        exp = parse_config(DEMOS["refocus"] + "grids.source_span = 5e-3\n").resolve()
        nodes = source_quadrature(exp.source, exp.quad.n_source, exp.quad.source_span)[0]
        assert exp.quad.source_span == nodes.max() == 2.4e-3
        assert exp.quad == parse_config(DEMOS["refocus"]).resolve().quad


class TestCli:
    def test_run_and_validate(self, tmp_path, capsys):
        path = tmp_path / "budget.cfg"
        path.write_text(DEMOS["budget"])
        assert cli_main(["validate", str(path)]) == 0
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_demo_prints_parseable_config(self, capsys):
        assert cli_main(["demo", "budget"]) == 0
        out = capsys.readouterr().out
        assert parse_config(out).mode == "budget"

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace("geometry.z_a = 0.1", "geometry.z_a = -0.1"))
        assert cli_main(["run", str(path)]) == 2
        assert cli_main(["validate", str(path)]) == 2

    def test_numerical_error_exit_code(self, tmp_path):
        path = tmp_path / "coarse.cfg"
        path.write_text(MINIMAL + "grids.n_source = 16\ngrids.n_object = 16\n")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_guard_reads_integrated_nodes_exit_code(self, tmp_path, capsys):
        # a top hat places its nodes over its whole width, so a tiny declared
        # source_span must not pass the object-step guard (2.13 rad per step)
        path = tmp_path / "aliased.cfg"
        path.write_text(
            DEMOS["refocus"]
            + "grids.n_source = 2000\ngrids.n_object = 170\ngrids.source_span = 1e-7\n"
        )
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3
        assert "2.13 rad" in capsys.readouterr().err
        assert not out.exists()  # the failed run leaves no empty directory

    def test_auto_sized_run_passes_its_own_guard_at_guard_factor_1(self, tmp_path, capsys):
        # 2 span / limit is exactly 80 here: ceil + 1 = 81 nodes put the
        # nominal step on the limit, and one rounded gap exceeded it, so
        # validate printed OK and run exited 3 ("source step 6.250e-05 m
        # advances the phase by 1.57 rad > pi/2")
        path = tmp_path / "round.cfg"
        path.write_text(
            DEMOS["montecarlo"]
            .replace("run.mode = montecarlo", "run.mode = analytic")
            .replace("grids.span_a = 200e-6", "grids.span_a = 100e-6")
            + "grids.guard_factor = 1\n"
        )
        assert cli_main(["validate", str(path)]) == 0
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["results"]

    @pytest.mark.parametrize(
        "settings, field",
        [
            ("run.n_batches = 1\n", "run.n_batches"),
            ("run.n_realizations = 50\n", "run.n_realizations"),
            ("run.n_realizations = 120\nrun.n_batches = 121\n", "run.n_batches"),
            # a batch of one realization would divide its co-moment by n - 1 = 0
            ("run.n_realizations = 120\nrun.n_batches = 61\n", "run.n_batches"),
            ("run.n_realizations = 120\nrun.n_batches = 60\n", None),  # two a batch: runs
        ],
        ids=["one_batch", "few_realizations", "more_batches_than_realizations",
             "a_batch_of_one", "two_realizations_a_batch"],
    )
    def test_montecarlo_run_settings_fail_fast(self, tmp_path, capsys, settings, field):
        path = tmp_path / "mc.cfg"
        path.write_text(
            DEMOS["montecarlo"].replace("run.n_realizations = 2000\n", "") + settings
        )
        out = tmp_path / "out"
        if field is None:
            assert cli_main(["run", str(path), "--out", str(out)]) == 0
            results = json.loads((out / "manifest.json").read_text())["results"]
            assert all(np.isfinite(results[k]) and results[k] > 0 for k in ("l1", "se_l1"))
            return
        assert cli_main(["validate", str(path)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_relative_object_file_is_read_next_to_the_config(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfgdir"
        cfg_dir.mkdir()
        text = _sampled_config(cfg_dir, "refocus", extra="object.feature_size = 60e-6\n")
        path = cfg_dir / "s.cfg"
        path.write_text(text.replace(str(cfg_dir / "mask.csv"), "mask.csv"))
        assert "object.file = mask.csv\n" in path.read_text()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli_main(["validate", str(path)]) == 0
        assert cli_main(["run", str(path), "--out", "out"]) == 0
        manifest = json.loads((elsewhere / "out" / "manifest.json").read_text())
        assert manifest["config"]["object.file"] == str(cfg_dir / "mask.csv")

    @pytest.mark.parametrize(
        "rows",
        [
            "-1e-3\n0\n1e-3\n",
            "0,1\n",
            "-1e-3,0\n1e-3,1\n0,0\n",
            "-1e-3,0\n0,2\n1e-3,0\n",
            "-1e-3,0\n0,one\n1e-3,0\n",
            "-1e-3,0\n0,nan\n1e-3,0\n",
        ],
        ids=["one_column", "one_row", "non_increasing_coords", "modulus_above_one",
             "non_numeric_field", "nan_field"],
    )
    def test_sampled_mask_file_needs_two_rows_and_two_columns(self, tmp_path, capsys, rows):
        (tmp_path / "mask.csv").write_text(rows)
        path = tmp_path / "sampled.cfg"
        path.write_text(
            DEMOS["refocus"].replace(
                "object.kind = double_slit\nobject.slit_width = 200e-6\n"
                "object.separation = 600e-6\n",
                "object.kind = sampled\nobject.file = mask.csv\n",
            )
        )
        out = tmp_path / "out"
        assert cli_main(["validate", str(path)]) == 2
        assert "config error: object.file:" in capsys.readouterr().err
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert "config error: object.file:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "span_a, message",
        [
            (None, "arithmetic failed"),
            ("1e308", "axis step must be positive, got inf"),
            ("1e307", "phase rate gamma_s, arm_a, cell overflows"),
        ],
        ids=["value_error_after_resolve", "overflowing_span_a", "overflowing_phase_rate"],
    )
    def test_failed_computation_is_a_numerical_error(
        self, tmp_path, capsys, monkeypatch, span_a, message
    ):
        text = DEMOS["refocus"]
        if span_a is None:
            def ghost_image(*args, **kwargs):
                raise ValueError("arithmetic failed")

            monkeypatch.setattr(cpi_sim.runner, "ghost_image", ghost_image)
        else:  # passes every range rule, but at 1e308 the axis step overflows to
            # inf, and at 1e307 phase.rates finds the rates that overflow
            text = text.replace("grids.span_a = 1.75e-3", f"grids.span_a = {span_a}")
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3
        assert f"numerical error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate exits 3 with a message, not a traceback
        def run_experiment(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.4 GiB")

        monkeypatch.setattr(cpi_sim.cli, "run_experiment", run_experiment)
        path = tmp_path / "run.cfg"
        path.write_text(DEMOS["refocus"])
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "numerical error: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("analytic", "quadrature needs 1.48 GiB (1537691 source nodes, 916 object nodes"),
            ("refocus", "quadrature needs 1.48 GiB (1537691 source nodes"),
            # a 600001-cell phasor row is more than the 4 MiB block budget,
            # so sampling counts a block of one row, not one 50-row batch
            ("montecarlo", "Monte Carlo run needs 2.03 GiB (600001 source nodes, 458 object"),
            ("geometric", None),  # builds no propagator, so any span fits
        ],
        ids=["analytic", "refocus", "montecarlo", "geometric"],
    )
    def test_oversized_run_fails_before_allocating(
        self, tmp_path, capsys, monkeypatch, mode, message
    ):
        # grids.span_a = 1 on the refocus demo resolves to 1537691 source
        # nodes: T alone would be 1.6 GB, and validate used to print OK; a
        # fixed 1 GiB limit keeps the case independent of the host's memory
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", 2**30)
        path = tmp_path / "run.cfg"
        path.write_text(
            DEMOS["refocus"]
            .replace("grids.span_a = 1.75e-3", "grids.span_a = 1")
            .replace("run.mode = analytic", f"run.mode = {mode}")
        )
        out = tmp_path / "out"
        if message is None:
            assert cli_main(["validate", str(path)]) == 0
            return
        assert cli_main(["validate", str(path)]) == 3
        assert f"numerical error: {message}" in capsys.readouterr().err
        assert cli_main(["run", str(path), "--out", str(out)]) == 3
        assert "above the 1 GiB working-set limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["analytic", "refocus", "montecarlo", "geometric"])
    def test_sizing_a_huge_span_allocates_nothing(self, tmp_path, capsys, monkeypatch, mode):
        # grids.span_a = 1e3 sizes about 1.5e9 source nodes: building them
        # to measure their gaps would take tens of GB before
        # check_working_set could refuse the run, and geometric mode, which
        # integrates nothing, would not validate at all
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", 2**30)
        text = (
            DEMOS["refocus"]
            .replace("grids.span_a = 1.75e-3", "grids.span_a = 1e3")
            .replace("run.mode = analytic", f"run.mode = {mode}")
        )
        tracemalloc.start()
        try:
            if mode == "geometric":
                assert parse_config(text).resolve().quad.n_source > 10**9
            else:
                with pytest.raises(ResourceLimit, match="above the 1 GiB working-set limit"):
                    parse_config(text).resolve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == (0 if mode == "geometric" else 3)
        if mode != "geometric":
            assert "working-set limit" in capsys.readouterr().err

    def test_oversized_geometric_grid_fails_before_allocating(
        self, tmp_path, capsys, monkeypatch
    ):
        # geometric mode builds no propagator, but its n_a x n_b grid alone
        # needs 1.49e4 GiB at 16 bytes a point, and validate used to print OK;
        # a fixed 1 GiB limit keeps the case independent of the host
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", 2**30)
        text = (BENCH_CONFIGS / "geometric-wide.cfg").read_text(encoding="utf-8")
        path = tmp_path / "run.cfg"
        path.write_text(
            text.replace("grids.n_a = 512", "grids.n_a = 1000000")
            .replace("grids.n_b = 256", "grids.n_b = 1000000")
        )
        assert cli_main(["validate", str(path)]) == 3
        assert (
            "numerical error: correlation grid needs 1.49e+04 GiB (0 source nodes, "
            "0 object nodes, n_a = 1000000, n_b = 1000000)"
        ) in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    def test_oversized_budget_fails_before_allocating(self, tmp_path, capsys, monkeypatch):
        # the curves and their CSV hold about 245 bytes a pixel of n_tot, so a
        # 1 MiB limit admits n_tot = 4096 at 256 bytes a pixel and no more;
        # validate used to print OK for any n_tot
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", 2**20)

        def budget(n_tot):
            return DEMOS["budget"].replace("budget.n_tot = 50", f"budget.n_tot = {n_tot}")

        assert parse_config(budget(4096)).resolve() is None
        with pytest.raises(ResourceLimit, match=r"pixel budget needs .* \(n_tot = 4097\)"):
            parse_config(budget(4097)).resolve()
        path = tmp_path / "budget.cfg"
        path.write_text(budget(1000000))
        assert cli_main(["validate", str(path)]) == 3
        assert (
            "numerical error: pixel budget needs 0.238 GiB (n_tot = 1000000), above the "
            "0.000977 GiB working-set limit"
        ) in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    def test_working_set_estimate_is_pinned_at_the_limit(self, monkeypatch):
        # the half products CW, SW (2 x 2190 rows of n_b = 64) and the
        # output grid (160 x 64) twice, 16 bytes each; the object sum's
        # column tables, 8 bytes each, for all four parity blocks: 2 planes
        # x 458 mirror pairs of object nodes x 4 x 32 pixels of the
        # eps_b >= 0 half; one object half-products block, 8 bytes an
        # entry: 2**20 entries at 6 x 458 + 8 x 32 = 3004 a row (less three
        # anchor entries per column of the 458 mirror pairs) give 348 rows,
        # rounded down to 329, a multiple of the anchor spacing
        # ceil(sqrt(2190)) = 47 of the ceil(4379 / 2) = 2190 source rows;
        # the block holds the two planes (2 x 329 rows of 458), the complex
        # offset table and product buffer (4 x 47 rows), the complex anchor
        # row and its angles (3 rows) and the part products (2 x 329 rows
        # of 4 x 32). Gamma's source-side block (2115 rows of the 80 pixels
        # of the eps_a >= 0 half, 374160 entries) and the column tables'
        # block (32 rows of 458, 41678 entries) are smaller. In all
        # 9.09 MiB, where tracemalloc puts the peak of gamma_quadrature at
        # 8.15 MiB.
        config = parse_config(DEMOS["refocus"])
        block = 458 * (2 * 329 + 4 * 47 + 3) + 2 * 329 * 4 * 32
        assert cpi_sim.phase.plane_block(2190, 80, 0, 4 * 64)[3] == 374160 < block
        assert cpi_sim.phase.plane_block(32, 458, 0, 0)[3] == 41678 < block
        need = 16 * (2 * 2190 * 64 + 2 * 160 * 64) + 8 * 2 * 458 * 4 * 32 + 8 * block
        assert need == 9535312
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", need)
        assert config.resolve().quad.n_source == 4379
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", need - 1)
        with pytest.raises(ResourceLimit, match="quadrature needs"):
            config.resolve()

    def test_monte_carlo_estimate_is_pinned_at_the_limit(self, monkeypatch):
        # the arm-a kernel K_a (1352 cells x n_a), the half products CW, SW
        # (2 x 676 rows of n_b), in whose buffer K_b is assembled, and the
        # grid twice, 16 bytes each; the column tables of the object sum
        # (2 planes x 33 mirror pairs of the 66 object nodes x 4 x 32
        # pixels of the eps_b >= 0 half), 8 bytes each; one object
        # half-products block, 8 bytes an entry: 2**20 entries allow
        # (2**20 - 3 x 33) // (6 x 33 + 8 x 32) = 2309 rows, so the block is
        # all ceil(1352 / 2) = 676 rows of the half, anchored every
        # ceil(sqrt(676)) = 26: two planes (2 x 676 rows of the 33 mirror
        # pairs), the complex offset table and product buffer (4 x 26
        # rows), the complex anchor row and its angles (3 rows) and the
        # part products (2 x 676 rows of 4 x 32);
        # then sampling: per thread one propagation block of 4 MiB // (16 x
        # 1352) = 193 rows, each 8 x 169 bytes of padded indices, 16 x 1352
        # of phasors and 32 x (64 + 64) of propagated rows, plus a 16-row
        # intp slice of 8 x 1352 bytes a row; and two 8-byte n_a x n_b
        # grids per batch
        config = parse_config(DEMOS["montecarlo"])
        block = 33 * (2 * 676 + 4 * 26 + 3) + 2 * 676 * 4 * 32
        kernels = (
            16 * (1352 * 64 + 2 * 676 * 64 + 2 * 64 * 64) + 8 * 2 * 33 * 4 * 32 + 8 * block
        )
        sampling = 193 * (8 * 169 + 16 * 1352 + 32 * 128) + 16 * 8 * 1352
        need = kernels + sampling + 2 * 8 * 64 * 64 * 20
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", need)
        speckle = config.resolve().speckle
        assert (speckle.axis_s.n, speckle.n_object, speckle.n_batches) == (1352, 65, 20)
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", need - 1)
        with pytest.raises(ResourceLimit, match="Monte Carlo run needs"):
            config.resolve()
        # a second thread holds a second block
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", need + sampling)
        config.updated({"run.threads": 2}).resolve()
        monkeypatch.setattr(cpi_sim.correlator, "MAX_WORKING_SET", need + sampling - 1)
        with pytest.raises(ResourceLimit, match="Monte Carlo run needs"):
            config.updated({"run.threads": 2}).resolve()

    def test_limit_is_the_hosts_memory(self):
        # a convergence-study run over 1 GiB that fits the host resolves; one
        # no host can hold (954 GiB) fails in resolve()
        pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert cpi_sim.correlator.MAX_WORKING_SET == cpi_sim.correlator._memory_limit() <= pages
        # one object half-products block: 348 rows (see the pinned estimate
        # above), anchored every 348 rows too, since ceil(sqrt(600000)) = 775
        # is more
        block = 458 * (2 * 348 + 4 * 348 + 3) + 2 * 348 * 4 * 32
        need = 16 * (2 * 600_000 * 64 + 2 * 160 * 64) + 8 * 2 * 458 * 4 * 32 + 8 * block
        assert need > 2**30
        if need > cpi_sim.correlator.MAX_WORKING_SET:
            limit = cpi_sim.correlator.MAX_WORKING_SET
            pytest.skip(f"the run needs {need} bytes, the limit here is {limit}")
        config = parse_config(DEMOS["refocus"] + "grids.n_source = 1200000\n")
        assert config.resolve().quad.n_source == 1_200_000
        config = parse_config(DEMOS["refocus"] + "grids.n_source = 1000000000\n")
        with pytest.raises(ResourceLimit, match="quadrature needs 954 GiB"):
            config.resolve()

    @pytest.mark.parametrize(
        "text, limit",
        [("1073741824\n", 2**30), ("max\n", None), (None, None), ("", None)],
        ids=["cgroup_limit", "cgroup_max", "no_file", "empty_file"],
    )
    def test_limit_reads_the_cgroup_memory_max(self, tmp_path, monkeypatch, text, limit):
        # the smaller of physical memory and a cgroup v2 memory.max in
        # bytes; "max", an unreadable or a missing file leave physical memory
        pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        path = tmp_path / "memory.max"
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(cpi_sim.correlator, "_CGROUP_MEMORY_MAX", path)
        expected = pages if limit is None else min(pages, limit)
        assert cpi_sim.correlator._memory_limit() == expected
        path.write_text(f"{2 * pages}\n")  # a limit above the host's memory
        assert cpi_sim.correlator._memory_limit() == pages

    def test_error_bases_are_exported(self):
        from cpi_sim import ComputationError, ConfigError

        assert ConfigError is cpi_sim.errors.ConfigError
        assert ComputationError is cpi_sim.errors.ComputationError

    @pytest.mark.parametrize("S_i", ["0", "-1"])
    def test_nonpositive_image_distance_exits_2(self, tmp_path, capsys, S_i):
        path = tmp_path / "run.cfg"
        path.write_text(DEMOS["refocus"].replace("geometry.F = 0.05", f"geometry.S_i = {S_i}"))
        out = tmp_path / "out"
        for args in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(args) == 2
            assert "config error: geometry.S_i: must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(DEMOS["budget"].encode() + b"# \xff\n")
        out = tmp_path / "out"
        assert cli_main(["validate", str(path)]) == 2
        assert "config error: config is not UTF-8 text:" in capsys.readouterr().err
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert "config error: config is not UTF-8 text:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cls",
        [
            c for c in vars(cpi_sim.errors).values()
            if isinstance(c, type) and issubclass(c, cpi_sim.errors.CpiSimError)
            and c not in BASE_EXIT and c is not cpi_sim.errors.CpiSimError
        ],
        ids=lambda c: c.__name__,
    )
    def test_error_class_alone_sets_the_exit_code(self, tmp_path, capsys, monkeypatch, cls):
        bases = [b for b in BASE_EXIT if issubclass(cls, b)]
        assert len(bases) == 1

        def run_experiment(*args, **kwargs):
            raise cls("failed")

        monkeypatch.setattr(cpi_sim.cli, "run_experiment", run_experiment)
        path = tmp_path / "run.cfg"
        path.write_text(DEMOS["budget"])
        assert cli_main(["run", str(path)]) == BASE_EXIT[bases[0]]
        assert "failed" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.cfg")]) == 4

    def test_env_var_out_dir_and_flag_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "budget.cfg"
        path.write_text(DEMOS["budget"])
        monkeypatch.setenv("CPI_SIM_OUT", str(tmp_path / "from_env"))
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "from_env" / "manifest.json").exists()
        assert cli_main(["run", str(path), "--out", str(tmp_path / "from_flag")]) == 0
        assert (tmp_path / "from_flag" / "manifest.json").exists()

    def test_threads_flag_reproduces_sequential(self, tmp_path):
        path = tmp_path / "mc.cfg"
        path.write_text(
            DEMOS["montecarlo"].replace("run.n_realizations = 2000", "run.n_realizations = 200")
        )
        assert cli_main(["run", str(path), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert cli_main(["run", str(path), "--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
        m1 = json.loads((tmp_path / "t1" / "manifest.json").read_text())
        m4 = json.loads((tmp_path / "t4" / "manifest.json").read_text())
        d1 = {f["name"]: f["sha256"] for f in m1["files"]}
        d4 = {f["name"]: f["sha256"] for f in m4["files"]}
        assert d1 == d4

    def test_negative_threads_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "budget.cfg"
        path.write_text(DEMOS["budget"])
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--threads", "-3"]) == 2
        assert "run.threads: must be positive, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "budget.cfg"
        path.write_text(DEMOS["budget"])
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed", "-1"]) == 2
        assert "run.seed: must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
    def test_seed_is_one_64_bit_key_word(self, tmp_path, capsys, seed, code):
        # the file and --seed meet one rule; 2**64 used to pass validate and
        # then fail the run with exit 3 after the reference quadrature
        text = DEMOS["montecarlo"].replace("run.n_realizations = 2000", "run.n_realizations = 200")
        in_file = tmp_path / "seed.cfg"
        in_file.write_text(text.replace("run.seed = 7", f"run.seed = {seed}"))
        plain = tmp_path / "plain.cfg"
        plain.write_text(text)
        calls = [
            ["validate", str(in_file)],
            ["run", str(in_file), "--out", str(tmp_path / "file")],
            ["run", str(plain), "--out", str(tmp_path / "flag"), "--seed", str(seed)],
        ]
        for argv in calls:
            assert cli_main(argv) == code, argv
            if code:
                err = capsys.readouterr().err
                assert f"run.seed: must be nonnegative and below 2**64, got {seed}" in err
        assert (tmp_path / "file").exists() == (tmp_path / "flag").exists() == (code == 0)
        if code == 0:
            for out in ("file", "flag"):
                manifest = json.loads((tmp_path / out / "manifest.json").read_text())
                assert manifest["config"]["run.seed"] == seed

    @pytest.mark.parametrize(
        "object_lines",
        [
            "object.kind = sampled\nobject.file = {mask}\n",
            "object.kind = double_slit\nobject.slit_width = 50e-6\n"
            "object.separation = 150e-6\nobject.feature_size = -1e-6\n",
        ],
        ids=["sampled_without_feature_size", "negative_feature_size"],
    )
    def test_budget_without_usable_feature_size_fails_fast(
        self, tmp_path, capsys, object_lines
    ):
        mask = tmp_path / "mask.csv"
        mask.write_text("-1e-4,0.0\n0.0,1.0\n1e-4,0.0\n")
        physics = "".join(
            l + "\n" for l in MINIMAL.splitlines() if l.startswith(("geometry.", "source."))
        )
        path = tmp_path / "budget.cfg"
        path.write_text(DEMOS["budget"] + physics + object_lines.format(mask=mask))
        out = tmp_path / "out"
        assert cli_main(["validate", str(path)]) == 2
        assert "object.feature_size:" in capsys.readouterr().err
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert "object.feature_size:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            (DEMOS["refocus"] + "grids.guard_factor = 0.9\n", "grids.guard_factor"),
            (DEMOS["refocus"] + "grids.guard_factor = inf\n", "grids.guard_factor"),
            (DEMOS["refocus"] + "grids.center_a = inf\n", "grids.center_a"),
            (DEMOS["refocus"] + "grids.center_a = nan\n", "grids.center_a"),
            (
                DEMOS["montecarlo"].replace("run.mode = montecarlo", "run.mode = analytic")
                + "grids.source_span = 1e-3\n",  # 2 sigma of a Gaussian source
                "grids.source_span",
            ),
            (
                DEMOS["budget"].replace("budget.delta = 10e-6", "budget.delta = -1e-6")
                + "".join(
                    l + "\n" for l in MINIMAL.splitlines()
                    if l.startswith(("geometry.", "source.", "object."))
                ),
                "budget.delta",
            ),
            (
                DEMOS["budget"]
                + "".join(
                    l + "\n" for l in MINIMAL.splitlines()
                    if l.startswith(("geometry.", "source.", "object."))
                )
                + "grids.source_span = 1e-4\n",  # 0.2 sigma of a Gaussian source
                "grids.source_span",
            ),
            (
                DEMOS["refocus"].replace("object.separation = 600e-6", "object.separation = 200e-6"),
                "object.separation",
            ),
        ],
        ids=["guard_factor_below_one", "infinite_guard_factor", "infinite_center",
             "nan_center", "gaussian_source_span_below_5_sigma", "budget_delta_with_physics",
             "budget_source_span_below_5_sigma", "separation_equal_to_slit_width"],
    )
    def test_values_the_run_would_reject_fail_validation(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.count(f"{field}:") == 1
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(f"{field}:") == 1
        assert not out.exists()
