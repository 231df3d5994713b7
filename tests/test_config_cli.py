import hashlib
import json

import numpy as np
import pytest

import cpi_sim.refocus
import cpi_sim.runner
from cpi_sim import (
    DEMOS,
    ParseError,
    RefocusSpec,
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
from cpi_sim.runner import write_image_csv, write_json

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
            ("grids.n_object", "-16"),
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

    @pytest.mark.parametrize(
        "settings, field",
        [
            ("run.n_batches = 1\n", "run.n_batches"),
            ("run.n_realizations = 50\n", "run.n_realizations"),
            ("run.n_realizations = 120\nrun.n_batches = 121\n", "run.n_batches"),
        ],
        ids=["one_batch", "few_realizations", "more_batches_than_realizations"],
    )
    def test_montecarlo_run_settings_fail_fast(self, tmp_path, capsys, settings, field):
        path = tmp_path / "mc.cfg"
        path.write_text(
            DEMOS["montecarlo"].replace("run.n_realizations = 2000\n", "") + settings
        )
        out = tmp_path / "out"
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
        "span_a",
        [None, "1e308", "1e307"],
        ids=["value_error_after_resolve", "overflowing_span_a", "overflowing_phase_rate"],
    )
    def test_failed_computation_is_a_numerical_error(self, tmp_path, capsys, monkeypatch, span_a):
        text = DEMOS["refocus"]
        if span_a is None:
            def ghost_image(*args, **kwargs):
                raise ValueError("arithmetic failed")

            monkeypatch.setattr(cpi_sim.runner, "ghost_image", ghost_image)
        else:  # passes every range rule, but at 1e308 the axis step overflows to
            # inf, and at 1e307 the phase rate does, so the sizer divides by zero
            text = text.replace("grids.span_a = 1.75e-3", f"grids.span_a = {span_a}")
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3
        assert "numerical error:" in capsys.readouterr().err
        assert not out.exists()

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
