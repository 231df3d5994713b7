"""Acceptance gate: every headline capability at its stated tolerance.

Each test prints one PASS line (visible with pytest -s or in the captured
output of a failing run). The reference configuration is the focused
double-slit setup of conftest; refocusing runs on the smooth-slit
configuration whose feature scale sits above the coherent blur
sqrt(lambda0 z_b |1 - alpha|), as the depth-of-field validity condition
requires.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from cpi_sim import (
    Axis,
    QuadratureSpec,
    RefocusSpec,
    SourceProfile,
    SpeckleRun,
    default_sampling,
    estimate_gamma,
    gamma_geometric,
    gamma_quadrature,
    ghost_image,
    make_geometry,
    ObjectMask,
    parse_config,
    psf_widths,
    refocus_grid,
    refocused_image,
    run_experiment,
    tradeoff_curve,
    DEMOS,
)
from cpi_sim.metrics import (
    normalized_l1,
    normalized_linf,
    slit_contrast,
    two_sided_peaks,
)
from conftest import SEPARATION, SIGMA, smooth_two_lobe_mask
from oracles import (
    coherent_psf,
    e2_full_width,
    fit_gaussian_width,
    float64_estimate,
    incoherent_psf,
    normalized_l2,
    scalar_rounding_bounds,
)


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"


def _read_run(out: Path, shape: tuple[int, int]) -> dict:
    """A montecarlo run's data files in ``out``: the gamma_mc.csv values
    as a grid of ``shape``, the gamma_mc.pgm levels, the minimum it was
    scaled from (read back from the manifest), and convergence.json."""
    lines = (out / "gamma_mc.csv").read_text(encoding="utf-8").splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]  # after the header
    pgm = (out / "gamma_mc.pgm").read_bytes()
    levels = np.frombuffer(pgm[-2 * shape[0] * shape[1] :], dtype=">u2")
    files = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    report = json.loads((out / "convergence.json").read_text(encoding="utf-8"))
    return {
        "grid": np.array(rows, dtype=float)[:, 2].reshape(shape),
        "pgm": levels.astype(float).reshape(shape),
        "pgm_min": next(f["pgm_min"] for f in files if f["name"] == "gamma_mc.pgm"),
        "report": report,
        "se": np.array(report["se_per_point"]),
    }


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


@pytest.mark.parametrize("name", ["montecarlo-focused", "montecarlo-defocused"])
def test_criterion_1_over_seeds_0_to_39(name):
    # Criterion 1 over many seeds, not only the tests' own: the Monte Carlo
    # estimate of each bench config, only read here, agrees with quadrature
    # within 3 x its error bar on every seed 0-39 (the tier-1 twin of CI's
    # seed sweep; about 9 s for both configs)
    cfg = parse_config((BENCH_CONFIGS / f"{name}.cfg").read_text(encoding="utf-8"))
    failed, worst = [], 0.0
    for seed in range(40):
        with tempfile.TemporaryDirectory() as out:
            r = run_experiment(cfg, out_dir=out, seed=seed).results
        worst = max(worst, r["l1"] / (3.0 * r["se_l1"]))
        if not r["l1"] < 3.0 * r["se_l1"]:
            failed.append(f"seed {seed}: l1 {r['l1']:.4g} >= 3 se_l1 {r['se_l1']:.4g}")
    assert failed == []
    _report(f"criterion 1 over seeds 0-39 ({name})", f"max l1 / (3 se_l1) = {worst:.3f}")


class TestAcceptance:
    def test_1_siegert_oracle_equivalence(self, geom_focused, source, slits, axis_a, axis_b, grid_focused):
        # Monte Carlo covariance vs quadrature on the same 64x64 grid,
        # n = 1e4 realizations, fixed seed; agreement within 3x its own
        # batch-means error, well under the runtime budget.
        axis_s, n_object = default_sampling(geom_focused, source, slits, axis_a, axis_b)
        run = SpeckleRun(
            seed=20240501, n_realizations=10_000, axis_s=axis_s,
            axis_a=axis_a, axis_b=axis_b, n_object=n_object,
        )
        start = time.perf_counter()
        _, report = estimate_gamma(run, geom_focused, source, slits, reference=grid_focused)
        elapsed = time.perf_counter() - start
        assert report.l1 < 3.0 * report.se_l1
        assert elapsed < 300.0
        _report(
            "criterion 1 (Monte Carlo vs quadrature)",
            f"L1 {report.l1:.4f} < 3 x SE {report.se_l1:.4f}, {elapsed:.1f} s",
        )

    def test_2_focused_ghost_image(self, geom_focused, source, grid_focused, axis_a, axis_b):
        img = ghost_image(grid_focused)
        left, right = two_sided_peaks(axis_a.coordinates, img.values)
        assert abs(left + SEPARATION / 2) <= axis_a.step
        assert abs(right - SEPARATION / 2) <= axis_a.step

        point = ObjectMask.single_slit(5e-6)
        ax_psf = Axis.from_half_width(64, 120e-6)
        quad = QuadratureSpec.auto(geom_focused, source, point, ax_psf, axis_b)
        grid = gamma_quadrature(geom_focused, source, point, ax_psf, axis_b, quad)
        _, width = fit_gaussian_width(ax_psf.coordinates, ghost_image(grid).values)
        budget_width = geom_focused.lambda0 * geom_focused.z_a / source.diameter
        ratio = e2_full_width(width) / budget_width
        assert 1 / 1.5 <= ratio <= 1.5
        _report(
            "criterion 2 (focused ghost image)",
            f"peaks {left * 1e6:+.1f}/{right * 1e6:+.1f} um, PSF/budget ratio {ratio:.2f}",
        )

    def test_3_refocusing(self, geom_focused, geom_defocused, grid_focused):
        source = SourceProfile.tophat(6.8e-3)
        lobes = smooth_two_lobe_mask(180e-6, 450e-6)
        out_axis = Axis.from_half_width(64, 1.1e-3)
        axis_b = Axis.from_half_width(64, 1.3e-3)
        shift = abs(1 - geom_defocused.z_a / geom_defocused.z_b) * axis_b.half_width / geom_defocused.M
        acq = Axis.from_half_width(
            137, (geom_defocused.z_a / geom_defocused.z_b) * out_axis.half_width + shift
        )
        quad = QuadratureSpec.auto(geom_defocused, source, lobes, acq, axis_b, guard_factor=2.0)
        grid_d = gamma_quadrature(geom_defocused, source, lobes, acq, axis_b, quad)
        quad_f = QuadratureSpec.auto(geom_focused, source, lobes, out_axis, axis_b, guard_factor=2.0)
        grid_f = gamma_quadrature(geom_focused, source, lobes, out_axis, axis_b, quad_f)

        unref = slit_contrast(acq.coordinates, ghost_image(grid_d).values, 225e-6)
        refocused = refocused_image(grid_d, RefocusSpec(output_axis=out_axis))
        ref = slit_contrast(out_axis.coordinates, refocused.values, 225e-6)
        l2 = normalized_l2(refocused.values, ghost_image(grid_f).values)
        assert unref < 0.3
        assert ref > 0.8
        assert l2 < 0.1

        identity = refocus_grid(grid_focused, RefocusSpec())
        np.testing.assert_array_equal(identity.values, grid_focused.values)
        _report(
            "criterion 3 (refocusing at alpha=0.8)",
            f"contrast {unref:+.3f} -> {ref:+.3f}, L2 to focused {l2:.4f}, "
            "identity refocus bitwise",
        )

    def test_4_geometric_optics_convergence(self, source, slits):
        axis_a = Axis.from_half_width(48, 250e-6)
        axis_b = Axis.from_half_width(48, 450e-6)
        distances = []
        for scale in (1, 4, 16):
            geom = make_geometry(
                z_a=0.1, z_b=0.08, S_o=0.2, F=0.05, lambda0=500e-9 / scale
            )
            quad = QuadratureSpec.auto(geom, source, slits, axis_a, axis_b, guard_factor=2.0)
            grid = gamma_quadrature(geom, source, slits, axis_a, axis_b, quad)
            geo = gamma_geometric(geom, source, slits, axis_a, axis_b)
            distances.append(normalized_l1(grid.values, geo.values))
        assert distances[0] > distances[1] > distances[2]
        _report(
            "criterion 4 (geometric-optics limit)",
            "L1 to asymptote " + " > ".join(f"{d:.3f}" for d in distances),
        )

    def test_5_psf_closed_forms(self, geom_defocused, source):
        # |coherent|^2 == incoherent to 1e-12
        rng = np.random.default_rng(12)
        rho_o = rng.uniform(-3e-4, 3e-4, 500)
        rho_a = rng.uniform(-3e-4, 3e-4, 500)
        np.testing.assert_allclose(
            np.abs(coherent_psf(geom_defocused, SIGMA, rho_o, rho_a)) ** 2,
            incoherent_psf(geom_defocused, SIGMA, rho_o, rho_a),
            rtol=1e-12,
        )

        # quadrature PSF of a narrow slit matches the closed-form width to 2%
        point = ObjectMask.single_slit(5e-6)
        axis_a = Axis.from_half_width(96, 350e-6)
        axis_b = Axis.from_half_width(48, 400e-6)
        quad = QuadratureSpec.auto(geom_defocused, source, point, axis_a, axis_b)
        grid = gamma_quadrature(geom_defocused, source, point, axis_a, axis_b, quad)
        _, w_fit = fit_gaussian_width(axis_a.coordinates, ghost_image(grid).values)
        w_closed = psf_widths(geom_defocused, SIGMA).width_incoherent / geom_defocused.alpha
        fit_err = abs(w_fit - w_closed) / w_closed
        assert fit_err < 0.02

        # incoherent width reaches the geometric value sigma |1 - alpha|
        geom_hi = make_geometry(z_a=0.1, z_b=0.08, S_o=0.2, F=0.05, lambda0=500e-9 / 30)
        assert geom_hi.omega0_over_c * SIGMA**2 / geom_hi.z_b > 1e3
        w_geo = psf_widths(geom_hi, SIGMA).width_incoherent
        target = SIGMA * abs(1 - geom_hi.alpha)
        assert abs(w_geo - target) / target < 0.02

        # coherent width scales like omega0^(-1/2) over two decades
        scales = np.logspace(0, 2, 9)
        widths = [
            psf_widths(
                make_geometry(z_a=0.1, z_b=0.08, S_o=0.2, F=0.05, lambda0=500e-9 / s),
                SIGMA,
            ).width_coherent
            for s in scales
        ]
        slope = np.polyfit(np.log(scales), np.log(widths), 1)[0]
        assert abs(slope + 0.5) < 0.05
        _report(
            "criterion 5 (PSF closed forms)",
            f"fit err {fit_err:.3%}, geometric width err "
            f"{abs(w_geo - target) / target:.2e}, coherent slope {slope:+.3f}",
        )

    def test_6_resolution_budget(self):
        plen = tradeoff_curve(50, "plenoptic")
        cpi = tradeoff_curve(50, "cpi")
        for n_x, n_u in plen.pairs:
            assert n_x * n_u == 50
        for n_x, n_u in cpi.pairs:
            assert n_x + n_u == 50
        assert plen.angular_for(10) == 5
        assert cpi.angular_for(10) == 40
        _report(
            "criterion 6 (pixel budget, N_tot=50)",
            f"N_u at N_x=10: plenoptic {plen.angular_for(10)}, split {cpi.angular_for(10)}",
        )

    def test_7_determinism(self, tmp_path):
        text = DEMOS["montecarlo"].replace(
            "run.n_realizations = 2000", "run.n_realizations = 400"
        )
        cfg = parse_config(text)
        m1 = run_experiment(cfg, out_dir=tmp_path / "a")
        m2 = run_experiment(cfg, out_dir=tmp_path / "b")
        d1 = {f["name"]: f["sha256"] for f in m1.files}
        d2 = {f["name"]: f["sha256"] for f in m2.files}
        assert d1 == d2  # bitwise, so Linf = 0 <= 1e-12
        _report(
            "criterion 7 (determinism)", f"{len(d1)} file digests identical across reruns"
        )

    def test_7_reproduces_across_blas_thread_counts(self, tmp_path):
        # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so
        # the montecarlo demo runs here and in two subprocesses: one with
        # this process's environment, one with OPENBLAS_NUM_THREADS=1. At
        # the same thread count every data file is byte-identical. Across
        # counts the GEMMs may sum in another order, so each value lies
        # within twice its first-order rounding bound (each run lies within
        # it of the float64 propagation of the same realizations)
        cfg = parse_config(DEMOS["montecarlo"])
        here = run_experiment(cfg, out_dir=tmp_path / "here")
        code = (
            "import sys; from cpi_sim import DEMOS, parse_config, run_experiment; "
            "run_experiment(parse_config(DEMOS['montecarlo']), out_dir=sys.argv[1])"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        for name, extra in (("same", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            env = {**os.environ, **extra, "PYTHONPATH": path}
            subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / name)], env=env, check=True, timeout=600
            )
        names = [f["name"] for f in here.files]
        assert names == ["gamma_mc.csv", "gamma_mc.pgm", "convergence.json"]
        for name in names:
            assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()

        exp = cfg.resolve()
        reference = gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad)
        raw, se, d_raw, d_se = float64_estimate(exp.speckle, exp.geom, exp.source, exp.mask)
        bounds = scalar_rounding_bounds(raw, se, d_raw, d_se, reference.values)
        one, mine = (_read_run(tmp_path / d, raw.shape) for d in ("one", "here"))
        assert np.all(np.abs(one["grid"] - mine["grid"]) <= 2 * d_raw)
        # both images span [0, peak]: a level moves by 65535 times the
        # normalized bound, and by one more where it rounds the other way
        assert one["pgm_min"] == mine["pgm_min"] == 0.0
        assert np.all(np.abs(one["pgm"] - mine["pgm"]) <= 2 * 65535 * bounds["normalized"] + 1)
        for key in ("l1", "linf", "se_l1"):
            assert abs(one["report"][key] - mine["report"][key]) <= 2 * bounds[key], key
        assert np.all(np.abs(one["se"] - mine["se"]) <= 2 * d_se)
        _report(
            "criterion 7 (determinism)",
            f"byte-identical at one BLAS thread count; l1 {mine['report']['l1']:.10g} here, "
            f"{one['report']['l1']:.10g} on one thread (bound {2 * bounds['l1']:.2g})",
        )

    def test_8_quadrature_convergence(self, geom_focused, source, slits, axis_a, axis_b, grid_focused):
        base = QuadratureSpec.auto(geom_focused, source, slits, axis_a, axis_b)
        doubled = QuadratureSpec(
            n_source=2 * base.n_source,
            n_object=2 * base.n_object,
            source_span=base.source_span,
        )
        fine = gamma_quadrature(geom_focused, source, slits, axis_a, axis_b, doubled)
        drift = normalized_linf(grid_focused.values, fine.values)
        assert drift < 1e-3
        _report(
            "criterion 8 (quadrature convergence)",
            f"node doubling moves the surface by {drift:.2e} (limit 1e-3)",
        )
