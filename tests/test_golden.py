"""Pinned headline scalars: runs must reproduce recorded values.

Digests only compare a run with another run of the same code; these values
were recorded once, so a kernel or estimator rewrite that drifts the physics
inside the acceptance tolerances still fails here. Each golden file states
its own tolerance and why it was chosen.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cpi_sim import DEMOS, gamma_quadrature, montecarlo, parse_config, run_experiment
from cpi_sim.metrics import normalized_l1, normalized_linf, peak_normalize
from oracles import (
    batch_estimate, batch_spans, float64_estimate, gamma_rounding_bound, scalar_rounding_bounds,
    two_pass_covariance,
)

GOLDEN = Path(__file__).parent / "golden"
MONTECARLO = json.loads((GOLDEN / "montecarlo.json").read_text(encoding="utf-8"))
REFOCUS = json.loads((GOLDEN / "refocus.json").read_text(encoding="utf-8"))
DEFOCUSED = json.loads((GOLDEN / "gaussian_defocused.json").read_text(encoding="utf-8"))
VARIANTS = json.loads((GOLDEN / "refocus_variants.json").read_text(encoding="utf-8"))


def _with_overrides(text: str, overrides: dict) -> str:
    """``text`` with each overridden key's line replaced by its new value."""
    lines = [l for l in text.splitlines() if l.partition("=")[0].strip() not in overrides]
    return "\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def _scalars(raw, se, reference) -> dict:
    """``ConvergenceReport``'s l1, linf and se_l1 of a signed estimate
    ``raw`` and its ``se`` against the ``reference`` surface."""
    peak = raw.max()
    return {
        "l1": normalized_l1(raw, reference),
        "linf": normalized_linf(raw, reference),
        "se_l1": float(np.sum(se / peak) / np.sum(peak_normalize(reference))),
    }


@pytest.mark.parametrize("n_batches", sorted(MONTECARLO["runs"], key=int))
def test_montecarlo_demo_scalars(tmp_path, monkeypatch, n_batches):
    # 2000 realizations: 20 batches (the default) fit one chunk each, 2
    # batches span four chunks each and so exercise the chunk merge. The
    # float64 propagation of the run's realizations holds the recorded
    # float64 values; the run's own values equal the two-pass fold of its
    # own complex64 intensities, both at rtol 1e-12, and lie within the
    # derived rounding bound of the float64 ones (the golden's rtol_note)
    rows, propagate = [], montecarlo._intensities

    def intensities(fields, kernel):  # records the rows the run folds
        rows.append(propagate(fields, kernel))
        return rows[-1]

    monkeypatch.setattr(montecarlo, "_intensities", intensities)
    text = DEMOS["montecarlo"] + f"run.n_batches = {n_batches}\n"
    manifest = run_experiment(parse_config(text), out_dir=tmp_path, seed=7)
    exp = parse_config(text).resolve()
    run = replace(exp.speckle, seed=7)
    reference = gamma_quadrature(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad)
    raw, se, d_raw, d_se = float64_estimate(run, exp.geom, exp.source, exp.mask)
    oracle = _scalars(raw, se, reference.values)
    i_a, i_b = np.concatenate(rows[0::2]), np.concatenate(rows[1::2])  # arm a, then b, a block
    assert len(i_a) == len(i_b) == run.n_realizations
    covs = [two_pass_covariance(i_a[lo:hi], i_b[lo:hi]) for lo, hi in batch_spans(run)]
    raw_run, se_run = batch_estimate(run, covs)
    folded = _scalars(raw_run, se_run, reference.values)
    bounds = scalar_rounding_bounds(raw, se, d_raw, d_se, reference.values)
    rtol = MONTECARLO["rtol"]
    # the scalars are peak-normalized: the written grid's peak pins the scale
    peak = next(f["pgm_max"] for f in manifest.files if f["name"] == "gamma_mc.pgm")
    assert peak == pytest.approx(raw_run.max(), rel=rtol, abs=0.0)
    assert abs(peak - raw.max()) <= d_raw.max()
    for key, expected in MONTECARLO["runs"][n_batches].items():
        assert oracle[key] == pytest.approx(expected, rel=rtol, abs=0.0), key
        got = manifest.results[key]
        assert got == pytest.approx(folded[key], rel=rtol, abs=0.0), key
        assert abs(got - oracle[key]) <= bounds[key], key


def test_refocus_demo_scalars(tmp_path):
    manifest = run_experiment(parse_config(DEMOS["refocus"]), out_dir=tmp_path)
    assert set(manifest.results) == set(REFOCUS["results"])
    for key, expected in REFOCUS["results"].items():
        assert manifest.results[key] == pytest.approx(expected, rel=REFOCUS["rtol"], abs=0.0), key


def test_defocused_gaussian_analytic_scalars(tmp_path):
    # the montecarlo demo's Gaussian source at alpha = 0.9: the quadrature
    # carries the defocus chirp, and the closed-form PSF widths are pinned
    text = _with_overrides(DEMOS["montecarlo"], DEFOCUSED["overrides"])
    manifest = run_experiment(parse_config(text), out_dir=tmp_path)
    assert set(manifest.results) == set(DEFOCUSED["results"])
    for key, expected in DEFOCUSED["results"].items():
        assert manifest.results[key] == pytest.approx(expected, rel=DEFOCUSED["rtol"], abs=0.0), key


def _refocus_variant(name: str, tmp_path: Path) -> str:
    """The refocus demo as the CI step "Installed console script" varies
    it, with a sampled mask's file written into ``tmp_path`` as CI writes
    it."""
    demo = DEMOS["refocus"]
    if name == "n-object-40000":
        return demo + "grids.n_object = 40000\n"
    if name == "moved-axes":
        return demo + "grids.center_a = 50e-6\ngrids.center_b = -100e-6\n"
    if name == "offcentre-mask":
        c = np.linspace(100e-6, 700e-6, 301)
        columns = np.c_[c, 0.5 + 0.4 * np.cos(c / 40e-6), 0.3 * np.sin(c / 60e-6)]
    else:  # "odd-mask"
        c = np.linspace(-300e-6, 300e-6, 301)
        g = 0.8 * np.sin(c / 50e-6) * np.exp(-((c / 200e-6) ** 2))
        columns = np.c_[c, 0.5 * (g - g[::-1])]
    path = tmp_path / f"{name}.csv"
    np.savetxt(path, columns, delimiter=",")
    slit_keys = ("object.slit_width", "object.separation")
    text = "\n".join(l for l in demo.splitlines() if not l.startswith(slit_keys))
    return _with_overrides(text, {"object.kind": "sampled", "object.file": path})


def _valley(path: Path) -> float:
    """The value of an image CSV at the pixel nearest rho = 0."""
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]  # after the header
    x, y = np.array(rows, dtype=float).T
    return float(y[np.argmin(np.abs(x))])


@pytest.mark.parametrize("name", list(VARIANTS["runs"]))
def test_refocus_ci_variant_scalars(tmp_path, name):
    # Gamma's peak is held to its rounding bound eps (a fraction of the
    # peak). Every image sample is a trapezoid integral over rho_b, with
    # weights summing to W = span_b, of Gamma or of its convex
    # interpolation, so it is off by at most delta = eps peak W. A slit
    # contrast C = (p - v) / (p + v) then moves by at most
    # 2 delta / (p + v) = delta (1 - C) / v, for its valley v at rho = 0.
    cfg = parse_config(_refocus_variant(name, tmp_path))
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    exp = cfg.resolve()
    expected = dict(VARIANTS["runs"][name])
    peak = next(f["pgm_max"] for f in manifest.files if f["name"] == "gamma.pgm")
    eps = gamma_rounding_bound(exp.geom, exp.source, exp.mask, exp.axis_a, exp.axis_b, exp.quad, peak)
    assert peak == pytest.approx(expected.pop("gamma_peak"), rel=eps, abs=0.0)
    delta = eps * peak * (exp.axis_b.n - 1) * exp.axis_b.step
    for key, c in expected.items():
        v = _valley(tmp_path / "out" / f"{key.split('_')[0]}.csv")
        assert manifest.results[key] == pytest.approx(c, rel=0.0, abs=delta * (1 - c) / v), key
