"""Pinned headline scalars: runs must reproduce recorded values.

Digests only compare a run with another run of the same code; these values
were recorded once, so a kernel or estimator rewrite that drifts the physics
inside the acceptance tolerances still fails here. Each golden file states
its own relative tolerance and why it was chosen.
"""

import json
from pathlib import Path

import pytest

from cpi_sim import DEMOS, parse_config, run_experiment

GOLDEN = Path(__file__).parent / "golden"
MONTECARLO = json.loads((GOLDEN / "montecarlo.json").read_text(encoding="utf-8"))
REFOCUS = json.loads((GOLDEN / "refocus.json").read_text(encoding="utf-8"))
DEFOCUSED = json.loads((GOLDEN / "gaussian_defocused.json").read_text(encoding="utf-8"))


def _with_overrides(text: str, overrides: dict) -> str:
    """``text`` with each overridden key's line replaced by its new value."""
    lines = [l for l in text.splitlines() if l.partition("=")[0].strip() not in overrides]
    return "\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


@pytest.mark.parametrize("n_batches", sorted(MONTECARLO["runs"], key=int))
def test_montecarlo_demo_scalars(tmp_path, n_batches):
    # 2000 realizations: 20 batches (the default) fit one chunk each, 2
    # batches span four chunks each and so exercise the chunk merge
    text = DEMOS["montecarlo"] + f"run.n_batches = {n_batches}\n"
    manifest = run_experiment(parse_config(text), out_dir=tmp_path, threads=1, seed=7)
    for key, expected in MONTECARLO["runs"][n_batches].items():
        assert manifest.results[key] == pytest.approx(expected, rel=MONTECARLO["rtol"], abs=0.0), key


def test_refocus_demo_scalars(tmp_path):
    manifest = run_experiment(parse_config(DEMOS["refocus"]), out_dir=tmp_path, threads=1)
    assert set(manifest.results) == set(REFOCUS["results"])
    for key, expected in REFOCUS["results"].items():
        assert manifest.results[key] == pytest.approx(expected, rel=REFOCUS["rtol"], abs=0.0), key


def test_defocused_gaussian_analytic_scalars(tmp_path):
    # the montecarlo demo's Gaussian source at alpha = 0.9: the quadrature
    # carries the defocus chirp, and the closed-form PSF widths are pinned
    text = _with_overrides(DEMOS["montecarlo"], DEFOCUSED["overrides"])
    manifest = run_experiment(parse_config(text), out_dir=tmp_path, threads=1)
    assert set(manifest.results) == set(DEFOCUSED["results"])
    for key, expected in DEFOCUSED["results"].items():
        assert manifest.results[key] == pytest.approx(expected, rel=DEFOCUSED["rtol"], abs=0.0), key
