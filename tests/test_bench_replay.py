"""Parity of the benchmark's traced replay with ``run_experiment``.

``bench/replay.py`` re-makes the runner's calls to time each layer, so it
must write the same files. This test only reads ``bench/``; it goes when
the replay does.
"""

import importlib
from pathlib import Path

import pytest

from cpi_sim import parse_config, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize(
    "workload", ["refocus-analytic", "montecarlo-focused", "montecarlo-defocused", "geometric-wide"]
)
def test_replay_writes_what_the_runner_writes(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    replay = importlib.import_module("replay")
    text = importlib.import_module("workloads").config_text(workload)
    seed = 3
    manifest = run_experiment(parse_config(text), out_dir=tmp_path / "run", seed=seed)
    _, results, files = replay.replay(text, tmp_path / "replay", seed, replay.Tracer(trace_id=0))
    assert files == manifest.files
    assert results == manifest.results
