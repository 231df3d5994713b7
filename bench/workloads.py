"""Benchmark workloads: frozen config texts and the check every run must pass.

Each workload's config is a file in ``configs/``. Two are verbatim copies
of bundled demos and two are derived from the refocus demo, so a later
edit of ``cpi_sim.DEMOS`` cannot move a workload; ``demo_drift`` reports
whether the copies still match. The thresholds in ``check_run`` are those
of ``tests/test_acceptance.py`` (criteria 1 and 3), unchanged.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().with_name("configs")

# Workload -> calibration kernel (calibration.py) closest to where its time goes.
CALIBRATION = {
    "refocus-analytic": "numeric",
    "montecarlo-focused": "numeric",
    "montecarlo-defocused": "numeric",
    "geometric-wide": "format",
}

WORKLOADS = tuple(CALIBRATION)

# Bundled demo -> the config file that froze its text.
FROZEN_DEMOS = {
    "refocus": "refocus-analytic",
    "montecarlo": "montecarlo-focused",
    "budget": "budget",
}


def config_text(name: str) -> str:
    return (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8")


def demo_drift(demos: dict[str, str]) -> dict[str, bool]:
    """True for each bundled demo whose text no longer equals its frozen copy."""
    return {demo: demos.get(demo) != config_text(stem) for demo, stem in FROZEN_DEMOS.items()}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(name: str, config, results: dict, files: list[dict], out_dir: Path) -> list[str]:
    """Problems with one run's outputs; an empty list means the run is correct."""
    problems = []
    if name.startswith("montecarlo"):
        # Acceptance criterion 1: agreement with quadrature within 3 x its own error.
        l1, se_l1 = results["l1"], results["se_l1"]
        if not l1 < 3.0 * se_l1:
            problems.append(f"l1 {l1:.4g} >= 3 x se_l1 {se_l1:.4g}")
    elif name == "refocus-analytic":
        # Acceptance criterion 3: refocusing restores the slit contrast.
        ghost, refocused = results["ghost_contrast"], results["refocused_contrast"]
        if not ghost < 0.3:
            problems.append(f"ghost contrast {ghost:.4g} >= 0.3")
        if not refocused > 0.8:
            problems.append(f"refocused contrast {refocused:.4g} <= 0.8")
    elif name == "geometric-wide":
        text = (out_dir / "geometric.csv").read_bytes()
        lines = text.count(b"\n")
        comments = sum(1 for line in text[:4096].split(b"\n") if line.startswith(b"#"))
        rows = lines - comments - 1  # one header row
        expected = config.get("grids.n_a") * config.get("grids.n_b")
        if rows != expected:
            problems.append(f"geometric.csv has {rows} data rows, expected {expected}")
        for entry in files:
            if sha256_file(out_dir / entry["name"]) != entry["sha256"]:
                problems.append(f"{entry['name']}: manifest digest does not match the file")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return problems
