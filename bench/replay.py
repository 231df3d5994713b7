"""Traced replay of ``run_experiment`` through the public function of each layer.

``replay`` makes the calls ``cpi_sim.runner.run_experiment`` makes, in its
order, and wraps each in a span named ``<module>.<function>``. It writes
the same files, so their digests can be compared with an untraced run
(the CSV writers print floats in round-trip form: equal digests mean
bitwise-equal arrays). It differs from the runner in two ways, on purpose:

* Monte Carlo builds the arm kernels once on their own, to time them,
  and hands ``estimate_gamma`` the reference surface instead of letting
  it compute one, so the reference quadrature gets a span of its own.
  ``estimate_gamma`` builds the kernels again, as in the runner, which
  is why ``montecarlo.sampling_s`` is estimate_gamma minus arm_kernels.
* Only analytic, montecarlo and geometric modes are replayed: they are
  the modes the workloads use.

Spans stay in memory. The root span ``runner.run`` covers one replay;
its self time (hashing, manifest, headline metrics) is
``runner.unattributed_s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from cpi_sim import (
    RefocusSpec,
    SpeckleRun,
    arm_kernels,
    default_sampling,
    estimate_gamma,
    gamma_geometric,
    gamma_quadrature,
    ghost_image,
    parse_config,
    psf_widths,
    refocus_grid,
    refocused_image,
)
from cpi_sim.metrics import slit_contrast, two_sided_peaks
from cpi_sim.runner import write_grid_csv, write_image_csv, write_json, write_pgm

from workloads import sha256_file

ROOT_SPAN = "runner.run"
WRITERS = ("write_grid_csv", "write_image_csv", "write_pgm", "write_json")


class Tracer:
    """Spans and counts of one replay, kept in memory."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {"name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def durations(self) -> dict[str, float]:
        """Summed duration of the spans of each name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
        return out

    def self_time(self, index: int) -> float:
        s = self.spans[index]
        children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == index)
        return (s["end"] - s["start"]) - children

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "spans": self.spans, "counts": self.counts}


def _image_results(config, image, prefix: str) -> dict:
    """The headline image scalars the runner puts in its manifest."""
    out = {}
    x = image.axis.coordinates
    try:
        out[f"{prefix}_peak_neg_m"], out[f"{prefix}_peak_pos_m"] = two_sided_peaks(x, image.values)
    except ValueError:
        pass
    if config.get("object.kind") == "double_slit":
        sep = config.get("object.separation")
        out[f"{prefix}_contrast"] = slit_contrast(x, image.values, min_offset=sep / 4.0)
    return out


def replay(text: str, out: Path, seed: int, tr: Tracer):
    """Run one experiment under ``tr``; returns (config, results, file records)."""
    written: list[Path] = []
    pgm_scales: dict[str, tuple[float, float]] = {}

    def write(writer, name: str, payload) -> None:
        path = out / name
        with tr.span(f"runner.{writer.__name__}"):
            scale = writer(path, payload)
        if writer is write_pgm:
            pgm_scales[name] = scale
        written.append(path)

    with tr.span(ROOT_SPAN):
        with tr.span("config.parse"):
            config = parse_config(text)
        out.mkdir(parents=True, exist_ok=True)
        results: dict = {}
        with tr.span("config.resolve"):
            geom = config.build_geometry()
            source = config.build_source()
            mask = config.build_mask()
            axis_a, axis_b = config.build_axes()

        if config.mode == "geometric":
            with tr.span("correlator.gamma_geometric"):
                grid = gamma_geometric(geom, source, mask, axis_a, axis_b)
            write(write_grid_csv, "geometric.csv", grid)
            write(write_pgm, "geometric.pgm", grid.values)

        elif config.mode == "montecarlo":
            with tr.span("montecarlo.default_sampling"):
                axis_s, n_object = default_sampling(geom, source, mask, axis_a, axis_b)
            run = SpeckleRun(
                seed=seed,
                n_realizations=config.get("run.n_realizations"),
                axis_s=axis_s,
                axis_a=axis_a,
                axis_b=axis_b,
                n_object=n_object,
                n_batches=config.get("run.n_batches"),
            )
            with tr.span("config.resolve"):
                quad = config.build_quadrature()
            with tr.span("montecarlo.arm_kernels"):
                arm_kernels(geom, mask, axis_s, axis_a, axis_b, n_object)
            with tr.span("montecarlo.reference_quadrature"), tr.span("correlator.gamma_quadrature"):
                reference = gamma_quadrature(geom, source, mask, axis_a, axis_b, quad)
            with tr.span("montecarlo.estimate_gamma"):
                grid, report = estimate_gamma(
                    run, geom, source, mask, reference=reference,
                    threads=config.get("run.threads"),
                )
            write(write_grid_csv, "gamma_mc.csv", grid)
            write(write_pgm, "gamma_mc.pgm", grid.values)
            write(write_json, "convergence.json", report.to_dict())
            results.update({"l1": report.l1, "linf": report.linf, "se_l1": report.se_l1})
            tr.count("montecarlo.cells", axis_s.n)
            tr.count("montecarlo.kernel_terms", axis_a.n * axis_s.n + axis_b.n * n_object * axis_s.n)
            tr.count("montecarlo.cell_draws", run.n_realizations * axis_s.n)
            tr.count("correlator.quad_terms", quad.n_source * quad.n_object * axis_a.n * axis_b.n)

        elif config.mode == "analytic":
            with tr.span("config.resolve"):
                quad = config.build_quadrature()
            with tr.span("correlator.gamma_quadrature"):
                grid = gamma_quadrature(geom, source, mask, axis_a, axis_b, quad)
            spec = RefocusSpec()
            with tr.span("refocus.ghost_image"):
                ghost = ghost_image(grid)
            with tr.span("refocus.refocus_grid"):
                resampled = refocus_grid(grid, spec)
            with tr.span("refocus.refocused_image"):
                refocused = refocused_image(grid, spec)
            write(write_grid_csv, "gamma.csv", grid)
            write(write_pgm, "gamma.pgm", grid.values)
            write(write_image_csv, "ghost.csv", ghost)
            write(write_pgm, "ghost.pgm", ghost.values)
            write(write_image_csv, "refocused.csv", refocused)
            write(write_pgm, "refocused.pgm", refocused.values)
            results.update(_image_results(config, ghost, "ghost"))
            results.update(_image_results(config, refocused, "refocused"))
            if source.kind == "gaussian":
                psf = psf_widths(geom, source.sigma)
                results["psf_width_coherent_m"] = psf.width_coherent
                results["psf_width_incoherent_m"] = psf.width_incoherent
            tr.count("correlator.quad_terms", quad.n_source * quad.n_object * axis_a.n * axis_b.n)
            tr.count("refocus.valid_samples", int(resampled.validity.sum()))
            tr.count("refocus.resampled_samples", resampled.validity.size)

        else:
            raise ValueError(f"replay does not cover run.mode = {config.mode}")

        files = []
        for path in written:
            entry = {"name": path.name, "sha256": sha256_file(path), "bytes": path.stat().st_size}
            if path.name in pgm_scales:
                entry["pgm_min"], entry["pgm_max"] = pgm_scales[path.name]
            files.append(entry)
        manifest = {"mode": config.mode, "config": config.to_dict(), "files": files,
                    "results": results}
        write(write_json, "manifest.json", manifest)
        tr.count("runner.files_written", len(written))
        tr.count("runner.bytes_written", sum(p.stat().st_size for p in written))
    return config, results, files


def _per_replay(tr: Tracer) -> dict[str, float]:
    """Layer metrics of one replay. A layer the workload does not call reads 0."""
    d = tr.durations()
    c = tr.counts
    m = {f"{name}_s": d.get(name, 0.0) for name in (
        "config.parse", "config.resolve",
        "correlator.gamma_quadrature", "correlator.gamma_geometric",
        "montecarlo.default_sampling", "montecarlo.arm_kernels",
        "montecarlo.reference_quadrature", "montecarlo.estimate_gamma",
        "refocus.ghost_image", "refocus.refocus_grid", "refocus.refocused_image",
        *(f"runner.{w}" for w in WRITERS),
    )}
    for name in ("correlator.quad_terms", "montecarlo.cells", "montecarlo.kernel_terms",
                 "montecarlo.cell_draws", "runner.bytes_written", "runner.files_written"):
        m[name] = c.get(name, 0)
    # Derived: estimate_gamma rebuilds the kernels before it samples.
    m["montecarlo.sampling_s"] = (
        m["montecarlo.estimate_gamma_s"] - m["montecarlo.arm_kernels_s"]
        if m["montecarlo.estimate_gamma_s"] else 0.0
    )
    m["correlator.terms_per_s"] = _rate(m["correlator.quad_terms"], m["correlator.gamma_quadrature_s"])
    m["montecarlo.cell_draws_per_s"] = _rate(m["montecarlo.cell_draws"], m["montecarlo.sampling_s"])
    write_s = sum(m[f"runner.{w}_s"] for w in WRITERS)
    m["runner.write_mb_per_s"] = _rate(m["runner.bytes_written"] / 1e6, write_s)
    m["refocus.valid_frac"] = _rate(c.get("refocus.valid_samples", 0), c.get("refocus.resampled_samples", 0))
    m["runner.unattributed_s"] = tr.self_time(0)
    m["trace.wall_s"] = d[ROOT_SPAN]
    return m


def _rate(amount: float, per: float) -> float:
    return amount / per if per > 0 else 0.0


def layer_metrics(tracers: list[Tracer], untraced_walls: list[float]) -> dict[str, float]:
    """Median over replays of each layer metric, plus the tracing overhead."""
    per = [_per_replay(tr) for tr in tracers]
    out = {name: median(p[name] for p in per) for name in per[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - median(untraced_walls)
    return out
