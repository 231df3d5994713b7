"""Configuration-driven experiment runner with a reproducibility manifest.

Every run emits a fixed set of files per mode plus ``manifest.json``
(written last) listing each emitted file with its SHA-256 digest, the
resolved config, per-stage wall times and the headline scalar results.
Each digest and size is taken from the bytes written, in memory. With a
fixed seed the emitted data files are bitwise reproducible at a fixed
numpy, BLAS and BLAS thread count, so the digest list doubles as a
regression oracle there; across thread counts they agree within rounding
(the README's *Command line* section).

Every correlation grid and every image is emitted as a pair of files with
one stem: ``<stem>.csv`` holds the values, ``<stem>.pgm`` a picture.

File formats, and nothing else:
  *.csv  RFC 4180 with '.' decimals, LF line endings, one header row,
         axis metadata in leading '#' comment lines; every number is its
         shortest round-trip ``repr``, so it parses back to the same float.
         Each distinct value (float64 bit pattern) of a surface is
         formatted once and its text reused for every sample holding it;
         the bytes are those of one ``repr`` per sample
  *.pgm  binary P5, 16-bit big-endian, min-max scaled per image
         (the scale is recorded in the manifest so values are recoverable)
  *.json UTF-8, the bytes of ``json.dumps(payload, sort_keys=True,
         indent=2)`` and a final LF. ``indent`` keeps json off its C
         encoder, so the layout is built here (``_json_layout``) and each
         list of plain numbers, such as a row of ``se_per_point``, goes
         through that encoder in one call
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .budget import plenoptic_hyperbola, resolution_limits, tradeoff_curve
from .config import Experiment, ExperimentConfig
from .correlator import gamma_geometric, gamma_quadrature, psf_widths
from .metrics import slit_contrast, two_sided_peaks
from .montecarlo import estimate_gamma
from .optics import Axis, CorrelationGrid, SampledImage
from .refocus import RefocusSpec, ghost_image, refocus_grid

_PGM_STRIP_ROWS = 32  # 1D images are rendered as a repeated strip


@dataclass
class RunManifest:
    """Everything needed to audit or reproduce a run."""

    mode: str
    config: dict
    stage_seconds: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tool": "cpi-sim",
            "tool_version": __version__,
            "mode": self.mode,
            "config": self.config,
            "stage_seconds": self.stage_seconds,
            "files": self.files,
            "results": self.results,
        }


def _num(value) -> str:
    """Shortest round-trip decimal form of a scalar (plain float repr)."""
    return repr(float(value))


def _axis_comment(name: str, axis: Axis) -> str:
    return f"# {name}: n={axis.n} center={_num(axis.center)} step={_num(axis.step)}"


def _csv(comments: list[str], header: str, rows: Iterable[str]) -> bytes:
    """The one CSV layout: version line, comments, header, rows, LF-terminated.

    A row may be a block of several LF-joined lines. Each row is encoded as
    it arrives and the bytes are joined, so a file built from a generator of
    rows is held twice (its encoded rows and the joined bytes), not three
    times.
    """
    head = "\n".join([f"# cpi-sim {__version__}", *comments, header])
    return b"\n".join([head.encode("utf-8"), *(row.encode("utf-8") for row in rows), b""])


def _value_rows(values: np.ndarray, valid: np.ndarray | None = None):
    """Yield the CSV value fields of each row of ``values`` (a 1D array is
    one row) as a list: each sample's float ``repr``, or ``""`` where
    ``valid`` is False.

    Each distinct float64 bit pattern is formatted once, into a table that
    every sample indexes, so a surface with repeated values skips most of
    its ``repr`` calls and writes the same bytes. The table is keyed on
    bits, not values: 0.0 and -0.0 compare equal but print differently.
    Indices are looked up one row at a time, so no grid-sized index array
    is held while the rows are written.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    ordered = np.sort(bits, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered, first  # not held while the rows are written
    table = np.array([*map(repr, distinct.view(np.float64).tolist()), ""], dtype=object)
    masked = None if valid is None else ~np.atleast_2d(valid)
    for i, row in enumerate(np.atleast_2d(bits)):
        index = distinct.searchsorted(row)
        if masked is not None:
            index[masked[i]] = distinct.size
        yield table[index].tolist()


def _image_csv(image: SampledImage) -> bytes:
    (fields,) = _value_rows(image.values)
    return _csv(
        [f"# label: {image.label}", _axis_comment("axis", image.axis)],
        "rho_m,value",
        map(",".join, zip(map(repr, image.axis.coordinates.tolist()), fields)),
    )


def _grid_csv(grid: CorrelationGrid) -> bytes:
    """One LF-joined block of n_b lines per rho_a; a masked sample keeps an
    empty value field. Each block is one join over a reused list of line
    parts (rho_a, rho_b, value), so no per-line string is built, and is
    handed to ``_csv`` as it is built, to be encoded there."""
    n_b = grid.axis_b.n
    parts: list[str] = [""] * (3 * n_b)
    parts[1::3] = [repr(b) + "," for b in grid.axis_b.coordinates.tolist()]

    def blocks():
        rows = zip(grid.axis_a.coordinates.tolist(), _value_rows(grid.values, grid.valid))
        for a, fields in rows:
            a_field = repr(a) + ","
            parts[::3] = repeat("\n" + a_field, n_b)
            parts[0] = a_field
            parts[2::3] = fields
            yield "".join(parts)

    return _csv(
        [
            _axis_comment("axis_a", grid.axis_a),
            _axis_comment("axis_b", grid.axis_b),
            f"# z_a={_num(grid.z_a)} z_b={_num(grid.z_b)} M={_num(grid.M)}",
        ],
        "rho_a_m,rho_b_m,value",
        blocks(),
    )


def _pgm(values: np.ndarray) -> tuple[bytes, float, float]:
    """16-bit binary PGM of a 2D array (or a 1D image as a strip), with the
    (min, max) used for scaling so absolute values stay recoverable."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = np.tile(values, (_PGM_STRIP_ROWS, 1))
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(values)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode("ascii")
    return header + scaled.astype(">u2").tobytes(), lo, hi


def _json(payload: dict) -> bytes:
    return (_json_layout(payload, "\n") + "\n").encode("utf-8")


def _json_layout(value, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at the indent ``pad``
    (a newline and its spaces). A list of plain ints and floats is one call
    of json's C encoder (``indent`` turns it off), its ", " separators made
    line breaks; other lists and dicts are laid out here, each leaf and key
    (as in ``{key: 0}``, so a non-string key is named as json names it)
    encoded by ``json.dumps``."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = (f"{json.dumps({k: 0})[1:-4]}: {_json_layout(v, inner)}"
                 for k, v in sorted(value.items()))
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if set(map(type, value)) <= {float, int}:
        return f"[{inner}{json.dumps(value)[1:-1].replace(', ', ',' + inner)}{pad}]"
    return f"[{inner}{(',' + inner).join(_json_layout(v, inner) for v in value)}{pad}]"


def write_image_csv(path: Path, image: SampledImage) -> None:
    path.write_bytes(_image_csv(image))


def write_grid_csv(path: Path, grid: CorrelationGrid) -> None:
    path.write_bytes(_grid_csv(grid))


def write_pgm(path: Path, values: np.ndarray) -> tuple[float, float]:
    """Write ``values`` as PGM; returns the (min, max) of the scaling."""
    data, lo, hi = _pgm(values)
    path.write_bytes(data)
    return lo, hi


def write_json(path: Path, payload: dict) -> None:
    path.write_bytes(_json(payload))


class _Emitter:
    """Writes output files and records each one's digest for the manifest.

    Digests and sizes come from the bytes in memory, so no file is read
    back. The output directory is created by the first write, so a run
    that fails before emitting anything leaves no directory behind.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.records: list[dict] = []

    def write(self, name: str, data: bytes) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_bytes(data)
        record = {"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        self.records.append(record)
        return record

    def pair(self, stem: str, surface: CorrelationGrid | SampledImage) -> None:
        """Emit a grid or an image as ``<stem>.csv`` plus ``<stem>.pgm``."""
        if isinstance(surface, CorrelationGrid):
            self.write(f"{stem}.csv", _grid_csv(surface))
        else:
            self.write(f"{stem}.csv", _image_csv(surface))
        data, lo, hi = _pgm(surface.values)
        self.write(f"{stem}.pgm", data).update(pgm_min=lo, pgm_max=hi)


def _image_metrics(config: ExperimentConfig, image: SampledImage) -> dict:
    """Two-sided peak positions and slit visibility of a double-slit image;
    nothing for any other mask, whose lobes need not sit one on each side.
    A metric the image axis cannot measure (no samples on one side, or none
    beyond a quarter of the slit separation) is left out."""
    if config.get("object.kind") != "double_slit":
        return {}
    out: dict = {}
    x = image.axis.coordinates
    try:
        out["peak_neg_m"], out["peak_pos_m"] = two_sided_peaks(x, image.values)
    except ValueError:
        pass
    sep = config.get("object.separation")
    try:
        out["contrast"] = slit_contrast(x, image.values, min_offset=sep / 4.0)
    except ValueError:
        pass
    return out


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> RunManifest:
    """Execute one configured experiment and emit its files and manifest.

    ``out_dir`` and ``seed`` override the config when given;
    the overridden config is checked with the config file's rules,
    recorded in the manifest and resolved before any file is written. The
    output directory is created with the first file, so a run stopped by a
    numerical error leaves none.
    """
    if out_dir is not None:
        out_dir = os.fspath(out_dir)
    config = config.updated({"run.seed": seed, "run.out_dir": out_dir})
    manifest = RunManifest(mode=config.mode, config=config.to_dict())
    emit = _Emitter(Path(config.get("run.out_dir")))
    clock = time.perf_counter

    t0 = clock()
    exp = config.resolve()
    manifest.stage_seconds["setup"] = clock() - t0
    if config.mode == "budget":
        _run_budget(config, exp, emit, manifest)
    else:
        geom, source, mask = exp.geom, exp.source, exp.mask
        axis_a, axis_b = exp.axis_a, exp.axis_b

        if config.mode == "geometric":
            t = clock()
            grid = gamma_geometric(geom, source, mask, axis_a, axis_b)
            manifest.stage_seconds["gamma_geometric"] = clock() - t
            emit.pair("geometric", grid)

        elif config.mode == "montecarlo":
            t = clock()
            reference = gamma_quadrature(geom, source, mask, axis_a, axis_b, exp.quad)
            manifest.stage_seconds["reference_quadrature"] = clock() - t

            t = clock()
            grid, report = estimate_gamma(exp.speckle, geom, source, mask, reference)
            manifest.stage_seconds["estimate_gamma"] = clock() - t
            emit.pair("gamma_mc", grid)
            emit.write("convergence.json", _json(report.to_dict()))
            manifest.results.update(
                {"l1": report.l1, "linf": report.linf, "se_l1": report.se_l1}
            )

        elif config.mode in ("analytic", "refocus"):
            t = clock()
            grid = gamma_quadrature(geom, source, mask, axis_a, axis_b, exp.quad)
            manifest.stage_seconds["gamma_quadrature"] = clock() - t

            t = clock()
            ghost = ghost_image(grid)
            refocused_grid_ = refocus_grid(grid, RefocusSpec())
            refocused = ghost_image(refocused_grid_, label="refocused")
            manifest.stage_seconds["refocus"] = clock() - t

            if config.mode == "analytic":
                emit.pair("gamma", grid)
                emit.pair("ghost", ghost)
            else:
                emit.pair("refocused_grid", refocused_grid_)
            emit.pair("refocused", refocused)

            ghost_metrics = _image_metrics(config, ghost)
            refocused_metrics = _image_metrics(config, refocused)
            manifest.results.update(
                {f"ghost_{k}": v for k, v in ghost_metrics.items()}
            )
            manifest.results.update(
                {f"refocused_{k}": v for k, v in refocused_metrics.items()}
            )
            if source.kind == "gaussian":
                psf = psf_widths(geom, source.sigma)
                manifest.results["psf_width_coherent_m"] = psf.width_coherent
                manifest.results["psf_width_incoherent_m"] = psf.width_incoherent

    manifest.stage_seconds["total"] = clock() - t0
    manifest.files = emit.records
    write_json(emit.out_dir / "manifest.json", manifest.to_dict())
    return manifest


def _run_budget(
    config: ExperimentConfig, exp: Experiment | None, emit: _Emitter, manifest: RunManifest
) -> None:
    n_tot = config.get("budget.n_tot")
    delta = config.get("budget.delta")
    curves = {scheme: tradeoff_curve(n_tot, scheme) for scheme in ("plenoptic", "cpi")}
    rows = [
        f"{scheme},{n_x},{n_u}"
        for scheme, curve in curves.items()
        for n_x, n_u in curve.pairs
    ]
    emit.write(
        "budget.csv", _csv([f"# n_tot={n_tot} delta={_num(delta)}"], "scheme,N_x,N_u", rows)
    )
    cont = plenoptic_hyperbola(n_tot)
    emit.write(
        "budget_continuous.csv",
        _csv(
            [f"# n_tot={n_tot} (continuous hyperbola)"],
            "N_x,N_u",
            (f"{_num(x)},{_num(u)}" for x, u in cont),
        ),
    )
    manifest.results["n_tot"] = n_tot
    manifest.results["n_pairs_plenoptic"] = len(curves["plenoptic"].pairs)
    manifest.results["n_pairs_cpi"] = len(curves["cpi"].pairs)

    if exp is not None:
        delta_a, delta_b = resolution_limits(exp.geom, exp.source, exp.mask)
        manifest.results["delta_rho_a_m"] = delta_a
        manifest.results["delta_rho_b_m"] = delta_b
