"""Experiment configuration: plain dotted key-value text, strictly validated.

The format is one ``section.key = value`` assignment per line, ``#``
comments, and nothing else. Unknown keys are hard errors: a typo in a
numerical experiment must fail loudly, not silently fall back to a
default. Syntax problems raise ParseError with a line number; semantic
problems are collected across the whole file and raised together as one
ValidationError with field-addressed messages. ``resolve()`` names the key
of a rule checked where its value is built (mask file, 5 sigma span,
Monte Carlo counts) too.

Each key's type, default and range rule live in one table, ``_KEYS``
below; a range rule applies to every value present, in every mode, and
``ExperimentConfig.updated`` re-checks a changed config the same way.
Keys with no default are resolved from the physics when absent:
``grids.span_a`` and ``grids.span_b`` from the object support and the
source image, ``grids.n_source``, ``grids.n_object`` and
``grids.source_span`` by ``QuadratureSpec.auto`` from the phase-rate table
of ``cpi_sim.phase``, and the Monte Carlo cells by ``default_sampling``.
``ExperimentConfig.resolve()`` does all of this once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .budget import BYTES_PER_PIXEL
from .correlator import MIN_NODES, QuadratureSpec, check_bytes, check_working_set
from .errors import ParseError, ValidationError
from .montecarlo import SpeckleRun, default_sampling
from .optics import Axis, ObjectMask, SetupGeometry, SourceProfile, make_geometry

MODES = ("analytic", "montecarlo", "geometric", "refocus", "budget")

# A range rule is (test, message); it applies to every value present, in
# every mode, and its message may show the value with "{}".
_POSITIVE = (lambda v: v > 0, "must be positive, got {}")
_NODES = (lambda v: v >= MIN_NODES, f"need at least {MIN_NODES} nodes")
_SAMPLES = (lambda v: v >= 2, "need at least 2 samples")

# Every key the format accepts: (type, default, range rule). A default of
# None means absent unless given; which keys are required depends on the
# run mode and is resolved in _validate().
_KEYS: dict[str, tuple[type, Any, tuple | None]] = {
    "geometry.z_a": (float, None, _POSITIVE),
    "geometry.z_b": (float, None, _POSITIVE),
    "geometry.S_o": (float, None, _POSITIVE),
    "geometry.S_i": (float, None, _POSITIVE),
    "geometry.F": (float, None, _POSITIVE),
    "geometry.lambda0": (float, None, _POSITIVE),
    "source.kind": (str, None, None),
    "source.sigma": (float, None, _POSITIVE),
    "source.width": (float, None, _POSITIVE),
    "object.kind": (str, None, None),
    "object.slit_width": (float, None, _POSITIVE),
    "object.separation": (float, None, _POSITIVE),
    "object.file": (str, None, None),
    "object.feature_size": (float, None, _POSITIVE),
    "grids.n_a": (int, 64, _SAMPLES),
    "grids.n_b": (int, 64, _SAMPLES),
    "grids.span_a": (float, None, _POSITIVE),
    "grids.span_b": (float, None, _POSITIVE),
    "grids.center_a": (float, 0.0, None),
    "grids.center_b": (float, 0.0, None),
    "grids.n_source": (int, None, _NODES),
    "grids.n_object": (int, None, _NODES),
    "grids.source_span": (float, None, _POSITIVE),
    # below 1, auto-sized steps exceed the pi/2 limit their own guard enforces
    "grids.guard_factor": (float, 4.0, (lambda v: v >= 1.0, "must be >= 1, got {}")),
    "run.mode": (str, None, None),
    # the seed is one 64-bit word of the Philox key
    "run.seed": (
        int, 0, (lambda v: 0 <= v < 2**64, "must be nonnegative and below 2**64, got {}")
    ),
    "run.n_realizations": (int, 1000, _POSITIVE),
    "run.n_batches": (int, SpeckleRun.n_batches, _POSITIVE),
    "run.threads": (int, 1, _POSITIVE),
    "run.out_dir": (str, "out", None),
    "budget.n_tot": (int, None, (lambda v: v >= 2, "must be >= 2")),
    "budget.delta": (float, 10e-6, _POSITIVE),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description (defaults resolved)."""

    values: tuple[tuple[str, Any], ...]

    @property
    def mode(self) -> str:
        return self.get("run.mode")

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.values:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict[str, Any]:
        return dict(self.values)

    def updated(self, changes: dict[str, Any]) -> ExperimentConfig:
        """This config with ``changes`` applied, skipping ``None`` values,
        checked again with every rule ``parse_config`` applies."""
        values, problems = self.to_dict(), []
        for key, value in changes.items():
            typ = _KEYS[key][0]
            if isinstance(value, bool) or not isinstance(value, typ | None):
                problems.append(f"{key}: expected a {typ.__name__}, got {value!r}")
            elif value is not None:
                values[key] = value
        return _checked(values, problems)

    def serialize(self) -> str:
        """Canonical text form; parse_config(serialize()) round-trips."""
        lines = ["# cpi-sim experiment config"]
        for k, v in self.values:
            lines.append(f"{k} = {v!r}")
        return "\n".join(lines) + "\n"

    # -- builders into module inputs -------------------------------------

    def build_geometry(self) -> SetupGeometry:
        return make_geometry(
            z_a=self.get("geometry.z_a"),
            z_b=self.get("geometry.z_b"),
            S_o=self.get("geometry.S_o"),
            S_i=self.get("geometry.S_i"),
            F=self.get("geometry.F"),
            lambda0=self.get("geometry.lambda0"),
        )

    def build_source(self) -> SourceProfile:
        if self.get("source.kind") == "gaussian":
            return SourceProfile.gaussian(self.get("source.sigma"))
        return SourceProfile.tophat(self.get("source.width"))

    def build_mask(self) -> ObjectMask:
        kind = self.get("object.kind")
        if kind == "double_slit":
            mask = ObjectMask.double_slit(
                separation=self.get("object.separation"),
                slit_width=self.get("object.slit_width"),
            )
        elif kind == "single_slit":
            mask = ObjectMask.single_slit(self.get("object.slit_width"))
        else:
            try:
                data = np.loadtxt(self.get("object.file"), delimiter=",", comments="#", ndmin=2)
                if min(data.shape) < 2:
                    raise ValueError(f"need 2+ rows of 2+ columns, got {data.shape}")
                values = data[:, 1] + (1j * data[:, 2] if data.shape[1] > 2 else 0.0)
                mask = ObjectMask.from_samples(data[:, 0], values)
            except ValueError as exc:
                raise ValidationError(f"object.file: {exc}") from None
        fs = self.get("object.feature_size")
        if fs is not None and fs != mask.feature_size:
            mask = replace(mask, feature_size=fs)
        return mask

    def build_axes(self) -> tuple[Axis, Axis]:
        """The detector axes of ``resolve()``."""
        exp = self.resolve()
        return exp.axis_a, exp.axis_b

    def build_quadrature(self) -> QuadratureSpec:
        """The quadrature spec of ``resolve()``."""
        return self.resolve().quad

    def resolve(self) -> Experiment | None:
        """Build every input of one run, each exactly once; ``None`` for a
        budget config without physics blocks.

        Absent detector spans come from the mask support (``rho_a``) and the
        source image (``rho_b``); absent quadrature counts from
        ``QuadratureSpec.auto`` on those axes, whose span is the one
        integrated (a top hat's support, whatever ``grids.source_span`` says).
        In montecarlo mode the ``SpeckleRun`` is built on the cells of
        ``default_sampling``. A Gaussian span below 5 sigma or a count
        ``SpeckleRun`` rejects raises ValidationError naming its key. A
        quadrature, Monte Carlo run, geometric grid or pixel budget the mode
        would build above the working-set limit raises ResourceLimit
        (``check_working_set``, ``check_bytes``).
        """
        if self.mode == "budget":
            n_tot = self.get("budget.n_tot")
            check_bytes("pixel budget", BYTES_PER_PIXEL * n_tot, f"n_tot = {n_tot}")
            if not _has_physics(k for k, _ in self.values):
                return None
        geom = self.build_geometry()
        source = self.build_source()
        mask = self.build_mask()
        span_a = self.get("grids.span_a")
        if span_a is None:
            span_a = 2.0 * mask.support_half_width
        span_b = self.get("grids.span_b")
        if span_b is None:
            span_b = 1.5 * geom.M * source.diameter
        axis_a = Axis.from_half_width(
            self.get("grids.n_a"), span_a, self.get("grids.center_a")
        )
        axis_b = Axis.from_half_width(
            self.get("grids.n_b"), span_b, self.get("grids.center_b")
        )
        try:
            auto = QuadratureSpec.auto(
                geom, source, mask, axis_a, axis_b,
                guard_factor=self.get("grids.guard_factor"),
                source_span=self.get("grids.source_span"),
            )
        except ValueError as exc:
            raise ValidationError(f"grids.source_span: {exc}") from None
        quad = QuadratureSpec(
            n_source=self.get("grids.n_source", auto.n_source),
            n_object=self.get("grids.n_object", auto.n_object),
            source_span=auto.source_span,
        )
        speckle = None
        if self.mode == "montecarlo":
            axis_s, n_object = default_sampling(geom, source, mask, axis_a, axis_b)
            try:
                speckle = SpeckleRun(
                    seed=self.get("run.seed"), n_realizations=self.get("run.n_realizations"),
                    axis_s=axis_s, axis_a=axis_a, axis_b=axis_b, n_object=n_object,
                    n_batches=self.get("run.n_batches"),
                )
            except ValueError as exc:
                raise ValidationError(f"run.{exc}") from None
            check_working_set(
                "Monte Carlo run", axis_s.n, n_object, axis_a.n, axis_b.n,
                speckle.sampling_bytes(self.get("run.threads")),
            )
        if self.mode in ("analytic", "refocus", "montecarlo"):  # the modes that integrate Gamma
            check_working_set("quadrature", quad.n_source, quad.n_object, axis_a.n, axis_b.n)
        elif self.mode == "geometric":  # builds its grid and no propagator
            check_working_set("correlation grid", 0, 0, axis_a.n, axis_b.n)
        return Experiment(geom, source, mask, axis_a, axis_b, quad, speckle)


@dataclass(frozen=True)
class Experiment:
    """The resolved inputs of one run (see ``ExperimentConfig.resolve``)."""

    geom: SetupGeometry
    source: SourceProfile
    mask: ObjectMask
    axis_a: Axis
    axis_b: Axis
    quad: QuadratureSpec
    speckle: SpeckleRun | None  # the Monte Carlo run; None outside montecarlo mode


def _parse_value(key: str, raw: str, problems: list[str]) -> Any:
    typ = _KEYS[key][0]
    raw = raw.strip()
    if typ is str:
        if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
            raw = raw[1:-1]
        return raw
    try:
        value = typ(raw)
    except ValueError:
        problems.append(f"{key}: expected a {typ.__name__}, got {raw!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{key}: must be finite, got {raw!r}")
        return None
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate config text into an ExperimentConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        raw[key] = value

    problems: list[str] = []
    values: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in _KEYS:
            problems.append(f"{key}: unknown key")
            continue
        parsed = _parse_value(key, value, problems)
        if parsed is not None:
            values[key] = parsed
    return _checked(values, problems)


def _checked(values: dict[str, Any], problems: list[str]) -> ExperimentConfig:
    """Fill defaults, validate, and raise every problem found as one error."""
    for key, (_, default, _) in _KEYS.items():
        if default is not None:
            values.setdefault(key, default)
    _validate(values, problems)
    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(values=tuple(sorted(values.items())))


def _has_physics(keys) -> bool:
    """Physics blocks are optional in budget mode; any key of them begins them."""
    return any(k.startswith(("geometry.", "source.", "object.")) for k in keys)


def _require(values: dict, key: str, problems: list[str]) -> bool:
    if key not in values:
        problems.append(f"{key}: required but missing")
        return False
    return True


def _validate(values: dict[str, Any], problems: list[str]) -> None:
    """Every key's range rule, then the rules that involve more than one key."""
    for key, (_, _, rule) in _KEYS.items():
        if rule is not None and key in values and not rule[0](values[key]):
            problems.append(f"{key}: {rule[1].format(values[key])}")

    if not _require(values, "run.mode", problems):
        return
    mode = values["run.mode"]
    if mode not in MODES:
        problems.append(f"run.mode: must be one of {'|'.join(MODES)}, got {mode!r}")
        return

    if mode == "budget":
        _require(values, "budget.n_tot", problems)
        if not _has_physics(values):
            return

    for key in ("geometry.z_a", "geometry.z_b", "geometry.S_o", "geometry.lambda0"):
        _require(values, key, problems)
    has_si, has_f = "geometry.S_i" in values, "geometry.F" in values
    if has_si == has_f:
        problems.append(
            "geometry.S_i/geometry.F: give exactly one (the other is solved "
            "from the thin-lens equation)"
        )

    if _require(values, "source.kind", problems):
        kind = values["source.kind"]
        if kind == "gaussian":
            _require(values, "source.sigma", problems)
        elif kind == "tophat":
            _require(values, "source.width", problems)
        else:
            problems.append(f"source.kind: must be gaussian|tophat, got {kind!r}")

    if _require(values, "object.kind", problems):
        kind = values["object.kind"]
        if kind == "double_slit":
            for key in ("object.slit_width", "object.separation"):
                _require(values, key, problems)
            if 0 < values.get("object.separation", 0) <= values.get("object.slit_width", 0):
                problems.append("object.separation: must exceed object.slit_width")
        elif kind == "single_slit":
            _require(values, "object.slit_width", problems)
        elif kind == "sampled":
            _require(values, "object.file", problems)
            if mode == "budget":  # resolution_limits needs the detail size d
                _require(values, "object.feature_size", problems)
        else:
            problems.append(
                f"object.kind: must be double_slit|single_slit|sampled, got {kind!r}"
            )


# -- bundled demo configs ----------------------------------------------------

DEMOS: dict[str, str] = {
    # Double slit acquired out of focus (z_b/z_a = 0.8): the angular
    # integral alone blurs the slits away; refocusing restores them. The
    # source blur D(1-alpha)/2 = 480 um swamps the 600 um slit separation,
    # while the refocused blur sqrt(lambda0 z_b (1-alpha)) = 89 um stays
    # well under the 200 um slit width. The acquired rho_a range must cover
    # the sheared paths: (z_a/z_b)*span + (1 - z_a/z_b)*span_b/M.
    "refocus": """\
# Out-of-focus double slit, refocused (alpha = 0.8)
geometry.z_a = 0.1
geometry.z_b = 0.08
geometry.S_o = 0.2
geometry.F = 0.05
geometry.lambda0 = 500e-9
source.kind = tophat
source.width = 4.8e-3
object.kind = double_slit
object.slit_width = 200e-6
object.separation = 600e-6
grids.n_a = 160
grids.span_a = 1.75e-3
grids.n_b = 64
grids.span_b = 1.1e-3
run.mode = analytic
run.seed = 0
""",
    # Focused ghost-imaging reference; Monte Carlo estimate against the
    # quadrature oracle.
    "montecarlo": """\
# Focused double slit, speckle Monte Carlo vs quadrature
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
grids.n_a = 64
grids.span_a = 200e-6
grids.n_b = 64
grids.span_b = 500e-6
run.mode = montecarlo
run.seed = 7
run.n_realizations = 2000
""",
    # Pixel-budget curves for a 50-pixel-per-side sensor.
    "budget": """\
# Spatial/angular pixel trade-off, N_tot = 50
run.mode = budget
budget.n_tot = 50
budget.delta = 10e-6
""",
}
