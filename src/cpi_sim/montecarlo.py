"""Stochastic oracle: chaotic-speckle synthesis and correlation estimation.

Chaotic light is modeled as a phase-screen random field: each source cell
emits f(rho_s) * exp(i theta) with an independent uniform phase per cell
and realization. Fourth-order moments of that field reproduce the
direct-plus-exchange structure of chaotic statistics, so the intensity
covariance <I_a I_b> - <I_a><I_b> converges to the same crossed correlation
term the quadrature integrator computes (never to the plain intensity
product, which the estimator subtracts by construction).

Cells are sampled in position space and propagated with the two arm
kernels directly; summing position-basis kernels against independent cell
amplitudes is equivalent to the plane-wave decomposition (the transverse
momentum integral collapses onto one source point per cell) and avoids a
redundant Fourier layer. The kernels are ``correlator.arm_kernels``.

Randomness is counter-based: realization r draws its phases from a Philox
stream keyed by (seed, r), so cell i of realization r is a pure function of
(seed, r, i) and parallel scheduling cannot perturb the stream.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import phase
from .correlator import arm_kernels
from .errors import DegenerateStatistics
from .metrics import normalized_l1, normalized_linf, peak_normalize
from .optics import Axis, CorrelationGrid, ObjectMask, SetupGeometry, SourceProfile

_REALIZATION_CHUNK = 256  # realizations per matmul block
MIN_BATCHES = 2  # the spread of batch means is the error bar
MIN_REALIZATIONS = 100  # fewer give no meaningful error bars
# default_sampling takes this fraction of the tightest source-cell limit
_CELL_MARGIN = 0.8


@dataclass(frozen=True)
class SpeckleRun:
    """Configuration of one Monte Carlo estimation run.

    ``axis_s`` sets the emitter cells (one independent phase per node);
    ``n_object`` controls the object-plane quadrature inside the arm-b
    kernel. Realizations are split into ``n_batches`` equal-as-possible
    batches whose spread yields the statistical error bars.
    """

    seed: int
    n_realizations: int
    axis_s: Axis
    axis_a: Axis
    axis_b: Axis
    n_object: int = 256
    n_batches: int = 20

    def __post_init__(self):
        if self.n_batches < MIN_BATCHES:
            raise ValueError(f"need at least {MIN_BATCHES} batches for error bars")
        if self.n_realizations < self.n_batches:
            raise ValueError("more batches than realizations")


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance of the estimate to a deterministic reference, with error bars.

    ``l1`` / ``linf`` are peak-normalized distances; ``se_per_point`` is the
    batch-means standard error of the raw covariance at every grid point,
    and ``se_l1`` rescales it onto the same normalized footing as ``l1``
    (so l1 ~ se_l1 means the estimate agrees with the reference to within
    its own noise).
    """

    n_realizations: int
    n_batches: int
    l1: float
    linf: float
    se_l1: float
    se_per_point: np.ndarray

    def __post_init__(self):
        if self.l1 < 0.0 or self.linf < 0.0 or self.se_l1 < 0.0:
            raise ValueError("distances and errors must be nonnegative")

    def to_dict(self) -> dict:
        se = np.asarray(self.se_per_point, dtype=float)
        return {
            "n_realizations": self.n_realizations,
            "n_batches": self.n_batches,
            "l1": self.l1,
            "linf": self.linf,
            "se_l1": self.se_l1,
            "se_mean": float(se.mean()),
            "se_max": float(se.max()),
            "se_per_point": se.tolist(),
        }


def sample_source_field(
    source: SourceProfile, axis_s: Axis, seed: int, realization_index: int
) -> np.ndarray:
    """One chaotic source realization: f(rho_s_i) * exp(i theta_i).

    Deterministic in (seed, realization_index, cell index); phases are
    i.i.d. uniform on [0, 2 pi).
    """
    return _source_fields(
        source, axis_s, seed, realization_index, realization_index + 1
    )[0]


def _source_fields(
    source: SourceProfile, axis_s: Axis, seed: int, lo: int, hi: int
) -> np.ndarray:
    """Realizations [lo, hi) as the rows of a (hi - lo, n_s) array.

    Row r - lo draws its phases from the Philox stream keyed by (seed, r),
    so a row does not depend on the block it was generated in.
    """
    amp = source.amplitude(axis_s.coordinates)
    fields = np.empty((hi - lo, axis_s.n), dtype=complex)
    for r in range(lo, hi):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
        )
        fields[r - lo] = amp * np.exp(1j * (rng.random(axis_s.n) * (2.0 * np.pi)))
    return fields


def default_sampling(
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    axis_a: Axis,
    axis_b: Axis,
) -> tuple[Axis, int]:
    """Pick a compliant source-cell axis and object node count.

    The cell step takes ``_CELL_MARGIN`` times the tightest of the
    unresolved-cell rule and the two kernel anti-aliasing limits; the object
    count targets half the allowed phase step.
    """
    s_max = source.quadrature_interval()[1]
    r = phase.declared_rates(geom, source, mask, axis_a, axis_b)
    step = _CELL_MARGIN * min(
        phase.step_limit(r.cell), phase.step_limit(r.arm_a), phase.step_limit(r.arm_b)
    )
    n_cells = max(16, int(np.ceil(2.0 * s_max / step)) + 1)
    axis_s = Axis.from_half_width(n_cells, s_max)

    step_o = phase.step_limit(r.object, guard_factor=2.0)
    support = sum(hi - lo for lo, hi in mask.support_intervals())
    n_object = max(16, int(np.ceil(support / step_o)) + 1)
    return axis_s, n_object


def _batch_covariance(
    source: SourceProfile,
    axis_s: Axis,
    k_a: np.ndarray,
    k_b: np.ndarray,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-pass intensity covariance over realizations [start, stop).

    Each chunk of realizations is generated and propagated once and reduced
    to its count, mean intensities and centered co-moment
    (I_a - mean_a)^T (I_b - mean_b); centering avoids the catastrophic
    cancellation of the <I_a I_b> - <I_a><I_b> form. Chunks are folded into
    the running state with the pairwise update of Chan, Golub & LeVeque
    (1979). The first chunk merges into an empty state exactly, so a batch
    that fits in one chunk gets the plain two-pass result bitwise.
    """
    n = 0
    mean_a = np.zeros(k_a.shape[0])
    mean_b = np.zeros(k_b.shape[0])
    co = np.zeros((k_a.shape[0], k_b.shape[0]))
    for lo in range(start, stop, _REALIZATION_CHUNK):
        hi = min(lo + _REALIZATION_CHUNK, stop)
        k = hi - lo
        fields = _source_fields(source, axis_s, seed, lo, hi)
        i_a = np.abs(fields @ k_a.T) ** 2
        i_b = np.abs(fields @ k_b.T) ** 2
        blk_a = i_a.sum(axis=0) / k
        blk_b = i_b.sum(axis=0) / k
        d_a = blk_a - mean_a
        d_b = blk_b - mean_b
        co += (i_a - blk_a).T @ (i_b - blk_b) + np.outer(d_a, d_b) * (n * k / (n + k))
        mean_a += d_a * (k / (n + k))
        mean_b += d_b * (k / (n + k))
        n += k
    return co / (n - 1), mean_a, mean_b


def estimate_gamma(
    run: SpeckleRun,
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    reference: CorrelationGrid,
    threads: int = 1,
) -> tuple[CorrelationGrid, ConvergenceReport]:
    """Estimate the crossed correlation term as an intensity covariance.

    Gamma^(rho_a, rho_b) = <I_a(rho_a) I_b(rho_b)> - <I_a(rho_a)><I_b(rho_b)>
    over ``run.n_realizations`` speckle realizations. Batches are reduced in
    a fixed order, so the result is bitwise identical for any thread count;
    tiny negative covariance noise is clipped to keep the grid nonnegative.

    The report measures the distance to ``reference``, a deterministic
    surface the caller supplies on the run's own detector axes (the runner
    passes ``gamma_quadrature`` of the resolved quadrature).
    """
    if run.n_realizations < MIN_REALIZATIONS:
        raise ValueError(
            f"need n_realizations >= {MIN_REALIZATIONS} for meaningful error bars"
        )
    if reference.axis_a != run.axis_a or reference.axis_b != run.axis_b:
        raise ValueError(
            f"reference axes ({reference.axis_a}, {reference.axis_b}) differ "
            f"from the run's ({run.axis_a}, {run.axis_b})"
        )
    k_a, k_b = arm_kernels(
        geom, mask, run.axis_s, run.axis_a, run.axis_b, run.n_object
    )

    edges = np.linspace(0, run.n_realizations, run.n_batches + 1).astype(int)
    spans = [(int(edges[k]), int(edges[k + 1])) for k in range(run.n_batches)]

    def job(span: tuple[int, int]):
        return _batch_covariance(
            source, run.axis_s, k_a, k_b, run.seed, span[0], span[1]
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(job, spans))

    covs = np.stack([r[0] for r in results])
    mean_a = np.stack([r[1] for r in results]).mean(axis=0)
    mean_b = np.stack([r[2] for r in results]).mean(axis=0)
    if np.any(mean_a == 0.0) or np.any(mean_b == 0.0):
        raise DegenerateStatistics(
            "a mean detected intensity is exactly zero; no speckle statistics"
        )

    weights = np.array([hi - lo for lo, hi in spans], dtype=float)
    raw = np.tensordot(weights / weights.sum(), covs, axes=1)
    se = covs.std(axis=0, ddof=1) / np.sqrt(run.n_batches)

    peak = float(raw.max())
    if not (peak > 0.0):
        raise DegenerateStatistics("covariance estimate has no positive peak")
    ref_norm = peak_normalize(reference.values)
    report = ConvergenceReport(
        n_realizations=run.n_realizations,
        n_batches=run.n_batches,
        l1=normalized_l1(raw, reference.values),
        linf=normalized_linf(raw, reference.values),
        se_l1=float(np.sum(se / peak) / np.sum(ref_norm)),
        se_per_point=se,
    )
    grid = CorrelationGrid(
        axis_a=run.axis_a,
        axis_b=run.axis_b,
        values=np.maximum(raw, 0.0),
        z_a=geom.z_a,
        z_b=geom.z_b,
        M=geom.M,
    )
    return grid, report
