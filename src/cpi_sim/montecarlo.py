"""Stochastic oracle: chaotic-speckle synthesis and correlation estimation.

Chaotic light is modeled as a phase-screen random field: each source cell
emits f(rho_s) * exp(i theta) with an independent phase per cell and
realization, drawn uniformly from the eight phases 2 pi k / 8. Every phase
moment <exp(i j theta)> with 0 < |j| < 8 vanishes over that table, as it
does for a continuous uniform phase; the covariance's mean needs moments
up to order 2 per cell and its variance up to order 4, so both are those
of continuous uniform phases. Fourth-order moments of that field reproduce
the direct-plus-exchange structure of chaotic statistics, so the intensity
covariance <I_a I_b> - <I_a><I_b> converges to the same crossed correlation
term the quadrature integrator computes (never to the plain intensity
product, which the estimator subtracts by construction).

Cells are sampled in position space and propagated with the two arm
kernels directly; summing position-basis kernels against independent cell
amplitudes is equivalent to the plane-wave decomposition (the transverse
momentum integral collapses onto one source point per cell) and avoids a
redundant Fourier layer. The kernels are ``correlator.arm_kernels``, on
mirror pairs of the centred cells: with phi(+-d) the unit phasors of the
cells +-d, a realization propagates as the row [u | v], u = phi(+d) +
phi(-d) and v = phi(+d) - phi(-d). Both take 64 values, so one lookup of
the pair index (i+ << 3) | i- in a 128-entry table (u, then v) gives
them from the two cells' phase indices i+ and i-. ``estimate_gamma``
folds the source amplitude, the same at +d and -d, into the kernels
once. The kernels pair each detector's pixels about their centre too
(``correlator.ParityKernel``): a row propagates to the even and odd
parts P and Q of each arm's field, one GEMM per kept parity block, and
|E|^2 is |P + Q|^2 and |P - Q|^2 on a pair of mirrored pixels. A slit
on centred axes leaves two of each arm's four blocks exactly zero, so
each arm runs two GEMMs of ceil(n_s / 2) by about n / 2: half the flops
of one GEMM through the kernel on every pixel.

Precision: the rows [u | v] and the kept kernel blocks are complex64, so
each GEMM runs in single precision, at half the bytes and about half the
time of complex128. ``_PAIRS`` holds float64 sums rounded once, and the
kernels are built and take the amplitude in float64 before one rounding.
Everything after the GEMMs is float64: |P +- Q| is taken in float32 and
squared into float64 rows, and the covariance fold, the batch means, se
and every output are float64 sums. A pixel's field is a sum of n = 2h
complex terms on a centred slit (h a kept block's rows); in any summation
order it is off by at most (2 sqrt(2) n + 2) u sum_j |x_j| |k_j|, u =
2^-24, to first order, and the intensities and the covariance inherit
that bound (``tests/oracles.py``, ``propagation_rounding_bound``). On the
two Monte Carlo bench configs the estimate lies within 1.5e-7 and 5.3e-7
of its peak of a float64 propagation of the same realizations, where the
bound, rigorous and loose, allows 4% and 38%.

Randomness is counter-based (Salmon, Moraes, Dror & Shaw, SC11): one
Philox4x64 stream keyed (seed, 0) serves every realization. A row holds
the h = ceil(n / 2) mirror pairs of the n cells, one byte a pair, and
takes m = ceil(h / 32) counters of 32 bytes, so realization r reads the
counters (r m, (r + 1) m]. Byte j, masked to its low 6 bits, is the pair
index (i+ << 3) | i- of the cells +-d_j: two independent uniform 3-bit
phase indices; the d = 0 cell of an odd n, its own mirror, takes the low
3 bits as both. Pair j of realization r is thus a pure function of
(seed, r, j), and a block of realizations is one generator started at its
first counter and one draw, so neither blocks nor batches can perturb
the stream.

Propagation runs in blocks of consecutive realizations, one GEMM per
kept parity block and block. A block holds whole batches, as many as fit
``_BLOCK_BYTES`` of phasors, so short batches share the cost of streaming
each kernel through the GEMM; a batch longer than that is cut into
blocks of its own. The caller's thread propagates each block and folds it
before the next, each batch reduced from its own rows, in block order,
and ``estimate_gamma`` folds the batches into running sums: no per-batch
grid is held, so memory does not grow with the batch count.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import phase
from .correlator import MIN_NODES, ParityKernel, _mirror_halves, _source_half, arm_kernels
from .errors import DegenerateStatistics
from .metrics import normalized_l1, normalized_linf, peak_normalize
from .optics import Axis, CorrelationGrid, ObjectMask, SetupGeometry, SourceProfile

# phasor bytes one propagation block holds (8 a cell and realization):
# consecutive batches share a block up to it (``_block_rows``)
_BLOCK_BYTES = 2 * 2**20
_TAKE_ROWS = 16  # phasor rows gathered from the table per np.take
MIN_BATCHES = 2  # the spread of batch means is the error bar
MIN_REALIZATIONS = 100  # fewer give no meaningful error bars
# default_sampling takes this fraction of the tightest source-cell limit
_CELL_MARGIN = 0.8
# the phases exp(2 pi i k / 8); a cell's index is 3 bits of its pair's byte
_PHASES = np.exp(2j * np.pi * np.arange(8) / 8)
# u = phi(+d) + phi(-d) at the pair index (i+ << 3) | i- of the cells' phase
# indices, and v = phi(+d) - phi(-d) at that index plus 64: float64 sums,
# rounded once to complex64
_PAIRS = np.concatenate(
    [_PHASES.repeat(8) + s * np.tile(_PHASES, 8) for s in (1, -1)]
).astype(np.complex64)


@dataclass(frozen=True)
class SpeckleRun:
    """Configuration of one Monte Carlo estimation run.

    ``axis_s`` sets the emitter cells (one independent phase per node);
    ``n_object`` controls the object-plane quadrature inside the arm-b
    kernel. Realizations are split into ``n_batches`` equal-as-possible
    batches of at least two, whose spread yields the error bars. Only here
    are these two counts checked; the object sum checks ``n_object``.
    """

    seed: int
    n_realizations: int
    axis_s: Axis
    axis_a: Axis
    axis_b: Axis
    n_object: int
    n_batches: int = 20  # also the default of config's run.n_batches

    def __post_init__(self):
        n_real, n_batches = self.n_realizations, self.n_batches
        if n_real < MIN_REALIZATIONS:
            raise ValueError(f"n_realizations: need at least {MIN_REALIZATIONS}, got {n_real}")
        if not MIN_BATCHES <= n_batches <= n_real // 2:  # one realization has no covariance
            raise ValueError(
                f"n_batches: need {MIN_BATCHES} <= n_batches <= n_realizations / 2, got {n_batches}"
            )

    def sampling_bytes(self) -> int:
        """The most bytes the run holds at one time beside K_b's float64
        parity blocks, which ``check_working_set`` counts as all four blocks
        of the half products (and which bound K_b's complex64 blocks once
        they are freed).

        The complex64 arm-a kernel's parity blocks, ceil(n_s / 2) x n_a, twice
        that off a centred axis, where all four are kept, are held from their
        rounding to the end, beside the larger of two stages. (1) The kernels'
        rounding: both arms' float64 blocks (``arm_kernels``) live until both
        are rounded (``estimate_gamma``), so K_a's, twice the complex64 bytes,
        are held beside K_b's complex64 blocks, at most 2 ceil(n_s / 2) x n_b
        (all four: this count does not know the mask). (2) Sampling: the one
        block in flight, its rows' Philox bytes, one a mirror pair padded to
        whole counters of 32, their uint8 pair indices and complex64 [u | v]
        rows, 9 bytes a column, the intp copy of one ``_TAKE_ROWS`` slice of
        pair indices, and, a row, the propagation of ``_intensities``: arm a's
        |P +- Q|^2 (8 bytes a pixel) held while arm b runs, and the larger
        arm's P and Q (8 bytes a pixel), its P + Q buffer (8 a mirror pair)
        and its own intensity row (8 a pixel), which also bound a second
        product of a part with two kept blocks; and the fold's: one piece's
        centered rows, 8 bytes a pixel a row, and nine n_a x n_b float grids
        (``estimate_gamma``'s raw, mean, M2, batch covariance and its
        deviation; the Chan merge's state, co-moment and two temporaries)."""
        n, n_a, n_b = self.axis_s.n, self.axis_a.n, self.axis_b.n
        cols = 2 * ((n + 1) // 2)
        rows = min(_block_rows(cols), self.n_realizations)
        arm = max(16 * n_a + 8 * (n_a // 2), 8 * n_a + 16 * n_b + 8 * (n_b // 2))
        block = rows * (32 * -(-cols // 64) + 9 * cols + arm) + 8 * min(rows, _TAKE_ROWS) * cols
        fold = 8 * rows * (n_a + n_b) + 9 * 8 * n_a * n_b
        k_a = 8 * (cols // 2) * n_a * (2 if self.axis_a.center else 1)
        return k_a + max(2 * k_a + 8 * cols * n_b, block + fold)


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
    i.i.d. uniform over the eight phases 2 pi k / 8, read from the pair
    indices of the realization's counters (``_pair_indices``), which pair
    the cells about the middle of the axis. The batch path propagates
    these phasors as mirror-pair sums and differences (``_phasors``),
    with the amplitude in the kernels.
    """
    idx = _phase_indices(seed, realization_index, realization_index + 1, axis_s.n)
    return source.amplitude(axis_s.coordinates) * _PHASES[idx[0]]


def _pair_indices(seed: int, lo: int, hi: int, n: int, out: np.ndarray) -> np.ndarray:
    """Write the pair indices (i+ << 3) | i- of realizations [lo, hi) on
    ``n`` centred cells into ``out``, a (hi - lo, ceil(n / 2)) uint8 array,
    and return it. Column j is the pair of cells +-d_j, d_j >= 0 ascending.

    Row r - lo is the low 6 bits of the bytes of counters (r m, (r + 1) m]
    of the Philox stream keyed (seed, 0), m = ceil(h / 32) for the h pairs:
    one generator started at counter lo m and one draw serve the block.
    The d = 0 cell of an odd n is its own mirror: its i+ and i- are both
    the byte's low 3 bits.
    """
    h = (n + 1) // 2
    m = -(-h // 32)
    gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64), counter=lo * m)
    raw = gen.random_raw(4 * m * (hi - lo)).astype("<u8", copy=False).view(np.uint8)
    raw = raw.reshape(hi - lo, 32 * m)[:, :h]
    np.bitwise_and(raw, 63, out=out)
    if n % 2:
        np.multiply(raw[:, 0] & 7, 9, out=out[:, 0])  # (i << 3) | i
    return out


def _phase_indices(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """Phase-table indices of realizations [lo, hi) on ``n`` centred cells
    as a (hi - lo, n) array: cell n // 2 + j takes i+ of pair j and cell
    (n - 1) // 2 - j its i- (``_pair_indices``)."""
    h = (n + 1) // 2
    pairs = _pair_indices(seed, lo, hi, n, np.empty((hi - lo, h), dtype=np.uint8))
    idx = np.empty((hi - lo, n), dtype=np.uint8)
    np.bitwise_and(pairs[:, ::-1], 7, out=idx[:, :h])
    np.right_shift(pairs, 3, out=idx[:, n // 2 :])
    return idx


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
    n_cells = max(MIN_NODES, int(np.ceil(2.0 * s_max / step)) + 1)
    axis_s = Axis.from_half_width(n_cells, s_max)

    step_o = phase.step_limit(r.object, guard_factor=2.0)
    support = sum(hi - lo for lo, hi in mask.support_intervals())
    n_object = max(MIN_NODES, int(np.ceil(support / step_o)) + 1)
    return axis_s, n_object


def _block_rows(n_cols: int) -> int:
    """Realizations one propagation block holds: as many rows of
    ``n_cols`` complex64 phasors as fit ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // (8 * n_cols))


def _phasors(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """The rows [u | v] of realizations [lo, hi) on ``n`` centred cells,
    shape (hi - lo, 2 ceil(n / 2)): for the cells +-d of each node d >= 0,
    u = phi(+d) + phi(-d) and v = phi(+d) - phi(-d) of their unit phasors
    (u = 2 phi(0) and v = 0 at the d = 0 cell of an odd n, its own
    mirror). They are the ``_PAIRS`` entries at [pairs | pairs | 64] of
    the block's pair indices (``_pair_indices``), gathered ``_TAKE_ROWS``
    rows at a time so the intp copy of the uint8 indices that ``np.take``
    makes stays that small."""
    h = (n + 1) // 2
    pairs = np.empty((hi - lo, 2 * h), dtype=np.uint8)
    _pair_indices(seed, lo, hi, n, pairs[:, :h])
    np.bitwise_or(pairs[:, :h], 64, out=pairs[:, h:])
    fields = np.empty(pairs.shape, dtype=np.complex64)
    for r in range(0, hi - lo, _TAKE_ROWS):
        _PAIRS.take(pairs[r : r + _TAKE_ROWS], out=fields[r : r + _TAKE_ROWS], mode="clip")
    return fields


def _parity_products(fields: np.ndarray, kernel: ParityKernel) -> list[np.ndarray]:
    """The parts P = u E_u + v E_v and Q = u O_u + v O_v of the rows
    ``fields`` = [u | v] through ``kernel``'s blocks (``ParityKernel``),
    one GEMM a kept block; a part whose two blocks are left out is 0."""
    h = fields.shape[1] // 2
    halves = (fields[:, :h], fields[:, h:])
    parts = []
    even, odd = kernel.blocks[:2], kernel.blocks[2:]
    for blocks, cols in ((even, (kernel.n + 1) // 2), (odd, kernel.n // 2)):
        part = None
        for x, b in zip(halves, blocks):
            if b is not None:
                part = x @ b if part is None else np.add(part, x @ b, out=part)
        parts.append(np.zeros((len(fields), cols), dtype=np.complex64) if part is None else part)
    return parts


def _intensities(fields: np.ndarray, kernel: ParityKernel) -> np.ndarray:
    """|E|^2 of the rows ``fields`` = [u | v] on ``kernel``'s pixels, in
    pixel order: |P + Q|^2 on the pixels mu + eps and |P - Q|^2 on their
    mirrors mu - eps (``_parity_products``), written into the two mirror
    halves of the rows (``_mirror_halves``)."""
    p, q = _parity_products(fields, kernel)
    out = np.empty((len(fields), kernel.n))
    plus, minus = _mirror_halves(out, axis=1)
    odd = kernel.n % 2
    np.abs(p[:, :odd], out=plus[:, :odd])  # the eps = 0 pixel of an odd n: Q is 0 there
    p, q = p[:, odd:], q[:, ::-1]  # both on eps ascending
    pm = p + q
    np.abs(pm, out=plus[:, odd:])
    np.abs(np.subtract(p, q, out=pm), out=minus)
    return np.square(out, out=out)


def _batch_covariances(
    k_a: ParityKernel,
    k_b: ParityKernel,
    seed: int,
    n_cells: int,
    spans: list[tuple[int, int]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (cov, mean_a, mean_b), the single-pass intensity covariance and
    mean intensities of each batch [lo, hi) in ``spans``, in batch order.

    ``k_a`` and ``k_b`` are the parity kernels of ``n_cells`` cells with
    the source amplitude on their rows, so a realization is a row [u | v]
    of unit-phasor sums and differences (``_phasors``). A batch longer than
    ``_block_rows`` is cut into pieces of that many rows; consecutive pieces
    then share a block up to that size, so short batches are propagated
    together, one GEMM per kept parity block and block, to |E_a|^2 and
    |E_b|^2 (``_intensities``). Each piece is reduced from its own rows to
    its means and centered co-moment (I_a - mean_a)^T (I_b - mean_b),
    avoiding the cancellation of the <I_a I_b> - <I_a><I_b> form, and
    merged into its batch's running state
    with the pairwise update of Chan, Golub & LeVeque (1979). The first
    piece is its batch's state, so a batch of one piece gets the plain
    two-pass result bitwise, whatever block it shared.
    """
    rows = _block_rows(2 * ((n_cells + 1) // 2))
    blocks: list[list[tuple[int, int, int]]] = []
    filled = rows
    for b, (start, stop) in enumerate(spans):
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            if filled + hi - lo > rows:
                blocks.append([])
                filled = 0
            blocks[-1].append((b, lo, hi))
            filled += hi - lo

    for pieces in blocks:
        lo = pieces[0][1]
        fields = _phasors(seed, lo, pieces[-1][2], n_cells)
        i_a, i_b = _intensities(fields, k_a), _intensities(fields, k_b)
        del fields
        for b, start, stop in pieces:
            p_a, p_b = i_a[start - lo : stop - lo], i_b[start - lo : stop - lo]
            k = stop - start
            blk_a = p_a.sum(axis=0) / k
            blk_b = p_b.sum(axis=0) / k
            m = (p_a - blk_a).T @ (p_b - blk_b)
            if start == spans[b][0]:
                n, cov, mean_a, mean_b = k, m, blk_a, blk_b
            else:
                d_a = blk_a - mean_a
                d_b = blk_b - mean_b
                cov += m + np.outer(d_a, d_b) * (n * k / (n + k))
                mean_a += d_a * (k / (n + k))
                mean_b += d_b * (k / (n + k))
                n += k
            if stop == spans[b][1]:
                cov /= n - 1.0
                yield cov, mean_a, mean_b
        del i_a, i_b, p_a, p_b  # freed before the next block is propagated


def estimate_gamma(
    run: SpeckleRun,
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    reference: CorrelationGrid,
    threads: int | None = None,
) -> tuple[CorrelationGrid, ConvergenceReport]:
    """Estimate the crossed correlation term as an intensity covariance.

    Gamma^(rho_a, rho_b) = <I_a(rho_a) I_b(rho_b)> - <I_a(rho_a)><I_b(rho_b)>
    over ``run.n_realizations`` speckle realizations, split into
    ``run.n_batches`` batches whose spread gives the error bars. Consecutive
    batches are propagated together in blocks (``_batch_covariances``) in
    the caller's thread. Each batch is reduced from its own rows and folded,
    in batch order, into the realization-weighted mean and Welford's mean
    and M2 of the batch covariances, se = sqrt(M2 / ((B - 1) B)).

    ``threads`` is unused: ``bench/replay.py`` still passes it, and it goes
    with that replay.

    Propagation runs in complex64 (module docstring), so a cell adds to a
    pixel's field only what float32 holds beside the other cells' terms,
    about 2^-24 of them, and each intensity is |E| rounded to float32,
    squared. A source whose light comes from one cell to within that
    precision (a narrow source whose neighbour cells sit decades below its
    centre) has intensities that are constant up to rounding: its estimate
    is rounding residue, within the propagation rounding bound of 0, and
    when that residue has no positive entry (every realization's
    intensities rounding alike) this raises DegenerateStatistics, "no
    positive peak".

    The returned grid is that estimate clipped at 0, because a
    ``CorrelationGrid`` holds no negative value. The clip is not small:
    on the two Monte Carlo bench configs at their own seeds, 30% and 49%
    of the entries are negative, the most negative at -0.10 and -0.88 of
    the peak. The report's ``l1``, ``linf`` and ``se_l1`` are measured on
    the signed estimate before the clip, so they do not describe the
    clipped grid.

    The report measures the distance to ``reference``, a deterministic
    surface the caller supplies on the run's own detector axes (the runner
    passes ``gamma_quadrature`` of the resolved quadrature).
    """
    if reference.axis_a != run.axis_a or reference.axis_b != run.axis_b:
        raise ValueError(
            f"reference axes ({reference.axis_a}, {reference.axis_b}) differ "
            f"from the run's ({run.axis_a}, {run.axis_b})"
        )
    amp = source.amplitude(_source_half(run.axis_s.coordinates))[:, None]  # f(d) = f(-d)
    # f is folded into the fresh float64 blocks in place, and each kept
    # block is then rounded to complex64 once: no float64 block outlives
    # this statement, and both arms' live to its end (the rounding stage of
    # ``sampling_bytes``)
    k_a, k_b = (
        ParityKernel(k.n, tuple(
            None if b is None else np.multiply(b, amp, out=b).astype(np.complex64) for b in k.blocks
        ))
        for k in arm_kernels(geom, mask, run.axis_s, run.axis_a, run.axis_b, run.n_object)
    )
    n = run.axis_s.n

    edges = np.linspace(0, run.n_realizations, run.n_batches + 1).astype(int)
    spans = [(int(edges[k]), int(edges[k + 1])) for k in range(run.n_batches)]
    batches = _batch_covariances(k_a, k_b, run.seed, n, spans)
    raw, mean, m2 = (np.zeros((run.axis_a.n, run.axis_b.n)) for _ in range(3))
    sum_a, sum_b = np.zeros(run.axis_a.n), np.zeros(run.axis_b.n)
    # batches first: zip then runs the generator to its end, which frees its last block
    for j, ((cov, mean_a, mean_b), (lo, hi)) in enumerate(zip(batches, spans), 1):
        raw += cov * ((hi - lo) / run.n_realizations)
        delta = cov - mean  # Welford's update of the batches' mean and M2
        mean += delta / j
        m2 += delta * (cov - mean)
        sum_a += mean_a
        sum_b += mean_b
    se = np.sqrt(m2 / ((run.n_batches - 1) * run.n_batches))
    del cov, delta, mean, m2  # only raw and se outlive the fold
    if np.any(sum_a == 0.0) or np.any(sum_b == 0.0):
        raise DegenerateStatistics(
            "a mean detected intensity is exactly zero; no speckle statistics"
        )

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
