"""Anti-aliasing policy: one table of worst-case phase rates, one step check.

Every sampled oscillatory factor has a phase quadratic or bilinear in
transverse coordinates, so its rate along one coordinate is bounded by the
largest |coordinate| of the others. The sizers (``QuadratureSpec.auto``,
``montecarlo.default_sampling``) evaluate the table on the declared extents;
the guards (``gamma_quadrature``, ``intensity_b`` and ``arm_kernels`` on
their source nodes or cells, the object half products of ``correlator``
on the object nodes they build for all three) evaluate it on the nodes actually integrated and
refuse any step advancing a phase by more than ``MAX_PHASE_STEP``. An
auto-sized grid therefore passes its own guard, and no declared span that
places no nodes can loosen one.

The bilinear phase matrices exp(-i c x_j y_k) that every two-arm integral
factors into are built here too, by block anchoring along the evenly
spaced coordinate y: node k = qB + p is the anchor y_qB plus the block-0
offset y_p - y_0, so each entry is the product of two exponentials from
tables of about sqrt(n_y) columns. Each entry takes one rounded complex
product and no recurrence, so nothing drifts along y. One anchoring
(``_anchoring``) has two outputs: the complex matrix (``phase_matrix``)
and its cosine and sine as two real planes, streamed in small blocks
(``phase_planes``) for real matmuls; there each entry's complex product
is split into the two planes. Every cos/sin table of the two-arm sums
streams from here, in the blocks of ``plane_block``, the one home of their
layout and budget, and each pairs mirrored nodes about their midpoint: the
object sum's column tables (y the non-negative half eps of rho_b, x the
non-negative half e of the object nodes) and its planes over the source
half (y the half d >= 0 of rho_s, x that e, ceil(n_o / 2) columns, one per
mirror pair), and Gamma's source side (y that d, x the non-negative half
of rho_a, ceil(n_a / 2) columns).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import UnderResolved
from .optics import Axis, ObjectMask, SetupGeometry, SourceProfile

# Hard anti-aliasing limit on the per-step phase increment of any
# oscillatory factor sampled by the simulator.
MAX_PHASE_STEP = np.pi / 2.0

# float64 entries one phase_planes block may hold (8 MiB): its cos/sin
# planes, their tables and the caller's products (``plane_block``)
_BLOCK_ENTRIES = 2**20

# evenness tolerance, in ulps of the axis scale (max|y|, or max|rho_s| for
# the object transfer's source half, max|rho_b| for the object sum's column
# tables): on a node's distance from its block anchor plus block-0 offset
# (_anchoring; linspace and Axis nodes stay within 2.5) and from its mirror
# image about the midpoint (correlator's sums, for rho_s and the detector
# axes rho_a and rho_b within 1 and, at the scale max|rho_o|, for every
# built-in mask's object nodes within 2); Gamma's source factor F w_s must
# match its mirror to as many ulps of its peak.
_EVEN_ULPS = 8


@dataclass(frozen=True)
class PhaseRates:
    """Worst-case phase rate in rad/m of each sampled factor along its step.

    ``cell`` is the unresolved-cell rule as a rate (the linear phase
    w rho_x rho_s / z across one cell at the farthest detector pixel); its
    pi/2 limit is step <= lambda0 min(z_a, z_b) / (4 max(|rho_a|, |rho_b|/M)).
    """

    gamma_s: float  # Gamma integrand along rho_s
    object: float  # every rho_o integral, all in correlator's object half products
    intensity_b_s: float  # intensity_b along rho_s (the argument of A~)
    arm_a: float  # arm-a Fresnel kernel per source cell
    arm_b: float  # arm-b kernel per source cell
    cell: float  # unresolved source cell


def rates(geom: SetupGeometry, s, o, a, b) -> PhaseRates:
    """The rate table for the coordinates rho_s, rho_o, rho_a and rho_b.

    Each argument is a node array or a bare extent; only its largest
    |value| enters. Raises OverflowError, naming them, if any rate is not
    finite.
    """
    s, o, a, b = (float(np.max(np.abs(x))) for x in (s, o, a, b))
    w = geom.omega0_over_c
    c1 = w / geom.z_b
    chirp = w * abs(1.0 / geom.z_b - 1.0 / geom.z_a) * s
    r = PhaseRates(
        gamma_s=chirp + c1 * (o + (geom.z_b / geom.z_a) * a),
        object=c1 * (s + b / geom.M),
        intensity_b_s=c1 * o,
        arm_a=(w / geom.z_a) * (a + s),
        arm_b=c1 * (s + o),
        cell=(w / min(geom.z_a, geom.z_b)) * max(a, b / geom.M),
    )
    bad = [name for name, rate in vars(r).items() if not np.isfinite(rate)]
    if bad:
        raise OverflowError(
            f"phase rate {', '.join(bad)} overflows at max |rho_s|, |rho_o|, |rho_a|, "
            f"|rho_b| = {s:.3e}, {o:.3e}, {a:.3e}, {b:.3e} m"
        )
    return r


def declared_rates(
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    axis_a: Axis,
    axis_b: Axis,
    source_span: float | None = None,
) -> PhaseRates:
    """The table on the declared extents (source interval, mask support,
    detector axes), as the sizers use it. ``source_span`` is the Gaussian
    half-width the quadrature will integrate (default 5 sigma)."""
    return rates(
        geom,
        source.quadrature_interval(source_span)[1],
        mask.support_half_width,
        axis_a.coordinates,
        axis_b.coordinates,
    )


def step_limit(rate: float, guard_factor: float = 1.0) -> float:
    """Largest step keeping the phase advance at MAX_PHASE_STEP / guard_factor."""
    return (MAX_PHASE_STEP / guard_factor) / rate


def check_step(what: str, step: float, rate: float) -> None:
    """Raise UnderResolved if one step advances a phase of worst-case
    ``rate`` by more than MAX_PHASE_STEP."""
    if rate * step > MAX_PHASE_STEP:
        raise UnderResolved(
            f"{what} step {step:.3e} m advances the phase by {rate * step:.2f} rad "
            f"> pi/2; need step <= {step_limit(rate):.3e} m"
        )


def anchor_block(n: int) -> int:
    """Anchor spacing B = ceil(sqrt(n)) of ``n`` nodes: about sqrt(n)
    anchors and sqrt(n) offsets, the fewest exponentials for n entries."""
    return int(np.ceil(np.sqrt(n)))


def _anchoring(y: np.ndarray, block: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Anchors y[::block] and block-0 offsets y[:block] - y[0] of ``y``.

    Node qB + p is anchor y_qB plus offset y_p - y_0. Raises ValueError
    unless every node matches its anchor plus offset to within
    _EVEN_ULPS ulps of ``scale``, the magnitude at which the nodes were
    rounded (an evenly spaced y passes).
    """
    anchors, offsets = y[::block], y[:block] - y[0]
    k = np.arange(y.size)
    drift = np.abs(anchors[k // block] + offsets[k % block] - y)
    if not np.all(drift <= _EVEN_ULPS * np.spacing(scale)):
        raise ValueError(
            f"block anchoring needs evenly spaced y; node {int(np.argmax(drift))} "
            f"is {float(np.max(drift)):.3e} off its block anchor plus offset"
        )
    return anchors, offsets


def phase_matrix(c: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear phase matrix exp(-i c x_j y_k), shape (x.size, y.size).

    Every coupling phase of the two-arm integrals is bilinear, so each
    kernel factors into these matrices and dense matmuls.

    ``y`` must be evenly spaced; ``x`` may be any node set (a piecewise
    uniform two-slit rho_o goes here). With blocks of B = ceil(sqrt(n_y))
    nodes, y_(qB+p) = y_qB + (y_p - y_0), so

        exp(-i c x y_(qB+p)) = exp(-i c x y_qB) * exp(-i c x (y_p - y_0))

    and the n_x n_y complex exps of the direct build shrink to about
    2 n_x sqrt(n_y) plus one complex product per entry. Against the direct
    ``np.exp(-1j * c * np.outer(x, y))`` the largest absolute error is
    8.8e-14 on the refocus demo's 916 x 4379 object-source matrix (phases
    up to 151 rad). A ``y`` whose nodes do not match their anchor plus
    offset to within _EVEN_ULPS ulps of max|y| raises ValueError
    (``_anchoring``).

    The result is the transpose of a C-ordered (y.size, x.size) buffer,
    so the products run over contiguous rows of length x.size.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    block = anchor_block(n)
    anchors, offsets = _anchoring(y, block, np.max(np.abs(y)))
    a = np.exp((-1j * c) * np.outer(anchors, x))
    e = np.exp((-1j * c) * np.outer(offsets, x))
    out = np.empty((n, x.size), dtype=complex)
    for q, lo in enumerate(range(0, n, block)):
        hi = min(lo + block, n)
        np.multiply(a[q], e[: hi - lo], out=out[lo:hi])
    return out.T


def plane_block(
    n_y: int, n_x: int, row_entries: int, col_entries: int
) -> tuple[int, int, int, int]:
    """Rows R, columns K and anchor spacing B of one ``phase_planes`` block
    over ``n_y`` nodes of y by ``n_x`` of x, and the float64 entries it
    holds: K (2R + 4B + 3) of planes and tables, and the caller's products,
    ``row_entries`` a row of y and ``col_entries`` a column of x.

    K is n_x up to sqrt(_BLOCK_ENTRIES) = 1024, and small enough that the
    column products take at most half the budget, so the matmuls keep a
    hundred rows or more. R is the most rows the rest fits were B as large
    as R, at least one, rounded down to a multiple of
    B = min(ceil(sqrt(n_y)), R) unless it covers y.
    """
    cols = min(n_x, math.isqrt(_BLOCK_ENTRIES), max(1, _BLOCK_ENTRIES // max(1, 2 * col_entries)))
    rows = max(1, (_BLOCK_ENTRIES - cols * (3 + col_entries)) // (6 * cols + row_entries))
    block = min(anchor_block(n_y), rows)
    rows = n_y if rows >= n_y else rows - rows % block
    return rows, cols, block, cols * (2 * rows + 4 * block + 3 + col_entries) + row_entries * rows


def phase_planes(
    c: float, x: np.ndarray, y: np.ndarray, rows: int, cols: int, block: int, scale: float
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Stream cos(c x_j y_k) and sin(c x_j y_k) in blocks of at most
    ``rows`` nodes of y by ``cols`` nodes of x.

    Yields (ys, xs, planes) for each chunk xs of x and, within it, each
    block ys of y: planes[0] and planes[1] are the cosine and sine on
    y[ys] x x[xs], C-ordered, so each feeds a real matmul as it stands;
    exp(-i c x y) = planes[0] - i planes[1]. The planes are one buffer,
    reused: read each block before the next.

    This is ``phase_matrix``'s anchoring with the opposite sign: per chunk
    of x, the offset table exp(i c x (y_p - y_0)), p < ``block``, is built
    once, each anchor y_qB adds one row exp(i c x y_qB), and each entry is
    the angle sum as one complex product, (cos a + i sin a)(cos b + i sin b)
    = cos(a + b) + i sin(a + b), whose real and imaginary parts are copied
    into the two planes. ``rows`` must be a multiple of ``block`` unless
    it covers y, so every block starts at an anchor. Evenness is checked
    once, on all of y, to _EVEN_ULPS ulps of ``scale``. Besides the planes
    (2 rows cols entries) this holds the complex offset table and product
    buffer (4 block cols) and the anchor row with its angles (3 cols).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    if rows < n and rows % block:
        raise ValueError(f"phase_planes needs rows a multiple of block, got {rows} and {block}")
    anchors, offsets = _anchoring(y, block, scale)
    cols = min(cols, x.size)
    tables = np.empty((2 * block + 1) * cols, dtype=complex)
    angles = np.empty(cols)
    buffer = np.empty(2 * min(rows, n) * cols)
    for j in range(0, x.size, cols):
        xs = x[j : j + cols]
        k = xs.size
        offset, product = tables[: 2 * block * k].reshape(2, block, k)
        anchor, ang = tables[2 * block * k : (2 * block + 1) * k], angles[:k]
        np.multiply.outer(offsets, xs, out=offset.imag)
        offset.imag *= c
        np.cos(offset.imag, out=offset.real)
        np.sin(offset.imag, out=offset.imag)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            planes = buffer[: 2 * (hi - lo) * k].reshape(2, hi - lo, k)
            for start in range(lo, hi, block):
                m = min(block, hi - start)
                np.multiply(xs, anchors[start // block], out=ang)
                ang *= c
                np.cos(ang, out=anchor.real)
                np.sin(ang, out=anchor.imag)
                np.multiply(offset[:m], anchor, out=product[:m])
                planes[0, start - lo : start - lo + m] = product[:m].real
                planes[1, start - lo : start - lo + m] = product[:m].imag
            yield slice(lo, hi), slice(j, j + k), planes
