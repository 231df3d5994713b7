"""Deterministic evaluation of the two-arm correlation integrals.

The central object is the crossed correlation term Gamma(rho_a, rho_b): the
squared modulus of a double integral over the source and object planes,
whose integrand carries a quadratic source chirp plus linear coupling
phases. It is evaluated by composite trapezoidal product quadrature with an
explicit anti-aliasing guard (the rate table of ``cpi_sim.phase``, on the
nodes actually integrated): if the integrand phase can advance by more than
pi/2 between adjacent nodes, the evaluation refuses to run instead of
silently returning an aliased surface.

Every propagator is built here, in ``arm_kernels``. The sums run on
mirror pairs of nodes on all four axes, each about its own midpoint,
streamed through small real cos/sin planes. The object sum gives the
half products CW and SW on the non-negative half of the source axis; it
pairs mirrored object nodes, so its planes span half the object nodes,
and mirrored detector-b pixels, so its column tables split the object
factor into parity parts on half the pixels and leave out the parts that
are exactly zero (three of four for a slit on centred axes). Each row
turns once there, by (c1 m - c_a mu_a) d, Gamma's source-side turn
included. Gamma contracts the half products against the cos/sin planes
of its source phase on the non-negative half of the detector-a axis,
I_b sums their squared moduli, and the arm-b kernel scales them into its
mirror-pair columns, so no full T is built. Every paired sum adds into a
zeroed buffer in the parity layout of ``ParityKernel``, which Gamma and
I_b turn into pixel values once (``_unpair``).
Also provided: the detector intensities (flat in arm a, object-Fourier
modulated in arm b), the geometric-optics limit of Gamma, and the
closed-form widths of the Gaussian-source point-spread functions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import phase
from .errors import ResourceLimit, UnderResolved
from .optics import (
    Axis,
    CorrelationGrid,
    ObjectMask,
    SampledImage,
    SetupGeometry,
    SourceProfile,
    fresnel_prefactor,
    gaussian_phase,
    object_quadrature,
    source_quadrature,
)

MIN_NODES = 16  # floor on every quadrature and source-cell node count


# a cgroup v2 container's memory limit: bytes, or "max" for none
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")


def _memory_limit() -> float:
    """The host's physical memory, or the container's cgroup v2 limit if
    that is smaller. A missing or unreadable file, or "max", is no limit."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # the host does not report it
        physical = math.inf
    try:
        text = _CGROUP_MEMORY_MAX.read_text(encoding="ascii").strip()
    except (OSError, ValueError):
        return physical
    return min(physical, int(text)) if text.isdigit() else physical


# bytes of propagator and grid arrays one run may hold: the memory the run
# can have, since a run that needs more cannot finish
MAX_WORKING_SET = _memory_limit()


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and source span for the (rho_o, rho_s) product rule.

    ``source_span`` is a half-width in metres. For Gaussian sources it must
    reach at least 5 sigma, checked by ``SourceProfile.quadrature_interval``;
    top hats are always integrated over exactly their support, and object
    nodes always cover exactly ``mask.support_intervals()``.
    """

    n_source: int
    n_object: int
    source_span: float

    def __post_init__(self):
        if min(self.n_source, self.n_object) < MIN_NODES:
            raise ValueError(f"quadrature needs at least {MIN_NODES} nodes per axis")
        if not (self.source_span > 0.0):
            raise ValueError("quadrature source_span must be positive")

    @classmethod
    def auto(
        cls,
        geom: SetupGeometry,
        source: SourceProfile,
        mask: ObjectMask,
        axis_a: Axis,
        axis_b: Axis,
        guard_factor: float = 4.0,
        source_span: float | None = None,
    ) -> "QuadratureSpec":
        """Pick node counts that keep per-step phases below
        (pi/2)/guard_factor for the given detector grids.

        guard_factor > 1 leaves convergence headroom beyond the hard
        anti-aliasing limit; 4 gives ~16x smaller trapezoid error than the
        bare limit. Both counts are sized for ``source_span`` (default: the
        source's own quadrature interval), the span that will be integrated.
        """
        source_span = source.quadrature_interval(source_span)[1]
        r = phase.declared_rates(geom, source, mask, axis_a, axis_b, source_span)
        step_s = phase.step_limit(r.gamma_s, guard_factor)
        step_o = phase.step_limit(r.object, guard_factor)
        # a gap of linspace's nodes can pass the nominal step 2 span / (n - 1)
        # by a few ulp(span), rounding of the step, of each node and of their
        # difference (at most 4), so the count is sized for the limit less
        # twice that, and takes floor + 2 nodes, not ceil + 1, which puts the
        # step on the limit at an integer ratio. Nothing is allocated, so a
        # span no run could hold is left to check_working_set.
        slack = 8.0 * float(np.spacing(source_span))
        if step_s <= slack:
            raise UnderResolved(
                f"source step limit {step_s:.3e} m is below float64 resolution "
                f"at span {source_span:.3e} m"
            )
        n_source = max(MIN_NODES, int(np.floor(2.0 * source_span / (step_s - slack))) + 2)
        intervals = mask.support_intervals()
        support = sum(hi - lo for lo, hi in intervals)
        n_object = max(MIN_NODES, int(np.ceil(support / step_o)) + len(intervals) + 1)
        return cls(n_source=n_source, n_object=n_object, source_span=source_span)


def check_working_set(
    what: str, n_source: int, n_object: int, n_a: int, n_b: int, extra: int = 0
) -> None:
    """Raise ResourceLimit before a run from ``n_source`` source nodes would
    hold more than ``MAX_WORKING_SET`` bytes.

    The estimate counts the arrays of the object sum and of Gamma: the
    half products CW and SW (2 ceil(n_source / 2) x n_b complex, the
    buffer that holds K_b's parity blocks in ``arm_kernels``), the column
    tables of the object sum (2 ceil(n_object / 2) x 4 ceil(n_b / 2)
    floats, all four parity blocks kept) and the n_a x n_b grid twice,
    for G and then |G|^2 and Gamma; and the largest ``phase.plane_block`` plan of the
    four streams: the column tables' (ceil(n_b / 2) rows by the
    ceil(n_object / 2) mirror pairs), the object sum's (its part products
    and row turn, 8 ceil(n_b / 2) floats a source row), Gamma's source
    side's (ceil(n_a / 2) columns) and the arm-a kernel's (ceil(n_a / 2)
    columns, no products). ``_unpair``'s copy of half of G is within the
    grid's second count; ``intensity_b``'s of half its half products is
    below the float squares that follow it, which are not counted. With
    ``n_source = 0`` it bounds the output grid alone. ``extra`` adds the
    bytes the caller holds beside them: a Monte Carlo run's arm-a parity
    blocks, its sampling block and its fold, from
    ``SpeckleRun.sampling_bytes``.
    """
    need = 16 * n_a * n_b + extra
    if n_source:
        half, pairs, k = (n_source + 1) // 2, (n_object + 1) // 2, (n_b + 1) // 2
        need += 16 * (2 * half * n_b + n_a * n_b) + 8 * 8 * pairs * k + 8 * max(
            phase.plane_block(k, pairs, 0, 0)[3],
            phase.plane_block(half, pairs, 8 * k, 0)[3],
            phase.plane_block(half, (n_a + 1) // 2, 0, 4 * n_b)[3],
            phase.plane_block(half, (n_a + 1) // 2, 0, 0)[3],
        )
    check_bytes(
        what, need, f"{n_source} source nodes, {n_object} object nodes, n_a = {n_a}, n_b = {n_b}"
    )


def check_bytes(what: str, need: float, counts: str) -> None:
    """Raise ResourceLimit, naming the ``counts`` that size it, if ``what``
    needs more than ``MAX_WORKING_SET`` bytes."""
    if need > MAX_WORKING_SET:
        raise ResourceLimit(
            f"{what} needs {need / 2**30:.3g} GiB ({counts}), above the "
            f"{MAX_WORKING_SET / 2**30:.3g} GiB working-set limit (physical or cgroup memory)"
        )


def _max_step(nodes: np.ndarray) -> float:
    return float(np.max(np.diff(nodes)))


def intensity_prefactor_a(geom: SetupGeometry) -> float:
    """Flat arm-a intensity level: |2 pi h(omega0, z_a)|^2 times unit source mass."""
    return float(np.abs(2.0 * np.pi * fresnel_prefactor(geom.omega0_over_c, geom.z_a)) ** 2)


def arm_b_prefactor(geom: SetupGeometry) -> complex:
    """Complex arm-b prefactor h_b = h(omega0, z_b) h(omega0, S_i) S_o / z_b."""
    w = geom.omega0_over_c
    return fresnel_prefactor(w, geom.z_b) * fresnel_prefactor(w, geom.S_i) * (geom.S_o / geom.z_b)


def intensity_prefactor_b(geom: SetupGeometry) -> float:
    """Arm-b intensity level: |2 pi h_b|^2 (see ``arm_b_prefactor``)."""
    return float(np.abs(2.0 * np.pi * arm_b_prefactor(geom)) ** 2)


def _mirror_split(x: np.ndarray, what: str) -> tuple[float, np.ndarray]:
    """Midpoint c of the nodes ``x`` and the exact odd part of x - c.

    Each node moves by at most a few ulps. Raises ValueError, ``what`` and
    the worst pair's lower node, unless every node matches its mirror image
    about c to within _EVEN_ULPS ulps of max|x|, the scale it was rounded at.
    """
    c = 0.5 * (x[0] + x[-1])
    d = x - c
    odd = 0.5 * (d - d[::-1])
    drift = np.abs(odd - d)
    if np.any(drift > phase._EVEN_ULPS * np.spacing(np.max(np.abs(x)))):
        worst = int(np.argmax(drift))  # a pair's two nodes drift alike: either may be named
        raise ValueError(
            f"{what}; node {min(worst, x.size - 1 - worst)} is {float(np.max(drift)):.3e} m "
            f"off the mirror image of its partner about the midpoint {c:.6e} m"
        )
    return c, odd


def _mirror_halves(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``x`` along ``axis``, whose n entries sit on nodes mirrored
    about their midpoint mu: the entries at mu + eps_j and at mu - eps_j,
    for the nodes eps_j >= 0 in ascending order. The second view starts at
    j = n % 2, so the eps = 0 entry of an odd n, its own mirror, is in the
    first alone."""
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0]
    return np.moveaxis(x[n // 2 :], 0, axis), np.moveaxis(x[::-1][n - n // 2 :], 0, axis)


def _unpair(x: np.ndarray, axis: int) -> np.ndarray:
    """Turn the parity parts of ``x`` along ``axis``, in the layout of
    ``ParityKernel``, into pixel values in place and return ``x``: E + O at
    mu + eps and E - O at mu - eps; an odd n's eps = 0 entry keeps E."""
    plus, minus = _mirror_halves(np.moveaxis(x, axis, 0))
    even, odd = plus[x.shape[axis] % 2 :], minus.copy()  # an odd n's eps = 0 has no mirror
    np.subtract(even, odd, out=minus)
    even += odd
    return x


def _half_products(
    geom: SetupGeometry,
    mask: ObjectMask,
    n_object: int,
    half,
    rho_b,
    turn: float = 0.0,
) -> np.ndarray:
    """The object sum on the source half ``half`` (``_source_half``), over
    mirror pairs of object nodes and of detector-b pixels.

    The object nodes and the pixels split about their midpoints
    (``_mirror_split``): rho_o = m + e and rho_b = mu_b + eps. With
    c1 = w/z_b and kappa = mu_b/M, the phase exp(-i c1 rho_o (d + rho_b/M))
    leaves the object factor r(e) = A w_o exp(-i c1 (m + e) kappa), the
    row turn by phi = c1 m d, the column phase exp(-i theta),
    theta = c1 m eps / M, and the cosines and sines of c1 e d and
    c1 e eps / M, even and odd in e.
    So r folds into its parity parts r+- = r(e) +- r(-e) on the e >= 0
    half (the e = 0 node of an odd count, its own mirror, counted once),
    and on the eps >= 0 half of rho_b, with c_eps and s_eps the cosine and
    sine of c1 e eps / M,

        X1 = cos^T (r+ c_eps), X2 = sin^T (r+ s_eps),
        X3 = sin^T (r- c_eps), X4 = cos^T (r- s_eps),
        CW'(d, mu_b +- eps) = exp(-+i theta) (X1 -+ i X4),
        SW'(d, mu_b +- eps) = exp(-+i theta) (X3 -+ i X2).

    for the planes cos(c1 e d) and sin(c1 e d) of ``phase.phase_planes``
    over ceil(n_o / 2) object columns. Each plane multiplies the real and
    imaginary parts of its two column tables, four blocks of
    ceil(n_b / 2) float columns, of which a block that is exactly zero on
    every node is left out: the imaginary parts of a real mask at
    kappa = 0, and r- of a mirror-symmetric one (r+ of an odd one). A slit
    on centred axes runs one block per plane, and on moved axes two (Re r+
    and Im r-): the phase is taken at m + e, so mirrored nodes get exactly
    conjugate factors. Each row then turns once, by phi = (c1 m - turn) d
    (not at all at rate 0), CW = cos(phi) CW' - sin(phi) SW' and
    SW = sin(phi) CW' + cos(phi) SW'. The column phase exp(-+i theta) is
    left out: a unit factor per pixel, it drops out of Gamma's |G|^2, of
    I_b and of the arm-b intensity |E_b|^2 (and is 1 for m = 0, as for
    every slit). Returns cs, shape (2, n_half, n_b), the parity parts
    about mu_b of (CW, SW), with CW = cos^T W_b and SW = sin^T W_b, each
    column times exp(i theta), for W_b = A w_o exp(-i c1 rho_o rho_b/M)
    and cos(c1 rho_o d), sin(c1 rho_o d); a nonzero ``turn`` (Gamma passes
    c_a mu_a) turns them back by turn d, to cos(turn d) CW + sin(turn d) SW
    and cos(turn d) SW - sin(turn d) CW. The parts are in the layout of
    ``ParityKernel``: the even parts X1 and X3 on the columns of the
    pixels mu_b + eps, and the odd parts at mu_b + eps, -i X4 and -i X2,
    on the columns of their mirror pixels mu_b - eps (``_unpair``). The
    row turn mixes whole rows, so it turns the parts as the pixel values.

    The column tables stream once from ``phase.phase_planes`` at c1 / M
    (rows eps, columns e); the half streams through the planes at c1 in
    ``phase.plane_block``'s blocks of source rows by object columns, each
    chunk of object columns adding its share of each kept block to every
    row of the zeroed cs, so besides cs and the tables a call holds at
    most one 8 MiB block, whatever ``n_object``. Before it builds anything it
    refuses fewer than ``MIN_NODES`` object nodes (ValueError), checks its
    object step against the rate on its nodes, and checks that the object
    nodes and rho_b are mirror-symmetric about their midpoints
    (ValueError), each once, at the scale of its max|x|.
    """
    if n_object < MIN_NODES:
        raise ValueError(f"n_object: need at least {MIN_NODES} object nodes, got {n_object}")
    rho_o, w_o, step_o = object_quadrature(mask, n_object)
    r = phase.rates(geom, half[-1], rho_o, 0.0, rho_b)  # only r.object is read
    phase.check_step(f"object quadrature (n_object = {n_object})", step_o, r.object)
    m, e = _mirror_split(
        rho_o, "the object sum needs object nodes mirror-symmetric about their midpoint"
    )
    mu_b, eps = _mirror_split(rho_b, "the object transfer needs evenly spaced rho_b")

    c1 = geom.omega0_over_c / geom.z_b
    n_o, n_b = rho_o.size, rho_b.size
    h, k = (n_o + 1) // 2, (n_b + 1) // 2
    amp = mask.transmission(rho_o) * w_o * np.exp((-1j * c1 * (mu_b / geom.M)) * (m + e))
    if n_o % 2:  # e = 0 is its own mirror: r+ counts its two half-weight terms once
        amp[h - 1] *= 0.5
    upper, lower = amp[n_o // 2 :], amp[(n_o - 1) // 2 :: -1]  # row j pairs e_j with -e_j
    r_plus, r_minus = upper + lower, upper - lower
    # the cosine plane multiplies U = r+ c_eps and V = r- s_eps, the sine
    # plane U = r- c_eps and V = r+ s_eps, each as the float blocks Re U,
    # Im U, Im -iV = -Re V, Re -iV = Im V; a block that is exactly zero is
    # left out (None), and slots holds where each kept block's k columns start
    parts = [
        [v if np.any(v) else None for v in (x.real, x.imag, -y.real, y.imag)]
        for x, y in ((r_plus, r_minus), (r_minus, r_plus))
    ]
    n_cols = k * sum(v is not None for v in parts[0])  # each plane holds every nonzero part once
    slots = []
    for plane in parts:
        starts = iter(range(0, n_cols, k))
        slots.append([None if v is None else next(starts) for v in plane])
    columns = np.empty((2, h, n_cols))
    e_half = e[n_o // 2 :]
    rows, cols, block, _ = phase.plane_block(k, h, 0, 0)
    scale = np.max(np.abs(rho_b))
    for b_rows, o_cols, trig in phase.phase_planes(
        c1 / geom.M, e_half, eps[n_b // 2 :], rows, cols, block, scale
    ):
        for p in (0, 1):
            for v, j, t in zip(parts[p], slots[p], (0, 0, 1, 1)):
                if v is not None:
                    np.multiply(
                        v[o_cols, None], trig[t].T,
                        out=columns[p, o_cols, j + b_rows.start : j + b_rows.stop],
                    )

    cs = np.zeros((2, half.size, n_b), dtype=complex)  # a block left out stays zero
    # the float parts of CW and SW at mu_b + eps and at mu_b - eps
    halves = [_mirror_halves(plane, axis=1) for plane in cs.view(float).reshape(2, -1, n_b, 2)]
    rate = c1 * m - turn
    width = max(n_cols, 2 * n_b) if rate else n_cols  # the part products, or the turn's
    rows, cols, block, _ = phase.plane_block(half.size, h, 2 * width, 0)
    products = np.empty((2, rows, width))
    if rate:
        phi = rate * half
        cos_phi, sin_phi = np.cos(phi)[:, None], np.sin(phi)[:, None]
    for s_rows, o_cols, planes in phase.phase_planes(c1, e_half, half, rows, cols, block, half[-1]):
        n_rows = planes.shape[1]
        prod = np.matmul(planes, columns[:, o_cols], out=products[:, :n_rows, :n_cols])
        for p, (plus, minus) in enumerate(halves):
            # Re U, Im U at mu_b + eps, and Im, Re of -i V, the odd part there, at
            # mu_b - eps: a block's last k - n_b % 2 columns (eps = 0 has no mirror)
            plus, minus = plus[s_rows], minus[s_rows]
            for out, j in zip((plus[..., 0], plus[..., 1], minus[..., 1], minus[..., 0]), slots[p]):
                if j is not None:  # a block left out as exactly zero adds nothing
                    out += prod[p, :, j + k - out.shape[1] : j + k]
        if rate and o_cols.stop == h:  # the rows are complete: turn them by phi
            cw, sw = cs.view(float)[:, s_rows]
            sin_cw, sin_sw = products[:, :n_rows, : 2 * n_b]
            np.multiply(cw, sin_phi[s_rows], out=sin_cw)
            np.multiply(sw, sin_phi[s_rows], out=sin_sw)
            cw *= cos_phi[s_rows]
            cw -= sin_sw
            sw *= cos_phi[s_rows]
            sw += sin_cw
    return cs


@dataclass(frozen=True)
class ParityKernel:
    """One arm's propagation kernel from mirror pairs of source cells to
    mirror pairs of detector pixels (``arm_kernels``).

    A realization is the row [u | v] on the h = ceil(n_s / 2) source nodes
    d >= 0, u = phi(+d) + phi(-d) and v = phi(+d) - phi(-d). The ``n``
    pixels pair about their midpoint, rho = mu + eps (``_mirror_split``),
    and ``blocks`` = (E_u, E_v, O_u, O_v) give the field's even and odd
    parts in eps:

        P = u E_u + v E_v,  Q = u O_u + v O_v,  E(mu +- eps) = P +- Q,

    each pixel up to a unit phase of its own, which drops out of |E|^2.
    E_u and E_v are h x ceil(n / 2), on the pixels mu + eps, eps >= 0, in
    pixel order. O_u and O_v are h x floor(n / 2) and hold the odd part
    at mu + eps on the column of the mirror pixel mu - eps, in pixel order
    too (eps descending); the eps = 0 pixel of an odd n is its own mirror,
    where the odd part is 0. A block that is exactly zero on every entry
    is None.
    """

    n: int
    blocks: tuple[np.ndarray | None, ...]  # (E_u, E_v, O_u, O_v)


def arm_kernels(
    geom: SetupGeometry,
    mask: ObjectMask,
    axis_s: Axis,
    axis_a: Axis,
    axis_b: Axis,
    n_object: int,
) -> tuple[ParityKernel, ParityKernel]:
    """Discrete propagation kernels from mirror pairs of source cells to
    mirror pairs of pixels on both detectors, (K_a, K_b).

    The cells must be centred on rho_s = 0 and mirror-symmetric about it:
    each node d >= 0 of their half (``_source_half``) stands for the cells
    +d and -d, and a field phi on the cells propagates as the row [u | v],
    u = phi(+d) + phi(-d) and v = phi(+d) - phi(-d), through the parity
    blocks of ``ParityKernel``. So the full kernel on a cell, K(+-d) =
    A +- B, has A = E_u +- O_u and B = E_v +- O_v at the pixels mu +- eps
    (2 A at the d = 0 cell of an odd n_s, its own mirror, where u =
    2 phi(0)). The source cell width is folded in.

    Arm a is the free Fresnel kernel h_a exp(i c_a (rho_a - rho_s)^2 / 2),
    c_a = w / z_a: with g = h_a exp(i c_a d^2 / 2), A = g cos(c_a rho_a d)
    and B = -i g sin(c_a rho_a d), up to the pixel chirp
    exp(i c_a rho_a^2 / 2), a unit factor per pixel that is left out. On
    rho_a = mu_a + eps, with C and S the cosine and sine of c_a eps d on
    the eps >= 0 half (``phase.phase_planes``) and psi = c_a mu_a d,

        E_u = g cos(psi) C,  E_v = -i g sin(psi) C,
        O_u = -g sin(psi) S,  O_v = -i g cos(psi) S,

    and at mu_a = 0 (psi = 0) only E_u = g C and O_v = -i g S are built.
    Arm b is the prefactor h_b (``arm_b_prefactor``) times the source chirp
    exp(i w d^2 / (2 z_b)) times the object transfer T(+-d) = CW -+ i SW:
    with g_b their product, A = g_b CW and B = -i g_b SW. Its blocks are
    the parity parts of CW and SW about mu_b, the layout
    ``_half_products`` writes in its own buffer, scaled there by g_b and
    -i g_b, so they are views of that one buffer and no K_b of pixel
    values is built. A slit on centred axes has CW even and SW odd in eps,
    so O_u and E_v are exactly zero there: each arm keeps two blocks, half
    the entries of the kernels on all pixels, and four on moved axes.
    """
    w = geom.omega0_over_c
    rho_s = axis_s.coordinates
    rho_a = axis_a.coordinates
    rho_b = axis_b.coordinates

    # Each cell must act as a point emitter for both detectors, and every
    # oscillatory kernel factor must be sampled below the phase limit.
    r = phase.rates(geom, rho_s, mask.support_half_width, rho_a, rho_b)
    phase.check_step("source cell (unresolved-cell rule)", axis_s.step, r.cell)
    phase.check_step("arm-a kernel source cell", axis_s.step, r.arm_a)
    phase.check_step("arm-b kernel source cell", axis_s.step, r.arm_b)
    half = _source_half(rho_s)
    cells = np.full(half.size, axis_s.step)
    if rho_s.size % 2:
        cells[0] *= 0.5  # d = 0 is its own mirror, where u = 2 phi(0)

    cs = _half_products(geom, mask, n_object, half, rho_b)
    g_b = arm_b_prefactor(geom) * gaussian_phase(half, w / geom.z_b) * cells
    cs[0] *= g_b[:, None]
    cs[1] *= (-1j * g_b)[:, None]
    m = rho_b.size // 2
    k_b = ParityKernel(
        rho_b.size, tuple(b if np.any(b) else None for b in (*cs[:, :, m:], *cs[:, :, :m]))
    )

    c_a = w / geom.z_a
    n_a, odd = rho_a.size, rho_a.size % 2
    mu_a, eps_a = _mirror_split(rho_a, "the arm-a kernel needs evenly spaced rho_a")
    g = fresnel_prefactor(w, geom.z_a) * gaussian_phase(half, c_a) * cells
    if mu_a:
        psi = c_a * mu_a * half
        cos_psi, sin_psi = np.cos(psi), np.sin(psi)
        scales = (g * cos_psi, -1j * g * sin_psi, -g * sin_psi, -1j * g * cos_psi)
    else:
        scales = (g, None, None, -1j * g)
    k = (n_a + 1) // 2
    blocks = tuple(
        None if f is None else np.empty((half.size, width), dtype=complex)
        for f, width in zip(scales, (k, k, n_a // 2, n_a // 2))
    )
    rows, cols, block, _ = phase.plane_block(half.size, k, 0, 0)
    for s_rows, a_cols, (cos, sin) in phase.phase_planes(
        c_a, eps_a[n_a // 2 :], half, rows, cols, block, half[-1]
    ):
        for f, b in zip(scales[:2], blocks[:2]):
            if b is not None:
                np.multiply(cos, f[s_rows, None], out=b[s_rows, a_cols])
        skip = odd if a_cols.start == 0 else 0  # S is 0 at the eps = 0 pixel of an odd n_a
        for f, b in zip(scales[2:], blocks[2:]):
            if b is not None:  # eps descending: the columns of the mirror pixels
                mirror = b[s_rows, ::-1][:, a_cols.start + skip - odd : a_cols.stop - odd]
                np.multiply(sin[:, skip:], f[s_rows, None], out=mirror)
    return ParityKernel(n_a, blocks), k_b


def intensity_a(geom: SetupGeometry, axis_a: Axis) -> SampledImage:
    """Detector-a intensity: flat, carrying no object information."""
    level = intensity_prefactor_a(geom)
    return SampledImage(
        axis=axis_a, values=np.full(axis_a.n, level), label="intensity_a"
    )


def _source_half(rho_s: np.ndarray) -> np.ndarray:
    """The nodes d >= 0 of ``rho_s``, each standing for d and its mirror
    -d (the d = 0 node of an odd count for itself alone): the exact odd
    part of rho_s, rho_s itself on a centred ``Axis``. Every source sum
    and both arm kernels pair d with -d, which needs rho_s centred on 0
    and mirror-symmetric about it (``_mirror_split``); else ValueError."""
    if rho_s[0] + rho_s[-1] != 0.0:
        raise ValueError("the source sum needs source nodes centred on rho_s = 0")
    what = "the source sum needs source nodes mirror-symmetric about rho_s = 0"
    return _mirror_split(rho_s, what)[1][rho_s.size // 2 :]


def _source_half_weights(source: SourceProfile, rho_s, w_s) -> tuple[np.ndarray, np.ndarray]:
    """The source half d >= 0 of ``rho_s`` (``_source_half``) and the
    weights 2 F w_s of the source sum on it, each node standing for d and
    its mirror -d; the d = 0 row of an odd n_source counts once. The
    pairing needs F w_s mirror-symmetric about rho_s = 0, to _EVEN_ULPS
    ulps of its peak; else ValueError (every built-in source passes)."""
    n = rho_s.size
    half = _source_half(rho_s)
    fw = source.intensity(half) * w_s[n // 2 :]
    mirror = source.intensity(-half) * w_s[::-1][n // 2 :]
    if np.any(np.abs(fw - mirror) > phase._EVEN_ULPS * np.spacing(max(fw.max(), mirror.max()))):
        raise ValueError("the source sum needs F w_s mirror-symmetric about rho_s = 0")
    weights = 2.0 * fw
    if n % 2:
        weights[0] = fw[0]  # d = 0 is its own mirror
    return half, weights


def intensity_b(
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    axis_b: Axis,
    quad: QuadratureSpec,
) -> SampledImage:
    """Detector-b intensity: source-averaged squared object Fourier transform.

    I_b(rho_b) = K_b * int drho_s F(rho_s) |A~[(w/z_b)(rho_s + rho_b/M)]|^2.

    The rho_s sum pairs d with -d (``_source_half_weights``) on the half
    products of ``_half_products``, |T(-d)|^2 + |T(d)|^2 =
    2 (|CW|^2 + |SW|^2), so I_b = K_b sum_d 2 F w_s (|CW|^2 + |SW|^2),
    on the half products unpaired into pixel values (``_unpair``).
    """
    rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
    rho_b = axis_b.coordinates

    r = phase.rates(geom, rho_s, mask.support_half_width, 0.0, rho_b)  # no arm a here
    phase.check_step("source", _max_step(rho_s), r.intensity_b_s)

    half, weights = _source_half_weights(source, rho_s, w_s)
    cs = _unpair(_half_products(geom, mask, quad.n_object, half, rho_b), axis=2)
    out = weights @ (np.abs(cs) ** 2).sum(axis=0)
    return SampledImage(
        axis=axis_b, values=intensity_prefactor_b(geom) * out, label="intensity_b"
    )


def gamma_quadrature(
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    axis_a: Axis,
    axis_b: Axis,
    quad: QuadratureSpec,
) -> CorrelationGrid:
    """Crossed correlation term Gamma(rho_a, rho_b) by product quadrature.

    Gamma = K_a K_b |int drho_o int drho_s A(rho_o) F(rho_s)
            exp[i (w/2)(1/z_b - 1/z_a) rho_s^2]
            exp[-i (w/z_b)((rho_o - (z_b/z_a) rho_a) rho_s + rho_o rho_b / M)]|^2

    with w = omega0/c. The rho_o sum is the object transfer, kept as its
    half products CW, SW on the nodes d >= 0 of rho_s
    (``_half_products``): T(+-d) = CW -+ i SW. With beta = w (1/z_b -
    1/z_a), c_a = w/z_a and f(d) = F w_s exp(i beta d^2 / 2), the rho_s sum
    pairs d with -d (``_source_half_weights``, which refuses a source it
    cannot pair and counts d = 0 once) and leaves

        G = 2 cos^T (f CW) + 2 sin^T (f SW),  Gamma = K_a K_b |G|^2,

    with cos and sin of c_a d rho_a. The phases constant in rho_s drop out
    of |G|^2. The pixels pair about the centre of detector a too, rho_a =
    mu_a + eps_a (``_mirror_split``): with the rows of CW and SW turned
    back by psi = c_a d mu_a, X = f (cos(psi) CW + sin(psi) SW) and
    Y = f (cos(psi) SW - sin(psi) CW), and C and S the cosine and sine of
    c_a d eps_a on the eps_a >= 0 half,

        G(mu_a +- eps_a) = C^T X +- S^T Y.

    ``_half_products`` turns by psi in its own row turn (turn = c_a mu_a),
    so here the rows are only scaled by f. The cos/sin planes stream from
    ``phase.phase_planes`` in ``phase.plane_block``'s blocks of
    ceil(n_a / 2) columns, each two real matmuls on the float views of X
    and Y; no complex V and no full T is built. G is linear, so it is
    summed as parity parts (``ParityKernel``) on both axes, C^T X into
    the zeroed rows mu_a + eps_a and S^T Y into their mirrors, and
    unpaired once along each axis before |G|^2 (``_unpair``).
    """
    w = geom.omega0_over_c
    rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
    rho_a = axis_a.coordinates
    rho_b = axis_b.coordinates

    r = phase.rates(geom, rho_s, mask.support_half_width, rho_a, rho_b)
    phase.check_step("source", _max_step(rho_s), r.gamma_s)

    half, weights = _source_half_weights(source, rho_s, w_s)
    mu_a, eps_a = _mirror_split(rho_a, "gamma_quadrature needs evenly spaced rho_a")
    c_a = w / geom.z_a
    cs = _half_products(geom, mask, quad.n_object, half, rho_b, c_a * mu_a)
    beta = w * (1.0 / geom.z_b - 1.0 / geom.z_a)
    cs *= (weights * gaussian_phase(half, beta))[:, None]  # f CW and f SW

    n_a, n_b = rho_a.size, rho_b.size
    k = (n_a + 1) // 2
    g = np.zeros((n_a, n_b), dtype=complex)
    cs_f = cs.view(float)
    rows, cols, block, _ = phase.plane_block(half.size, k, 0, 4 * n_b)
    products = np.empty((2, cols, 2 * n_b))
    plus, minus = _mirror_halves(g.view(float))
    odd = n_a % 2
    for s_rows, a_cols, planes in phase.phase_planes(
        c_a, eps_a[n_a // 2 :], half, rows, cols, block, half[-1]
    ):
        cx, sy = np.matmul(
            planes.transpose(0, 2, 1), cs_f[:, s_rows], out=products[:, : planes.shape[2]]
        )
        plus[a_cols] += cx
        skip = odd if a_cols.start == 0 else 0  # S is 0 at the eps_a = 0 row of an odd n_a
        minus[a_cols.start + skip - odd : a_cols.stop - odd] += sy[skip:]
    _unpair(_unpair(g, axis=0), axis=1)

    values = intensity_prefactor_a(geom) * intensity_prefactor_b(geom) * np.abs(g) ** 2
    return CorrelationGrid(
        axis_a=axis_a, axis_b=axis_b, values=values, z_a=geom.z_a, z_b=geom.z_b, M=geom.M
    )


def gamma_geometric(
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    axis_a: Axis,
    axis_b: Axis,
) -> CorrelationGrid:
    """Geometric-optics limit of the correlation surface, evaluated pointwise:

    Gamma_geo(rho_a, rho_b) = F(-rho_b/M)^2 |A[(z_b/z_a) rho_a - (rho_b/M)(1 - z_b/z_a)]|^2
    """
    rho_a = axis_a.coordinates[:, None]
    rho_b = axis_b.coordinates[None, :]
    ratio = geom.z_b / geom.z_a
    arg = ratio * rho_a - (rho_b / geom.M) * (1.0 - ratio)
    f_img = source.intensity(-rho_b / geom.M) ** 2
    values = f_img * np.abs(mask.transmission(arg)) ** 2
    return CorrelationGrid(
        axis_a=axis_a, axis_b=axis_b, values=values, z_a=geom.z_a, z_b=geom.z_b, M=geom.M
    )


@dataclass(frozen=True)
class PsfEval:
    """Closed-form PSF widths for a Gaussian source at one defocus.

    Widths are 1/e half-widths in the object plane. ``width_incoherent``
    tends to sigma * |1 - alpha| in the geometric limit, while
    ``width_coherent`` (the modulus of the complex Gaussian variance scale)
    shrinks like omega0^(-1/2), which is the depth-of-field advantage.
    """

    width_coherent: float
    width_incoherent: float

    def __post_init__(self):
        if not (self.width_coherent > 0.0 and self.width_incoherent > 0.0):
            raise ValueError("PSF widths must be positive")


def psf_widths(geom: SetupGeometry, sigma: float) -> PsfEval:
    """Evaluate the closed-form coherent/incoherent PSF width scales."""
    w = geom.omega0_over_c
    g = (w * sigma**2 / geom.z_b) * (1.0 - geom.alpha)
    base = geom.z_b / (w * sigma)
    return PsfEval(
        width_coherent=float(base * (1.0 + g * g) ** 0.25),
        width_incoherent=float(base * np.sqrt(1.0 + g * g)),
    )
