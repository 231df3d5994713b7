"""Deterministic evaluation of the two-arm correlation integrals.

The central object is the crossed correlation term Gamma(rho_a, rho_b): the
squared modulus of a double integral over the source and object planes,
whose integrand carries a quadratic source chirp plus linear coupling
phases. It is evaluated by composite trapezoidal product quadrature with an
explicit anti-aliasing guard (the rate table of ``cpi_sim.phase``, on the
nodes actually integrated): if the integrand phase can advance by more than
pi/2 between adjacent nodes, the evaluation refuses to run instead of
silently returning an aliased surface.

Every propagator is built here: ``arm_kernels`` and ``object_transfer``.
The object transfer T[s, b] builds phase entries for the non-negative half
of its source axis only, about the axis midpoint, streamed through two
small real cos/sin planes, and forms both mirror rows from two real
matmuls per block. Also provided: the detector intensities (flat
in arm a, object-Fourier modulated in arm b), the geometric-optics limit
of Gamma, and the closed Gaussian-source point-spread functions before and
after angular integration.
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

# float64 entries one object_transfer block may hold (8 MiB): its cos/sin
# planes, their tables and the two real products (``transfer_block``)
_BLOCK_ENTRIES = 2**20
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


def transfer_block(n_half: int, n_object: int, n_b: int) -> tuple[int, int, int, int]:
    """Rows R, object columns K and anchor spacing B of one
    ``object_transfer`` block over ``n_half`` source nodes, and the float64
    entries it holds: K (2R + 3B + 2) + 4 R n_b (``phase.phase_planes``
    and the two real products).

    K is n_object up to sqrt(_BLOCK_ENTRIES) = 1024, so the matmuls keep a
    few hundred rows whatever n_object. R is the most rows that fit
    ``_BLOCK_ENTRIES`` were B as large as R, at least one, rounded down to
    a multiple of B = min(ceil(sqrt(n_half)), R) unless it covers the half.
    """
    cols = min(n_object, math.isqrt(_BLOCK_ENTRIES))
    rows = max(1, (_BLOCK_ENTRIES - 2 * cols) // (5 * cols + 4 * n_b))
    block = min(phase.anchor_block(n_half), rows)
    rows = n_half if rows >= n_half else rows - rows % block
    return rows, cols, block, cols * (2 * rows + 3 * block + 2) + 4 * rows * n_b


def check_working_set(
    what: str, n_source: int, n_object: int, n_a: int, n_b: int, extra: int = 0
) -> None:
    """Raise ResourceLimit before a run from ``n_source`` source nodes would
    hold more than ``MAX_WORKING_SET`` bytes.

    The estimate counts the complex arrays of ``gamma_quadrature`` and
    ``arm_kernels``: T (n_source x n_b), V or K_a (n_source x n_a), the
    object factor W_b (n_object x n_b) and the n_a x n_b output grid; and
    what one ``object_transfer`` block holds (``transfer_block``): the
    cos/sin planes, their tables and the two real products. With
    ``n_source = 0`` it bounds the output grid alone. ``extra`` adds the
    bytes the caller holds beside them: Monte Carlo sampling's, from
    ``SpeckleRun.sampling_bytes``.
    """
    need = 16 * (n_source * (n_a + n_b) + n_object * n_b + n_a * n_b) + extra
    need += 8 * transfer_block((n_source + 1) // 2, n_object, n_b)[3]
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


def object_transfer(
    geom: SetupGeometry, mask: ObjectMask, n_object: int, rho_s, rho_b
) -> np.ndarray:
    """Arm-b object transfer T[s, b] = A~[c1 (rho_s + rho_b/M)], c1 = w/z_b.

    T = sum_o A(rho_o) w_o exp(-i c1 rho_o (rho_s + rho_b / M)) over the
    ``object_quadrature`` nodes of ``mask``, shape (n_s, n_b). Gamma,
    intensity_b and the arm-b kernel all use it. It checks its object step
    against the rate on these nodes before it builds anything, so no rho_o
    integral runs unguarded.

    The evenly spaced rho_s is written as c + d with c its midpoint and d
    the exact odd part of rho_s - c (each node moves by at most an ulp).
    The factor exp(-i c1 rho_o c) goes into W_b = A w_o exp(-i c1 rho_o
    (c + rho_b/M)), and since P(-d) = conj P(d) for P = exp(-i c1 rho_o d),
    only the d >= 0 half is built, as the two real planes cos(c1 d rho_o)
    and sin(c1 d rho_o) of ``phase.phase_planes``: T(c +- d) = C -+ iS with
    C = cos W_b and S = sin W_b, two real matmuls on the float view of W_b.
    The half streams through the planes in blocks of source rows by object
    columns sized by ``transfer_block``, each block adding its share to its
    rows of T, so besides T and W_b a call holds at most ``_BLOCK_ENTRIES``
    float64 entries, whatever ``n_object``. Evenness of the half is checked
    once, at the scale of max|rho_s|, where its nodes were rounded.
    """
    rho_o, w_o, step_o = object_quadrature(mask, n_object)
    r = phase.rates(geom, rho_s, rho_o, 0.0, rho_b)  # only r.object is read
    phase.check_step(f"object quadrature (n_object = {n_object})", step_o, r.object)

    n = rho_s.size
    c = 0.5 * (rho_s[0] + rho_s[-1])
    d = rho_s - c
    d_odd = 0.5 * (d - d[::-1])
    scale = np.max(np.abs(rho_s))
    tol = phase._EVEN_ULPS * np.spacing(scale)
    if np.any(np.abs(d_odd - d) > tol):  # rho_s is not mirror-symmetric about c
        raise ValueError("object_transfer needs evenly spaced rho_s")

    c1 = geom.omega0_over_c / geom.z_b
    amp_o = mask.transmission(rho_o) * w_o * np.exp((-1j * c1 * c) * rho_o)
    W_b = np.multiply(
        amp_o[:, None], phase.phase_matrix(c1 / geom.M, rho_o, rho_b), order="C"
    ).view(float)
    t = np.empty((n, rho_b.size), dtype=complex)
    half = d_odd[n // 2 :]
    up, down = t[n // 2 :], t[::-1][n // 2 :]  # down[k] is the mirror row of up[k]
    rows, cols, block, _ = transfer_block(half.size, rho_o.size, rho_b.size)
    products = np.empty((2, rows, W_b.shape[1]))
    for s_rows, o_cols, planes in phase.phase_planes(c1, rho_o, half, rows, cols, block, scale):
        cos_t, sin_t = np.matmul(planes, W_b[o_cols], out=products[:, : planes.shape[1]])
        cos_t, isin_t = cos_t.view(complex), sin_t.view(complex)
        isin_t *= 1j
        if o_cols.start:
            # later object nodes add to the rows u, v written so far: with u
            # and v folded into C and iS, up gains u and down gains v, also
            # where d = 0 makes them one row
            u, v = up[s_rows], down[s_rows]
            cos_t += 0.5 * (u + v)
            isin_t += 0.5 * (v - u)
        np.subtract(cos_t, isin_t, out=up[s_rows])
        np.add(cos_t, isin_t, out=down[s_rows])
    return t


def arm_kernels(
    geom: SetupGeometry,
    mask: ObjectMask,
    axis_s: Axis,
    axis_a: Axis,
    axis_b: Axis,
    n_object: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete propagation kernels from source cells to both detectors.

    Returns (K_a, K_b) with shapes (n_a, n_s) and (n_b, n_s); the source
    cell width is folded into the kernels, so E = K @ field.

    Arm a is the free Fresnel kernel h_a exp(i c_a (rho_a - rho_s)^2 / 2), c_a = w / z_a,
    built as h_a exp(i c_a rho_a^2 / 2) exp(-i c_a rho_a rho_s) exp(i c_a rho_s^2 / 2).
    Arm b is the prefactor h_b (``arm_b_prefactor``) times the source chirp
    exp(i w rho_s^2 / (2 z_b)) times the object transfer T[s, b] of
    ``object_transfer``.
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

    t = object_transfer(geom, mask, n_object, rho_s, rho_b)
    t *= (arm_b_prefactor(geom) * gaussian_phase(rho_s, w / geom.z_b) * axis_s.step)[:, None]

    c_a = w / geom.z_a
    k_a = phase.phase_matrix(c_a, rho_a, rho_s)
    k_a *= (fresnel_prefactor(w, geom.z_a) * gaussian_phase(rho_a, c_a))[:, None]
    k_a *= gaussian_phase(rho_s, c_a) * axis_s.step
    return k_a, t.T


def intensity_a(geom: SetupGeometry, axis_a: Axis) -> SampledImage:
    """Detector-a intensity: flat, carrying no object information."""
    level = intensity_prefactor_a(geom)
    return SampledImage(
        axis=axis_a, values=np.full(axis_a.n, level), label="intensity_a"
    )


def intensity_b(
    geom: SetupGeometry,
    source: SourceProfile,
    mask: ObjectMask,
    axis_b: Axis,
    quad: QuadratureSpec,
) -> SampledImage:
    """Detector-b intensity: source-averaged squared object Fourier transform.

    I_b(rho_b) = K_b * int drho_s F(rho_s) |A~[(w/z_b)(rho_s + rho_b/M)]|^2.
    """
    rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
    rho_b = axis_b.coordinates

    r = phase.rates(geom, rho_s, mask.support_half_width, 0.0, rho_b)  # no arm a here
    phase.check_step("source", _max_step(rho_s), r.intensity_b_s)

    t = object_transfer(geom, mask, quad.n_object, rho_s, rho_b)
    out = (source.intensity(rho_s) * w_s) @ np.abs(t) ** 2
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

    with w = omega0/c. The rho_o sum is ``object_transfer`` T[s, b], so
    Gamma = K_a K_b |V^T T|^2 with V[s, a] = F w_s chirp exp(+i (w/z_a) rho_s rho_a):
    dense matmuls, each output point an independent fixed-order reduction.
    """
    w = geom.omega0_over_c
    rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
    rho_a = axis_a.coordinates
    rho_b = axis_b.coordinates

    r = phase.rates(geom, rho_s, mask.support_half_width, rho_a, rho_b)
    phase.check_step("source", _max_step(rho_s), r.gamma_s)

    c_a = w / geom.z_a
    chirp_beta = w * (1.0 / geom.z_b - 1.0 / geom.z_a)

    # T comes first, so its block buffers are freed before V is built
    t = object_transfer(geom, mask, quad.n_object, rho_s, rho_b)
    V = phase.phase_matrix(-c_a, rho_s, rho_a)
    V *= (source.intensity(rho_s) * w_s * gaussian_phase(rho_s, chirp_beta))[:, None]

    scale = intensity_prefactor_a(geom) * intensity_prefactor_b(geom)
    values = scale * np.abs(V.T @ t) ** 2
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


def coherent_psf(geom: SetupGeometry, sigma: float, rho_o, rho_a):
    """Gaussian-source coherent point-spread function (before angular
    integration), normalized to 1 at rho_o = alpha * rho_a:

    exp(-(1/2) (w sigma / z_b)^2 (rho_o - alpha rho_a)^2 / (1 - i (w sigma^2 / z_b)(1 - alpha)))
    """
    w = geom.omega0_over_c
    alpha = geom.alpha
    disp = np.asarray(rho_o, dtype=float) - alpha * np.asarray(rho_a, dtype=float)
    denom = 1.0 - 1j * (w * sigma**2 / geom.z_b) * (1.0 - alpha)
    return np.exp(-0.5 * (w * sigma / geom.z_b) ** 2 * np.square(disp) / denom)


def incoherent_psf(geom: SetupGeometry, sigma: float, rho_o, rho_a):
    """Point-spread function of the angular-integrated (ghost) image; equals
    |coherent_psf|^2 pointwise and lies in (0, 1]."""
    w = geom.omega0_over_c
    alpha = geom.alpha
    disp = np.asarray(rho_o, dtype=float) - alpha * np.asarray(rho_a, dtype=float)
    denom = 1.0 + ((w * sigma**2 / geom.z_b) * (1.0 - alpha)) ** 2
    return np.exp(-((w * sigma / geom.z_b) ** 2) * np.square(disp) / denom)


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
