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
Also provided: the detector intensities (flat in arm a, object-Fourier
modulated in arm b), the geometric-optics limit of Gamma, and the closed
Gaussian-source point-spread functions before and after angular
integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phase
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

_PHASE_BLOCK = 8e6  # entry bound of one source block in object_transfer


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
        if self.n_source < 16 or self.n_object < 16:
            raise ValueError("quadrature needs at least 16 nodes per axis")
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
        n_source = max(16, int(np.ceil(2.0 * source_span / step_s)) + 1)
        intervals = mask.support_intervals()
        support = sum(hi - lo for lo, hi in intervals)
        n_object = max(16, int(np.ceil(support / step_o)) + len(intervals) + 1)
        return cls(n_source=n_source, n_object=n_object, source_span=source_span)


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


def object_transfer(geom: SetupGeometry, rho_o, amp_o, rho_s, rho_b) -> np.ndarray:
    """Arm-b object transfer T[s, b] = A~[c1 (rho_s + rho_b/M)], c1 = w/z_b.

    T = sum_o amp_o exp(-i c1 rho_o (rho_s + rho_b / M)), amp_o = A(rho_o) w_o:
    one matmul of a rho_s and a rho_b phase matrix, shape (n_s, n_b). Gamma,
    intensity_b and the arm-b kernel all use it; each caller guards first.
    The rho_s matrix is built in source blocks of <= ``_PHASE_BLOCK`` entries.
    """
    c1 = geom.omega0_over_c / geom.z_b
    W_b = amp_o[:, None] * phase.phase_matrix(c1 / geom.M, rho_o, rho_b)
    t = np.empty((rho_s.size, rho_b.size), dtype=complex)
    chunk = max(1, int(_PHASE_BLOCK // max(rho_o.size, 1)))
    for lo in range(0, rho_s.size, chunk):
        sl = slice(lo, lo + chunk)
        np.matmul(phase.phase_matrix(c1, rho_o, rho_s[sl]).T, W_b, out=t[sl])
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
    rho_o, w_o, step_o = object_quadrature(mask, n_object)

    # Each cell must act as a point emitter for both detectors, and every
    # oscillatory kernel factor must be sampled below the phase limit.
    r = phase.rates(geom, rho_s, rho_o, rho_a, rho_b)
    phase.check_step("source cell (unresolved-cell rule)", axis_s.step, r.cell)
    phase.check_step("arm-a kernel source cell", axis_s.step, r.arm_a)
    phase.check_step("arm-b kernel source cell", axis_s.step, r.arm_b)
    phase.check_step(f"arm-b object quadrature (n_object = {n_object})", step_o, r.object)

    c_a = w / geom.z_a
    k_a = phase.phase_matrix(c_a, rho_a, rho_s)
    k_a *= (fresnel_prefactor(w, geom.z_a) * gaussian_phase(rho_a, c_a))[:, None]
    k_a *= gaussian_phase(rho_s, c_a) * axis_s.step

    t = object_transfer(geom, rho_o, mask.transmission(rho_o) * w_o, rho_s, rho_b)
    t *= (arm_b_prefactor(geom) * gaussian_phase(rho_s, w / geom.z_b) * axis_s.step)[:, None]
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
    rho_o, w_o, step_o = object_quadrature(mask, quad.n_object)
    rho_b = axis_b.coordinates

    r = phase.rates(geom, rho_s, rho_o, 0.0, rho_b)  # no arm a: no rate used here reads it
    phase.check_step("source", _max_step(rho_s), r.intensity_b_s)
    phase.check_step("object", step_o, r.object)

    t = object_transfer(geom, rho_o, mask.transmission(rho_o) * w_o, rho_s, rho_b)
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
    rho_o, w_o, step_o = object_quadrature(mask, quad.n_object)
    rho_a = axis_a.coordinates
    rho_b = axis_b.coordinates

    r = phase.rates(geom, rho_s, rho_o, rho_a, rho_b)
    phase.check_step("source", _max_step(rho_s), r.gamma_s)
    phase.check_step("object", step_o, r.object)

    c_a = w / geom.z_a
    chirp_beta = w * (1.0 / geom.z_b - 1.0 / geom.z_a)

    # T comes first, so its object phase matrix is freed before V is built
    t = object_transfer(geom, rho_o, mask.transmission(rho_o) * w_o, rho_s, rho_b)
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
