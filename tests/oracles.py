"""Closed forms and fitting helpers the tests check the package against.

None of these is used by a run: the Gaussian-source point-spread
functions, the closed-form crossed correlation of a Gaussian source and a
Gaussian object, rounding bounds of the quadrature of Gamma and of the
complex64 Monte Carlo propagation, a float64 Monte Carlo oracle, and the
width fits and distances of the acceptance criteria.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cpi_sim.correlator import (
    _source_half, arm_kernels, intensity_prefactor_a, intensity_prefactor_b,
)
from cpi_sim.metrics import peak_normalize
from cpi_sim.montecarlo import _PHASES, _phase_indices
from cpi_sim.optics import SetupGeometry, object_quadrature, source_quadrature


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


def gaussian_gamma(
    geom: SetupGeometry, sigma: float, omega: float, rho_a, rho_b, center: float = 0.0
) -> np.ndarray:
    """Gamma(rho_a, rho_b) of a Gaussian source of rms ``sigma`` and the
    Gaussian object A = exp(-(rho_o - center)^2 / (2 omega^2)), in closed
    form, shape (rho_a.size, rho_b.size).

    With c1 = w/z_b, c_a = w/z_a, beta = w (1/z_b - 1/z_a) and
    k = rho_s + rho_b/M, the object transfer is
    T = sqrt(2 pi) omega exp(-(c1 omega k)^2 / 2 - i c1 center k), and
    G = int F(rho_s) exp(i beta rho_s^2 / 2) exp(i c_a rho_a rho_s) T drho_s
    is one complex Gaussian integral,

        G = (2 pi sigma^2)^(-1/2) sqrt(2 pi) omega sqrt(pi / p) exp(q^2 / (4 p) + r),
        p = 1 / (2 sigma^2) - i beta / 2 + (c1 omega)^2 / 2,
        q = i c_a rho_a - (c1 omega)^2 rho_b / M - i c1 center,
        r = -(c1 omega)^2 (rho_b / M)^2 / 2 - i c1 center rho_b / M,

    and Gamma = intensity_prefactor_a intensity_prefactor_b |G|^2.
    """
    w = geom.omega0_over_c
    c1, c_a = w / geom.z_b, w / geom.z_a
    beta = w * (1.0 / geom.z_b - 1.0 / geom.z_a)
    b = np.asarray(rho_b, dtype=float)[None, :] / geom.M
    a = np.asarray(rho_a, dtype=float)[:, None]
    p = 1.0 / (2.0 * sigma**2) - 0.5j * beta + 0.5 * (c1 * omega) ** 2
    q = 1j * c_a * a - (c1 * omega) ** 2 * b - 1j * c1 * center
    r = -0.5 * (c1 * omega) ** 2 * b**2 - 1j * c1 * center * b
    g = omega / sigma * np.sqrt(np.pi / p) * np.exp(q**2 / (4.0 * p) + r)
    return intensity_prefactor_a(geom) * intensity_prefactor_b(geom) * np.abs(g) ** 2


def gamma_rounding_bound(geom, source, mask, axis_a, axis_b, quad, gamma_peak: float) -> float:
    """First-order forward rounding bound of ``gamma_quadrature``, as a
    fraction of the peak ``gamma_peak`` of Gamma.

    The double sum G = sum F w_s A w_o exp(i phi) runs over n_s x n_o
    terms: every term is off by a few ulps of its largest phase Phi (4 u
    Phi: the phase is a product of rounded constants and coordinates, split
    in an angle sum), and a sum of L terms by L u of the sum of their
    moduli S, with L = n_s + n_o along the two nested sums. So
    |dG| <= u S (4 Phi + n_s + n_o), and |dGamma| <= (2 |dG| |G| + |dG|^2)
    K_a K_b of the peak K_a K_b |G|max^2.
    """
    rho_s, w_s = source_quadrature(source, quad.n_source, quad.source_span)
    rho_o, w_o, _ = object_quadrature(mask, quad.n_object)
    w = geom.omega0_over_c
    big_s, big_o = np.max(np.abs(rho_s)), np.max(np.abs(rho_o))
    big_a, big_b = np.max(np.abs(axis_a.coordinates)), np.max(np.abs(axis_b.coordinates))
    phi = (
        0.5 * w * abs(1.0 / geom.z_b - 1.0 / geom.z_a) * big_s**2
        + (w / geom.z_b) * big_o * (big_s + big_b / geom.M)
        + (w / geom.z_a) * big_a * big_s
    )
    moduli = np.sum(source.intensity(rho_s) * w_s) * np.sum(np.abs(mask.transmission(rho_o)) * w_o)
    g_max = np.sqrt(gamma_peak / (intensity_prefactor_a(geom) * intensity_prefactor_b(geom)))
    dg = np.finfo(float).eps / 2 * moduli * (4 * phi + rho_s.size + rho_o.size) / g_max
    return float(2 * dg + dg**2)


U32 = 2.0**-24  # unit roundoff of float32, and of each part of a complex64
U64 = 2.0**-53


def field_rounding_bound(kernel) -> np.ndarray:
    """First-order bound, per pixel in pixel order, of the rounding error
    of a field that ``montecarlo._intensities`` propagates in complex64:
    a row [u | v] of unit-phasor sums and differences (|u|, |v| <= 2)
    through the parity blocks of ``kernel`` (``correlator.ParityKernel``),
    P and Q, then P +- Q on the mirrored pixels.

    A pixel's field is a sum of n complex terms x_j k_j, n = h times the
    kept blocks (2h on a centred slit) for the h rows of a block; each of
    its real and imaginary parts is a real sum of 2n products. Summed in
    any order and grouping (P's and Q's GEMMs, the add of a part's second
    block, P +- Q), with or without fused multiply-adds, each part is off
    by at most 2n u sum_j |x_j| |k_j|, so the modulus by 2 sqrt(2) n u of
    it. The rows and the kernel were each rounded once to complex64, u of
    every term. So, with u = 2^-24 (a float64 reference's own rounding,
    2^-29 of each term below, is left out),

        |dE| <= (2 sqrt(2) n + 2) u S,  S = sum_j |x_j| |k_j| <= 2 sum_j |k_j|,

    where a pixel mu +- eps sums |k_j| over the E blocks at eps and the O
    blocks at its mirror column alike."""
    kept = [b for b in kernel.blocks if b is not None]
    h = kept[0].shape[0]
    sums = [
        np.zeros(w) if b is None else 2.0 * np.abs(b).sum(axis=0)
        for b, w in zip(kernel.blocks, 2 * [(kernel.n + 1) // 2] + 2 * [kernel.n // 2])
    ]
    even, odd = sums[0] + sums[1], sums[2] + sums[3]
    # even + odd on both pixels of a mirror pair
    s = unpair_pixels(even, None, kernel.n).real + np.abs(unpair_pixels(0 * even, odd, kernel.n))
    return (2.0 * np.sqrt(2.0) * h * len(kept) + 2.0) * U32 * s


def probabilistic_gamma(m: int, u: float, count: int, fail: float) -> float:
    """gamma~_m(lam) = exp(lam sqrt(m) u + m u^2 / (1 - u)) - 1 of Higham &
    Mary (2019, SIAM J. Sci. Comput. 41(5), Theorem 3.1): with rounding
    errors independent, of mean zero and at most u, a sum of m products
    computed in any order is off by at most gamma~_m(lam) times the sum of
    their moduli, with probability at least 1 - 2 m exp(-lam^2 (1 - u)^2 / 2).
    lam is the least for which ``count`` such sums all hold but with
    probability at most ``fail`` (a union bound)."""
    lam = np.sqrt(2.0 * np.log(2.0 * m * count / fail)) / (1.0 - u)
    return float(np.expm1(lam * np.sqrt(m) * u + m * u * u / (1.0 - u)))


def float64_intensities(fields: np.ndarray, kernel, fail: float = 2.0**-20):
    """The float64 propagation of the complex64 rows ``fields`` = [u | v]
    through the complex64 blocks of ``kernel`` (``correlator.ParityKernel``),
    |E|^2 with E = u A + v B for A = E_u +- O_u and B = E_v +- O_v
    (``parity_pixels``), and a probabilistic bound of its distance to the
    intensities ``montecarlo._intensities`` propagates in complex64 from
    the same rows and blocks, each per row and pixel in pixel order.

    A pixel's field sums n complex terms x_j k_j, n = h times the kept
    blocks, so each of its real and imaginary parts is a real sum of 2n
    products, computed in some order (the GEMMs, the add of a part's
    second block, P +- Q). Under the model of ``probabilistic_gamma``,
    with u = 2^-24 and every such sum of the block holding but with
    probability ``fail``, each part is off by at most gamma~_2n S, S =
    sum_j |x_j| |k_j| (the E and O blocks at their pixels alike), so the
    modulus by D = sqrt(2) (gamma~_2n + gamma_(2n+1)) S, the second term
    the float64 reference's own worst case (its 2n products and the
    unpairing add, u = 2^-53). |E| is rounded to float32 (2u) and squared
    exactly in float64, so |I - |E64|^2| <= (|E64| + D)^2 (1 + 2u)^2 -
    |E64|^2, plus 3 u64 |E64|^2 for the reference's own square. No inputs
    are rounded between the two: both read the same complex64 values."""
    h = fields.shape[1] // 2
    kept = [b for b in kernel.blocks if b is not None]
    n = h * len(kept)
    count = 2 * fields.shape[0] * kernel.n  # a real and an imaginary sum a pixel a row
    g32 = probabilistic_gamma(2 * n, U32, count, fail)
    g64 = (2 * n + 1) * U64 / (1 - (2 * n + 1) * U64)
    zero = np.zeros((h, (kernel.n + 1) // 2))
    # |E| + |O| on both pixels of a mirror pair, for the u and the v blocks
    moduli = [
        unpair_pixels(zero if e is None else np.abs(e), None, kernel.n).real
        + (0 if o is None else np.abs(unpair_pixels(zero, np.abs(o), kernel.n)))
        for e, o in zip(kernel.blocks[:2], kernel.blocks[2:])
    ]
    x = np.abs(fields.astype(complex))
    s = x[:, :h] @ moduli[0] + x[:, h:] @ moduli[1]
    e64 = np.abs(fields.astype(complex) @ np.concatenate(list(parity_pixels(kernel, h))))
    d = np.sqrt(2.0) * (g32 + g64) * s
    return e64**2, (e64 + d) ** 2 * (1 + 2 * U32) ** 2 - e64**2 + 3 * U64 * e64**2


def propagation_rounding_bound(d_a, d_b, e_a, e_b):
    """First-order bounds (di_a, di_b, dcov) of the complex64 propagation
    for k realizations whose float64 fields on the two arms are ``e_a``
    and ``e_b`` (k x pixels), given each arm's field bound ``d_a``, ``d_b``
    (``field_rounding_bound``).

    An intensity row is |E|^2, with |E| taken in float32 (within 1 ulp,
    2u) and squared exactly in float64, so |dI| <= 2 |E| |dE| + 4 u |E|^2.
    The covariance (I_a - m_a)^T (I_b - m_b) / (k - 1) is linear in each
    arm's centred rows, and a shift of a mean drops out to first order
    because the centred rows sum to 0, so

        |dcov| <= (dI_a^T |I_b - m_b| + |I_a - m_a|^T dI_b) / (k - 1),

    plus the float64 fold's own rounding, two-pass or Chan-merged: at most
    (k + 3) u64 of |I_a - m_a|^T |I_b - m_b| / (k - 1) each, counted twice
    for the comparison of two such folds. The means are off by the mean
    of dI."""
    a, b = np.abs(e_a), np.abs(e_b)
    di_a = 2.0 * a * d_a + 4.0 * U32 * a**2
    di_b = 2.0 * b * d_b + 4.0 * U32 * b**2
    k = len(e_a)
    c_a, c_b = np.abs(a**2 - np.mean(a**2, axis=0)), np.abs(b**2 - np.mean(b**2, axis=0))
    dcov = (di_a.T @ c_b + c_a.T @ di_b + 2.0 * (k + 3) * U64 * (c_a.T @ c_b)) / (k - 1)
    return di_a, di_b, dcov


def float64_estimate(run, geom, source, mask):
    """``montecarlo.estimate_gamma``'s signed estimate and se of ``run``,
    propagated in float64 from the same phase indices through the full
    kernels on every cell and pixel (``full_kernels``), one batch at a
    time in the two-pass form, with their first-order distance bounds to
    the complex64 path: (raw, se, d_raw, d_se).

    raw = sum_b (k_b / N) cov_b is off by sum_b (k_b / N) dcov_b
    (``propagation_rounding_bound``). se^2 = sum_b (cov_b - c)^2 / ((B -
    1) B) for the batch mean c, whose shift drops out to first order, so
    |dse| <= sum_b |cov_b - c| dcov_b / ((B - 1) B se)."""
    kernels = arm_kernels(geom, mask, run.axis_s, run.axis_a, run.axis_b, run.n_object)
    full_a, full_b = (full_kernels(k, run.axis_s.n) for k in kernels)
    amp = source.amplitude(_source_half(run.axis_s.coordinates))[:, None]
    d_a, d_b = (
        field_rounding_bound(replace(k, blocks=tuple(None if b is None else b * amp for b in k.blocks)))
        for k in kernels
    )
    cell_amp = source.amplitude(run.axis_s.coordinates)
    covs, dcovs = [], []
    for lo, hi in batch_spans(run):
        fields = cell_amp * _PHASES[_phase_indices(run.seed, lo, hi, run.axis_s.n)]
        e_a, e_b = fields @ full_a.T, fields @ full_b.T
        covs.append(two_pass_covariance(np.abs(e_a) ** 2, np.abs(e_b) ** 2))
        dcovs.append(propagation_rounding_bound(d_a, d_b, e_a, e_b)[2])
    raw, se = batch_estimate(run, covs)
    covs, dcovs, weights = np.array(covs), np.array(dcovs), batch_weights(run)
    d_raw = np.tensordot(weights, dcovs, axes=1)
    n_b = run.n_batches
    dev = covs - covs.mean(axis=0)
    d_se = np.sum(np.abs(dev) * dcovs, axis=0) / ((n_b - 1) * n_b * se)
    return raw, se, d_raw, d_se


def batch_spans(run) -> list[tuple[int, int]]:
    """The realizations [lo, hi) of each of ``run``'s batches."""
    edges = np.linspace(0, run.n_realizations, run.n_batches + 1).astype(int)
    return list(zip(edges[:-1], edges[1:]))


def batch_weights(run) -> np.ndarray:
    """Each batch's share k_b / N of ``run``'s realizations."""
    return np.array([(hi - lo) / run.n_realizations for lo, hi in batch_spans(run)])


def two_pass_covariance(i_a, i_b) -> np.ndarray:
    """The covariance of one batch's intensity rows ``i_a`` and ``i_b``
    (realizations x pixels, float64) in the two-pass form; it centres
    them in place."""
    i_a -= i_a.mean(axis=0)
    i_b -= i_b.mean(axis=0)
    return i_a.T @ i_b / (len(i_a) - 1)


def batch_estimate(run, covs):
    """``estimate_gamma``'s signed estimate and se from the batch
    covariances ``covs`` of ``run``: raw = sum_b (k_b / N) cov_b and the
    standard error of their mean, sqrt(sum_b (cov_b - c)^2 / ((B - 1) B))
    for the batch mean c."""
    covs = np.array(covs)
    raw = np.tensordot(batch_weights(run), covs, axes=1)
    n_b = run.n_batches
    se = np.sqrt(np.sum((covs - covs.mean(axis=0)) ** 2, axis=0) / ((n_b - 1) * n_b))
    return raw, se


def scalar_rounding_bounds(raw, se, d_raw, d_se, reference) -> dict:
    """First-order bounds of ``ConvergenceReport``'s l1, linf and se_l1 (against
    ``reference``) when each entry of the signed estimate ``raw`` may be
    off by ``d_raw`` and of ``se`` by ``d_se``: the peak P moves by at most
    D = max d_raw, so raw / P by d_raw / P + |raw| D / P^2 and se / P by
    d_se / P + se D / P^2; l1 and se_l1 sum those over sum b^ of the
    peak-normalized reference b^, and linf takes the largest; "normalized"
    holds the bound of each entry of raw / P."""
    peak, shift = raw.max(), d_raw.max()
    b_sum = np.sum(peak_normalize(reference))
    d_norm = d_raw / peak + np.abs(raw) * shift / peak**2
    return {
        "l1": float(np.sum(d_norm) / b_sum),
        "linf": float(np.max(d_norm)),
        "se_l1": float(np.sum(d_se / peak + se * shift / peak**2) / b_sum),
        "normalized": d_norm,
    }


def normalized_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Euclidean distance of the peak-normalized arrays."""
    a_n, b_n = peak_normalize(a), peak_normalize(b)
    return float(np.sqrt(np.sum((a_n - b_n) ** 2) / np.sum(b_n**2)))


def fit_gaussian_width(
    x: np.ndarray, y: np.ndarray, floor: float = 1e-3
) -> tuple[float, float]:
    """Fit y ~ A exp(-(x - c)^2 / w^2) and return (c, w).

    Least squares on log(y) (weighted by y, so the peak dominates) over the
    lobe: the contiguous run of samples above ``floor`` times the maximum
    that contains the maximum, so a detached noise island in the wings
    cannot pull the fit. Samples are ordered along x; w is the 1/e
    half-width.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i = int(np.argmax(y))
    peak = y[i]
    if not (peak > 0.0):
        raise ValueError("cannot fit a Gaussian to non-positive data")
    below = np.flatnonzero(y <= floor * peak)
    lo = below[below < i].max(initial=-1) + 1
    hi = below[below > i].min(initial=y.size)
    if hi - lo < 4:
        raise ValueError("too few samples above the fit floor")
    xs, ys = x[lo:hi], y[lo:hi]
    coeff = np.polyfit(xs, np.log(ys), deg=2, w=ys)
    if not (coeff[0] < 0.0):
        raise ValueError("fitted log-parabola is not concave; data is not a peak")
    width = 1.0 / np.sqrt(-coeff[0])
    center = -coeff[1] / (2.0 * coeff[0])
    return float(center), float(width)


def e2_full_width(width: float) -> float:
    """Full width at 1/e^2 of exp(-(x/w)^2): 2*sqrt(2)*w."""
    return 2.0 * np.sqrt(2.0) * width


def unpair_pixels(even: np.ndarray, odd: np.ndarray | None, n: int) -> np.ndarray:
    """Values on all ``n`` pixels, in pixel order along the last axis, of
    a field's parity parts about the pixels' midpoint mu, in the layout of
    ``correlator.ParityKernel``: ``even`` on the pixels mu + eps (eps >=
    0) and ``odd``, the odd part at mu + eps, on the columns of their
    mirrors mu - eps (None for 0). A pixel mu + eps takes even + odd and
    its mirror even - odd; the eps = 0 pixel of an odd n takes its even
    part alone."""
    m = n // 2
    full = np.empty(even.shape[:-1] + (n,), dtype=complex)
    full[..., m:] = even
    full[..., :m] = even[..., n % 2 :][..., ::-1]
    if odd is not None:
        full[..., n - m :] += odd[..., ::-1]
        full[..., :m] -= odd
    return full


def parity_pixels(k, h: int) -> np.ndarray:
    """The u and v parts of the parity blocks ``k.blocks`` = (E_u, E_v,
    O_u, O_v) of a ``correlator.ParityKernel`` on ``h`` rows, on all
    ``k.n`` pixels in pixel order, shape (2, h, k.n): E_u +- O_u and
    E_v +- O_v at mu +- eps (``unpair_pixels``); a block left out (None)
    is 0. For the half products of ``correlator._half_products`` these
    are CW and SW."""
    zero = np.zeros((h, (k.n + 1) // 2))
    e_u, e_v, o_u, o_v = k.blocks
    return np.stack(
        [unpair_pixels(zero if e is None else e, o, k.n) for e, o in ((e_u, o_u), (e_v, o_v))]
    )


def full_kernels(k, n_s: int) -> np.ndarray:
    """The kernel on all ``n_s`` cells and all ``k.n`` pixels, shape
    (pixels, n_s), of a parity kernel ``k`` of ``correlator.arm_kernels``
    on the h = ceil(n_s / 2) nodes d >= 0. The pixels unpair first
    (``parity_pixels``): A = E_u +- O_u and B = E_v +- O_v at mu +- eps.
    Then the cells: K(+d) = A + B, K(-d) = A - B, and 2 A at the d = 0
    cell of an odd n_s, its own mirror."""
    h = (n_s + 1) // 2
    a, b = parity_pixels(k, h).transpose(0, 2, 1)
    full = np.concatenate([(a - b)[:, ::-1], a + b], axis=1)
    if n_s % 2:  # both copies of the d = 0 column sum to 2 A
        full[:, h] += full[:, h - 1]
        full = np.delete(full, h - 1, axis=1)
    return full
