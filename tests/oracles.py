"""Closed forms and fitting helpers the tests check the package against.

None of these is used by a run: the Gaussian-source point-spread
functions, the closed-form crossed correlation of a Gaussian source and a
Gaussian object, and the width fits and distances of the acceptance
criteria.
"""

from __future__ import annotations

import numpy as np

from cpi_sim.correlator import intensity_prefactor_a, intensity_prefactor_b
from cpi_sim.metrics import peak_normalize
from cpi_sim.optics import SetupGeometry


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
