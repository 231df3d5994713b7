"""Grid distances, Gaussian width fits and image diagnostics.

Every cross-comparison in the package runs on peak-normalized data, so the
(dropped) absolute intensity prefactors can never silently break a test.
"""

from __future__ import annotations

import numpy as np


def peak_normalize(values: np.ndarray) -> np.ndarray:
    """Scale so the maximum is 1. Requires a strictly positive peak."""
    values = np.asarray(values, dtype=float)
    peak = values.max()
    if not (peak > 0.0):
        raise ValueError("cannot peak-normalize data with a non-positive maximum")
    return values / peak


def normalized_l1(a: np.ndarray, b: np.ndarray) -> float:
    """sum |a^ - b^| / sum |b^| of the peak-normalized arrays."""
    a_n, b_n = peak_normalize(a), peak_normalize(b)
    return float(np.sum(np.abs(a_n - b_n)) / np.sum(np.abs(b_n)))


def normalized_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Euclidean distance of the peak-normalized arrays."""
    a_n, b_n = peak_normalize(a), peak_normalize(b)
    return float(np.sqrt(np.sum((a_n - b_n) ** 2) / np.sum(b_n**2)))


def normalized_linf(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pointwise deviation of the peak-normalized arrays."""
    a_n, b_n = peak_normalize(a), peak_normalize(b)
    return float(np.max(np.abs(a_n - b_n)))


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


def slit_contrast(x: np.ndarray, y: np.ndarray, min_offset: float) -> float:
    """Visibility of off-center slit peaks against the central valley:
    (peak - valley) / (peak + valley), with the peak searched at
    |x| >= min_offset and the valley read at the sample nearest x = 0.

    A sharp double-slit image gives ~1; an image blurred into a single
    central lobe gives ~0 or below.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wings = np.abs(x) >= min_offset
    if not wings.any():
        raise ValueError("no samples beyond min_offset")
    peak = float(y[wings].max())
    valley = float(y[np.argmin(np.abs(x))])
    if peak + valley <= 0.0:
        return 0.0
    return (peak - valley) / (peak + valley)


def two_sided_peaks(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Positions of the maxima on the negative and positive half-axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    neg, pos = x < 0.0, x > 0.0
    if not neg.any() or not pos.any():
        raise ValueError("need samples on both sides of zero")
    return (
        float(x[neg][np.argmax(y[neg])]),
        float(x[pos][np.argmax(y[pos])]),
    )
