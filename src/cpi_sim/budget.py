"""Sensor pixel-budget arithmetic and diffraction resolution limits.

A microlens-based plenoptic camera tiles one sensor into macropixels, so
the spatial and angular pixel counts multiply to the total: N_x * N_u =
N_tot. Splitting the measurement across two correlated sensors makes the
budget additive instead, N_x + N_u = N_tot, which is the whole point: far
more angular samples (hence depth of field) at the same image resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import MissingFeatureScale
from .optics import ObjectMask, SetupGeometry, SourceProfile


BYTES_PER_PIXEL = 256  # peak bytes of a budget run per pixel of n_tot (245 measured)

# Each scheme's rule, written once as the generator of its integer (N_x, N_u)
# pairs for n pixels: N_x * N_u = n (macropixel tiling) or N_x + N_u = n.
_SCHEMES = {
    "plenoptic": lambda n: ((d, n // d) for d in range(1, n + 1) if n % d == 0),
    "cpi": lambda n: ((k, n - k) for k in range(1, n)),
}


@dataclass(frozen=True)
class TradeoffCurve:
    """All integer (N_x, N_u) splits admissible under a scheme constraint."""

    scheme: Literal["plenoptic", "cpi"]
    n_tot: int
    pairs: tuple[tuple[int, int], ...]

    def angular_for(self, n_x: int) -> int | None:
        """N_u available at image resolution n_x, or None if inadmissible."""
        for px, pu in self.pairs:
            if px == n_x:
                return pu
        return None


def tradeoff_curve(n_tot: int, scheme: Literal["plenoptic", "cpi"]) -> TradeoffCurve:
    """Enumerate the admissible integer (N_x, N_u) pairs of ``n_tot`` pixels
    per side under ``scheme``: ``plenoptic`` (N_x * N_u = n_tot) or ``cpi``
    (N_x + N_u = n_tot)."""
    if n_tot < 2:
        raise ValueError(f"need n_tot >= 2, got {n_tot}")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return TradeoffCurve(scheme=scheme, n_tot=n_tot, pairs=tuple(_SCHEMES[scheme](n_tot)))


def plenoptic_hyperbola(n_tot: int, n_points: int = 200) -> np.ndarray:
    """Continuous N_u = n_tot / N_x samples for plotting alongside the
    integer divisor set. Returns an (n_points, 2) array of (N_x, N_u)."""
    n_x = np.linspace(1.0, float(n_tot), n_points)
    return np.column_stack([n_x, n_tot / n_x])


def resolution_limits(
    geom: SetupGeometry, source: SourceProfile, mask: ObjectMask
) -> tuple[float, float]:
    """Diffraction-limited pixel scales of the two sensors.

    delta_rho_a = lambda0 * z_a / D_s   (ghost-image resolution, set by the
    source diameter), and delta_rho_b = M * lambda0 * z_b / d (source-image
    resolution on sensor b, set by the smallest object detail d acting as
    the limiting pupil).
    """
    d_s = source.diameter
    if not (d_s > 0.0):
        raise MissingFeatureScale("source diameter D_s is not defined")
    if mask.feature_size is None or not (mask.feature_size > 0.0):
        raise MissingFeatureScale("object mask declares no feature size d")
    delta_a = geom.lambda0 * geom.z_a / d_s
    delta_b = geom.M * geom.lambda0 * geom.z_b / mask.feature_size
    return delta_a, delta_b
