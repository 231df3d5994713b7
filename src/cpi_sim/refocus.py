"""Plenoptic payload: ghost images, refocusing and viewpoint slices.

A correlation surface acquired out of focus still contains a sharp image;
it is just sheared across the (rho_a, rho_b) plane. Refocusing resamples
each rho_b column of the grid at

    rho_a' = (z_a/z_b) rho_a - (rho_b/M) (1 - z_a/z_b)

which undoes the shear without ever touching the rho_b coordinate. Samples
that fall outside the acquired range are carried as an explicit validity
mask and excluded (with renormalization) from the angular integration;
zero-padding instead would bias the edges of the integrated image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import EmptyOverlap, OutOfRange
from .optics import Axis, CorrelationGrid, SampledImage, trapezoid_weights


@dataclass(frozen=True)
class RefocusSpec:
    """Refocusing request.

    The acquisition distances are read from the grid snapshot.
    ``output_axis`` defaults to the grid's own rho_a axis.
    """

    output_axis: Axis | None = None


def _integrate_over_b(grid: CorrelationGrid) -> np.ndarray:
    """Trapezoidal rho_b integration at each rho_a, renormalized by the
    valid weight fraction so masked columns do not dim their row."""
    w = trapezoid_weights(grid.axis_b.n, grid.axis_b.step)
    valid = grid.validity
    weighted = (grid.values * valid) @ w
    fraction = (valid @ w) / w.sum()
    out = np.zeros_like(weighted)
    nonzero = fraction > 0.0
    out[nonzero] = weighted[nonzero] / fraction[nonzero]
    return out


def ghost_image(
    grid: CorrelationGrid, label: Literal["ghost", "refocused"] = "ghost"
) -> SampledImage:
    """Angular-integrated correlation: the (possibly defocused) ghost image.

    Integrating a refocused grid gives the refocused image; ``label`` names
    the result accordingly.
    """
    return SampledImage(axis=grid.axis_a, values=_integrate_over_b(grid), label=label)


def refocus_grid(grid: CorrelationGrid, spec: RefocusSpec) -> CorrelationGrid:
    """Resample the grid along rho_a with the refocusing shear.

    Linear interpolation per rho_b column; targets that land exactly on
    acquired nodes reproduce them bitwise, so refocusing at z_a = z_b is the
    identity. Raises EmptyOverlap when more than half of the requested
    samples fall outside the acquired rho_a range.
    """
    out_axis = grid.axis_a if spec.output_axis is None else spec.output_axis
    ratio = grid.z_a / grid.z_b
    shear = 1.0 - ratio

    coords_in = grid.axis_a.coordinates
    rho_out = out_axis.coordinates[:, None]
    rho_b = grid.axis_b.coordinates[None, :]
    targets = ratio * rho_out - (rho_b / grid.M) * shear

    in_range = (targets >= coords_in[0]) & (targets <= coords_in[-1])
    if np.mean(~in_range) > 0.5:
        raise EmptyOverlap(
            f"{np.mean(~in_range):.0%} of refocused samples fall outside the "
            f"acquired range [{coords_in[0]:.3e}, {coords_in[-1]:.3e}] m"
        )

    idx = np.searchsorted(coords_in, targets, side="right") - 1
    idx = np.clip(idx, 0, grid.axis_a.n - 2)
    span = coords_in[idx + 1] - coords_in[idx]
    frac = np.clip((targets - coords_in[idx]) / span, 0.0, 1.0)

    cols = np.broadcast_to(np.arange(grid.axis_b.n)[None, :], targets.shape)
    v0 = grid.values[idx, cols]
    v1 = grid.values[idx + 1, cols]
    # Exact-node hits bypass the blend so they stay bitwise faithful.
    values = np.where(frac == 0.0, v0, np.where(frac == 1.0, v1, v0 + frac * (v1 - v0)))

    valid_in = grid.validity
    m0 = valid_in[idx, cols]
    m1 = valid_in[idx + 1, cols]
    valid = in_range & np.where(frac == 0.0, m0, np.where(frac == 1.0, m1, m0 & m1))
    values = np.where(valid, values, 0.0)

    return CorrelationGrid(
        axis_a=out_axis,
        axis_b=grid.axis_b,
        values=values,
        z_a=grid.z_a,
        z_b=grid.z_b,
        M=grid.M,
        valid=valid,
    )


def refocused_image(grid: CorrelationGrid, spec: RefocusSpec) -> SampledImage:
    """Refocus, then integrate the valid part of every row over rho_b.

    Up to an intensity rescaling, this reconstructs the ghost image the
    setup would have produced in focus.
    """
    return ghost_image(refocus_grid(grid, spec), label="refocused")


def viewpoint_slice(grid: CorrelationGrid, rho_b: float) -> SampledImage:
    """Single-pixel view: the rho_a profile at the nearest rho_b column.

    A view is a physical pixel, so the column is selected, not
    interpolated. Out-of-focus grids show the object shifted in proportion
    to the viewing pixel offset.
    """
    coords = grid.axis_b.coordinates
    if rho_b < coords[0] or rho_b > coords[-1]:
        raise OutOfRange(
            f"rho_b={rho_b:.3e} m outside sensor range "
            f"[{coords[0]:.3e}, {coords[-1]:.3e}] m"
        )
    j = int(np.argmin(np.abs(coords - rho_b)))
    values = np.where(grid.validity[:, j], grid.values[:, j], 0.0)
    return SampledImage(axis=grid.axis_a, values=values, label="viewpoint")
