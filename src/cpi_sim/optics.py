"""Geometry, source, object and paraxial-propagator primitives.

Everything here is 1D in the transverse coordinate: sources and objects are
assumed separable, so a scalar ``rho`` replaces the transverse vector. All
lengths are in metres. Types are frozen dataclasses; every operation is a
pure function, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidGeometry


@dataclass(frozen=True)
class Axis:
    """Uniform sampling axis, symmetric about ``center``.

    Coordinate i is ``center + (i - (n - 1)/2) * step``.
    """

    n: int
    center: float
    step: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"axis needs n >= 2, got {self.n}")
        if not (self.step > 0.0) or not np.isfinite(self.step):
            raise ValueError(f"axis step must be positive, got {self.step}")

    @classmethod
    def from_half_width(cls, n: int, half_width: float, center: float = 0.0) -> "Axis":
        """Axis of n points spanning [center - half_width, center + half_width]."""
        if n < 2:
            raise ValueError(f"axis needs n >= 2, got {n}")
        return cls(n=n, center=center, step=2.0 * half_width / (n - 1))

    @property
    def coordinates(self) -> np.ndarray:
        return self.center + (np.arange(self.n) - (self.n - 1) / 2.0) * self.step

    @property
    def half_width(self) -> float:
        return (self.n - 1) / 2.0 * self.step


@dataclass(frozen=True)
class SetupGeometry:
    """Distances, wavelength and lens parameters of the two-arm setup.

    Arm a: free propagation from the source to the detector array over z_a.
    Arm b: source -> object (z_b) -> thin lens at S_o from the source ->
    detector at the conjugate distance S_i, so the lens images the source.
    F is not stored: imaging fixes it from S_o and S_i (``focal_F``), so no
    geometry holds a lens that does not image the source.
    """

    z_a: float
    z_b: float
    S_o: float
    S_i: float
    lambda0: float

    def __post_init__(self):
        for name in ("z_a", "z_b", "S_o", "S_i", "lambda0"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise InvalidGeometry(f"{name} must be a positive length, got {v}")
        if not self.z_b < self.S_o:
            raise InvalidGeometry(
                f"object must sit between source and lens: z_b={self.z_b} >= S_o={self.S_o}"
            )

    @property
    def focal_F(self) -> float:
        """Thin-lens focal length 1 / (1/S_i + 1/S_o) that images the source."""
        return 1.0 / (1.0 / self.S_i + 1.0 / self.S_o)

    @property
    def omega0_over_c(self) -> float:
        """Wavenumber 2*pi/lambda0 [rad/m]."""
        return 2.0 * np.pi / self.lambda0

    @property
    def M(self) -> float:
        """Lens magnification S_i/S_o of the source image on detector b."""
        return self.S_i / self.S_o

    @property
    def alpha(self) -> float:
        """Defocus ratio z_b/z_a; alpha = 1 is the focused configuration."""
        return self.z_b / self.z_a


def make_geometry(
    z_a: float,
    z_b: float,
    S_o: float,
    S_i: float | None = None,
    F: float | None = None,
    lambda0: float = 500e-9,
) -> SetupGeometry:
    """Build a SetupGeometry from the lens given either way.

    Exactly one of S_i or F must be provided. A focal length is turned into
    the image distance S_i = 1 / (1/F - 1/S_o); the geometry stores S_i and
    derives F from it (``SetupGeometry.focal_F``). A given S_i is checked
    by ``SetupGeometry`` with every other length.
    """
    if (S_i is None) == (F is None):
        raise InvalidGeometry("give exactly one of S_i or F")
    if not np.isfinite(S_o) or S_o <= 0.0:
        raise InvalidGeometry(f"S_o must be a positive length, got {S_o}")
    if F is not None:
        if not np.isfinite(F) or F <= 0.0:
            raise InvalidGeometry(f"F must be a positive length, got {F}")
        if S_o <= F:
            raise InvalidGeometry(
                f"S_o={S_o} <= F={F}: the lens forms no real image of the source"
            )
        S_i = 1.0 / (1.0 / F - 1.0 / S_o)
    return SetupGeometry(z_a=z_a, z_b=z_b, S_o=S_o, S_i=S_i, lambda0=lambda0)


def gaussian_phase(rho, beta):
    """Quadratic phase factor exp(i*beta*rho^2/2) of paraxial propagation.

    Unit modulus for any finite input; multiplicative in beta.
    """
    return np.exp(0.5j * beta * np.square(rho))


def fresnel_prefactor(omega_over_c: float, z: float):
    """Complex prefactor of the 2D Fresnel propagator over distance z.

    Modulus (omega/c)/(2*pi*z) = 1/(lambda*z); phase (omega/c)*z - pi/2.
    """
    if not (z > 0.0):
        raise InvalidGeometry(f"propagation distance must be positive, got {z}")
    return -1j * omega_over_c / (2.0 * np.pi * z) * np.exp(1j * omega_over_c * z)


@dataclass(frozen=True)
class SourceProfile:
    """Chaotic source profile: amplitude f(rho_s) and intensity F = |f|^2.

    The intensity profile integrates to 1, so intensity units cancel in all
    cross-comparisons. ``diameter`` is the effective source size D_s used in
    resolution formulas: the full width of a top hat, and 2*sigma for a
    Gaussian (a convention; the Gaussian has no sharp edge).
    """

    kind: Literal["gaussian", "tophat"]
    sigma: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if not (self.sigma > 0.0) or not np.isfinite(self.sigma):
                raise ValueError(f"gaussian source needs sigma > 0, got {self.sigma}")
        elif self.kind == "tophat":
            if not (self.width > 0.0) or not np.isfinite(self.width):
                raise ValueError(f"tophat source needs width > 0, got {self.width}")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    @classmethod
    def gaussian(cls, sigma: float) -> "SourceProfile":
        return cls(kind="gaussian", sigma=sigma)

    @classmethod
    def tophat(cls, width: float) -> "SourceProfile":
        return cls(kind="tophat", width=width)

    @property
    def diameter(self) -> float:
        """Effective diameter D_s."""
        return 2.0 * self.sigma if self.kind == "gaussian" else self.width

    def intensity(self, rho_s) -> np.ndarray:
        """Normalized intensity profile F(rho_s), integral 1."""
        rho_s = np.asarray(rho_s, dtype=float)
        if self.kind == "gaussian":
            norm = 1.0 / np.sqrt(2.0 * np.pi * self.sigma**2)
            return norm * np.exp(-np.square(rho_s) / (2.0 * self.sigma**2))
        inside = np.abs(rho_s) <= self.width / 2.0
        return np.where(inside, 1.0 / self.width, 0.0)

    def amplitude(self, rho_s) -> np.ndarray:
        """Field amplitude f(rho_s) = sqrt(F(rho_s)) (real, phase-free)."""
        return np.sqrt(self.intensity(rho_s))

    def quadrature_interval(self, half_width: float | None = None) -> tuple[float, float]:
        """Integration interval capturing the profile.

        Gaussian tails are truncated at ``half_width`` (default 5*sigma,
        which leaves < 1e-5 of the mass outside, and the floor every span
        is checked against here); a top hat is integrated over exactly its
        support so the integrand stays smooth, and ignores ``half_width``.
        """
        if self.kind == "tophat":
            return (-self.width / 2.0, self.width / 2.0)
        hw = 5.0 * self.sigma if half_width is None else half_width
        if hw < 5.0 * self.sigma:
            raise ValueError(
                f"source_span {hw:.3e} < 5 sigma ({5 * self.sigma:.3e}); "
                "Gaussian tail would be truncated"
            )
        return (-hw, hw)


@dataclass(frozen=True)
class ObjectMask:
    """Complex transmission A(rho_o) with |A| <= 1 and compact support.

    Slit masks are hard-edged (binary); sampled masks interpolate linearly
    inside their support and vanish outside. ``feature_size`` is the
    smallest detail d entering the angular resolution formula.
    """

    kind: Literal["double_slit", "single_slit", "sampled"]
    slit_width: float = 0.0
    separation: float = 0.0
    sample_coords: np.ndarray | None = None
    sample_values: np.ndarray | None = None
    feature_size: float | None = None

    def __post_init__(self):
        if self.kind == "double_slit":
            if not (self.slit_width > 0.0 and self.separation > 0.0):
                raise ValueError("double_slit needs slit_width > 0 and separation > 0")
            if self.separation <= self.slit_width:
                raise ValueError("double_slit separation must exceed slit_width")
        elif self.kind == "single_slit":
            if not (self.slit_width > 0.0):
                raise ValueError("single_slit needs slit_width > 0")
        elif self.kind == "sampled":
            c = np.asarray(self.sample_coords, dtype=float)
            v = np.asarray(self.sample_values, dtype=complex)
            if c.ndim != 1 or c.size < 2 or v.shape != c.shape:
                raise ValueError("sampled mask needs matching 1D coords and values")
            if not (np.all(np.isfinite(c)) and np.all(np.diff(c) > 0.0)):
                raise ValueError("sampled mask coords must be finite and strictly increasing")
            if not np.all(np.abs(v) <= 1.0 + 1e-12):  # a nan fails this too
                raise ValueError("sampled mask |A| must not exceed 1")
            object.__setattr__(self, "sample_coords", c)
            object.__setattr__(self, "sample_values", v)
        else:
            raise ValueError(f"unknown mask kind {self.kind!r}")
        if self.feature_size is None and self.kind in ("double_slit", "single_slit"):
            object.__setattr__(self, "feature_size", self.slit_width)

    @classmethod
    def double_slit(cls, separation: float, slit_width: float) -> "ObjectMask":
        return cls(kind="double_slit", slit_width=slit_width, separation=separation)

    @classmethod
    def single_slit(cls, width: float) -> "ObjectMask":
        return cls(kind="single_slit", slit_width=width)

    @classmethod
    def from_samples(cls, coords, values, feature_size: float | None = None) -> "ObjectMask":
        return cls(
            kind="sampled", sample_coords=coords, sample_values=values, feature_size=feature_size
        )

    @property
    def support_half_width(self) -> float:
        return max(max(-lo, hi) for lo, hi in self.support_intervals())

    def support_intervals(self) -> list[tuple[float, float]]:
        """Disjoint intervals outside which A vanishes identically.

        Quadratures integrate per interval, so hard slit edges never fall in
        the middle of an integration cell.
        """
        if self.kind == "double_slit":
            a, s = self.slit_width, self.separation
            return [(-s / 2 - a / 2, -s / 2 + a / 2), (s / 2 - a / 2, s / 2 + a / 2)]
        if self.kind == "single_slit":
            return [(-self.slit_width / 2.0, self.slit_width / 2.0)]
        return [(float(self.sample_coords[0]), float(self.sample_coords[-1]))]

    def transmission(self, rho_o) -> np.ndarray:
        """Evaluate A(rho_o); always complex-valued.

        A slit transmits 1 on the closed intervals of ``support_intervals``,
        so the end nodes a quadrature places there see the slit open.
        """
        rho_o = np.asarray(rho_o, dtype=float)
        if self.kind in ("double_slit", "single_slit"):
            on_slit = np.zeros(rho_o.shape, dtype=bool)
            for lo, hi in self.support_intervals():
                on_slit |= (rho_o >= lo) & (rho_o <= hi)
            return on_slit.astype(complex)
        c, v = self.sample_coords, self.sample_values
        re = np.interp(rho_o, c, v.real, left=0.0, right=0.0)
        im = np.interp(rho_o, c, v.imag, left=0.0, right=0.0)
        return re + 1j * im


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Composite trapezoid weights of n evenly spaced nodes ``step`` apart."""
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _trapezoid_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(lo, hi, n), trapezoid_weights(n, (hi - lo) / (n - 1))


def object_quadrature(
    mask: ObjectMask, n_total: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Trapezoid nodes/weights covering the mask support, split per interval.

    Nodes are distributed across the support intervals in proportion to
    their length (at least 9 per interval). Returns (nodes, weights,
    max_step), where max_step is the largest in-interval spacing (gaps
    between disjoint intervals are not quadrature steps).
    """
    intervals = mask.support_intervals()
    lengths = np.array([hi - lo for lo, hi in intervals])
    total = lengths.sum()
    budget = max(n_total - len(intervals), len(intervals))
    nodes_list, weights_list = [], []
    max_step = 0.0
    for (lo, hi), length in zip(intervals, lengths):
        # ceil + 1 keeps every interval step <= total_length / budget
        n = max(9, int(np.ceil(budget * length / total)) + 1)
        x, w = _trapezoid_rule(lo, hi, n)
        nodes_list.append(x)
        weights_list.append(w)
        max_step = max(max_step, length / (n - 1))
    return np.concatenate(nodes_list), np.concatenate(weights_list), max_step


def source_quadrature(
    source: SourceProfile, n: int, half_width: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes/weights over the source integration interval."""
    lo, hi = source.quadrature_interval(half_width)
    return _trapezoid_rule(lo, hi, n)


@dataclass(frozen=True)
class CorrelationGrid:
    """Sampled correlation surface on a rectangular (rho_a, rho_b) grid.

    ``values`` is real and nonnegative (it comes from a squared modulus);
    ``valid``, when present, marks samples that survived a remap. The
    acquisition distances are snapshotted so refocusing can recover its
    scaling coefficients.
    """

    axis_a: Axis
    axis_b: Axis
    values: np.ndarray
    z_a: float
    z_b: float
    M: float
    valid: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.axis_a.n, self.axis_b.n):
            raise ValueError(
                f"values shape {v.shape} != grid ({self.axis_a.n}, {self.axis_b.n})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("correlation values must be finite")
        if np.any(v < 0.0):
            raise ValueError("correlation values must be nonnegative")
        object.__setattr__(self, "values", v)
        if self.valid is not None:
            m = np.asarray(self.valid, dtype=bool)
            if m.shape != v.shape:
                raise ValueError("validity mask shape must match values")
            object.__setattr__(self, "valid", m)

    @property
    def validity(self) -> np.ndarray:
        """Boolean mask of valid samples (all True when no mask is carried)."""
        if self.valid is None:
            return np.ones_like(self.values, dtype=bool)
        return self.valid


@dataclass(frozen=True)
class SampledImage:
    """1D real nonnegative image with its axis and a role label."""

    axis: Axis
    values: np.ndarray
    label: Literal["ghost", "refocused", "viewpoint", "intensity_a", "intensity_b"]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.axis.n,):
            raise ValueError(f"values shape {v.shape} != axis n {self.axis.n}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("image values must be finite and nonnegative")
        object.__setattr__(self, "values", v)
