"""Correlation plenoptic imaging simulator.

Simulates second-order correlation imaging with chaotic light in a two-arm
(ghost imaging) setup: deterministic quadrature of the correlation
integrals, a speckle Monte Carlo oracle, computational refocusing and
viewpoint extraction, and the sensor pixel-budget arithmetic.
"""

__version__ = "0.1.0"

from .budget import (
    TradeoffCurve,
    plenoptic_hyperbola,
    resolution_limits,
    tradeoff_curve,
)
from .config import DEMOS, ExperimentConfig, parse_config
from .correlator import (
    PsfEval,
    QuadratureSpec,
    arm_kernels,
    gamma_geometric,
    gamma_quadrature,
    intensity_a,
    intensity_b,
    psf_widths,
)
from .errors import (
    ComputationError,
    ConfigError,
    CpiSimError,
    DegenerateStatistics,
    EmptyOverlap,
    InvalidGeometry,
    MissingFeatureScale,
    OutOfRange,
    ParseError,
    ResourceLimit,
    UnderResolved,
    ValidationError,
)
from .montecarlo import (
    ConvergenceReport,
    SpeckleRun,
    default_sampling,
    estimate_gamma,
    sample_source_field,
)
from .optics import (
    Axis,
    CorrelationGrid,
    ObjectMask,
    SampledImage,
    SetupGeometry,
    SourceProfile,
    fresnel_prefactor,
    gaussian_phase,
    make_geometry,
)
from .refocus import (
    RefocusSpec,
    ghost_image,
    refocus_grid,
    refocused_image,
    viewpoint_slice,
)
from .runner import RunManifest, run_experiment
