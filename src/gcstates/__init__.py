"""Generalized coherent states for solvable position-dependent-mass models.

The package builds lowering-operator eigenstates over shape-invariant
spectra, computes their photon statistics and resolution-of-unity measures,
and cross-checks every analytic claim against independent numerical routes
(brute-force series, a fixed-grid moment sum, and a finite-difference
eigensolver that never sees the ladder algebra).
"""

from .coherent import (
    CoherentState,
    annihilation_residual,
    construct,
    label_continuity,
    overlap,
)
from .exceptions import ConsistencyError, ConvergenceError, QuadratureError
from .measure import radius, verify_moments, weight_tilde
from .models import (
    MODEL_IDS,
    ModelSpec,
    energy,
    harmonic_limit,
    make_model,
    remainder,
    rho_log,
    step,
)
from .oracle import build_problem, compare_spectrum, lowest_eigenvalues
from .stats import distribution, summary_closed, summary_series

__version__ = "0.1.0"

__all__ = [
    "CoherentState",
    "ConsistencyError",
    "ConvergenceError",
    "MODEL_IDS",
    "ModelSpec",
    "QuadratureError",
    "annihilation_residual",
    "build_problem",
    "compare_spectrum",
    "construct",
    "distribution",
    "energy",
    "harmonic_limit",
    "label_continuity",
    "lowest_eigenvalues",
    "make_model",
    "overlap",
    "radius",
    "remainder",
    "rho_log",
    "step",
    "summary_closed",
    "summary_series",
    "verify_moments",
    "weight_tilde",
]
