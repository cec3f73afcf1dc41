"""Smoothed 1-D mass transfer between disjoint intervals.

The package solves a smoothed dual formulation of the one-dimensional
transfer problem in closed form up to one coupled Newton solve for the
stress's two zeros, assembles the resulting target density, verifies the
primal/dual energy identity, and builds the monotone transport map
between source and target.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    InsufficientRows,
    InvalidPerturbation,
    MaxDepth,
    MaxIterations,
    Monge1dError,
    NoSignChange,
    NonPositiveDensity,
)

__version__ = "0.1.0"

__all__ = [
    "Monge1dError",
    "NoSignChange",
    "MaxIterations",
    "MaxDepth",
    "DomainError",
    "CapacityError",
    "NonPositiveDensity",
    "InvalidPerturbation",
    "InsufficientRows",
    "ConfigError",
    "__version__",
]
