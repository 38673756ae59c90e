"""Inland-waterway vessel traffic flow analysis toolkit."""

from .errors import (
    DegenerateClusteringError,
    DegenerateFitError,
    DomainError,
    FairwayError,
    InsufficientDataError,
    MalformedTrackError,
    NoFeasibleDensityError,
    ParseError,
    SchemaVersionError,
)

__all__ = [
    "FairwayError",
    "DomainError",
    "MalformedTrackError",
    "DegenerateFitError",
    "InsufficientDataError",
    "DegenerateClusteringError",
    "NoFeasibleDensityError",
    "ParseError",
    "SchemaVersionError",
]

__version__ = "0.1.0"
