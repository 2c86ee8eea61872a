"""Branch & Prune for discretizable molecular distance geometry, with
candidate positions generated by conformal-geometric-algebra versors and
cross-validated against classical coordinate geometry.  Importing the package
does not load the dense kernel ``ga``, the conformal model or ``bench``."""

from .dmdgp import (Instance, InternalCoords, ValidationReport,
                    generate_instance, ingest_coordinates,
                    internal_coordinates, validate_instance)
from .errors import (DegenerateGeometryError, FileFormatError,
                     InfeasibleInstanceError, InvalidInstanceError)
from .geometry import TrilaterationResult, matrix_place_next, trilaterate, verify_realization
from .solver import BranchPath, SolveOptions, initialize_first_three, prune_check, solve

__version__ = "0.1.0"

__all__ = [
    "BranchPath",
    "DegenerateGeometryError",
    "FileFormatError",
    "InfeasibleInstanceError",
    "Instance",
    "InternalCoords",
    "InvalidInstanceError",
    "SolveOptions",
    "TrilaterationResult",
    "ValidationReport",
    "generate_instance",
    "ingest_coordinates",
    "initialize_first_three",
    "internal_coordinates",
    "matrix_place_next",
    "prune_check",
    "solve",
    "trilaterate",
    "validate_instance",
    "verify_realization",
    "__version__",
]
