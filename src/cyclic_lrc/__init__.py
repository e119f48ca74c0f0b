"""Cyclic locally repairable codes: construction, repair and certification."""

from .cyclic import DEFAULT_BUDGET, CyclicCode, DistanceScan, min_distance_exhaustive
from .codefile import load_code, save_code
from .constructions import (
    ALL_SCHEMES,
    CandidateParams,
    ConstructionError,
    LrcCode,
    ParameterError,
    construct,
    enumerate_valid_params,
)
from .field import FieldElement, FiniteField, make_field, primitive_nth_root
from .poly import Poly
from .repair import (
    ErasedWord,
    LocalityCheck,
    RepairError,
    repair_erasure,
    repair_vector,
    verify_locality,
)
from .verify import VerificationReport, render_verdict, singleton_bound, verify_optimal

__version__ = "0.1.0"

__all__ = [
    "ALL_SCHEMES",
    "CandidateParams",
    "ConstructionError",
    "CyclicCode",
    "DEFAULT_BUDGET",
    "DistanceScan",
    "ErasedWord",
    "FieldElement",
    "FiniteField",
    "LocalityCheck",
    "LrcCode",
    "ParameterError",
    "Poly",
    "RepairError",
    "VerificationReport",
    "construct",
    "enumerate_valid_params",
    "load_code",
    "make_field",
    "min_distance_exhaustive",
    "primitive_nth_root",
    "render_verdict",
    "repair_erasure",
    "repair_vector",
    "save_code",
    "singleton_bound",
    "verify_locality",
    "verify_optimal",
]
