"""Exact-arithmetic toolkit for twisted generalized Reed-Solomon codes.

Construction of generator and closed-form parity-check matrices over GF(p^m),
MDS / AMDS / LCD classification with independent brute-force oracles, and two
constructive recipes for LCD (and LCD MDS) codes on cyclic point sets.
"""

from .classify import (CodeReport, PhiWorkspace, classify, hull_dimension, is_amds,
                       is_mds_minors, is_mds_phi, min_distance, report_to_json)
from .codes import (TgrsSpec, encode, generator_matrix, parity_check_matrix,
                    tgrs_spec_from_json, tgrs_spec_to_json)
from .errors import ResourceLimitError, TgrsError, ValidationError, VerificationError
from .gf import Field, FieldElement, field_from_json, field_to_json
from .golden import GOLDEN_CODES, GoldenCode
from .lcdgen import (BuildResult, Class1Params, Class2Params, HypothesisCheck, SearchHit,
                     build_class1, build_class2, quadratic_twist_sum, r_coefficient,
                     search_eta)
from .linalg import MatGF, det, null_space, rank
from .poly import Poly
from .symm import SymContext

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElement", "Poly", "MatGF", "SymContext",
    "TgrsSpec", "CodeReport", "PhiWorkspace",
    "Class1Params", "Class2Params", "SearchHit",
    "BuildResult", "HypothesisCheck", "GoldenCode", "GOLDEN_CODES",
    "TgrsError", "ValidationError", "ResourceLimitError", "VerificationError",
    "generator_matrix", "parity_check_matrix", "encode",
    "classify", "is_mds_phi", "is_mds_minors", "is_amds", "min_distance",
    "hull_dimension", "rank", "det", "null_space",
    "r_coefficient", "build_class1", "build_class2", "search_eta",
    "quadratic_twist_sum", "field_to_json", "field_from_json",
    "tgrs_spec_to_json", "tgrs_spec_from_json", "report_to_json",
]
