"""Geodesic graphs for composite Finsler metrics on reductive homogeneous spaces."""

from .lie_algebra import (Check, JacobiReport, LieAlgebra, Report,
                          matrix_exponential)
from .homogeneous_space import (MetricFamily, ReductiveSpace,
                                load_space_document)
from .finsler_metric import (L_CONDITIONS, FinslerMetric, LFunction,
                             degree_one_sum, l_function_from_spec,
                             riemannian_metric, validate_l)
from .geodesic import (GeodesicGraphResult, GraphBatch, MatrixRealization,
                       ScanReport, assemble, check_equivariance_batch,
                       criterion_residuals, geodesic_residual,
                       go_property_scan, orbit_curve, solve_batch,
                       solve_geodesic_graph)
from .s7_catalog import (ClosedFormReport, S7Space, build_s7_space,
                         closed_form_xi, extended_matrix, k_coefficients,
                         verify_closed_form)

__version__ = "0.1.0"

__all__ = [
    "Check", "JacobiReport", "LieAlgebra", "Report", "matrix_exponential",
    "MetricFamily", "ReductiveSpace", "load_space_document",
    "L_CONDITIONS", "FinslerMetric", "LFunction", "degree_one_sum",
    "l_function_from_spec", "riemannian_metric", "validate_l",
    "GeodesicGraphResult", "GraphBatch", "MatrixRealization", "ScanReport",
    "assemble", "check_equivariance_batch", "criterion_residuals",
    "geodesic_residual", "go_property_scan", "orbit_curve", "solve_batch",
    "solve_geodesic_graph",
    "ClosedFormReport", "S7Space", "build_s7_space", "closed_form_xi",
    "extended_matrix", "k_coefficients", "verify_closed_form",
]
