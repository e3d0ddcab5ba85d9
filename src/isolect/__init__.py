"""Prior-state reconstruction of language systems from coincidence matrices.

The package reconstructs the history of a set of modern languages as a
dendrogram of isolect chains and divergence lines, quantifies the
systematic distortion introduced by excluding borrowings from the counts,
and calibrates swadesh distances to calendar time under competing decay
laws. A forward Monte-Carlo simulator of cognate replacement serves as an
independent verification oracle for the reconstruction.
"""

from . import draw, treeio
from .decay import (
    CurveSample,
    DecayParams,
    classify_initial_rate,
    decay_rate,
    sample_curves,
    time_linear,
    time_linear_shifted,
    time_quadratic,
    time_starostin,
)
from .dendrogram import (
    ChainNode,
    Dendrogram,
    FitReport,
    Leaf,
    RootLink,
    ancestor_depth,
    attach_depth,
    fit_report,
    leaf_distances,
    root_geometry,
    theoretical_matrix,
)
from .errors import ConvergenceError, DomainError, InputFormatError, IsolectError
from .lexstat import (
    BorrowingAdjustment,
    CognacyTable,
    CoincidenceMatrix,
    adjust_coincidence_for_borrowings,
    coincidence_from_cognacy,
    coincidence_from_distance,
    distance_from_coincidence,
    distance_matrix,
)
from .reconstruct import (
    JoinStep,
    TwoLanguageFamily,
    build_dendrogram,
    redistribute_residuals,
    root_variants,
    three_language_tree,
    two_language_family,
)
from .simulate import (
    RecoveryReport,
    ReplicateRecovery,
    SimulationConfig,
    recovery_trial,
    simulate_cognacy,
)

__version__ = "0.1.0"

__all__ = [
    "BorrowingAdjustment",
    "ChainNode",
    "CognacyTable",
    "CoincidenceMatrix",
    "ConvergenceError",
    "CurveSample",
    "DecayParams",
    "Dendrogram",
    "DomainError",
    "FitReport",
    "InputFormatError",
    "IsolectError",
    "JoinStep",
    "Leaf",
    "RecoveryReport",
    "ReplicateRecovery",
    "RootLink",
    "SimulationConfig",
    "TwoLanguageFamily",
    "adjust_coincidence_for_borrowings",
    "ancestor_depth",
    "attach_depth",
    "build_dendrogram",
    "classify_initial_rate",
    "coincidence_from_cognacy",
    "coincidence_from_distance",
    "decay_rate",
    "distance_from_coincidence",
    "distance_matrix",
    "fit_report",
    "leaf_distances",
    "recovery_trial",
    "redistribute_residuals",
    "root_geometry",
    "root_variants",
    "sample_curves",
    "simulate_cognacy",
    "theoretical_matrix",
    "three_language_tree",
    "time_linear",
    "time_linear_shifted",
    "time_quadratic",
    "time_starostin",
    "two_language_family",
]
