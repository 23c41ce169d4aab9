"""Angular synchronization: recover n angles (up to one global rotation) from
noisy pairwise offset measurements, robustly to outliers.

Estimators: the spectral method (top eigenvector of the phase-offset matrix),
a low-rank SDP relaxation, and anchored least squares.  Plus seeded instance
generators, closed-form performance predictors, and full-spectrum tools.
"""

from .baselines import (
    LsqrOptions,
    SdpOptions,
    estimate_lsqr,
    estimate_sdp,
    sdp_objective,
    solve,
)
from .core import (
    AngleEstimate,
    AngsyncError,
    CorrelationReport,
    GroundTruth,
    InvalidInputError,
    NoTrianglesError,
    OffsetGraph,
    SyncMatrix,
    TooLargeError,
    ZeroMatrixError,
    circdist,
    evaluate,
    is_connected,
    read_instance,
    reduce_angles,
    rho1,
    rho2,
    sce,
    sce_f,
    write_instance,
)
from .eig import (
    EigOptions,
    build_sync_matrix,
    estimate_eig,
    round_to_angles,
    top_eigpair,
    triangle_consistency_score,
)
from .generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)
from .spectra import cluster_sizes, full_spectrum, histogram, top_k_spectrum

__all__ = [
    "AngleEstimate", "AngsyncError", "ClockModelParams", "CompleteModelParams",
    "CorrelationReport", "EigOptions", "GroundTruth", "InvalidInputError",
    "LsqrOptions", "NoTrianglesError", "OffsetGraph", "SdpOptions",
    "SmallWorldParams", "SyncMatrix", "TooLargeError", "ZeroMatrixError",
    "build_sync_matrix", "circdist", "cluster_sizes", "estimate_eig",
    "estimate_lsqr", "estimate_sdp", "evaluate", "full_spectrum", "gen_clock",
    "gen_complete", "gen_small_world", "histogram", "is_connected",
    "read_instance", "reduce_angles", "rho1", "rho2", "round_to_angles", "sce",
    "sce_f", "sdp_objective", "solve", "top_eigpair", "top_k_spectrum",
    "triangle_consistency_score", "write_instance",
]

__version__ = "0.1.0"
