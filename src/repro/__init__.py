"""repro: Adaptive Tile Matrices and topology-aware sparse multiplication.

A faithful, pure-Python reproduction of

    D. Kernert, W. Lehner, F. Koehler:
    "Topology-Aware Optimization of Big Sparse Matrices and Matrix
    Multiplications on Main-Memory Systems", ICDE 2016.

Quickstart
----------
>>> import numpy as np
>>> from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
>>> rng = np.random.default_rng(7)
>>> dense_block = rng.random((64, 64))
>>> raw = np.zeros((256, 256)); raw[:64, :64] = dense_block
>>> staged = COOMatrix.from_dense(raw)
>>> config = SystemConfig(llc_bytes=32 * 1024, b_atomic=32)
>>> a = build_at_matrix(staged, config)
>>> c, report = atmult(a, a, options=MultiplyOptions(config=config))
>>> bool(np.allclose(c.to_dense(), raw @ raw))
True
"""

from .config import DEFAULT_CONFIG, S_DENSE, S_SPARSE, SystemConfig
from .kinds import StorageKind, kernel_name
from .errors import (
    AdmissionError,
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    FormatError,
    FrameTooLargeError,
    IntegrityError,
    MemoryLimitError,
    OperationCancelledError,
    ParseError,
    PartitionError,
    PlanMismatchError,
    QuotaExceededError,
    ReproError,
    ResultCorruptionError,
    RetryExhaustedError,
    SchedulerError,
    ServiceError,
    ServiceUnavailableError,
    ShapeError,
    TaskFailedError,
    TransportError,
    UnknownJobError,
    UnknownMatrixError,
)
from .observe import (
    CostAccuracyTracker,
    MetricsRegistry,
    Observation,
    Span,
    Tracer,
    observe,
    to_chrome_trace,
    to_json_dict,
    to_text_summary,
    write_chrome_trace,
    write_json,
    write_text_summary,
)
from .formats import (
    COOMatrix,
    load_at_matrix,
    save_at_matrix,
    CSRMatrix,
    DenseMatrix,
    read_matrix_market,
    write_matrix_market,
)
from .density import DensityMap, estimate_product_density, water_level_threshold
from .cost import CostCoefficients, CostModel, calibrate, refine_from_observation
from .core import (
    ATMatrix,
    BaseReport,
    ParallelReport,
    ChainPlan,
    ChainReport,
    align_to_operand,
    multiply_chain,
    plan_chain,
    retile,
    add,
    scale,
    atmv,
    atmv_transposed,
    power_iteration,
    parallel_atmult,
    ATMatrixBuilder,
    BuildReport,
    MultiplyReport,
    Tile,
    atmult,
    build_at_matrix,
    fixed_grid_at_matrix,
)

# After .core: the resilience package's checkpoint/integrity modules
# reach back into repro.core / repro.formats at import time.
from .resilience import (
    CancelToken,
    CheckpointStore,
    FailureReport,
    FaultKind,
    FaultPlan,
    IntegrityViolation,
    RetryPolicy,
    check_integrity,
    inject_faults,
    verify_archive,
    verify_at_matrix,
)
from .engine import (
    CacheStats,
    ChainKey,
    ExecutionPlan,
    FusedChainPlan,
    MultiplyOptions,
    PlanCache,
    PlanKey,
    Session,
    build_chain_plan,
    build_plan,
    config_fingerprint,
    execute,
    plan,
    structure_fingerprint,
)
from .service import (
    CircuitBreaker,
    Deadline,
    JobSpec,
    JobState,
    JobStatus,
    MatrixRegistry,
    MatrixService,
    ServiceClient,
)
from .expr import M, MatrixExpr
from .solve import SolveResult, conjugate_gradient, jacobi, richardson
from .tune import TuningResult, autotune
from .advisor import Recommendation, TopologyProfile, profile_topology, recommend
from .topology import (
    ScheduleResult,
    SystemTopology,
    WorkerTeamScheduler,
    distribute_tile_rows,
)

__version__ = "2.0.0"

__all__ = [
    "SystemConfig",
    "DEFAULT_CONFIG",
    "S_DENSE",
    "S_SPARSE",
    "StorageKind",
    "kernel_name",
    "ReproError",
    "ShapeError",
    "FormatError",
    "ParseError",
    "ConfigError",
    "MemoryLimitError",
    "PlanMismatchError",
    "PartitionError",
    "SchedulerError",
    "TaskFailedError",
    "RetryExhaustedError",
    "ResultCorruptionError",
    "IntegrityError",
    "ServiceError",
    "AdmissionError",
    "QuotaExceededError",
    "UnknownMatrixError",
    "UnknownJobError",
    "OperationCancelledError",
    "DeadlineExceededError",
    "ServiceUnavailableError",
    "TransportError",
    "CircuitOpenError",
    "FrameTooLargeError",
    "CancelToken",
    "CheckpointStore",
    "FailureReport",
    "FaultKind",
    "FaultPlan",
    "IntegrityViolation",
    "RetryPolicy",
    "check_integrity",
    "inject_faults",
    "verify_archive",
    "verify_at_matrix",
    "COOMatrix",
    "CSRMatrix",
    "DenseMatrix",
    "read_matrix_market",
    "write_matrix_market",
    "save_at_matrix",
    "load_at_matrix",
    "DensityMap",
    "estimate_product_density",
    "water_level_threshold",
    "CostModel",
    "CostCoefficients",
    "calibrate",
    "refine_from_observation",
    "ATMatrix",
    "ATMatrixBuilder",
    "BuildReport",
    "Tile",
    "BaseReport",
    "MultiplyReport",
    "ParallelReport",
    "Observation",
    "observe",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "CostAccuracyTracker",
    "to_json_dict",
    "to_chrome_trace",
    "to_text_summary",
    "write_json",
    "write_chrome_trace",
    "write_text_summary",
    "atmult",
    "build_at_matrix",
    "fixed_grid_at_matrix",
    # -- the plan-and-execute engine (redesigned API surface) -------------
    "Session",
    "MultiplyOptions",
    "PlanCache",
    "PlanKey",
    "CacheStats",
    "ExecutionPlan",
    "plan",
    "execute",
    "build_plan",
    "structure_fingerprint",
    "config_fingerprint",
    "ChainPlan",
    "ChainReport",
    "ChainKey",
    "FusedChainPlan",
    "build_chain_plan",
    "plan_chain",
    "multiply_chain",
    "align_to_operand",
    "retile",
    "add",
    "scale",
    "atmv",
    "atmv_transposed",
    "power_iteration",
    "parallel_atmult",
    "SystemTopology",
    "WorkerTeamScheduler",
    "ScheduleResult",
    "distribute_tile_rows",
    "recommend",
    "profile_topology",
    "Recommendation",
    "TopologyProfile",
    # -- the multi-tenant matrix service ----------------------------------
    "MatrixService",
    "MatrixRegistry",
    "ServiceClient",
    "Deadline",
    "CircuitBreaker",
    "JobSpec",
    "JobState",
    "JobStatus",
    "M",
    "MatrixExpr",
    "conjugate_gradient",
    "jacobi",
    "richardson",
    "SolveResult",
    "autotune",
    "TuningResult",
    "__version__",
]
