"""Core methodology: workloads, statistics, top-down and coverage summaries."""

from .artifacts import ArtifactStore, CaptureStore, decode_capture, encode_capture
from .cache import ResultCache, cache_key, capture_key, payload_digest
from .characterize import (
    BenchmarkCharacterization,
    assemble_characterization,
    characterize,
    characterize_suite,
)
from .coverage import CoverageProfile, CoverageSummary, summarize_coverage
from .engine import CellOutcome, CharacterizationEngine, default_workers
from .errors import (
    CacheCorruption,
    CellFailure,
    MachineMismatch,
    RegistrationError,
    ReproError,
    StudyError,
    UnknownScenarioError,
    VerificationError,
    WorkloadError,
)
from .reports import benchmark_report, execution_time_report
from .run import Run, RunResult, Session, SweepResult
from .trace import (
    CellSpan,
    RunSummary,
    TraceWriter,
    read_trace,
    summarize_trace,
    trace_spans,
)
from .registry import (
    REGISTRY,
    Descriptor,
    Registry,
    alberta_workloads,
    benchmark_ids,
    get_benchmark,
    get_generator,
    load_plugin,
)
from .validation import ValidationReport, validate_workload_set
from .stats import (
    RatioSummary,
    geometric_mean,
    geometric_std,
    method_variation,
    mu_g_of_variations,
    proportional_variation,
    summarize_ratio,
)
from .topdown import CATEGORIES, TopDownSummary, TopDownVector, summarize_topdown
from .workload import Workload, WorkloadKind, WorkloadSet

__all__ = [
    "BenchmarkCharacterization",
    "assemble_characterization",
    "characterize",
    "characterize_suite",
    "ArtifactStore",
    "CaptureStore",
    "encode_capture",
    "decode_capture",
    "ResultCache",
    "cache_key",
    "capture_key",
    "payload_digest",
    "CellOutcome",
    "CharacterizationEngine",
    "default_workers",
    "ReproError",
    "WorkloadError",
    "CellFailure",
    "CacheCorruption",
    "VerificationError",
    "StudyError",
    "MachineMismatch",
    "UnknownScenarioError",
    "RegistrationError",
    "REGISTRY",
    "Descriptor",
    "Registry",
    "load_plugin",
    "Run",
    "RunResult",
    "Session",
    "SweepResult",
    "CellSpan",
    "RunSummary",
    "TraceWriter",
    "read_trace",
    "summarize_trace",
    "trace_spans",
    "benchmark_report",
    "execution_time_report",
    "alberta_workloads",
    "benchmark_ids",
    "get_benchmark",
    "get_generator",
    "ValidationReport",
    "validate_workload_set",
    "CoverageProfile",
    "CoverageSummary",
    "summarize_coverage",
    "RatioSummary",
    "geometric_mean",
    "geometric_std",
    "method_variation",
    "mu_g_of_variations",
    "proportional_variation",
    "summarize_ratio",
    "CATEGORIES",
    "TopDownSummary",
    "TopDownVector",
    "summarize_topdown",
    "Workload",
    "WorkloadKind",
    "WorkloadSet",
]
