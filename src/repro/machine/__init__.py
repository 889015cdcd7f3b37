"""Machine model: cache geometry, telemetry, capture, replay, cost accounting."""

from .batch import replay_capture, replay_capture_batched
from .cache import Cache, CacheConfig, CacheGeometry, CacheHierarchy, Tlb
from .capture import TelemetryCapture, capture_execution
from .cost import CostModel, MachineConfig, MachineReport, MethodCost
from .machine import ATOM_LIKE, I7_2600, I7_6700K, PRESETS, preset, preset_names
from .profiler import ExecutionProfile, Profiler, run_benchmark
from .telemetry import MethodCounters, Probe

__all__ = [
    "TelemetryCapture",
    "capture_execution",
    "replay_capture",
    "replay_capture_batched",
    "Cache",
    "CacheConfig",
    "CacheGeometry",
    "CacheHierarchy",
    "Tlb",
    "ATOM_LIKE",
    "I7_2600",
    "I7_6700K",
    "PRESETS",
    "preset",
    "preset_names",
    "CostModel",
    "MachineConfig",
    "MachineReport",
    "MethodCost",
    "ExecutionProfile",
    "Profiler",
    "run_benchmark",
    "MethodCounters",
    "Probe",
]
