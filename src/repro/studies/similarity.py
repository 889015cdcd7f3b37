"""Program similarity via microarchitecture-independent characteristics.

Phansalkar et al. (cited in Section VI) measure SPEC program similarity
from microarchitecture-independent features.  This module does the
same for the sixteen substrates: per-benchmark feature vectors built
from telemetry that does not depend on the machine configuration
(operation mix, branch bias and density, memory footprint and access
density), a PCA projection (numpy), and a pairwise similarity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import StudyError
from ..core.run import Session
from ..machine.capture import TelemetryCapture

__all__ = [
    "ProgramFeatures",
    "collect_features",
    "features_from_capture",
    "pca",
    "similarity_matrix",
    "most_similar_pairs",
]

FEATURE_NAMES = (
    "int_op_share",
    "fp_op_share",
    "fpdiv_op_share",
    "branch_density",
    "branch_taken_ratio",
    "load_share",
    "store_share",
    "footprint_log_bytes",
    "accesses_per_op",
    "methods_log",
    "call_density",
)


@dataclass(frozen=True)
class ProgramFeatures:
    """One benchmark's microarchitecture-independent vector."""

    benchmark: str
    workload: str
    vector: np.ndarray

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.vector.tolist()))


def collect_features(
    benchmark_id: str, workload=None, *, session: Session | None = None
) -> ProgramFeatures:
    """Capture one workload and derive machine-independent features.

    Runs as a pure capture-stage consumer: the benchmark executes
    through :meth:`~repro.core.run.Session.capture` (so a warm
    artifact store or a shared session means no re-execution at all)
    and the features are computed from the captured telemetry — the
    replay stage never runs because nothing here needs a cost model.
    """
    own = session is None
    if own:
        session = Session()
    try:
        if workload is None:
            members = session.engine.alberta_members(benchmark_id, 0)
            workload = next(w for w in members if w.name.endswith(".refrate"))
        capture = session.capture(benchmark_id, workload)
    finally:
        if own:
            session.close()
    return features_from_capture(benchmark_id, capture)


def features_from_capture(
    benchmark_id: str, capture: TelemetryCapture
) -> ProgramFeatures:
    """Derive the feature vector from already-captured telemetry.

    Only telemetry *counts* are used — nothing from the cost model —
    so the vector is identical under any :class:`MachineConfig`.
    """
    methods = capture.methods
    int_ops = sum(m.int_ops for m in methods)
    fp_ops = sum(m.fp_ops for m in methods)
    fpdiv = sum(m.fpdiv_ops for m in methods)
    total_ops = max(1, int_ops + fp_ops + fpdiv)
    branches = sum(m.branches for m in methods)
    taken = sum(m.branches_taken for m in methods)
    loads = sum(m.loads for m in methods)
    stores = sum(m.stores for m in methods)
    accesses = max(1, loads + stores)
    calls = sum(m.calls for m in methods)

    # footprint: distinct 64-byte lines in the sampled address stream
    _, ev_kind, ev_a, _ = capture.columns
    n_lines = len(np.unique(ev_a[ev_kind == 1] >> 6))
    footprint = max(64, n_lines * 64)

    vector = np.array(
        [
            int_ops / total_ops,
            fp_ops / total_ops,
            fpdiv / total_ops,
            branches / max(1, total_ops + branches),
            taken / max(1, branches),
            loads / accesses,
            stores / accesses,
            float(np.log10(footprint)),
            accesses / total_ops,
            float(np.log10(max(2, len(methods)))),
            calls / max(1, total_ops) * 1000.0,
        ]
    )
    return ProgramFeatures(
        benchmark=benchmark_id, workload=capture.workload, vector=vector
    )


def pca(matrix: np.ndarray, n_components: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Principal components via SVD on the z-normalized matrix.

    Returns (projected points, explained-variance ratios).
    """
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise StudyError("pca: need a 2-D matrix with at least two rows")
    std = matrix.std(axis=0)
    std[std == 0] = 1.0
    z = (matrix - matrix.mean(axis=0)) / std
    u, s, _vt = np.linalg.svd(z, full_matrices=False)
    k = min(n_components, len(s))
    projected = u[:, :k] * s[:k]
    variance = s**2
    explained = variance[:k] / variance.sum()
    return projected, explained


def similarity_matrix(features: list[ProgramFeatures]) -> np.ndarray:
    """Pairwise similarity in [0, 1] from z-space Euclidean distance."""
    if len(features) < 2:
        raise StudyError("need at least two programs")
    matrix = np.stack([f.vector for f in features])
    std = matrix.std(axis=0)
    std[std == 0] = 1.0
    z = (matrix - matrix.mean(axis=0)) / std
    n = len(features)
    dists = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dists[i, j] = float(np.linalg.norm(z[i] - z[j]))
    peak = dists.max() or 1.0
    return 1.0 - dists / peak


def most_similar_pairs(
    features: list[ProgramFeatures],
    top: int = 5,
) -> list[tuple[str, str, float]]:
    """The most similar distinct program pairs, best first."""
    sim = similarity_matrix(features)
    pairs = []
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            pairs.append(
                (features[i].benchmark, features[j].benchmark, float(sim[i, j]))
            )
    pairs.sort(key=lambda p: -p[2])
    return pairs[:top]
