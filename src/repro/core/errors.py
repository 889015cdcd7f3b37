"""Typed exception hierarchy for the characterization pipeline.

Historically :mod:`repro.core.characterize` and :mod:`repro.core.cache`
raised bare ``ValueError`` for every failure mode, which made it
impossible for callers (and the fault-tolerant engine) to distinguish
"you passed nonsense" from "this cell crashed" from "the on-disk cache
is damaged".  This module gives each mode its own type:

* :class:`WorkloadError` — the request itself is invalid (empty
  workload set, misaligned workload/profile lists, unknown benchmark);
* :class:`CellFailure` — one (benchmark, workload) matrix cell failed
  to execute after every configured attempt (worker exception, timeout,
  or crashed worker process);
* :class:`CacheCorruption` — a cache entry exists but cannot be
  decoded (truncated write, bit rot, foreign format);
* :class:`VerificationError` — a benchmark executed but its output
  failed the SPEC-style miscompare check;
* :class:`StudyError` — a Section V/VII study or FDO request is
  invalid (missing profiles, too few workloads, bad parameters);
* :class:`MachineMismatch` — an FDO comparison would mix results from
  different machine configurations;
* :class:`UnknownScenarioError` — a benchmark / workload / machine /
  build id does not resolve in the scenario registry (carries
  near-miss suggestions; the CLI maps it to exit code 2);
* :class:`RegistrationError` — a scenario descriptor is malformed or
  collides with an already-registered id at registry load time.

Deprecation note: every type subclasses :class:`ReproError`, which
itself subclasses ``ValueError``, so pre-existing ``except ValueError``
call sites keep working for one deprecation cycle.  New code should
catch the typed exceptions; the ``ValueError`` base will be dropped in
a future release.
"""

from __future__ import annotations

import difflib
from collections.abc import Iterable

__all__ = [
    "ReproError",
    "WorkloadError",
    "CellFailure",
    "CacheCorruption",
    "VerificationError",
    "StudyError",
    "MachineMismatch",
    "UnknownScenarioError",
    "RegistrationError",
]


class ReproError(ValueError):
    """Base for all repro-typed errors.

    Subclasses ``ValueError`` only for backward compatibility with
    callers written against the old untyped raises; do not rely on it.
    """


class WorkloadError(ReproError):
    """The characterization request is invalid before any cell runs."""


class CellFailure(ReproError):
    """One matrix cell exhausted its attempts without producing a profile.

    Carried both as a raised exception (``strict=True``) and as a plain
    record in :class:`~repro.core.run.RunResult.failures`
    (``strict=False``).

    Attributes:
        benchmark: benchmark id of the failed cell.
        workload: workload name of the failed cell.
        attempts: how many executions were tried (1 + retries).
        outcome: ``"failed"`` (worker raised), ``"timeout"`` (exceeded
            the per-cell timeout), or ``"crashed"`` (worker process
            died and broke the pool).
        error: stringified terminal error, for humans and the trace.
    """

    def __init__(
        self,
        benchmark: str,
        workload: str,
        *,
        attempts: int,
        outcome: str = "failed",
        error: str = "",
    ):
        self.benchmark = benchmark
        self.workload = workload
        self.attempts = attempts
        self.outcome = outcome
        self.error = error
        detail = f": {error}" if error else ""
        super().__init__(
            f"cell {benchmark}/{workload} {outcome} after "
            f"{attempts} attempt{'s' if attempts != 1 else ''}{detail}"
        )

    def as_dict(self) -> dict[str, object]:
        """The trace-journal representation of this failure."""
        return {
            "benchmark": self.benchmark,
            "workload": self.workload,
            "attempts": self.attempts,
            "outcome": self.outcome,
            "error": self.error,
        }


class CacheCorruption(ReproError):
    """A result-cache entry exists but cannot be decoded.

    :class:`~repro.core.cache.ResultCache` catches this internally,
    quarantines the entry (renames it to ``*.corrupt``) and treats the
    lookup as a miss; the type is public so direct users of
    :func:`~repro.core.cache.profile_from_dict` can handle it.
    """

    def __init__(self, message: str, *, path: object = None):
        self.path = path
        super().__init__(message)


class VerificationError(ReproError):
    """A benchmark ran but its output failed verification.

    Mirrors SPEC's output-validation step: a miscompare means the run
    is invalid, whatever the counters say.  Raised by
    :func:`~repro.machine.capture.run_probed`, the one execution body
    behind the capture stage and :meth:`~repro.machine.profiler.Profiler.run`.
    """


class StudyError(ReproError):
    """A study/FDO request is invalid before anything executes.

    The studies-layer counterpart of :class:`WorkloadError`: missing
    ``keep_profiles`` data, too few workloads to cross-validate, an
    out-of-range parameter, and so on.
    """


class MachineMismatch(StudyError):
    """An FDO comparison would mix different machine configurations.

    Speedups are only meaningful when the baseline and the
    FDO-optimized replays run under the same
    :class:`~repro.machine.cost.MachineConfig`; this error rejects the
    apples-to-oranges comparison instead of silently computing it.
    """


class UnknownScenarioError(ReproError, KeyError):
    """A scenario id (benchmark, workload, machine preset, build) does
    not resolve in the registry.

    Also subclasses ``KeyError``, so lookups such as
    ``registry.get_benchmark``, ``machine.machine.preset`` and
    ``WorkloadSet[name]`` still satisfy ``except KeyError`` call sites.

    Attributes:
        kind: human noun for the id space (``"benchmark"``,
            ``"machine preset"``, ``"workload"``, ...).
        scenario_id: the id that failed to resolve.
        known: the ids that *are* registered, for error rendering.
        suggestions: near-miss candidates from the known ids.
    """

    def __init__(
        self,
        kind: str,
        scenario_id: object,
        known: Iterable[str] = (),
        *,
        message: str | None = None,
    ):
        self.kind = kind
        self.scenario_id = scenario_id
        self.known = tuple(sorted(str(k) for k in known))
        self.suggestions = tuple(
            difflib.get_close_matches(str(scenario_id), self.known, n=3, cutoff=0.4)
        )
        if message is None:
            message = f"unknown {kind} {scenario_id!r}"
            if self.suggestions:
                hint = " or ".join(repr(s) for s in self.suggestions)
                message += f"; did you mean {hint}?"
            elif self.known:
                shown = ", ".join(self.known[:8])
                more = f", ... ({len(self.known)} total)" if len(self.known) > 8 else ""
                message += f"; known: {shown}{more}"
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message (quoting it); render
        # the plain text instead.
        return str(self.args[0]) if self.args else ""


class RegistrationError(ReproError):
    """A scenario descriptor is invalid at registration time.

    Raised by :mod:`repro.core.registry` for malformed descriptors
    (bad kind, empty id, blank capability), id collisions between
    two different descriptors, and plugin entry points that fail to
    load — always *before* any characterization runs.
    """
