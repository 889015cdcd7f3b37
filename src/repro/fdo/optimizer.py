"""Profile-guided optimization at the machine-model level.

Recompiling a SPEC binary with FDO changes three things our machine
model can express directly:

* **code layout / inlining** — hot methods (by training weight) get
  tighter code: reduced call overhead and a smaller effective
  instruction footprint (fewer L1I misses);
* **static branch hints** — branch sites in methods whose training
  bias was confident are predicted statically; when the *evaluation*
  workload shares that bias the hint beats the cold-start dynamic
  predictor, and when it does not, the hint actively hurts — the
  precise mechanism behind the paper's warning about single-workload
  training;
* **cold-code splitting** — methods never seen in training are moved
  out of line (slightly larger effective footprint on first touch).

:class:`FdoCostModel` evaluates a probe exactly like the base
:class:`~repro.machine.cost.CostModel` after rewriting the telemetry
according to the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import register_fdo_build
from ..machine.cost import CostModel, MachineConfig, MachineReport
from ..machine.telemetry import EV_BRANCH, Probe
from .profile_data import FdoProfile

__all__ = ["FdoBuild", "FdoCostModel", "optimize_probe"]

#: Inlining/layout shrink factor for hot code.
_HOT_CODE_SHRINK = 0.55
#: Call-overhead reduction for inlined hot methods.
_HOT_CALL_SHRINK = 0.4
#: Footprint growth for cold-split methods.
_COLD_CODE_GROWTH = 1.3


def optimize_probe(probe: Probe, profile: FdoProfile) -> None:
    """Apply layout decisions to a probe's recorded telemetry in place.

    Mutates per-method ``code_bytes`` (layout) and ``calls``
    (inlining) according to the training profile.  Branch hinting is
    handled during replay by :class:`FdoCostModel`.
    """
    hot = set(profile.hot_methods())
    for mc in probe.methods():
        if mc.name in hot:
            mc.code_bytes = max(64, int(mc.code_bytes * _HOT_CODE_SHRINK))
            mc.calls = max(1, int(mc.calls * _HOT_CALL_SHRINK))
        elif mc.name not in profile.methods:
            mc.code_bytes = int(mc.code_bytes * _COLD_CODE_GROWTH)


class FdoCostModel(CostModel):
    """Cost model for an FDO-recompiled binary.

    Branches in methods with a static hint bypass the dynamic
    predictor: they mispredict exactly when the actual outcome differs
    from the hinted direction.  Everything else falls through to the
    base model.
    """

    def __init__(self, profile: FdoProfile, config: MachineConfig | None = None):
        super().__init__(config)
        self.profile = profile

    def evaluate(self, probe: Probe) -> MachineReport:
        optimize_probe(probe, self.profile)

        # Pre-compute hints per method index.
        hints: dict[int, bool] = {}
        for mc in probe.methods():
            hint = self.profile.branch_hint(mc.name)
            if hint is not None:
                hints[mc.index] = hint

        if hints:
            # Rewrite hinted branch events so that the dynamic predictor
            # in the base replay sees only unhinted branches; hinted
            # mispredicts are accounted by flipping the event into a
            # pre-resolved form: we emulate the static hint by replacing
            # the outcome stream with "correct iff outcome == hint".
            # Concretely: a hinted branch that matches its hint becomes a
            # perfectly-predicted event (all outcomes identical teach the
            # predictor nothing harmful), and a mismatch becomes a
            # mispredict.  We implement this by resolving hinted events
            # columnar here and removing them from the stream.
            static_mispredicts: dict[int, int] = {}
            static_branches: dict[int, int] = {}
            midx, kind, a, b = probe.events.columns()
            n_slots = len(probe.methods())
            hint_val = np.zeros(n_slots, dtype=bool)
            is_hinted = np.zeros(n_slots, dtype=bool)
            for idx, hint in hints.items():
                hint_val[idx] = hint
                is_hinted[idx] = True
            hinted_sel = (kind == EV_BRANCH) & is_hinted[midx]
            h_midx = midx[hinted_sel]
            mismatch = (b[hinted_sel] != 0) != hint_val[h_midx]
            sb = np.bincount(h_midx, minlength=n_slots)
            sm = np.bincount(h_midx, weights=mismatch, minlength=n_slots).astype(np.int64)
            for idx in np.flatnonzero(sb).tolist():
                static_branches[idx] = int(sb[idx])
                if sm[idx]:
                    static_mispredicts[idx] = int(sm[idx])
            keep = ~hinted_sel
            probe.replace_events_columns(midx[keep], kind[keep], a[keep], b[keep])

            report = super().evaluate(probe)

            # Fold the statically-predicted branches back into the
            # per-method accounting.  A hinted branch's likely path is
            # laid out fall-through, so a wrong static guess costs only
            # half the normal wrong-path work (fetch re-steers within
            # the same line); a right guess costs nothing.
            cfg = self.config
            for mc in probe.methods():
                sb = static_branches.get(mc.index, 0)
                if not sb:
                    continue
                sm = static_mispredicts.get(mc.index, 0)
                # extrapolate sampled static events to the exact count of
                # branches this method executed
                cost = report.per_method[mc.name]
                extra_mispredicts = mc.branches * (sm / sb)
                cost.est_mispredicts += extra_mispredicts
                extra_bad_spec = extra_mispredicts * cfg.wrongpath_uops * 0.5 / cfg.width
                extra_frontend = extra_mispredicts * cfg.refill_cycles * 0.5
                cost.bad_spec_cycles += extra_bad_spec
                cost.frontend_cycles += extra_frontend

            return self._rebuild_report(probe, report)
        return super().evaluate(probe)

    def _rebuild_report(self, probe: Probe, report: MachineReport) -> MachineReport:
        """Recompute the aggregate views after per-method adjustments."""
        from ..core.coverage import CoverageProfile
        from ..core.topdown import TopDownVector

        per_method = report.per_method
        total_fe = sum(c.frontend_cycles for c in per_method.values())
        total_be = sum(c.backend_cycles for c in per_method.values())
        total_bad = sum(c.bad_spec_cycles for c in per_method.values())
        total_ret = sum(c.retiring_cycles for c in per_method.values())
        total = total_fe + total_be + total_bad + total_ret
        # the base replay's rate covers only unhinted branches; fold the
        # statically-predicted ones back in
        total_branches = sum(mc.branches for mc in probe.methods())
        if total_branches:
            report.branch_misprediction_rate = (
                sum(c.est_mispredicts for c in per_method.values()) / total_branches
            )
        report.topdown = TopDownVector.from_cycles(total_fe, total_be, total_bad, total_ret)
        report.coverage = CoverageProfile.from_times(
            {n: c.total_cycles for n, c in per_method.items() if c.total_cycles > 0}
        )
        report.cycles = total
        report.seconds = total / (self.config.clock_ghz * 1e9)
        return report


@dataclass(frozen=True)
class FdoBuild:
    """An FDO-recompiled "binary" as a replay-stage build transformation.

    The engine's replay stage (:meth:`repro.core.engine.
    CharacterizationEngine.replay_run`) is build-agnostic: it accepts
    any object with a ``name``, a content ``digest()`` for the profile
    cache key, and a ``cost_model(machine)`` factory.  This is that
    object for FDO — wrapping the training profile so a build-sweep
    replays one captured telemetry stream under baseline and
    FDO-optimized models without re-executing the benchmark.
    """

    profile: FdoProfile
    name: str = "fdo"

    def digest(self) -> str:
        """Content digest of the build inputs, for replay cache keys
        (which add this module's source) and the run ledger."""
        from ..core.cache import payload_digest

        return payload_digest({"build": self.name, "profile": self.profile})

    def cost_model(self, machine: MachineConfig | None = None) -> FdoCostModel:
        """The cost model this build replays captures through."""
        return FdoCostModel(self.profile, machine)


register_fdo_build("fdo", FdoBuild)
