"""Bundle exporter: write the full result package to a directory.

The Alberta Workloads are distributed with "an extensive amount of
data and analysis" per benchmark.  :func:`export_bundle` regenerates
that distribution layout for this reproduction:

```
<out>/
  table1.txt            Table I
  table2.txt            Table II over the selected benchmarks
  table2.json           same, machine-readable rows
  sensitivity.txt       ranking + caveats
  comparison.json       rank correlations vs the published table
  reports/<bench>.txt   per-benchmark report
  figures/<bench>.fig1.txt / .fig2.txt
```
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.characterize import BenchmarkCharacterization

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cache import ResultCache
from ..core.registry import benchmark_ids
from ..core.run import Session
from .figures import render_figure1, render_figure2
from .paper_baseline import compare_to_paper
from .sensitivity import sensitivity_report
from .tables import render_table1, render_table2, table2_rows
from ..core.reports import benchmark_report

__all__ = ["export_bundle"]


def export_bundle(
    out_dir: str | Path,
    ids: list[str] | None = None,
    *,
    base_seed: int = 0,
    workers: int | None = 1,
    cache: "ResultCache | str | Path | None" = None,
) -> dict[str, int]:
    """Characterize ``ids`` (default: all Table II rows) and write the
    distribution bundle; returns {artifact kind: count written}.

    Every row runs in one :class:`~repro.core.run.Session` with the
    given ``workers``/``cache``, so the export is one run: one journal,
    one ledger record.  The bundle is the prime warm-cache beneficiary,
    since it re-runs the exact Table II matrix that a prior ``table2``
    already profiled.
    """
    out = Path(out_dir)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "figures").mkdir(parents=True, exist_ok=True)

    selected = ids or sorted(benchmark_ids(table2_only=True))
    chars: list[BenchmarkCharacterization] = []
    with Session(workers=workers, cache=cache) as session:
        for bid in selected:
            result = session.characterize(bid, base_seed=base_seed, keep_profiles=True)
            chars.append(result.characterization)

    (out / "table1.txt").write_text(render_table1() + "\n")
    (out / "table2.txt").write_text(render_table2(chars) + "\n")
    (out / "table2.json").write_text(
        json.dumps(table2_rows(chars), indent=2, sort_keys=True) + "\n"
    )
    (out / "sensitivity.txt").write_text(sensitivity_report(chars) + "\n")

    counts = {"tables": 3, "reports": 0, "figures": 0}
    try:
        comparison = compare_to_paper(chars)
    except ValueError:
        pass  # fewer than three Table II benchmarks selected
    else:
        (out / "comparison.json").write_text(
            json.dumps(comparison, indent=2, sort_keys=True) + "\n"
        )
        counts["tables"] += 1

    for char in chars:
        stem = char.benchmark_id.replace("/", "_")
        (out / "reports" / f"{stem}.txt").write_text(benchmark_report(char) + "\n")
        counts["reports"] += 1
        (out / "figures" / f"{stem}.fig1.txt").write_text(render_figure1(char) + "\n")
        (out / "figures" / f"{stem}.fig2.txt").write_text(render_figure2(char) + "\n")
        counts["figures"] += 2
    return counts
