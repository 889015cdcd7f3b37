"""Record the reference row digests the benchmark checks its outputs against.

For each candidate seed: a Table II pass on every CPU from an empty
store, then the 8-config sweep over its captures with the profiles
wiped.  A seed is recorded
only if no cell fails and the sweep's ``default`` rows equal the Table
II rows; the others are reported and left out, so every recorded seed
is one the benchmark can run.  Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py --seeds 0 1 2 --held-out 2018
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import one_pass


def digests_for(seed: int, ids: list[str], scratch: Path) -> dict[str, dict[str, str]] | None:
    from repro.core.cache import ResultCache

    store = scratch / f"seed{seed}"
    try:
        table2 = one_pass.table2_pass(store, seed, one_pass.nproc(), ids)
        ResultCache(store).wipe()  # keep the captures for the sweep
        sweep = one_pass.sweep_pass(store, seed, ids)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    _, failed, expected = one_pass.check(table2["rows"], table2["engine_failed"], ids, {})
    attempted, failed_sweep, digests = one_pass.check(
        sweep["rows"], sweep["engine_failed"], ids, expected
    )
    if failed or failed_sweep:
        print(f"seed {seed}: {failed} Table II and {failed_sweep} of {attempted} sweep "
              "cells failed", file=sys.stderr)
        return None
    return digests


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--held-out", type=int, required=True)
    args = p.parse_args()
    from repro.core.registry import benchmark_ids

    ids = sorted(benchmark_ids(table2_only=True))
    seeds = sorted(set(args.seeds) | {one_pass.DEFAULT_SEED, args.held_out})
    work = one_pass.HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        found = {s: digests_for(s, ids, Path(tmp)) for s in seeds}
    recorded = {str(s): d for s, d in found.items() if d is not None}
    if not {str(one_pass.DEFAULT_SEED), str(args.held_out)} <= set(recorded):
        raise SystemExit("the default and held-out seeds must both run without failures")
    one_pass.REFERENCE.write_text(json.dumps({
        "default_seed": one_pass.DEFAULT_SEED,
        "held_out_seed": args.held_out,
        "seeds": recorded,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
