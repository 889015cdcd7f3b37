"""Workload-generation throughput benchmarks.

The paper's headline deliverable is the generators themselves ("
researchers can generate as many workloads as they wish").  These
benches time one workload generation per benchmark — the practical
cost of minting a fresh workload — and validate what comes out.
"""

import pytest

from repro.core.registry import benchmark_ids, get_generator
from repro.core.validation import validate_workload_set
from repro.core.workload import Workload


@pytest.mark.parametrize("bid", sorted(benchmark_ids()))
def test_generate_one_workload(benchmark, bid):
    import itertools

    gen = get_generator(bid)
    seed = itertools.count()

    def make():
        return gen.generate(1000 + next(seed))

    w = benchmark(make)
    assert isinstance(w, Workload)
    assert w.benchmark == bid


@pytest.mark.parametrize("bid", ["505.mcf_r", "557.xz_r", "548.exchange2_r"])
def test_generated_sets_validate(benchmark, bid):
    """Workload consistency, the paper's hard-won lesson for mcf."""
    gen = get_generator(bid)

    def build_and_validate():
        return validate_workload_set(gen.alberta_set(base_seed=77))

    report = benchmark.pedantic(build_and_validate, rounds=1, iterations=1, warmup_rounds=0)
    assert report.ok, report.summary()
