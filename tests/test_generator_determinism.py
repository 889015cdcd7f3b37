"""Generator determinism across fresh instantiations (engine prerequisite).

The result cache keys workloads by name + seed + payload digest; that
only works if ``alberta_set(seed)`` is a pure function of its seed —
two fresh generator instances must mint byte-identical workload sets,
and a different seed must actually change the payload content.
"""

import pytest

from repro.core.cache import payload_digest
from repro.core.registry import benchmark_ids, get_benchmark, get_generator
from repro.machine.telemetry import Probe

ALL_IDS = sorted(benchmark_ids())

#: MANUAL-provenance generators (Section IV-B): their payloads are fixed
#: parameter-file enumerations, so the seed lands only in the metadata.
SEED_INDEPENDENT = {"507.cactuBSSN_r", "510.parest_r", "521.wrf_r"}


def _set_digests(benchmark_id: str, base_seed: int) -> list[tuple[str, str]]:
    generator = get_generator(benchmark_id)  # fresh instance every call
    return [
        (w.name, payload_digest(w.payload))
        for w in generator.alberta_set(base_seed)
    ]


@pytest.mark.parametrize("bid", ALL_IDS)
def test_alberta_set_identical_across_instantiations(bid):
    first = _set_digests(bid, 0)
    second = _set_digests(bid, 0)
    assert [name for name, _ in first] == [name for name, _ in second]
    assert first == second


@pytest.mark.parametrize("bid", ALL_IDS)
def test_alberta_set_differs_for_different_seed(bid):
    # Individual workloads may be seed-independent (fixed SPEC-style
    # inputs), but the set as a whole must change content with the seed
    # — except for the MANUAL generators, whose authored parameter
    # files are deliberately seed-independent.
    digests_seed0 = [d for _, d in _set_digests(bid, 0)]
    digests_seed1 = [d for _, d in _set_digests(bid, 1)]
    if bid in SEED_INDEPENDENT:
        assert digests_seed0 == digests_seed1
    else:
        assert digests_seed0 != digests_seed1


@pytest.mark.parametrize("bid", ALL_IDS)
def test_workload_metadata_is_reproducible(bid):
    a = get_generator(bid).alberta_set(0)
    b = get_generator(bid).alberta_set(0)
    assert a.manifest() == b.manifest()


@pytest.mark.parametrize("bid", ALL_IDS)
def test_run_leaves_every_payload_unchanged(bid):
    """Inline engine cells execute the very workload objects the parent
    computed the cache and capture keys from, so a run must not mutate
    its payload."""
    bench = get_benchmark(bid)
    for w in get_generator(bid).alberta_set(0):
        before = payload_digest(w.payload)
        bench.run(w, Probe(event_cap=1024))
        assert payload_digest(w.payload) == before, w.name
