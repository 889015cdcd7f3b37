"""Tests for the 557.xz_r substrate and its workload generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.xz import (
    XzBenchmark,
    XzInput,
    _RangeDecoder,
    _RangeEncoder,
    compress,
    decompress,
)
from repro.machine import run_benchmark
from repro.workloads.xz_gen import CONTENT_STYLES, XzWorkloadGenerator


def params(content: bytes, **kw) -> XzInput:
    return XzInput(content=content, **kw)


class TestRoundTrip:
    def test_simple_text(self):
        data = b"the quick brown fox jumps over the lazy dog " * 40
        blob = compress(data, params(data))
        assert decompress(blob, len(data)) == data

    def test_single_byte(self):
        data = b"x"
        blob = compress(data, params(data))
        assert decompress(blob, len(data)) == data

    def test_all_zero(self):
        data = b"\x00" * 5000
        blob = compress(data, params(data))
        assert decompress(blob, len(data)) == data
        assert len(blob) < len(data) // 10  # trivially compressible

    def test_incompressible(self):
        import random

        rng = random.Random(9)
        data = bytes(rng.randrange(256) for _ in range(4096))
        blob = compress(data, params(data))
        assert decompress(blob, len(data)) == data
        assert len(blob) > len(data) * 0.9  # random data barely shrinks

    @given(st.binary(min_size=1, max_size=3000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        blob = compress(data, params(data))
        assert decompress(blob, len(data)) == data

    def test_compressible_beats_incompressible(self):
        rep = b"abcdef" * 800
        import random

        rng = random.Random(1)
        rand = bytes(rng.randrange(256) for _ in range(4800))
        ratio_rep = len(compress(rep, params(rep))) / len(rep)
        ratio_rand = len(compress(rand, params(rand))) / len(rand)
        assert ratio_rep < ratio_rand / 3


class TestXzInputValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            XzInput(content=b"")

    def test_rejects_non_pow2_dict(self):
        with pytest.raises(ValueError):
            XzInput(content=b"x", dict_size=1000)

    def test_rejects_tiny_match(self):
        with pytest.raises(ValueError):
            XzInput(content=b"x", max_match=1)


class TestBenchmark:
    def test_run_and_verify(self):
        gen = XzWorkloadGenerator()
        w = gen.generate(3, style="text", size=2048)
        prof = run_benchmark(XzBenchmark(), w)
        assert prof.verified
        assert prof.output["ok"]
        assert prof.output["ratio"] > 0

    def test_precompressed_payload_used(self):
        gen = XzWorkloadGenerator()
        w = gen.generate(3, style="text", size=2048, precompress=True)
        assert w.payload.stored is not None
        # the stored blob must itself decode back to the content
        assert decompress(w.payload.stored, len(w.payload.content)) == w.payload.content

    def test_memoization_effect(self):
        """The paper's discovery: repeated content below the dictionary
        size degenerates into dictionary lookups — visible as a far
        better compression ratio than mixed content."""
        gen = XzWorkloadGenerator()
        repeated = gen.generate(5, style="repeated", size=4096)
        mixed = gen.generate(5, style="mixed", size=4096)
        bm = XzBenchmark()
        r1 = run_benchmark(bm, repeated).output["ratio"]
        r2 = run_benchmark(bm, mixed).output["ratio"]
        assert r1 < r2 / 2


class TestGenerator:
    def test_styles(self):
        gen = XzWorkloadGenerator()
        for style in CONTENT_STYLES:
            w = gen.generate(1, style=style, size=1024, precompress=False)
            assert len(w.payload.content) == 1024

    def test_determinism(self):
        gen = XzWorkloadGenerator()
        a = gen.generate(7, style="text", size=2048, precompress=False)
        b = gen.generate(7, style="text", size=2048, precompress=False)
        assert a.payload.content == b.payload.content

    def test_seeds_differ(self):
        gen = XzWorkloadGenerator()
        a = gen.generate(7, style="text", size=2048, precompress=False)
        b = gen.generate(8, style="text", size=2048, precompress=False)
        assert a.payload.content != b.payload.content

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            XzWorkloadGenerator().generate(1, style="video")

    def test_alberta_set_size(self):
        ws = XzWorkloadGenerator().alberta_set()
        assert len(ws) == 12  # Table II count
        assert "xz.refrate" in ws


class TestLazyMatching:
    """The LZMA lazy-match heuristic: defer a short match when a longer
    one starts at the next byte."""

    CRAFTED = b"abcZZZZbcdefghQQQQabcdefgh"

    def test_lazy_round_trips(self):
        p = params(self.CRAFTED, lazy=True)
        assert decompress(compress(self.CRAFTED, p), len(self.CRAFTED)) == self.CRAFTED

    def test_lazy_beats_greedy_on_crafted_input(self):
        greedy = compress(self.CRAFTED, params(self.CRAFTED, lazy=False))
        lazy = compress(self.CRAFTED, params(self.CRAFTED, lazy=True))
        assert len(lazy) < len(greedy)

    def test_lazy_never_worse_on_text(self):
        import random

        rng = random.Random(6)
        from repro.workloads.xz_gen import _text_content

        data = _text_content(rng, 4096)
        greedy = compress(data, params(data, lazy=False))
        lazy = compress(data, params(data, lazy=True))
        assert len(lazy) <= len(greedy) * 1.02

    def test_lazy_defers_exactly_one_match(self):
        from repro.machine.telemetry import Probe

        counts = {}
        for lazy in (False, True):
            p = Probe()
            with p.method("m"):
                compress(self.CRAFTED, params(self.CRAFTED, lazy=lazy), p)
            mc = p.methods()[0]
            counts[lazy] = (mc.extra["matches"], mc.extra["literals"])
        assert counts[True][0] == counts[False][0] - 1  # one match deferred
        assert counts[True][1] == counts[False][1] + 1  # into one literal


# A per-bit range coder: the reference that encode_bits and decode_bits
# must match bit for bit.


def reference_encode_bit(enc: _RangeEncoder, probs: list[int], idx: int, bit: int) -> None:
    prob = probs[idx]
    bound = (enc.range_ >> 11) * prob
    if bit == 0:
        enc.range_ = bound
        probs[idx] = prob + ((2048 - prob) >> 5)
    else:
        enc.low += bound
        enc.range_ -= bound
        probs[idx] = prob - (prob >> 5)
    while enc.range_ < enc.TOP:
        enc.range_ <<= 8
        enc._shift_low()


def reference_decode_bit(dec: _RangeDecoder, probs: list[int], idx: int) -> int:
    prob = probs[idx]
    bound = (dec.range_ >> 11) * prob
    if dec.code < bound:
        bit = 0
        dec.range_ = bound
        probs[idx] = prob + ((2048 - prob) >> 5)
    else:
        bit = 1
        dec.code -= bound
        dec.range_ -= bound
        probs[idx] = prob - (prob >> 5)
    while dec.range_ < dec.TOP:
        nxt = dec.data[dec.pos] if dec.pos < len(dec.data) else 0
        dec.pos += 1
        dec.code = ((dec.code << 8) | nxt) & 0xFFFFFFFF
        dec.range_ <<= 8
    return bit


def _coder_calls(data: bytes, match_every: int) -> list[tuple[str, int, int, int]]:
    """``(model, base, value, nbits)`` calls shaped like compress()'s:
    a flag bit, then a literal under its context or a (length, distance)
    pair."""
    calls = []
    for pos, byte in enumerate(data):
        if match_every and pos % match_every == match_every - 1:
            calls.append(("flag", 0, 1, 1))
            calls.append(("len", 0, byte % 62 + 3, 8))
            calls.append(("dist", 0, (byte << 7 | pos) & 0xFFFF or 1, 16))
        else:
            calls.append(("flag", 0, 0, 1))
            calls.append(("lit", ((data[pos - 1] >> 5) if pos else 0) * 8, byte, 8))
    return calls


def _models() -> dict[str, list[int]]:
    return {"flag": [1024] * 2, "lit": [1024] * 2048, "len": [1024] * 16, "dist": [1024] * 32}


def assert_coder_matches_reference(data: bytes, match_every: int) -> None:
    calls = _coder_calls(data, match_every)
    fast, ref = _RangeEncoder(), _RangeEncoder()
    fast_models, ref_models = _models(), _models()
    for model, base, value, nbits in calls:
        fast.encode_bits(fast_models[model], base, value, nbits)
        for j in range(nbits):
            bit = value >> (nbits - 1 - j) & 1
            reference_encode_bit(ref, ref_models[model], base + j, bit)
        assert (fast.low, fast.range_) == (ref.low, ref.range_)
    assert fast_models == ref_models
    blob = fast.finish()
    assert blob == ref.finish()

    fast_dec, ref_dec = _RangeDecoder(blob), _RangeDecoder(blob)
    fast_models, ref_models = _models(), _models()
    for model, base, value, nbits in calls:
        got = fast_dec.decode_bits(fast_models[model], base, nbits)
        want = 0
        for j in range(nbits):
            want = want << 1 | reference_decode_bit(ref_dec, ref_models[model], base + j)
        assert got == want == value
        assert (fast_dec.pos, fast_dec.code, fast_dec.range_) == (
            ref_dec.pos, ref_dec.code, ref_dec.range_,
        )
    assert fast_models == ref_models


class TestCoderMatchesPerBitReference:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(CONTENT_STYLES),
        st.sampled_from((0, 3, 11)),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_content(self, seed, style, match_every):
        content = XzWorkloadGenerator().generate(
            seed, style=style, size=1024, precompress=False
        ).payload.content
        assert_coder_matches_reference(content, match_every)

    @given(st.binary(min_size=1, max_size=1500), st.sampled_from((0, 2, 7)))
    @settings(max_examples=40, deadline=None)
    def test_random_bytes(self, data, match_every):
        assert_coder_matches_reference(data, match_every)
