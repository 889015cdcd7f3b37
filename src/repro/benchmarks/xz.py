"""Mini ``557.xz_r``: an LZMA-style sliding-window compressor.

The SPEC benchmark decompresses a stored file to memory, compresses it,
and decompresses it again.  This substrate implements the same pipeline
with a real LZ77 match finder (hash chains over a sliding-window
dictionary, greedy parse with lazy-match heuristic) and an adaptive
binary range coder — the two phases whose balance the paper found to be
workload-sensitive (its "memoization" discovery: inputs shorter than
the dictionary degenerate into dictionary lookups).

Workload payload: :class:`XzInput` with the raw content and compressor
parameters (dictionary size, minimum/maximum match lengths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import register_benchmark
from ..core.workload import Workload
from ..machine.telemetry import Probe
from .base import BenchmarkError

__all__ = ["XzInput", "XzBenchmark", "compress", "decompress"]

_MIN_MATCH = 3
_HASH_BITS = 14
_WINDOW_REGION = 0x0100_0000
_HASH_REGION = 0x0200_0000
_CHAIN_REGION = 0x0300_0000
_PROB_REGION = 0x0400_0000

#: ``_BITS[byte]``: the byte's eight bits as bools, most significant first.
_BITS = tuple(tuple(bool(byte >> i & 1) for i in range(7, -1, -1)) for byte in range(256))

#: ``_EXTENSION_PROBES[min(length, 16)]``: the branch outcomes one
#: match-extension loop of ``length`` steps records (see ``_find_match``).
_EXTENSION_PROBES = tuple((True,) * k + (False, k >= _MIN_MATCH) for k in range(17))


@dataclass(frozen=True)
class XzInput:
    """One xz workload: content plus compressor parameters.

    ``stored`` optionally carries the pre-compressed form of ``content``
    (the real benchmark's input file *is* compressed); when absent the
    benchmark compresses on the fly to create it.
    """

    content: bytes
    dict_size: int = 1 << 13
    max_match: int = 64
    max_chain: int = 32
    lazy: bool = True
    stored: bytes | None = None

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("XzInput: content must be non-empty")
        if self.dict_size < 256 or self.dict_size & (self.dict_size - 1):
            raise ValueError("XzInput: dict_size must be a power of two >= 256")
        if self.max_match < _MIN_MATCH:
            raise ValueError(f"XzInput: max_match must be >= {_MIN_MATCH}")
        if self.max_chain < 1:
            raise ValueError("XzInput: max_chain must be >= 1")


class _RangeEncoder:
    """Adaptive binary range coder (the LZMA entropy-coding stage).

    Uses the canonical LZMA carry-propagation scheme: emitted bytes are
    buffered through ``cache``/``cache_size`` so that a carry out of the
    32-bit ``low`` register can ripple into bytes already produced.
    """

    TOP = 1 << 24

    def __init__(self) -> None:
        self.low = 0
        self.range_ = 0xFFFFFFFF
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def _shift_low(self) -> None:
        if self.low < 0xFF000000 or self.low >= 0x1_0000_0000:
            carry = self.low >> 32
            temp = self.cache
            while True:
                self.out.append((temp + carry) & 0xFF)
                temp = 0xFF
                self.cache_size -= 1
                if self.cache_size == 0:
                    break
            self.cache = (self.low >> 24) & 0xFF
        self.cache_size += 1
        self.low = (self.low << 8) & 0xFFFFFFFF

    def encode_bits(self, probs: list[int], base: int, value: int, nbits: int) -> None:
        """Code the low ``nbits`` of ``value``, most significant first.

        Bit ``j`` (0 = the most significant) is coded under
        ``probs[base + j]``, which then adapts toward the coded bit.
        """
        top = self.TOP
        low = self.low
        range_ = self.range_
        for idx in range(base, base + nbits):
            nbits -= 1
            prob = probs[idx]
            bound = (range_ >> 11) * prob
            if value >> nbits & 1:
                low += bound
                range_ -= bound
                probs[idx] = prob - (prob >> 5)
            else:
                range_ = bound
                probs[idx] = prob + ((2048 - prob) >> 5)
            while range_ < top:
                range_ <<= 8
                self.low = low
                self._shift_low()
                low = self.low
        self.low = low
        self.range_ = range_

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class _RangeDecoder:
    """Mirror of :class:`_RangeEncoder`."""

    TOP = 1 << 24

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 5
        self.range_ = 0xFFFFFFFF
        self.code = 0
        for i in range(5):
            self.code = (self.code << 8) | (data[i] if i < len(data) else 0)
        self.code &= 0xFFFFFFFF

    def decode_bits(self, probs: list[int], base: int, nbits: int) -> int:
        """Inverse of :meth:`_RangeEncoder.encode_bits`: the decoded value."""
        top = self.TOP
        data = self.data
        n = len(data)
        pos = self.pos
        code = self.code
        range_ = self.range_
        value = 0
        for idx in range(base, base + nbits):
            prob = probs[idx]
            bound = (range_ >> 11) * prob
            if code < bound:
                value <<= 1
                range_ = bound
                probs[idx] = prob + ((2048 - prob) >> 5)
            else:
                value = value << 1 | 1
                code -= bound
                range_ -= bound
                probs[idx] = prob - (prob >> 5)
            while range_ < top:
                code = (code << 8 | (data[pos] if pos < n else 0)) & 0xFFFFFFFF
                pos += 1
                range_ <<= 8
        self.pos = pos
        self.code = code
        self.range_ = range_
        return value

    def byte_position(self) -> int:
        return self.pos


def _new_probs(n: int) -> list[int]:
    return [1024] * n


def compress(
    data: bytes,
    params: XzInput,
    probe: Probe | None = None,
) -> bytes:
    """LZ77 + range-coder compression of ``data``.

    The token stream is: flag bit (0 = literal, 1 = match), literal
    bytes coded bit-by-bit with per-position-context probabilities,
    matches coded as (length, distance) fixed-width numbers under
    adaptive probabilities.
    """
    n = len(data)
    dict_mask = params.dict_size - 1
    hash_mask = (1 << _HASH_BITS) - 1
    head: list[int] = [-1] * (1 << _HASH_BITS)
    chain: list[int] = [-1] * params.dict_size

    enc = _RangeEncoder()
    flag_probs = _new_probs(2)
    lit_probs = _new_probs(256 * 8)
    len_probs = _new_probs(16)
    dist_probs = _new_probs(32)

    max_match = params.max_match
    min_pos_limit = params.dict_size

    def _hash3(pos: int) -> int:
        return ((data[pos] << 10) ^ (data[pos + 1] << 5) ^ data[pos + 2]) & hash_mask

    pos = 0
    match_probes: list[bool] = []
    bit_branches: list[bool] = []
    window_reads: list[int] = []
    n_matches = 0
    n_literals = 0
    total_match_len = 0

    def _find_match(at: int) -> tuple[int, int]:
        """Hash-chain search for the longest match starting at ``at``."""
        if at + _MIN_MATCH > n:
            return 0, 0
        best_len = 0
        best_dist = 0
        h = _hash3(at)
        window_reads.append(_HASH_REGION + h * 4)
        cand = head[h]
        tries = params.max_chain
        lo_limit = at - min_pos_limit
        limit = min(max_match, n - at)
        target = data[at : at + limit]
        target_int = int.from_bytes(target, "big")
        while cand >= 0 and cand >= lo_limit and tries > 0:
            tries -= 1
            # the match extension: the common prefix of the two windows
            # (cand < at, so both hold `limit` bytes), from the highest
            # differing bit of their big-endian XOR
            window = data[cand : cand + limit]
            if window == target:
                length = limit
            else:
                diff = int.from_bytes(window, "big") ^ target_int
                length = limit - (diff.bit_length() + 7) // 8
            # the extension loop is a data-dependent branch: `length`
            # taken iterations followed by one not-taken exit
            match_probes.extend(_EXTENSION_PROBES[length if length < 16 else 16])
            window_reads.append(_WINDOW_REGION + (cand & dict_mask) * 8)
            if length > best_len:
                best_len = length
                best_dist = at - cand
                if length >= max_match:
                    break
            window_reads.append(_CHAIN_REGION + (cand & dict_mask) * 16)
            cand = chain[cand & dict_mask]
        return best_len, best_dist

    deferred: tuple[int, int] | None = None  # lazy: match found at pos
    while pos < n:
        if deferred is not None:
            best_len, best_dist = deferred
            deferred = None
        else:
            best_len, best_dist = _find_match(pos)

        # lazy matching: before committing to a match, peek at pos + 1;
        # if a strictly longer match starts there, emit a literal now
        # and keep the better match for the next iteration
        if params.lazy and _MIN_MATCH <= best_len < max_match and pos + 1 < n:
            next_len, next_dist = _find_match(pos + 1)
            match_probes.append(next_len > best_len)
            if next_len > best_len:
                deferred = (next_len, next_dist)
                best_len = 0  # force the literal path for this byte

        if best_len >= _MIN_MATCH:
            enc.encode_bits(flag_probs, 0, 1, 1)
            enc.encode_bits(len_probs, 0, best_len, 8)
            enc.encode_bits(dist_probs, 0, best_dist, 16)
            n_matches += 1
            total_match_len += best_len
            end = min(pos + best_len, n - 2)
            p = pos
            while p < end:
                h = _hash3(p)
                chain[p & dict_mask] = head[h]
                head[h] = p
                p += 1
            pos += best_len
        else:
            enc.encode_bits(flag_probs, 0, 0, 1)
            byte = data[pos]
            # literal context: top 3 bits of the previous byte (known to
            # the decoder as well, keeping the adaptive models in sync)
            ctx = (data[pos - 1] >> 5) if pos > 0 else 0
            enc.encode_bits(lit_probs, ctx * 8, byte, 8)
            # the range coder branches on each bit value itself — a
            # data-dependent branch that is unpredictable exactly when
            # the content is incompressible
            bit_branches.extend(_BITS[byte])
            n_literals += 1
            if pos + _MIN_MATCH <= n:
                h = _hash3(pos)
                chain[pos & dict_mask] = head[h]
                head[h] = pos
            pos += 1

        if probe is not None and len(window_reads) >= 8192:
            probe.accesses(window_reads)
            probe.branches(match_probes, site=1)
            probe.branches(bit_branches, site=3)
            window_reads.clear()
            match_probes.clear()
            bit_branches.clear()

    if probe is not None:
        probe.accesses(window_reads)
        probe.branches(match_probes, site=1)
        probe.branches(bit_branches, site=3)
        probe.count("matches", n_matches)
        probe.count("literals", n_literals)
        probe.count("match_bytes", total_match_len)
        # entropy-coder work: ~9 ops per literal bit, ~24 per match token
        probe.ops(n_literals * 9 * 8 + n_matches * 24 * 3)
        probe.accesses(
            _PROB_REGION
            + (
                np.arange(0, n_literals * 8 + n_matches * 24, 5, dtype=np.int64)
                * 31
                % 32768
            )
            * 8
        )

    return enc.finish()


def decompress(blob: bytes, expected_size: int, probe: Probe | None = None) -> bytes:
    """Inverse of :func:`compress`."""
    dec = _RangeDecoder(blob)
    flag_probs = _new_probs(2)
    lit_probs = _new_probs(256 * 8)
    len_probs = _new_probs(16)
    dist_probs = _new_probs(32)

    out = bytearray()
    copy_branches: list[bool] = []
    bit_branches: list[bool] = []
    reads: list[int] = []
    while len(out) < expected_size:
        if dec.decode_bits(flag_probs, 0, 1):
            length = dec.decode_bits(len_probs, 0, 8)
            dist = dec.decode_bits(dist_probs, 0, 16)
            if dist <= 0 or dist > len(out) or length < _MIN_MATCH:
                raise BenchmarkError("xz: corrupt stream (bad match)")
            start = len(out) - dist
            # a byte-by-byte copy: when the match overlaps its own
            # output (dist < length) it repeats the last `dist` bytes
            chunk = out[start : start + length]
            if dist < length:
                chunk = (chunk * (length // dist + 1))[:length]
            out += chunk
            reads.extend([_WINDOW_REGION + (a & 0xFFFF) for a in range(start, start + length)])
            copy_branches.append(True)
        else:
            # literal context mirrors the encoder: top 3 bits of the
            # previous (already decoded) byte
            ctx = (out[-1] >> 5) if out else 0
            byte = dec.decode_bits(lit_probs, ctx * 8, 8)
            bit_branches.extend(_BITS[byte])
            out.append(byte)
            copy_branches.append(False)
        if probe is not None and len(reads) >= 8192:
            probe.accesses(reads)
            probe.branches(bit_branches, site=4)
            reads.clear()
            bit_branches.clear()
    if probe is not None:
        probe.accesses(reads)
        probe.branches(copy_branches, site=2)
        probe.branches(bit_branches, site=4)
        probe.ops(len(out) * 6)
    return bytes(out)


@register_benchmark
class XzBenchmark:
    """The ``557.xz_r`` substrate: decompress -> compress -> decompress."""

    name = "557.xz_r"
    suite = "int"

    def run(self, workload: Workload, probe: Probe) -> dict:
        payload = workload.payload
        if not isinstance(payload, XzInput):
            raise BenchmarkError(f"xz: bad payload type {type(payload).__name__}")

        # Stage 1: the stored input is itself compressed; decode it.
        stored = payload.stored
        if stored is None:
            stored = compress(payload.content, payload)
        with probe.method("lzma_decode", code_bytes=3072):
            content = decompress(stored, len(payload.content), probe)
        if content != payload.content:
            raise BenchmarkError("xz: stage-1 round trip failed")

        # Stage 2: compress the decoded content.
        with probe.method("lzma_encode", code_bytes=4096):
            blob = compress(content, payload, probe)

        # Stage 3: decompress again and check.
        with probe.method("lzma_decode_check", code_bytes=3072):
            again = decompress(blob, len(content), probe)

        with probe.method("crc_check", code_bytes=512):
            crc = 0
            for i in range(0, len(again), 64):
                chunk = again[i : i + 64]
                crc = (crc * 31 + sum(chunk)) & 0xFFFFFFFF
            probe.ops(len(again) // 8)

        return {
            "ok": again == content,
            "original_size": len(content),
            "compressed_size": len(blob),
            "ratio": len(blob) / len(content),
            "crc": crc,
        }

    def verify(self, workload: Workload, output: dict) -> bool:
        return bool(output["ok"]) and output["compressed_size"] > 0
