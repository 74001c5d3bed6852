"""Bloom-filtered term dictionary: skip segments that lack a term.

Reference: lucene/codecs/src/java/org/apache/lucene/codecs/bloom/
``BloomFilteringPostingsFormat.java`` + ``FuzzySet.java`` — a per-segment
per-field bit set consulted before the (possibly cold) term dictionary;
"contains" may false-positive but never false-negatives, so a miss
answers df=0 without touching the dictionary.  At 100 TB this is the
point-lookup saver: a term query across 10^4 segments touches only the
segments whose bloom says maybe, instead of binary-searching (and page-
faulting) every term dictionary.

Deviations from the reference, documented: FuzzySet uses a single
MurmurHash64 probe with saturation-based downsizing; we use the standard
k-probe double-hashing construction (Kirsch & Mitzenmacher 2006), k=7 at
~10 bits/key => ~1% fpp, which is strictly tighter than FuzzySet's
10%-saturation target.  The key hash is a length-seeded splitmix64
chain over the term's 8-byte little-endian words (the last one
zero-padded): ``h1``, and ``h2 = mix(h1) | 1`` (odd => full-period
stride).  The build hashes the whole dictionary at once straight from
the Arrow (offsets, bytes) arrays, one numpy pass per 8-byte word
column, so a flush or merge pays O(dictionary bytes / 8) vector ops
instead of one digest per term.  The file is a raw uint64 little-endian
bitset (``FILE``) whose length is a power of two, so the probe mask is
``n_bits - 1``; segments written with the earlier blake2b hash carry
``bloom.npy`` instead, which readers ignore (they fall through to the
dictionary).
"""

from __future__ import annotations

import numpy as np

from ..ops.sketch import splitmix64

BLOOM_K = 7
BITS_PER_KEY = 10
FILE = "bloom_sm64.npy"

_M64 = (1 << 64) - 1
# low-byte masks: _LOW[r] keeps the first r bytes of a little-endian word
_LOW = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)


def _mix(z: int) -> int:
    """Scalar splitmix64, equal to ``ops.sketch.splitmix64`` on one word."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _hash2(key: bytes) -> tuple[int, int]:
    h = _mix(len(key))
    for i in range(0, len(key), 8):
        h = _mix(h ^ int.from_bytes(key[i : i + 8], "little"))
    return h, _mix(h) | 1


def hash_dict(offsets: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``_hash2`` of every term of a (offsets, bytes) dictionary:
    one splitmix64 pass per 8-byte word column, over the terms that still
    have bytes left."""
    offsets = np.asarray(offsets, dtype=np.int64)
    starts = offsets[:-1]
    lens = np.diff(offsets)
    h = splitmix64(lens.view(np.uint64))
    if len(lens):
        # 8-byte windows at any byte offset; the 7 pad bytes keep the last
        # window of the buffer in range (they are masked off below)
        padded = np.concatenate([np.asarray(data, dtype=np.uint8), np.zeros(7, np.uint8)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 8)
        for col in range(0, int(lens.max()), 8):
            sel = np.flatnonzero(lens > col)
            w = windows[starts[sel] + col].view("<u8")[:, 0]
            w &= _LOW[np.minimum(lens[sel] - col, 8)]
            h[sel] = splitmix64(h[sel] ^ w)
    return h, splitmix64(h) | np.uint64(1)


def _n_bits(n_keys: int) -> int:
    target = max(1024, n_keys * BITS_PER_KEY)
    return 1 << int(target - 1).bit_length()


def build_bloom_from_dict(offsets: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Bitset over the segment's term dictionary given the on-disk
    (terms_offsets, terms_bytes) arrays: one vectorized hash of the whole
    dictionary, then k passes that each set n bits.  Temporaries stay
    O(n): an n x k probe matrix would cost hundreds of MB on a merged
    multi-million-term segment.  Every flush and merge runs this on its
    critical path; on a 1-vCPU host a 29,431-term merged dictionary
    builds in 2-3 ms (a per-term digest loop took ~340 ms there and was
    over half of a traced perfbench ``ingest`` run)."""
    h1, h2 = hash_dict(offsets, data)
    m = _n_bits(len(h1))
    mask = np.uint64(m - 1)
    bits = np.zeros(m, dtype=bool)
    probe = h1.copy()
    with np.errstate(over="ignore"):
        for _ in range(BLOOM_K):
            bits[probe & mask] = True
            probe += h2
    return np.packbits(bits, bitorder="little").view("<u8")


def contains(words: np.ndarray, key: bytes) -> bool:
    """Never false-negative membership probe."""
    m = len(words) * 64
    mask = m - 1
    h1, h2 = _hash2(key)
    for j in range(BLOOM_K):
        b = (h1 + j * h2) & mask
        if not (int(words[b >> 6]) >> (b & 63)) & 1:
            return False
    return True
