"""Circular window kernels over Z/M.

Shared numpy machinery for windowed reductions computed for every x at once.
`circular_window_sums` compresses offsets into maximal runs of consecutive
residues so each run costs one prefix-sum pass over contiguous slices;
`interval_window_outside` finds the anchors whose count of a 0/1 mask over
an interval window leaves a band, counting exactly only in the blocks of 64
anchors that one popcount per block cannot clear;
`circular_window_reduce` evaluates and/or over arithmetic progressions of
offsets by doubling over packed masks (point p of Z/M in bit p % 64 of word
p // 64 of ceil(M/64) uint64 words, every bit from M on clear), one doubling
chain serving every requested count of terms.
"""

from __future__ import annotations

import numpy as np


def offset_runs(offsets, modulus: int) -> list[tuple[int, int]]:
    """Maximal runs [lo, hi] of consecutive residues covering offsets mod M.

    Multiplicities are preserved by returning one run per repeat; callers
    pass deduplicated offsets when sets are intended.
    """
    res = np.sort(np.asarray(offsets, dtype=np.int64).reshape(-1) % modulus)
    if res.size == 0:
        raise ValueError("a window needs at least one offset")
    # a run ends wherever the next residue is not one more (a repeat included)
    cut = np.flatnonzero(np.diff(res) != 1)
    lo = res[np.concatenate(([0], cut + 1))]
    hi = res[np.concatenate((cut, [res.size - 1]))]
    return list(zip(lo.tolist(), hi.tolist()))


def circular_window_sums(values: np.ndarray, offsets, modulus: int) -> np.ndarray:
    """out[x] = sum(values[(x + d) % M] for d in offsets), for all x."""
    m = modulus
    v = np.asarray(values)
    runs = offset_runs(offsets, m)
    span = max(hi for _, hi in runs) + 1
    # prefix sums of v followed by its first `span` values, so every run's
    # window, wrapped or not, is the difference of two contiguous slices
    prefix = np.zeros(m + span + 1, dtype=np.int64)
    np.cumsum(v, dtype=np.int64, out=prefix[1:m + 1])
    np.cumsum(v[:span], dtype=np.int64, out=prefix[m + 1:])
    prefix[m + 1:] += prefix[m]
    out = np.zeros(m, dtype=np.int64)
    for lo, hi in runs:
        out += prefix[hi + 1:hi + 1 + m]
        out -= prefix[lo:lo + m]
    return out


# anchors per block of the screen in interval_window_outside: one uint64 word
SCREEN_BLOCK = 64


def _ones_between(words: np.ndarray, lo: range, hi: range) -> np.ndarray:
    """How many bits at positions lo[i] <= p < hi[i] are set in each row of
    `words`, bits packed little-endian into uint64 words along the last axis.

    The ones below a position p are those of the words below word p // 64,
    from an exclusive popcount prefix that starts with 0, plus the popcount
    of the low p % 64 bits of word p // 64.  lo and hi are ranges of step
    64, which read the prefix as a slice, and the words as one more slice
    unless the range starts on a word; then every p // 64 must index a word.
    """
    before = np.zeros(words.shape[:-1] + (words.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(np.bitwise_count(words), axis=-1, dtype=np.int64, out=before[..., 1:])

    def ones_before(pos: range):
        assert pos.step == 64
        first, r = divmod(pos.start, 64)
        q = slice(first, first + len(pos))
        if not r:
            return before[..., q]
        return before[..., q] + np.bitwise_count(words[..., q] & ((np.uint64(1) << r) - 1))

    return ones_before(hi) - ones_before(lo)


def interval_window_outside(mask: np.ndarray, start: int, length: int, lo: int,
                            hi: int) -> np.ndarray:
    """Ascending anchors x of Z/M, M = mask.size, whose count
    c[x] = sum(mask[(x + start + j) % M] for j < length) lies outside
    [lo, hi]; c is circular_window_sums(mask, range(start, start + length), M).

    c moves by at most 1 from one anchor to the next, so an exact count at
    every 64th anchor clears its block of 64 anchors when it lies at least 63
    inside the band.  Those counts come from popcounts of the mask packed
    into 64-bit words (`_ones_between`).  Only the blocks that are not
    cleared get exact counts, as the block's first count plus a cumsum of the
    +1/-1 steps mask[x + length] - mask[x].
    """
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    m, n = mask.size, SCREEN_BLOCK
    blocks = -(-m // n)
    # the mask read from `start` on, repeated until the window of every anchor
    # of every block (the last one's past M read on around the circle) ends
    # inside a word
    ext = np.resize(np.roll(np.asarray(mask, dtype=bool), -(start % m)),
                    n * (blocks + length // n + 1))
    words = np.packbits(ext, bitorder="little").view("<u8")
    # c at anchor n*b: the ones from n*b up to n*b + length
    first = _ones_between(words, range(0, n * blocks, n), range(length, length + n * blocks, n))
    # blocks whose first count lies within n - 2 of a band edge, or outside
    # it, are counted anchor by anchor, from +1/-1 steps as int8 differences
    near = np.flatnonzero((first < lo + n - 1) | (first > hi - n + 1))
    bits = ext.view(np.int8)
    leave = bits[:n * blocks].reshape(blocks, n)[near, :n - 1]
    enter = bits[length:length + n * blocks].reshape(blocks, n)[near, :n - 1]
    counts = np.empty((near.size, n), dtype=np.int64)
    counts[:, 0] = first[near]
    np.cumsum(enter - leave, axis=1, dtype=np.int64, out=counts[:, 1:])
    counts[:, 1:] += counts[:, :1]
    rows, cols = np.nonzero((counts < lo) | (counts > hi))
    anchors = n * near[rows] + cols
    return anchors[anchors < m]


def _bits_from(words: np.ndarray, s: int, n: int) -> np.ndarray:
    """Up to n packed words read from bit s of `words` on: a word slice shifted
    right by s % 64, ORed with the next word slice shifted left by 64 - s % 64."""
    q, r = divmod(s, 64)
    out = words[q:q + n] >> r
    if r:
        after = words[q + 1:q + 1 + n]
        out[:after.size] |= after << (64 - r)
    return out


def _tile_bits(words: np.ndarray, period: int, nbits: int) -> np.ndarray:
    """Packed words of bit p % period of `words` for p < nbits, the bits of
    `words` from `period` on clear: the filled prefix is copied onto its own
    end, doubling, one pass over the nbits in all."""
    n, have = -(-nbits // 64), period
    out = np.zeros(n + 1, dtype=np.uint64)
    out[:words.size] = words
    while have < nbits:
        src = out[:-(-min(have, nbits - have) // 64)]
        q, r = divmod(have, 64)
        carry = src >> (64 - r) if r else 0
        out[q:q + src.size] |= src << r
        out[q + 1:q + 1 + src.size] |= carry
        have *= 2
    out = out[:n]
    if nbits % 64:
        out[-1] &= np.uint64((1 << nbits % 64) - 1)
    return out


def circular_window_reduce(mask: np.ndarray, counts, step: int, modulus: int, op):
    """Yield (count, out) in ascending count, one pair for each distinct count
    in `counts`, where out[x] = op over n < count of mask[(x + n*step) % M]
    for all x, on packed masks.

    `op` must be an idempotent bitwise ufunc (np.bitwise_and, np.bitwise_or).
    The mask is first read around the circle into M + (c-1)*(step % M) bits,
    c the largest count, so no pass wraps.  After the pass with shift k*step
    the array holds windows of 2k terms.  One doubling chain serves every
    count: it doubles while 2k <= count, so a power of two is read off the
    chain as it stands, and any other count costs one more pass, shifted by
    count - k < k, whose two halves overlap harmlessly by idempotence.  That
    is floor(log2 c) doubling passes plus one per count that is not a power
    of two.  Each yielded mask is a fresh array, so the caller may keep or
    change it while the chain goes on.
    """
    counts = sorted(set(counts))
    if not counts or counts[0] < 1:
        raise ValueError(f"window needs counts >= 1, got {counts}")
    m, s = modulus, step % modulus
    n = -(-m // 64)
    w = _tile_bits(mask, m, m + (counts[-1] - 1) * s)
    k = 1
    for count in counts:
        while 2 * k <= count:
            ahead = _bits_from(w, k * s, w.size)
            op(w[:ahead.size], ahead, out=w[:ahead.size])
            k *= 2
        if count == k:
            out = w[:n].copy()
        else:
            out = _bits_from(w, (count - k) * s, n)
            op(out, w[:n], out=out)
        if m % 64:
            out[-1] &= np.uint64((1 << m % 64) - 1)
        yield count, out
