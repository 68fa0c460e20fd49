"""Counter-based pseudorandom color streams.

Every random draw in this package is a pure function of (seed, counters):
the same seed always reproduces the same colors, independently of call
order, chunking, or parallel scheduling.  The core primitive is the
splitmix64 finalizer applied twice, which breaks the linear structure of
the counter encoding.

Values are computed in cache-sized blocks of BLOCK values: each block is
hashed in place in two preallocated scratch buffers and reduced `% k`
straight into the output.  Since every value depends on its own counters
only, the blocking leaves the stream unchanged.
"""

from __future__ import annotations

import threading

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_A = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio increment
_B = np.uint64(0xD1B54A32D192ED03)

_U64 = np.uint64
_MASK = (1 << 64) - 1

# values hashed per block; two uint64 scratch blocks take 512 KiB, so a
# block and the consumer's arrays of the same size stay in L2
BLOCK = 1 << 15
# the scratch blocks live as long as their thread: freshly allocated ones
# are returned to the OS on free and fault their pages in on every call
_scratch = threading.local()


def block_rows(width: int) -> int:
    """Rows of `width` values that make up about one BLOCK (at least one)."""
    return max(1, BLOCK // max(width, 1))


def _finalize(z: np.ndarray, t: np.ndarray) -> None:
    """splitmix64 finalizer of z, in place; t is scratch of z's shape."""
    for shift, mult in ((_U64(30), _M1), (_U64(27), _M2)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _U64(31), out=t)
    np.bitwise_xor(z, t, out=z)


def _hash(seed: int, a, b, k: int | None):
    """finalize(finalize(seed ^ A*a) ^ B*b) over the broadcast of a and b:
    uint64 when k is None, else int64 colors `% k`.

    The first round runs once on a's own shape, so a row counter is hashed
    once however many columns it meets; the second round runs block by block.
    """
    ax = np.asarray(a).astype(np.uint64)
    bx = np.asarray(b).astype(np.uint64)
    shape = np.broadcast_shapes(ax.shape, bx.shape)
    out = np.empty(shape, dtype=np.uint64)
    if out.size == 0:
        return out if k is None else out.view(np.int64)
    if not hasattr(_scratch, "zt"):
        _scratch.zt = np.empty((2, BLOCK), dtype=np.uint64)
    z, t = _scratch.zt

    h = ax.reshape(-1)
    np.multiply(h, _A, out=h)
    np.bitwise_xor(h, _U64(seed & _MASK), out=h)
    for i in range(0, h.size, BLOCK):
        n = min(BLOCK, h.size - i)
        _finalize(h[i:i + n], t[:n])
    np.multiply(bx, _B, out=bx)

    cols = shape[-1] if shape else 1
    hv = np.broadcast_to(ax, shape).reshape(-1, cols)
    bv = np.broadcast_to(bx, shape).reshape(-1, cols)
    ov = out.reshape(-1, cols)
    step_r, step_c = max(1, BLOCK // cols), min(cols, BLOCK)
    for r in range(0, ov.shape[0], step_r):
        for c in range(0, cols, step_c):
            o = ov[r:r + step_r, c:c + step_c]
            zb = z[:o.size].reshape(o.shape)
            tb = t[:o.size].reshape(o.shape)
            np.bitwise_xor(hv[r:r + step_r, c:c + step_c],
                           bv[r:r + step_r, c:c + step_c], out=zb)
            _finalize(zb, tb)
            if k is None:
                o[...] = zb
            elif k & (k - 1) == 0:
                np.bitwise_and(zb, _U64(k - 1), out=o)
            else:  # z - (z // k) * k: a divide by a constant beats np.remainder
                np.floor_divide(zb, _U64(k), out=tb)
                np.multiply(tb, _U64(k), out=tb)
                np.subtract(zb, tb, out=o)
    if k is not None:
        out = out.view(np.int64)  # colors are < k, so the bits are the same
    return out if out.ndim else out[()]


def mix_counters(seed: int, a, b) -> np.ndarray:
    """64-bit hash of (seed, a, b); `a` and `b` broadcast as numpy arrays."""
    return _hash(seed, a, b, None)


def uniform_colors(seed: int, a, b, k: int) -> np.ndarray:
    """Uniform colors in {0..k-1} indexed by counters (a, b).

    The modulo step has bias k / 2**64, far below anything the statistical
    tests here can resolve.
    """
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    return _hash(seed, a, b, k)


def color_matrix(seed: int, rows: int, cols: int, k: int, row_offset: int = 0) -> np.ndarray:
    """(rows x cols) matrix of uniform colors; row r uses counter row_offset+r."""
    r = np.arange(row_offset, row_offset + rows, dtype=np.uint64)[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    return uniform_colors(seed, r, c, k)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent substream seed, e.g. one per Monte Carlo run."""
    out = np.uint64(seed & _MASK)
    for ix in indices:
        out = mix_counters(int(out), ix, 0x5EED)
    return int(out)
