"""Counter-based pseudorandom color streams.

Every random draw in this package is a pure function of (seed, counters):
the same seed always reproduces the same colors, independently of call
order, chunking, or parallel scheduling.  The core primitive is the
splitmix64 finalizer applied twice, which breaks the linear structure of
the counter encoding.

Two implementations compute the same stream, bit for bit:

- a C kernel, `_hash.c`.  The first call of a process that hashes more than
  one value compiles it with the system C compiler (sysconfig's CC, `-O3
  -shared -fPIC`) and loads it with ctypes; importing this module builds
  nothing.  The library is cached in the package's `__pycache__`, or in a
  private per-user cache directory (`$XDG_CACHE_HOME/shiftlab` or
  `~/.cache/shiftlab`, mode 0700) when that is not writable, under a name
  keyed by the sha256 of the source, the flags and the platform.  A build
  takes a fraction of a second, once; later processes only load it.  The
  kernel hashes a row counter's first round once per row and reduces `% k`
  with a mask for powers of two and with a constant divisor for k = 3.
  Its second entry point serves `pattern_counts` for Monte Carlo: it
  hashes one row of a color matrix at a time into a byte buffer and counts
  the occurrences of a pattern in it, so the rows are never stored.  It
  takes k <= 256 and patterns whose sites are all slices of the row.
- numpy, in cache-sized blocks of BLOCK values: each block is hashed in
  place in two preallocated scratch buffers and reduced `% k` straight into
  the output.  It serves wherever the kernel cannot be built or loaded (no
  compiler, no writable cache) and is the oracle the kernel is tested
  against.  It also hashes single values, so deriving a seed never builds
  or loads the kernel, and it counts the patterns the kernel does not take,
  from `color_matrix` blocks.

The kernel is used only if both entry points agree with numpy on small
planes when it loads.  `_kernel_meta()` says which implementation served
the process, or the calls after a `_kernel_mark()`, and what the build or
load cost.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

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


def _hash_numpy(seed: int, a, b, k: int | None):
    """finalize(finalize(seed ^ A*a) ^ B*b) over the broadcast of a and b:
    uint64 when k is None, else int64 colors `% k`.

    The first round runs once on a's own shape, so a row counter is hashed
    once however many columns it meets; the second round runs block by block.
    """
    ax = np.asarray(a).astype(np.uint64, order="C")  # h below must be a view of it
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


_SOURCE = Path(__file__).with_name("_hash.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")  # no -march=native: the cache must stay portable
_kernel_lock = threading.Lock()
_kernel = None  # the loaded C library once resolved, False when numpy serves
_kernel_info: dict = {}
_planes = 0  # hash calls of more than one value; the first resolves the kernel


def _cache_dirs():
    """Where the compiled kernel may live: the package's __pycache__, then a
    per-user directory that only its owner can write (never a shared one)."""
    import os
    import stat
    yield _SOURCE.parent / "__pycache__"
    if not hasattr(os, "getuid"):
        return
    try:
        user = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "shiftlab"
        user.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = user.lstat()
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return
    if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o077:
        yield user


def _build(cc: str, lib: Path) -> bool:
    """Compile the kernel to `lib` atomically: to a temporary file in the same
    directory, then renamed over `lib`, and remove the other `_hash-*.so`
    builds there (a process still using one keeps its mapping).  False when
    that directory cannot be written; a compiler that is missing or fails
    raises OSError."""
    import os
    import shlex
    import subprocess
    import tempfile
    try:
        lib.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=lib.stem + "-", suffix=".tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), *_CFLAGS, "-o", tmp, str(_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {_SOURCE.name} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in lib.parent.glob("_hash-*.so"):
        if old != lib:
            try:
                old.unlink()
            except OSError:
                pass
    return True


def _load_kernel():
    """(the C library, whether this call compiled it), or (None, False) where
    it cannot be built or loaded or where either entry point disagrees with
    numpy."""
    import ctypes
    import hashlib
    import sysconfig
    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None, False
    tag = "\0".join((" ".join(_CFLAGS), sysconfig.get_platform(),
                     sysconfig.get_config_var("SOABI") or ""))
    key = hashlib.sha256(_SOURCE.read_bytes() + tag.encode()).hexdigest()[:20]
    for d in _cache_dirs():
        path = d / f"_hash-{key}.so"
        built = not path.exists()
        try:
            if built and not _build(cc, path):
                continue
        except OSError:
            return None, False  # no working compiler
        try:
            lib = ctypes.CDLL(str(path))
            hash_fn, count_fn = lib.shiftlab_hash, lib.shiftlab_count
        except (OSError, AttributeError):
            continue
        u64, ssize, ptr = ctypes.c_uint64, ctypes.c_ssize_t, ctypes.c_void_p
        hash_fn.argtypes = [u64, ptr, ssize, ssize, ptr, ssize, ssize, ssize, ssize, u64, ptr]
        count_fn.argtypes = [u64, u64, ssize, ssize, u64, ptr, ptr, ssize, ssize, ptr, ptr]
        hash_fn.restype = count_fn.restype = None
        # a kernel that disagrees with numpy on a small plane is not used; a
        # is constant along the rows of the first plane and varies in the
        # second, and the counts read one site, or two sites out of order
        a, b = np.arange(3, dtype=np.uint64)[:, None], np.arange(5, dtype=np.uint64)
        ok = all(np.array_equal(_hash_c(hash_fn, 9, x, y, k), _hash_numpy(9, x, y, k))
                 for x, y in ((a, b), (b, a)) for k in (None, 2, 3, 11))
        row0 = 1 << 33
        rows = np.arange(row0, row0 + 8, dtype=np.uint64)[:, None]
        ok = ok and all(
            np.array_equal(_count_c(count_fn, 9, 8, 40, k, starts, phi, 30, row0),
                           _match_counts(_hash_numpy(9, rows, np.arange(40), k),
                                         [slice(i, i + 30) for i in starts], phi))
            for k in (2, 3, 5) for starts, phi in (((4,), (1,)), ((9, 2), (1, k - 1))))
        return (lib, built) if ok else (None, False)
    return None, False


def _resolve_kernel():
    """The C library, or False; resolved once per process."""
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            start = time.perf_counter()
            lib, built = _load_kernel()
            _kernel_info.update(rng_kernel="c" if lib else "numpy", rng_kernel_built=built,
                                rng_kernel_load_s=time.perf_counter() - start)
            _kernel = lib or False
    return _kernel


def _kernel_mark() -> int:
    """A mark to pass to `_kernel_meta` for the calls made after this one."""
    return _planes


def _kernel_meta(since: int = 0) -> dict:
    """Which implementation hashed the calls after the mark `since` ("c" or
    "numpy"; "none" if none hashed more than one value), whether those calls
    compiled the kernel, and the seconds they spent building or loading it
    (0 when an earlier call had resolved it).  The default covers the whole
    process."""
    if _planes <= since or not _kernel_info:
        return {"rng_kernel": "none"}
    if since:
        return {**_kernel_info, "rng_kernel_built": False, "rng_kernel_load_s": 0.0}
    return dict(_kernel_info)


def _u64(x) -> np.ndarray:
    """x as a uint64 array; int64 input is viewed, not copied."""
    x = np.asarray(x)
    if x.dtype == np.uint64:
        return x
    return x.view(np.uint64) if x.dtype == np.int64 else x.astype(np.uint64)


def _plane(x: np.ndarray):
    """(x, its address, row stride, column stride) for an array of at most two
    axes, strides in elements and 0 along axes of length 1; a misaligned x is
    copied first."""
    (r, c), (rs, cs) = (1, 1, *x.shape)[-2:], (0, 0, *x.strides)[-2:]
    if (rs | cs) % 8 or not x.flags.aligned:
        return _plane(np.ascontiguousarray(x))
    return x, x.ctypes.data, rs // 8 if r > 1 else 0, cs // 8 if c > 1 else 0


def _hash_c(fn, seed: int, a, b, k: int | None):
    """_hash_numpy's stream from the C kernel `fn`."""
    ax, bx = _u64(a), _u64(b)
    shape = np.broadcast(ax, bx).shape
    out = np.empty(shape, dtype=np.uint64)
    if out.size:
        cols = shape[-1] if shape else 1
        if len(shape) > 2:  # fold the leading axes into rows
            ax = np.broadcast_to(ax, shape).reshape(-1, cols)
            bx = np.broadcast_to(bx, shape).reshape(-1, cols)
        (_ak, ap, ars, acs), (_bk, bp, brs, bcs) = _plane(ax), _plane(bx)
        fn(int(seed) & _MASK, ap, ars, acs, bp, brs, bcs, out.size // cols, cols,
           0 if k is None else int(k), out.ctypes.data)
    if k is not None:
        out = out.view(np.int64)  # colors are < k, so the bits are the same
    return out if out.ndim else out[()]


def _hash(seed: int, a, b, k: int | None):
    """The stream from the C kernel where it loads, else from numpy.  A single
    value goes to numpy, so a process that only derives seeds and offsets
    never builds or loads the kernel."""
    global _planes
    if np.broadcast(a, b).size == 1:
        return _hash_numpy(seed, a, b, k)
    _planes += 1
    lib = _kernel if _kernel is not None else _resolve_kernel()
    return _hash_c(lib.shiftlab_hash, seed, a, b, k) if lib else _hash_numpy(seed, a, b, k)


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


def _match_counts(colors, selectors, phi) -> np.ndarray:
    """For each row of `colors`, how many positions j have
    colors[:, selectors[i]][j] == phi[i] for every i."""
    match = colors[:, selectors[0]] == phi[0]
    for sel, c in zip(selectors[1:], phi[1:]):
        match &= colors[:, sel] == c
    return np.count_nonzero(match, axis=1)


def _count_numpy(seed: int, rows: int, cols: int, k: int, selectors, phi,
                 row_offset: int) -> np.ndarray:
    """pattern_counts over color_matrix blocks of block_rows(cols) rows."""
    out = np.empty(rows, dtype=np.int64)
    step = block_rows(cols)
    for start in range(0, rows, step):
        n = min(step, rows - start)
        colors = color_matrix(seed, n, cols, k, row_offset=row_offset + start)
        out[start:start + n] = _match_counts(colors, selectors, phi)
    return out


def _count_c(fn, seed: int, rows: int, cols: int, k: int, starts, phi, d: int,
             row_offset: int) -> np.ndarray:
    """pattern_counts from the C kernel `fn`, for the selectors
    slice(s, s + d) with s in `starts`, each within 0..cols."""
    st = np.array(starts, dtype=np.intp)
    ph = np.array(phi, dtype=np.uint8)
    buf = np.empty(cols + d, dtype=np.uint8)  # one row's colors, then the match mask
    out = np.empty(rows, dtype=np.int64)
    fn(int(seed) & _MASK, int(row_offset) & _MASK, rows, cols, k, st.ctypes.data,
       ph.ctypes.data, st.size, d, buf.ctypes.data, out.ctypes.data)
    return out


def pattern_counts(seed: int, rows: int, cols: int, k: int, selectors, phi,
                   row_offset: int = 0) -> np.ndarray:
    """Occurrences of a pattern in each row of
    color_matrix(seed, rows, cols, k, row_offset), as int64 counts: row r
    counts the positions j at which colors[r, selectors[i]][j] == phi[i] for
    every i.  Each selector is a slice or an index array of the columns, and
    all select the same number of them.

    The C kernel hashes and counts one row at a time, without storing the
    rows, where it is loaded, every selector is a slice of step 1 and
    k <= 256; numpy counts everything else block by block.
    """
    global _planes
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if not selectors or len(selectors) != len(phi):
        raise ValueError("need one pattern color per selector, and at least one")
    if any(not 0 <= c < k for c in phi):
        raise ValueError(f"pattern colors must lie in 0..{k - 1}")
    _planes += 1
    lib = _kernel if _kernel is not None else _resolve_kernel()
    spans = [range(*s.indices(cols)) for s in selectors if isinstance(s, slice)]
    if (lib and k <= 256 and len(spans) == len(selectors)
            and all(r.step == 1 and len(r) == len(spans[0]) for r in spans)):
        return _count_c(lib.shiftlab_count, seed, rows, cols, k, [r.start for r in spans],
                        phi, len(spans[0]), row_offset)
    return _count_numpy(seed, rows, cols, k, selectors, phi, row_offset)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent substream seed, e.g. one per Monte Carlo run."""
    out = np.uint64(seed & _MASK)
    for ix in indices:
        out = mix_counters(int(out), ix, 0x5EED)
    return int(out)
