"""Counter-based pseudorandom color streams.

Every random draw in this package is a pure function of (seed, counters):
the same seed always reproduces the same colors, independently of call
order, chunking, or parallel scheduling.  The core primitive is the
splitmix64 finalizer applied twice, which breaks the linear structure of
the counter encoding.

Two implementations compute the same stream, bit for bit:

- a C kernel, `_hash.c`.  The first call of a process that hashes more than
  one color of k <= BYTE_K, or counts patterns it can take, compiles it with
  the system C compiler (sysconfig's CC, `-O3 -shared -fPIC`) and loads it
  with ctypes; importing this module builds nothing.  The library is cached in
  the package's `__pycache__`, or in a private per-user cache directory
  (`$XDG_CACHE_HOME/shiftlab` or `~/.cache/shiftlab`, mode 0700) when that
  is not writable, under a name keyed by the sha256 of the source, the
  flags and the platform.  A build takes one to two seconds, once; later
  processes only load it.  The kernel writes colors only, one byte each,
  so it serves 1 <= k <= BYTE_K (256).  It hashes a row counter's first
  round once per row, multiplies a column counter that is constant along
  the row once per row, and reduces `% k` with a mask for powers of two and
  with a constant divisor for k = 3.  On x86-64 with GCC 12 or later each
  entry point is compiled twice, for the baseline and for x86-64-v4
  (AVX-512), and the CPU picks the copy at run time, so the cached build
  stays portable across x86-64 hosts.  The x86-64-v4 copy XORs each loaded
  counter with a zero the compiler cannot see through: otherwise GCC 12
  folds the loads into its 64-bit vector multiplies, which made a plane
  whose two counters both vary (`tape_consistency`, every resampling step)
  0.61-0.66 ms at M = 100000 against 0.16-0.25 ms without, when the kernel
  wrote 8-byte colors.  Byte output took tape row 0 from about 1.0 to 0.8
  ns per color at k = 2 and from 1.7-1.9 to 1.1 ns at k = 3 (`_hash.c` has
  the numbers).
  Its second entry point serves `pattern_counts` for Monte Carlo: it
  hashes one row of a color matrix at a time into a byte buffer and counts
  the occurrences of a pattern in it, so the rows are never stored.  It
  counts at ascending window ends: for each end e, the occurrences at the
  positions j < e, so one pass over a row gives the count over every
  prefix window a caller asks for.  It takes patterns whose sites are all
  slices of the row.  Its x86-64-v4 copy hashes and counts rows of k = 3 or
  a power of two k with AVX-512 intrinsics, at about 0.35-0.42 ns per color
  for k = 2 and 0.57-0.71 ns for k = 3 (rows of 501-2001 colors; `_hash.c`
  has the numbers).
- numpy, as the formula itself over the broadcast of the two counters,
  with no blocks and no state kept between calls.  It serves wherever the
  kernel cannot be built or loaded (no compiler, no writable cache) and is
  the oracle the kernel is tested against.  It also hashes single values,
  so a process that hashes one value at a time never builds or loads the
  kernel, and it counts the patterns the kernel does not take, from
  `color_matrix` blocks, at the same ends.  `derive_seed` hashes its one
  value in Python ints, about 2-3 us a call against 7-12 us through numpy;
  `_hash_numpy` is its test oracle.  Raw 64-bit words (`mix_counters`) and
  colors of k > BYTE_K are hashed by numpy only.

Colors have one dtype rule on both paths: uint8 for k <= BYTE_K, int64
above, so a coloring of M points at k <= 256 takes M bytes.

The kernel is used only if both entry points agree with numpy when it
loads, on planes and rows both narrower and wider than one AVX-512 loop
iteration, and on counts at one end and at several: inside a 64-byte
block, on a block edge and at the last position.  A kernel that disagrees
is deleted, and a marker named by its key and its copy keeps later
processes on CPUs that run the same copy from compiling or loading it
again.  `_kernel_meta()` says which implementation served the process, or
the calls after a `_kernel_mark()`, which copy of the kernel ran, and what
the build or load cost.
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

# the largest k whose colors are bytes: `uniform_colors` returns uint8 colors
# for k <= BYTE_K and int64 above it, and both kernel entry points serve only
# k <= BYTE_K (the numpy paths serve every k)
BYTE_K = 256

# values per block of `_count_numpy`, which hashes and scans a color matrix in
# row blocks: a block and its compare masks stay in L2.  With the kernel off,
# concentration-sweep ran 1.18-1.20 s at 2^15 and 1.26-1.30 s at 2^17 (2-core
# AVX-512 Xeon, 7 alternating runs).
BLOCK = 1 << 15


def block_rows(width: int) -> int:
    """Rows of `width` values that make up about one BLOCK (at least one)."""
    return max(1, BLOCK // max(width, 1))


def _finalize(z):
    """splitmix64 finalizer, in place on an array: the caller's fresh temporary."""
    z ^= z >> _U64(30)
    z *= _M1
    z ^= z >> _U64(27)
    z *= _M2
    z ^= z >> _U64(31)
    return z


def _hash_numpy(seed: int, a, b, k: int | None):
    """finalize(finalize(seed ^ A*a) ^ B*b) over the broadcast of a and b:
    uint64 when k is None, else colors `% k`, uint8 for k <= BYTE_K and int64
    above; numpy scalars for 0-d.

    The first round runs on a's own shape, so a row counter is hashed once
    however many columns it meets.  One expression with an array left of
    each operator lets numpy reuse large temporaries in place, so a call
    holds at most two arrays of the output's size.
    """
    # 0-d inputs are hashed in numpy scalars, whose multiplies warn on wrapping
    with np.errstate(over="ignore"):
        z = _finalize(_finalize(np.asarray(a).astype(np.uint64) * _A ^ _U64(seed & _MASK))
                      ^ np.asarray(b).astype(np.uint64) * _B)
        if k is None:
            return z
        if k & (k - 1) == 0:
            z &= _U64(k - 1)
        else:  # z - (z // k) * k: a divide by a constant beats np.remainder
            z -= z // _U64(k) * _U64(k)
    if k <= BYTE_K:
        return z.astype(np.uint8)
    return z.view(np.int64)  # colors are < k, so the bits are the same


_SOURCE = Path(__file__).with_name("_hash.c")
# no -march: the cache must stay portable; _hash.c picks its x86-64-v4 copy
# at run time where the CPU has it
_CFLAGS = ("-O3", "-shared", "-fPIC")
_kernel_lock = threading.Lock()
_kernel = None  # the loaded C library once resolved, False when numpy serves
_kernel_info: dict = {}
# hashes of several byte colors, and pattern counts the kernel can take; the
# first resolves the kernel
_planes = 0


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


def _declare(lib) -> None:
    """Give the entry points of a loaded `_hash.c` their C signatures;
    AttributeError if one is missing."""
    import ctypes
    u64, ssize, ptr = ctypes.c_uint64, ctypes.c_ssize_t, ctypes.c_void_p
    lib.shiftlab_hash.argtypes = [u64, ptr, ssize, ssize, ptr, ssize, ssize, ssize, ssize,
                                  u64, ptr]
    lib.shiftlab_count.argtypes = [u64, u64, ssize, ssize, u64, ptr, ptr, ssize, ptr, ssize,
                                   ptr, ptr]
    lib.shiftlab_hash.restype = lib.shiftlab_count.restype = None
    lib.shiftlab_isa.argtypes, lib.shiftlab_isa.restype = [], ctypes.c_char_p


def _kernel_key() -> str:
    """The cache key of the kernel: the sha256 of the source, the flags and
    the platform."""
    import hashlib
    import sysconfig
    tag = "\0".join((" ".join(_CFLAGS), sysconfig.get_platform(),
                     sysconfig.get_config_var("SOABI") or ""))
    return hashlib.sha256(_SOURCE.read_bytes() + tag.encode()).hexdigest()[:20]


def _cpu_copy() -> str:
    """The copy of the kernel that `shiftlab_isa()` names on this CPU, told
    from the AVX-512 flags of /proc/cpuinfo without loading the kernel; a
    compiler that builds no x86-64-v4 copy makes `shiftlab_isa()` say
    "baseline" where this says "x86-64-v4"."""
    import platform
    if platform.machine() not in ("x86_64", "AMD64"):
        return "baseline"
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "baseline"
    flags = {f for line in text.splitlines() if line.startswith("flags")
             for f in line.partition(":")[2].split()}
    v4 = {"avx512f", "avx512dq", "avx512cd", "avx512bw", "avx512vl"}
    return "x86-64-v4" if v4 <= flags else "baseline"


def _load_kernel():
    """(the C library or None, whether this call compiled the kernel).  None
    where it cannot be built or loaded, or where either entry point
    disagrees with numpy.  A kernel that disagrees is deleted and leaves a
    marker `_hash-<key>-<copy>.rejected` naming the copy that ran; a later
    process on a CPU that runs the same copy goes to numpy without compiling
    or loading it."""
    import ctypes
    import sysconfig
    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None, False
    key = _kernel_key()
    compiled = False
    for d in _cache_dirs():
        if (d / f"_hash-{key}-{_cpu_copy()}.rejected").exists():
            return None, False
        path = d / f"_hash-{key}.so"
        built = not path.exists()
        try:
            if built and not _build(cc, path):
                continue
        except OSError:
            return None, False  # no working compiler
        compiled |= built
        try:
            lib = ctypes.CDLL(str(path))
            _declare(lib)
        except (OSError, AttributeError):
            continue
        hash_fn, count_fn = lib.shiftlab_hash, lib.shiftlab_count
        # a kernel that disagrees with numpy is not used.  a is constant
        # along the rows of the first plane of each width, varies in the
        # second, and both counters vary along the row of the third (as in
        # tape_consistency and every resampling step); the counts read one
        # site, or two sites out of order, at the last position alone and at
        # several ends.  The wide plane and rows run a vector loop of the
        # x86-64-v4 copy (8 values, or 64 bytes when counting) and a ragged
        # tail, and the ends of the wide rows fall inside a 64-byte block,
        # on a block edge and at the last position.
        a = np.arange(3, dtype=np.uint64)[:, None]
        ok = all(np.array_equal(_hash_c(hash_fn, 9, x, y, k), _hash_numpy(9, x, y, k))
                 for b, ks in ((np.arange(5, dtype=np.uint64), (2, 3, 11)),
                               (np.arange(131, dtype=np.uint64), (2, 3)))
                 for x, y in ((a, b), (b, a), (b + (1 << 40), b % 7)) for k in ks)
        row0 = 1 << 33
        rows = np.arange(row0, row0 + 8, dtype=np.uint64)[:, None]
        ok = ok and all(
            np.array_equal(_count_c(count_fn, 9, 8, cols, k, starts, phi, ends, row0),
                           _match_counts(_hash_numpy(9, rows, np.arange(cols), k),
                                         [slice(i, i + ends[-1]) for i in starts], phi, ends))
            for cols, many, ks in ((40, (7, 30), (2, 3, 5)), (131, (5, 64, 70, 100), (2, 3)))
            for ends in (many[-1:], many) for k in ks
            for starts, phi in (((4,), (1,)), ((9, 2), (1, k - 1))))
        if ok:
            return lib, compiled
        try:
            path.unlink()
            (d / f"_hash-{key}-{lib.shiftlab_isa().decode()}.rejected").touch()
        except OSError:
            pass
        # not the next directory: the same source builds the same kernel there
        return None, compiled
    return None, compiled


def _resolve_kernel():
    """The C library, or False; resolved once per process."""
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            start = time.perf_counter()
            lib, built = _load_kernel()
            _kernel_info["rng_kernel"] = "c" if lib else "numpy"
            if lib:
                _kernel_info["rng_kernel_isa"] = lib.shiftlab_isa().decode()
            _kernel_info.update(rng_kernel_built=built,
                                rng_kernel_load_s=time.perf_counter() - start)
            _kernel = lib or False
    return _kernel


def _kernel_mark() -> int:
    """A mark to pass to `_kernel_meta` for the calls made after this one."""
    return _planes


def _kernel_meta(since: int = 0) -> dict:
    """Which implementation hashed the calls after the mark `since` ("c" or
    "numpy"; "none" if none hashed a plane of byte colors or made a count
    the kernel can take), for "c" which copy of the kernel ("x86-64-v4" or
    "baseline"), whether those calls compiled the kernel, and the seconds
    they spent building or loading it (0 when an earlier call had resolved
    it).  The default covers the whole process."""
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


def _hash_c(fn, seed: int, a, b, k: int):
    """_hash_numpy's uint8 colors from the C kernel `fn`, for 1 <= k <= BYTE_K."""
    ax, bx = _u64(a), _u64(b)
    shape = np.broadcast(ax, bx).shape
    out = np.empty(shape, dtype=np.uint8)
    if out.size:
        cols = shape[-1] if shape else 1
        if len(shape) > 2:  # fold the leading axes into rows
            ax = np.broadcast_to(ax, shape).reshape(-1, cols)
            bx = np.broadcast_to(bx, shape).reshape(-1, cols)
        (_ak, ap, ars, acs), (_bk, bp, brs, bcs) = _plane(ax), _plane(bx)
        fn(int(seed) & _MASK, ap, ars, acs, bp, brs, bcs, out.size // cols, cols, int(k),
           out.ctypes.data)
    return out if out.ndim else out[()]


def _hash(seed: int, a, b, k: int | None):
    """The stream from the C kernel where it loads, else from numpy.  A single
    value, raw words (k None) and k > BYTE_K go to numpy, so a process that
    only derives seeds and offsets never builds or loads the kernel."""
    global _planes
    if k is None or k > BYTE_K or np.broadcast(a, b).size == 1:
        return _hash_numpy(seed, a, b, k)
    _planes += 1
    lib = _kernel if _kernel is not None else _resolve_kernel()
    return _hash_c(lib.shiftlab_hash, seed, a, b, k) if lib else _hash_numpy(seed, a, b, k)


def mix_counters(seed: int, a, b) -> np.ndarray:
    """64-bit hash of (seed, a, b); `a` and `b` broadcast as numpy arrays."""
    return _hash(seed, a, b, None)


def uniform_colors(seed: int, a, b, k: int) -> np.ndarray:
    """Uniform colors in {0..k-1} indexed by counters (a, b): uint8 for
    k <= BYTE_K, int64 above.

    The modulo step has bias k / 2**64, far below anything the statistical
    tests here can resolve.
    """
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    return _hash(seed, a, b, k)


def color_matrix(seed: int, rows: int, cols: int, k: int, row_offset: int = 0) -> np.ndarray:
    """(rows x cols) matrix of uniform colors; row r uses counter
    row_offset + r, wrapped mod 2^64 as the C kernel wraps it."""
    r = (np.arange(rows, dtype=np.uint64) + _U64(row_offset & _MASK))[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    return uniform_colors(seed, r, c, k)


def _match_counts(colors, selectors, phi, ends) -> np.ndarray:
    """For each row of `colors` and each of the ascending `ends`, how many
    positions j < end have colors[:, selectors[i]][j] == phi[i] for every i."""
    ends = np.asarray(ends)
    match = colors[:, selectors[0]] == phi[0]
    for sel, c in zip(selectors[1:], phi[1:]):
        match &= colors[:, sel] == c
    # the matches between consecutive ends, summed into the counts below each
    between = np.add.reduceat(match[:, :ends[-1]], np.r_[0, ends[:-1]], axis=1, dtype=np.int64)
    return np.cumsum(between, axis=1, out=between)


def _count_numpy(seed: int, rows: int, cols: int, k: int, selectors, phi, ends,
                 row_offset: int) -> np.ndarray:
    """pattern_counts over color_matrix blocks of block_rows(cols) rows."""
    out = np.empty((rows, len(ends)), dtype=np.int64)
    step = block_rows(cols)
    for start in range(0, rows, step):
        n = min(step, rows - start)
        colors = color_matrix(seed, n, cols, k, row_offset=row_offset + start)
        out[start:start + n] = _match_counts(colors, selectors, phi, ends)
    return out


def _count_c(fn, seed: int, rows: int, cols: int, k: int, starts, phi, ends,
             row_offset: int) -> np.ndarray:
    """pattern_counts from the C kernel `fn`, for the selectors
    slice(s, s + ends[-1]) with s in `starts`, each within 0..cols."""
    st = np.array(starts, dtype=np.intp)
    ph = np.array(phi, dtype=np.uint8)
    en = np.array(ends, dtype=np.intp)
    buf = np.empty(cols + en[-1], dtype=np.uint8)  # one row's colors, then the match mask
    out = np.empty((rows, en.size), dtype=np.int64)
    fn(int(seed) & _MASK, int(row_offset) & _MASK, rows, cols, k, st.ctypes.data,
       ph.ctypes.data, st.size, en.ctypes.data, en.size, buf.ctypes.data, out.ctypes.data)
    return out


def pattern_counts(seed: int, rows: int, cols: int, k: int, selectors, phi, ends,
                   row_offset: int = 0) -> np.ndarray:
    """Occurrences of a pattern in each row of
    color_matrix(seed, rows, cols, k, row_offset) below each of the ascending
    window `ends`, as a rows x len(ends) int64 array: entry [r, e] counts the
    positions j < ends[e] at which colors[r, selectors[i]][j] == phi[i] for
    every i.  Each selector is a slice or an index array of the columns, all
    select the same number d of them, and the ends ascend strictly within
    1..d; ends=(d,) counts over the whole selection.

    The C kernel hashes and counts one row at a time, without storing the
    rows, where it is loaded, every selector is a slice of step 1 and
    k <= BYTE_K; numpy counts everything else block by block.
    """
    global _planes
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if not selectors or len(selectors) != len(phi):
        raise ValueError("need one pattern color per selector, and at least one")
    if any(not 0 <= c < k for c in phi):
        raise ValueError(f"pattern colors must lie in 0..{k - 1}")
    spans = [range(cols)[s] for s in selectors if isinstance(s, slice)]
    d = len(spans[0]) if spans else len(selectors[0])
    en = np.asarray(ends, dtype=np.int64)
    if en.ndim != 1 or not en.size or en[0] < 1 or en[-1] > d or np.any(en[1:] <= en[:-1]):
        raise ValueError(f"window ends must ascend strictly within 1..{d}, got {ends!r}")
    if k <= BYTE_K and len(spans) == len(selectors) and all(
            r.step == 1 and len(r) == d for r in spans):
        _planes += 1
        lib = _kernel if _kernel is not None else _resolve_kernel()
        if lib:
            return _count_c(lib.shiftlab_count, seed, rows, cols, k, [r.start for r in spans],
                            phi, en, row_offset)
    return _count_numpy(seed, rows, cols, k, selectors, phi, en, row_offset)


def _fin_int(z: int) -> int:
    """The splitmix64 finalizer of one value below 2**64, in Python ints."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


# derive_seed's multipliers in Python ints: A, and B times its second counter
_SEED_A, _SEED_B = int(_A), int(_B) * 0x5EED & _MASK


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent substream seed, e.g. one per Monte Carlo run:
    mix_counters(seed, ix, 0x5EED) chained over the indices, hashed in Python
    ints, which is far cheaper than numpy's per-call overhead on one value."""
    out = seed & _MASK
    for ix in indices:
        out = _fin_int(_fin_int(out ^ _SEED_A * ix & _MASK) ^ _SEED_B)
    return out
