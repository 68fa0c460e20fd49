/* Counter hash of shiftlab.rng, compiled and loaded lazily by rng.py.
 *
 * shiftlab_hash: out[r][c] = fin(fin(seed ^ A*a[r][c]) ^ B*b[r][c]), reduced
 * % k when k > 0, over a 2-D plane of rows x cols (>= 1 each).  a and b are
 * read through element strides, so a stride of 0 broadcasts; out is
 * C-contiguous.
 *
 * shiftlab_count: for each row r of the color matrix with row counters
 * row0 + r and column counters 0..cols-1 (1 <= k <= 256), how many j < d
 * have color[starts[i] + j] == phi[i] for every i < ns.  The row is hashed
 * into a byte buffer and never stored.
 *
 * shiftlab_isa: which copy of the two entry points runs on this CPU,
 * "x86-64-v4" or "baseline".
 *
 * Both entry points are compiled twice: for the baseline of the target and,
 * on x86-64 with GCC 12 or later (the first to name x86-64-v4 in
 * __builtin_cpu_supports), for x86-64-v4, whose AVX-512DQ 64-bit multiply
 * vectorises the hash.  The CPU picks the copy at run time, so the library
 * is built without -march and one build serves every x86-64 host.  AVX2 has
 * no 64-bit multiply, and an x86-64-v3 copy measured no faster than the
 * baseline.
 *
 * In the x86-64-v4 copy every counter plane() loads is XORed with z0, a zero
 * the compiler cannot see through.  Without it GCC 12 folds the loads of
 * a[c] and b[c] into the vector multiply, as `vpmullq (mem), zmm, zmm` (12 of
 * them in hash_v4, none in count_v4, whose counters are computed), and on an
 * AVX-512 Xeon that loop ran at about 5.5 ns per value against 1.1-1.3 ns
 * with the loaded vector in a register (standalone C, data in L1).  With z0,
 * at M = 100000 on a shared 2-core host (median of 41 calls): a plane whose
 * two counters both vary along the row, as in tape_consistency and every
 * resampling step, 0.61-0.66 -> 0.16-0.25 ms; tape row 0, 0.25-0.28 ->
 * 0.20-0.28 ms; one row of 41400 colors, 2.3-2.7 -> 1.5-2.5 ns per color.
 * The baseline passes a literal 0, which the compiler drops.
 * tests/test_rng.py fails on a multiply from memory in the x86-64-v4 copy.
 *
 * The numpy paths in rng.py compute the same results and are the test
 * oracles.
 */
#include <stddef.h>
#include <stdint.h>

#define A 0x9E3779B97F4A7C15ULL
#define B 0xD1B54A32D192ED03ULL

#if defined(__x86_64__) && !defined(__clang__) && __GNUC__ >= 12
#define V4 __attribute__((target("arch=x86-64-v4")))
#define HAS_V4() (__builtin_cpu_init(), __builtin_cpu_supports("x86-64-v4"))
#else
#define V4
#define HAS_V4() 0
#endif

static inline uint64_t fin(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* z % k, or z & mask when k == 0.  With k a literal `% k` becomes a high
 * multiply, which AVX-512 lacks, so the x86-64-v4 copy reduces k = 3 exactly
 * without one: since 2^16 == 1 (mod 3), z folds to a sum of its four 16-bit
 * digits s < 2^18, and s * 0xAAAAAAAB >> 33 is s / 3 for every s < 2^32.
 * In scalar code the fold is slower than `% 3`, so the baseline keeps it. */
static inline __attribute__((always_inline)) uint64_t
reduce(uint64_t z, uint64_t k, uint64_t mask, int wide)
{
    if (!k)
        return z & mask;
    if (wide && k == 3) {
        uint64_t s = (z >> 48) + (z >> 32 & 0xFFFF) + (z >> 16 & 0xFFFF) + (z & 0xFFFF);
        return s - 3 * (s * 0xAAAAAAABULL >> 33);
    }
    return z % k;
}

/* Inlined at each call below, so k, mask and wide are literals there.  z0 is
 * 0; every loaded counter is XORed with it (see the top of this file). */
static inline __attribute__((always_inline)) void
plane(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs,
      const uint64_t *b, ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows,
      ptrdiff_t cols, uint64_t k, uint64_t mask, int wide, uint64_t z0, uint64_t *out)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        const uint64_t *ar = a + r * ars, *br = b + r * brs;
        uint64_t *o = out + r * cols;
        if (acs == 0) {  /* a is constant along the row: one first round */
            uint64_t h = fin(seed ^ A * ar[0]);
            for (ptrdiff_t c = 0; c < cols; c++)
                o[c] = reduce(fin(h ^ B * (br[c * bcs] ^ z0)), k, mask, wide);
        } else {
            for (ptrdiff_t c = 0; c < cols; c++)
                o[c] = reduce(fin(fin(seed ^ A * (ar[c * acs] ^ z0)) ^ B * (br[c * bcs] ^ z0)),
                              k, mask, wide);
        }
    }
}

static inline __attribute__((always_inline)) void
hash_k(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs, const uint64_t *b,
       ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows, ptrdiff_t cols, uint64_t k, int wide,
       uint64_t z0, uint64_t *out)
{
#define PLANE(K, MASK) plane(seed, a, ars, acs, b, brs, bcs, rows, cols, K, MASK, wide, z0, out)
    if (k == 0)
        PLANE(0, ~0ULL);
    else if ((k & (k - 1)) == 0)
        PLANE(0, k - 1);
    else if (k == 3)  /* the one other k the shipped configs use */
        PLANE(3, 0);
    else
        PLANE(k, 0);
#undef PLANE
}

/* Colors of one row into buf[0..cols), then occurrences of phi counted in a
 * byte mask at buf[cols..cols+d); byte colors keep the compare loops
 * vectorised.  Inlined per k like plane(). */
static inline __attribute__((always_inline)) void
count(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
      uint64_t mask, int wide, const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns,
      ptrdiff_t d, uint8_t *buf, int64_t *counts)
{
    uint8_t *m = buf + cols;
    for (ptrdiff_t r = 0; r < rows; r++) {
        uint64_t h = fin(seed ^ A * (row0 + (uint64_t)r));
        for (ptrdiff_t c = 0; c < cols; c++)
            buf[c] = (uint8_t)reduce(fin(h ^ B * (uint64_t)c), k, mask, wide);
        const uint8_t *s = buf + starts[0];
        for (ptrdiff_t j = 0; j < d; j++)
            m[j] = s[j] == phi[0];
        for (ptrdiff_t i = 1; i < ns; i++) {
            const uint8_t *t = buf + starts[i];
            uint8_t p = phi[i];
            for (ptrdiff_t j = 0; j < d; j++)
                m[j] &= t[j] == p;
        }
        int64_t n = 0;
        for (ptrdiff_t j = 0; j < d; j++)
            n += m[j];
        counts[r] = n;
    }
}

static inline __attribute__((always_inline)) void
count_k(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
        const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns, ptrdiff_t d, int wide,
        uint8_t *buf, int64_t *counts)
{
#define COUNT(K, MASK) count(seed, row0, rows, cols, K, MASK, wide, starts, phi, ns, d, buf, counts)
    if ((k & (k - 1)) == 0)
        COUNT(0, k - 1);
    else if (k == 3)
        COUNT(3, 0);
    else
        COUNT(k, 0);
#undef COUNT
}

/* The x86-64-v4 copies; where V4 is empty they are never called.  z0 keeps
 * the loaded counters out of the multiplies (see the top of this file). */
static V4 void
hash_v4(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs, const uint64_t *b,
        ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
        uint64_t *out)
{
    uint64_t z0 = 0;
    __asm__("" : "+r"(z0));
    hash_k(seed, a, ars, acs, b, brs, bcs, rows, cols, k, 1, z0, out);
}

static V4 void
count_v4(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
         const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns, ptrdiff_t d,
         uint8_t *buf, int64_t *counts)
{
    count_k(seed, row0, rows, cols, k, starts, phi, ns, d, 1, buf, counts);
}

void shiftlab_hash(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs,
                   const uint64_t *b, ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows,
                   ptrdiff_t cols, uint64_t k, uint64_t *out)
{
    if (HAS_V4())
        hash_v4(seed, a, ars, acs, b, brs, bcs, rows, cols, k, out);
    else
        hash_k(seed, a, ars, acs, b, brs, bcs, rows, cols, k, 0, 0, out);
}

void shiftlab_count(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols,
                    uint64_t k, const ptrdiff_t *starts, const uint8_t *phi,
                    ptrdiff_t ns, ptrdiff_t d, uint8_t *buf, int64_t *counts)
{
    if (HAS_V4())
        count_v4(seed, row0, rows, cols, k, starts, phi, ns, d, buf, counts);
    else
        count_k(seed, row0, rows, cols, k, starts, phi, ns, d, 0, buf, counts);
}

const char *shiftlab_isa(void)
{
    return HAS_V4() ? "x86-64-v4" : "baseline";
}
