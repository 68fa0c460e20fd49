/* Counter hash of shiftlab.rng, compiled and loaded lazily by rng.py.
 *
 * shiftlab_hash: out[r][c] = fin(fin(seed ^ A*a[r][c]) ^ B*b[r][c]) % k, one
 * byte per color (1 <= k <= 256), over a 2-D plane of rows x cols (>= 1
 * each).  a and b are read through element strides, so a stride of 0
 * broadcasts; out is C-contiguous.
 *
 * shiftlab_count: for each row r of the color matrix with row counters
 * row0 + r and column counters 0..cols-1 (1 <= k <= 256), and for each of
 * the ne ascending window ends ends[q] in 1..d, d = ends[ne - 1], how many
 * j < ends[q] have color[starts[i] + j] == phi[i] for every i < ns, into
 * counts[r * ne + q].  The row is hashed into a byte buffer and never stored.
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
 * a[c] and b[c] into the vector multiply, as `vpmullq (mem), zmm, zmm` (64 of
 * them in hash_v4, none in count_v4, whose counters are computed), and on an
 * AVX-512 Xeon that loop ran at about 5.5 ns per value against 1.1-1.3 ns
 * with the loaded vector in a register (standalone C, data in L1).
 * The baseline passes a literal 0, which the compiler drops.
 * tests/test_rng.py fails on a multiply from memory in the x86-64-v4 copy.
 *
 * plane() hoists the work of a counter that is constant along the row: the
 * first round when a is, B*b when b is, as in tape row 0
 * (`TapeSpace.symbols(points, 0)`).  It stores one byte per color, as
 * count() does, so GCC's vectorisation of its loop packs the 64-bit lanes
 * into bytes and stores an eighth of the data.  Against the 8-byte colors
 * it wrote before, at M = 100000 on a shared 2-core AVX-512 Xeon
 * (standalone C, best of 41 calls, in alternating processes): tape row 0
 * 1.01-1.05 -> 0.78-0.82 ns per color at k = 2 and 1.69-1.87 -> 1.09-1.12
 * ns at k = 3; a plane whose two counters both vary along the row, as in
 * tape_consistency and every resampling step, 1.00-1.10 -> 0.85-0.88 ns at
 * k = 2 and 1.69-1.75 -> 1.21-1.25 ns at k = 3.
 *
 * The x86-64-v4 copy of shiftlab_count hashes and counts its rows with
 * AVX-512 intrinsics (count_v4_k, matches_v4) for k = 3 and every power of
 * two, with fewer port-0 uops than GCC's vectorisation of count() (see
 * count_v4_k) and byte compare masks in place of the byte mask buffer.
 * They are compiled only where the compiler may emit AVX-512 (ROW_V4), so
 * the baseline copy builds on every target.  Rows of 501-2001 colors,
 * 10,000 of them, best of 7 calls (standalone C, the AVX-512 Xeon above):
 * hashing alone 0.47-0.62 -> 0.33-0.35 ns per color at k = 2 and
 * 0.84-1.11 -> 0.55-0.57 ns at k = 3; with counting one or two sites
 * 0.60-0.88 -> 0.35-0.42 ns and 0.96-1.33 -> 0.57-0.71 ns.
 * tests/test_rng.py fails where its vpsadbw or vpmuludq is missing.
 *
 * The numpy paths in rng.py compute the same results and are the test
 * oracles.
 */
#include <stddef.h>
#include <stdint.h>

#define A 0x9E3779B97F4A7C15ULL
#define B 0xD1B54A32D192ED03ULL
#define M1 0xBF58476D1CE4E5B9ULL  /* the finalizer's multipliers */
#define M2 0x94D049BB133111EBULL

#if defined(__x86_64__) && !defined(__clang__) && __GNUC__ >= 12
#define V4 __attribute__((target("arch=x86-64-v4")))
#define HAS_V4() (__builtin_cpu_init(), __builtin_cpu_supports("x86-64-v4"))
#define V4_DISPATCH
#else
#define V4
#define HAS_V4() 0
#endif

/* AVX-512 intrinsics serve the x86-64-v4 copy of count() where it is built
 * for AVX-512: by the dispatch above, or by -march=x86-64-v4 or later. */
#if defined(V4_DISPATCH) || (defined(__AVX512BW__) && defined(__AVX512DQ__))
#include <immintrin.h>
#define ROW_V4
#endif

static inline uint64_t fin(uint64_t z)
{
    z = (z ^ (z >> 30)) * M1;
    z = (z ^ (z >> 27)) * M2;
    return z ^ (z >> 31);
}

/* z % k, or z & mask when k == 0.  With k a literal `% k` becomes a high
 * multiply, which AVX-512 lacks, so the x86-64-v4 copy of plane() reduces
 * k = 3 exactly without one: since 2^16 == 1 (mod 3), z folds to a sum of
 * its four 16-bit digits s < 2^18, and s * 0xAAAAAAAB >> 33 is s / 3 for
 * every s < 2^32.
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
      ptrdiff_t cols, uint64_t k, uint64_t mask, int wide, uint64_t z0, uint8_t *out)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        const uint64_t *ar = a + r * ars, *br = b + r * brs;
        uint8_t *o = out + r * cols;
        if (acs == 0) {  /* a is constant along the row: one first round */
            uint64_t h = fin(seed ^ A * ar[0]);
            for (ptrdiff_t c = 0; c < cols; c++)
                o[c] = (uint8_t)reduce(fin(h ^ B * (br[c * bcs] ^ z0)), k, mask, wide);
        } else if (bcs == 0) {  /* b is constant along the row: one B*b */
            uint64_t bb = B * (br[0] ^ z0);
            for (ptrdiff_t c = 0; c < cols; c++)
                o[c] = (uint8_t)reduce(fin(fin(seed ^ A * (ar[c * acs] ^ z0)) ^ bb), k, mask,
                                       wide);
        } else {
            for (ptrdiff_t c = 0; c < cols; c++)
                o[c] = (uint8_t)reduce(
                    fin(fin(seed ^ A * (ar[c * acs] ^ z0)) ^ B * (br[c * bcs] ^ z0)), k, mask,
                    wide);
        }
    }
}

static inline __attribute__((always_inline)) void
hash_k(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs, const uint64_t *b,
       ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows, ptrdiff_t cols, uint64_t k, int wide,
       uint64_t z0, uint8_t *out)
{
#define PLANE(K, MASK) plane(seed, a, ars, acs, b, brs, bcs, rows, cols, K, MASK, wide, z0, out)
    if ((k & (k - 1)) == 0)
        PLANE(0, k - 1);
    else if (k == 3)  /* the one other k the shipped configs use */
        PLANE(3, 0);
    else
        PLANE(k, 0);
#undef PLANE
}

/* For each end e, how many j < e have buf[starts[i] + j] == phi[i] for every
 * i < ns, from a byte mask at buf[cols..cols+d); byte colors keep the compare
 * loops vectorised. */
static inline __attribute__((always_inline)) void
matches(uint8_t *buf, ptrdiff_t cols, const ptrdiff_t *starts, const uint8_t *phi,
        ptrdiff_t ns, const ptrdiff_t *ends, ptrdiff_t ne, int64_t *counts)
{
    uint8_t *m = buf + cols;
    ptrdiff_t d = ends[ne - 1];
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
    ptrdiff_t j = 0;
    for (ptrdiff_t e = 0; e < ne; e++) {
        for (; j < ends[e]; j++)
            n += m[j];
        counts[e] = n;
    }
}

/* Colors of one row into buf[0..cols), then its matches.  Inlined per k
 * like plane(). */
static inline __attribute__((always_inline)) void
count(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
      uint64_t mask, const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns,
      const ptrdiff_t *ends, ptrdiff_t ne, uint8_t *buf, int64_t *counts)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        uint64_t h = fin(seed ^ A * (row0 + (uint64_t)r));
        for (ptrdiff_t c = 0; c < cols; c++)
            buf[c] = (uint8_t)reduce(fin(h ^ B * (uint64_t)c), k, mask, 0);
        matches(buf, cols, starts, phi, ns, ends, ne, counts + r * ne);
    }
}

static inline __attribute__((always_inline)) void
count_k(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
        const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns, const ptrdiff_t *ends,
        ptrdiff_t ne, uint8_t *buf, int64_t *counts)
{
#define COUNT(K, MASK) \
    count(seed, row0, rows, cols, K, MASK, starts, phi, ns, ends, ne, buf, counts)
    if ((k & (k - 1)) == 0)
        COUNT(0, k - 1);
    else if (k == 3)
        COUNT(3, 0);
    else
        COUNT(k, 0);
#undef COUNT
}

#ifdef ROW_V4
/* The low min(n, 64) bits set. */
static inline __attribute__((always_inline)) uint64_t
low_bits(ptrdiff_t n)
{
    return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}

/* matches() from compare masks and a popcount, 64 bytes per step; the loads
 * are masked to the d bytes of each site, and an end inside a step counts
 * the hits below it. */
static inline V4 __attribute__((always_inline)) void
matches_v4(const uint8_t *buf, const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns,
           const ptrdiff_t *ends, ptrdiff_t ne, int64_t *counts)
{
    ptrdiff_t d = ends[ne - 1], e = 0;
    int64_t n = 0;
    for (ptrdiff_t j = 0; j < d; j += 64) {
        __mmask64 hit = low_bits(d - j);
        for (ptrdiff_t i = 0; i < ns; i++)
            hit = _mm512_mask_cmpeq_epi8_mask(
                hit, _mm512_maskz_loadu_epi8(hit, buf + starts[i] + j),
                _mm512_set1_epi8((char)phi[i]));
        for (; e < ne && ends[e] - j <= 64; e++)  /* the ends in (j, j + 64] */
            counts[e] = n + (int64_t)_mm_popcnt_u64(hit & low_bits(ends[e] - j));
        n += _mm_popcnt_u64(hit);
    }
}

/* count() for k = 3 or a power of two k, hashing 8 columns per step (the
 * last step stores only the colors left of cols) and counting with
 * matches_v4.  The hash is bound by port 0 of the AVX-512 core, where a
 * vpmullq costs 3 uops and a vpmuludq or a 512-bit shift 1, so it does the
 * same arithmetic with fewer of them:
 * - B*c is a running sum, bc += 8*B, not a multiply;
 * - for k = 2 the color is bit 0 of z ^ z >> 31, which reads bits 0 and 31
 *   of the last product only; both depend only on the low 32 bits of its
 *   factors, so a 32-bit vpmuludq by the low word of M2 serves;
 * - for k = 3, since 2^8 == 1 (mod 3), one vpsadbw against zero sums the
 *   eight bytes of z to s <= 2040 with s == z (mod 3), and
 *   s * 0xAAAB >> 17 is s / 3 for every s < 2^17, through vpmuludq. */
static inline V4 __attribute__((always_inline)) void
count_v4_k(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
           uint64_t mask, const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns,
           const ptrdiff_t *ends, ptrdiff_t ne, uint8_t *buf, int64_t *counts)
{
    const __m512i m1 = _mm512_set1_epi64(M1), m2 = _mm512_set1_epi64(M2);
    const __m512i m2lo = _mm512_set1_epi64(M2 & 0xFFFFFFFF), third = _mm512_set1_epi64(0xAAAB);
    const __m512i three = _mm512_set1_epi64(3), maskv = _mm512_set1_epi64(mask);
    const __m512i bc0 = _mm512_set_epi64(7 * B, 6 * B, 5 * B, 4 * B, 3 * B, 2 * B, B, 0);
    const __m512i step = _mm512_set1_epi64(8 * B), zero = _mm512_setzero_si512();
    for (ptrdiff_t r = 0; r < rows; r++) {
        const __m512i hv = _mm512_set1_epi64(fin(seed ^ A * (row0 + (uint64_t)r)));
        __m512i bc = bc0;
        for (ptrdiff_t c = 0; c < cols; c += 8, bc = _mm512_add_epi64(bc, step)) {
            __m512i z = _mm512_xor_si512(hv, bc), color;
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), m1);
            z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 27));
            z = k == 2 ? _mm512_mul_epu32(z, m2lo) : _mm512_mullo_epi64(z, m2);
            z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
            if (k == 3) {
                __m512i s = _mm512_sad_epu8(z, zero);
                __m512i q = _mm512_srli_epi64(_mm512_mul_epu32(s, third), 17);
                color = _mm512_sub_epi64(s, _mm512_mul_epu32(q, three));
            } else {
                color = _mm512_and_si512(z, maskv);
            }
            __mmask8 live = cols - c >= 8 ? 0xFF : (__mmask8)((1u << (cols - c)) - 1);
            _mm512_mask_cvtepi64_storeu_epi8(buf + c, live, color);
        }
        matches_v4(buf, starts, phi, ns, ends, ne, counts + r * ne);
    }
}
#endif

/* The x86-64-v4 copies; where V4 is empty they are never called.  z0 keeps
 * the loaded counters out of the multiplies (see the top of this file). */
static V4 void
hash_v4(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs, const uint64_t *b,
        ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
        uint8_t *out)
{
    uint64_t z0 = 0;
    __asm__("" : "+r"(z0));
    hash_k(seed, a, ars, acs, b, brs, bcs, rows, cols, k, 1, z0, out);
}

static V4 void
count_v4(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols, uint64_t k,
         const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns, const ptrdiff_t *ends,
         ptrdiff_t ne, uint8_t *buf, int64_t *counts)
{
#ifdef ROW_V4
#define COUNT(K, MASK) \
    count_v4_k(seed, row0, rows, cols, K, MASK, starts, phi, ns, ends, ne, buf, counts)
    if (k == 2)
        COUNT(2, 1);
    else if (k == 3)
        COUNT(3, 0);
    else if ((k & (k - 1)) == 0)
        COUNT(0, k - 1);
    else  /* AVX-512 has no 64-bit divide */
        count(seed, row0, rows, cols, k, 0, starts, phi, ns, ends, ne, buf, counts);
#undef COUNT
#else
    count_k(seed, row0, rows, cols, k, starts, phi, ns, ends, ne, buf, counts);
#endif
}

void shiftlab_hash(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs,
                   const uint64_t *b, ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows,
                   ptrdiff_t cols, uint64_t k, uint8_t *out)
{
    if (HAS_V4())
        hash_v4(seed, a, ars, acs, b, brs, bcs, rows, cols, k, out);
    else
        hash_k(seed, a, ars, acs, b, brs, bcs, rows, cols, k, 0, 0, out);
}

void shiftlab_count(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols,
                    uint64_t k, const ptrdiff_t *starts, const uint8_t *phi,
                    ptrdiff_t ns, const ptrdiff_t *ends, ptrdiff_t ne, uint8_t *buf,
                    int64_t *counts)
{
    if (HAS_V4())
        count_v4(seed, row0, rows, cols, k, starts, phi, ns, ends, ne, buf, counts);
    else
        count_k(seed, row0, rows, cols, k, starts, phi, ns, ends, ne, buf, counts);
}

const char *shiftlab_isa(void)
{
    return HAS_V4() ? "x86-64-v4" : "baseline";
}
