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
 * The numpy paths in rng.py compute the same results and are the test
 * oracles.
 */
#include <stddef.h>
#include <stdint.h>

#define A 0x9E3779B97F4A7C15ULL
#define B 0xD1B54A32D192ED03ULL

static inline uint64_t fin(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Inlined at each call below; with k a literal `% k` becomes a multiply, and
 * k == 0 keeps z & mask instead. */
static inline __attribute__((always_inline)) void
plane(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs,
      const uint64_t *b, ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows,
      ptrdiff_t cols, uint64_t k, uint64_t mask, uint64_t *out)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        const uint64_t *ar = a + r * ars, *br = b + r * brs;
        uint64_t *o = out + r * cols;
        if (acs == 0) {  /* a is constant along the row: one first round */
            uint64_t h = fin(seed ^ A * ar[0]);
            for (ptrdiff_t c = 0; c < cols; c++) {
                uint64_t z = fin(h ^ B * br[c * bcs]);
                o[c] = k ? z % k : z & mask;
            }
        } else {
            for (ptrdiff_t c = 0; c < cols; c++) {
                uint64_t z = fin(fin(seed ^ A * ar[c * acs]) ^ B * br[c * bcs]);
                o[c] = k ? z % k : z & mask;
            }
        }
    }
}

void shiftlab_hash(uint64_t seed, const uint64_t *a, ptrdiff_t ars, ptrdiff_t acs,
                   const uint64_t *b, ptrdiff_t brs, ptrdiff_t bcs, ptrdiff_t rows,
                   ptrdiff_t cols, uint64_t k, uint64_t *out)
{
#define PLANE(K, MASK) plane(seed, a, ars, acs, b, brs, bcs, rows, cols, K, MASK, out)
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
      uint64_t mask, const ptrdiff_t *starts, const uint8_t *phi, ptrdiff_t ns,
      ptrdiff_t d, uint8_t *buf, int64_t *counts)
{
    uint8_t *m = buf + cols;
    for (ptrdiff_t r = 0; r < rows; r++) {
        uint64_t h = fin(seed ^ A * (row0 + (uint64_t)r));
        for (ptrdiff_t c = 0; c < cols; c++) {
            uint64_t z = fin(h ^ B * (uint64_t)c);
            buf[c] = (uint8_t)(k ? z % k : z & mask);
        }
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

void shiftlab_count(uint64_t seed, uint64_t row0, ptrdiff_t rows, ptrdiff_t cols,
                    uint64_t k, const ptrdiff_t *starts, const uint8_t *phi,
                    ptrdiff_t ns, ptrdiff_t d, uint8_t *buf, int64_t *counts)
{
#define COUNT(K, MASK) count(seed, row0, rows, cols, K, MASK, starts, phi, ns, d, buf, counts)
    if ((k & (k - 1)) == 0)
        COUNT(0, k - 1);
    else if (k == 3)
        COUNT(3, 0);
    else
        COUNT(k, 0);
#undef COUNT
}
