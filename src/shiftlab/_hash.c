/* Counter hash of shiftlab.rng, compiled and loaded lazily by rng.py.
 *
 * out[r][c] = fin(fin(seed ^ A*a[r][c]) ^ B*b[r][c]), reduced % k when k > 0,
 * over a 2-D plane of rows x cols (>= 1 each).  a and b are read through
 * element strides, so a stride of 0 broadcasts; out is C-contiguous.  The
 * numpy path in rng.py computes the same stream and is the test oracle.
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
