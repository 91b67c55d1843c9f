/* Compiled k-means of tcm.clustering: whole fits (fit_kmeans), and the fits
 * and region counts of every layer of a batch of chips (region_counts).
 *
 * Each function repeats the numpy code it stands in for operation by
 * operation, so that a fit gives the same centroids, iteration count and
 * labels on either path:
 *   - each fit draws from its own np.random.default_rng(seed), run here bit
 *     for bit: SeedSequence hashing, PCG64 seeding and its XSL-RR output,
 *     integers(n) as Lemire's bounded draw on the generator's buffered
 *     32-bit halves, and random() from the top 53 bits of an output;
 *   - every sum runs left to right, as numpy's _row_norms and _sum run it,
 *     inside the loop that makes its terms: norms and distances over the
 *     dimensions, the init's total weight in pp_add, the inertia as points
 *     are labelled, a centroid's squared shift as it is updated;
 *   - an init pick is Generator.choice(n, p=closest / total), or
 *     Generator.integers(n) where the total weight is <= 0;
 *   - centroid sums accumulate point by point, as np.bincount does;
 *   - distances are norm expansions clamped at 0, ties go to the lowest index;
 *     the cross term x.c sums left to right, as numpy's _sqdist sums it
 *     column by column.
 * Build with -ffp-contract=off so that the compiler fuses no multiply-add.
 *
 * The exported functions call always-inlined bodies with d = 3, the
 * spectral feature dimension, as a constant where it applies; the compiler
 * then unrolls the per-dimension loops without changing their order.
 *
 * Status codes: 0 done; 1 an iteration raised the inertia by more than
 * rounding can (a bug); 2 memory ran out; 3 the fit leaves what the kernel
 * repeats: the init's total weight is not finite, where numpy's choice
 * raises, or n >= 2^32, where numpy draws integers another way. The caller
 * redoes such a fit on the numpy path.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

/* numpy's PCG64 (XSL-RR 128/64) and the Generator draws that a fit makes. */
struct pcg64 {
    __uint128_t state, inc;
    int has_half;   /* next32 buffers the high half of a 64-bit output */
    uint32_t half;
};

#define PCG_MULT (((__uint128_t)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static void pcg_step(struct pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
}

static uint64_t next64(struct pcg64 *g)
{
    pcg_step(g);
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

static uint32_t next32(struct pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return g->half;
    }
    uint64_t v = next64(g);
    g->has_half = 1;
    g->half = (uint32_t)(v >> 32);
    return (uint32_t)v;
}

/* SeedSequence's hash of one 32-bit word; *h is its running multiplier. */
static uint32_t ss_hashmix(uint32_t value, uint32_t *h)
{
    value ^= *h;
    *h *= 0x931e8875u;
    value *= *h;
    return value ^ (value >> 16);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* PCG64(SeedSequence(seed)): the seed's 32-bit words (one below 2^32, else
 * two) mixed into a pool of four, and generate_state(4, np.uint64) read
 * from the pool as the 128-bit initial state and stream. */
static void pcg_seed(struct pcg64 *g, uint64_t seed)
{
    uint32_t entropy[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    int words = seed >> 32 ? 2 : 1;
    uint32_t pool[4], h = 0x43b0d7e5u;
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < words ? entropy[i] : 0, &h);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &h));
    uint64_t st[4];
    h = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ h;
        h *= 0x58f38dedu;
        v *= h;
        v ^= v >> 16;
        st[i / 2] = i % 2 ? st[i / 2] | (uint64_t)v << 32 : v;
    }
    g->state = 0;
    g->inc = ((__uint128_t)st[2] << 64 | st[3]) << 1 | 1;
    pcg_step(g);
    g->state += (__uint128_t)st[0] << 64 | st[1];
    pcg_step(g);
    g->has_half = 0;
}

/* Generator.integers(n) for 1 <= n < 2^32: Lemire's bounded draw with
 * rejection; n == 1 draws nothing. */
static long gen_integers(struct pcg64 *g, long n)
{
    if (n == 1)
        return 0;
    uint32_t bound = (uint32_t)n;
    uint64_t m = (uint64_t)next32(g) * bound;
    if ((uint32_t)m < bound) {
        uint32_t threshold = (UINT32_MAX - (bound - 1)) % bound;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next32(g) * bound;
    }
    return (long)(m >> 32);
}

/* Generator.random() */
static double gen_random(struct pcg64 *g)
{
    return (double)(next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* a.a, summed left to right */
INLINE double sumsq(const double *restrict a, long d)
{
    double s = 0.0;
    for (long j = 0; j < d; j++)
        s += a[j] * a[j];
    return s;
}

/* Index of the nearest centroid to x (ties to the lowest) and its distance. */
INLINE long nearest(const double *restrict x, double norm, const double *restrict centroids,
                   const double *restrict cnorms, long k, long d, double *restrict dist_out)
{
    long best = 0;
    double best_d = 0.0;
    for (long m = 0; m < k; m++) {
        const double *c = centroids + m * d;
        double cross = 0.0;
        for (long j = 0; j < d; j++)
            cross += x[j] * c[j];
        double dist = norm + cnorms[m] - 2.0 * cross;
        if (dist < 0.0)
            dist = 0.0;
        if (m == 0 || dist < best_d) {
            best = m;
            best_d = dist;
        }
    }
    *dist_out = best_d;
    return best;
}

/* closest[i] = squared distance from point i to `centroid` when `first`,
 * else the lower of that and closest[i]. Returns the sum of the new closest
 * distances, the init's next total weight. */
INLINE double pp_add(const double *restrict x, long n, long d, const double *restrict centroid,
                     double *restrict closest, int first)
{
    double total = 0.0;
    for (long i = 0; i < n; i++) {
        const double *row = x + i * d;
        double dist = 0.0;
        for (long j = 0; j < d; j++) {
            double diff = row[j] - centroid[j];
            dist += diff * diff;
        }
        if (first || dist < closest[i])
            closest[i] = dist;
        total += closest[i];
    }
    return total;
}

/* Generator.choice(n, p=closest / total) for its uniform draw u: the first
 * index whose normalized cumulative probability exceeds u, found as
 * np.searchsorted(side="right") finds it. cdf is scratch of n doubles. */
INLINE long pp_pick(const double *restrict closest, long n, double total, double u,
                    double *restrict cdf)
{
    for (long i = 0; i < n; i++)
        cdf[i] = closest[i] / total;
    for (long i = 1; i < n; i++)
        cdf[i] += cdf[i - 1];
    /* cdf[i] / cdf[n - 1] never decreases with i, so bisection finds it. */
    double last = cdf[n - 1];
    long lo = 0, hi = n;
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2;
        if (cdf[mid] / last > u)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < n ? lo : n - 1;
}

/* k-means++ drawing from default_rng(seed) as _plus_plus_init does.
 * Returns 0 or 3. */
INLINE int pp_init(const double *restrict x, long n, long d, long k, uint64_t seed,
                   double *restrict centroids, double *restrict closest,
                   double *restrict cdf)
{
    if (n > (long)UINT32_MAX)
        return 3;
    struct pcg64 g;
    pcg_seed(&g, seed);
    double total = 0.0;
    for (long j = 0; j < k; j++) {
        long pick;
        if (!(total < INFINITY))
            return 3;
        if (total > 0.0)
            pick = pp_pick(closest, n, total, gen_random(&g), cdf);
        else
            pick = gen_integers(&g, n);
        memcpy(centroids + j * d, x + pick * d, (size_t)d * sizeof(double));
        total = pp_add(x, n, d, centroids + j * d, closest, j == 0);
    }
    return 0;
}

/* Scratch of one fit. The init uses norms as its cdf and point_d as its
 * closest distances. */
struct lloyd_buf {
    double *norms, *point_d, *sums, *counts, *cnorms;
    long *labels;
    char *taken;
};

static int buf_alloc(struct lloyd_buf *b, long n, long d, long k)
{
    b->norms = malloc((size_t)(2 * n + k * d + 2 * k + 1) * sizeof(double));
    b->labels = malloc((size_t)(n + 1) * sizeof(long));
    b->taken = malloc((size_t)(n + 1));
    if (b->norms == NULL || b->labels == NULL || b->taken == NULL)
        return 2;
    b->point_d = b->norms + n;
    b->sums = b->point_d + n;
    b->counts = b->sums + k * d;
    b->cnorms = b->counts + k;
    return 0;
}

static void buf_free(struct lloyd_buf *b)
{
    free(b->norms);
    free(b->labels);
    free(b->taken);
}

/* What a fit reports next to its centroids. */
struct fit_result {
    long n_iter, reseeds;  /* reseeds: empty clusters given a far point, summed */
    double inertia;
    int converged;  /* the centroid shift fell below tol within max_iter iterations */
};

INLINE int lloyd(const double *restrict x, long n, long d, long k, long max_iter, double tol,
                 double *restrict centroids, struct fit_result *out, struct lloyd_buf b)
{
    double norm_sum = 0.0, norm_max = 0.0;
    for (long i = 0; i < n; i++) {
        b.norms[i] = sumsq(x + i * d, d);
        norm_sum += b.norms[i];
        if (b.norms[i] > norm_max)
            norm_max = b.norms[i];
    }
    double slack = (4.0 * d + 10.0 + 0x1p-51 * n * n) * (norm_sum + n * norm_max);
    double prev_inertia = INFINITY;
    *out = (struct fit_result){0, 0, 0.0, 0};
    for (long it = 1; it <= max_iter; it++) {
        out->n_iter = it;
        for (long m = 0; m < k; m++)
            b.cnorms[m] = sumsq(centroids + m * d, d);
        double inertia = 0.0;
        for (long i = 0; i < n; i++) {
            b.labels[i] = nearest(x + i * d, b.norms[i], centroids, b.cnorms, k, d,
                                  &b.point_d[i]);
            inertia += b.point_d[i];
        }
        /* the rise rounding allows, derived in clustering._fit_kmeans_numpy */
        if (!(inertia <= prev_inertia + 0x1p-53 * (3.0 * n * prev_inertia + slack)))
            return 1;
        out->inertia = prev_inertia = inertia;

        memset(b.sums, 0, (size_t)(k * d) * sizeof(double));
        memset(b.counts, 0, (size_t)k * sizeof(double));
        for (long i = 0; i < n; i++) {
            double *s = b.sums + b.labels[i] * d;
            const double *row = x + i * d;
            for (long j = 0; j < d; j++)
                s[j] += row[j];
            b.counts[b.labels[i]] += 1.0;
        }
        /* Empty clusters take the farthest points, in a stable descending
         * order of distance, as np.argsort(-point_d, kind="stable"). */
        memset(b.taken, 0, (size_t)n);
        for (long m = 0; m < k; m++) {
            if (b.counts[m] != 0.0)
                continue;
            long far = -1;
            for (long i = 0; i < n; i++)
                if (!b.taken[i] && (far < 0 || b.point_d[i] > b.point_d[far]))
                    far = i;
            b.taken[far] = 1;
            memcpy(b.sums + m * d, x + far * d, (size_t)d * sizeof(double));
            b.counts[m] = 1.0;
            out->reseeds++;
        }

        double shift = 0.0;
        for (long m = 0; m < k; m++) {
            double sq = 0.0;
            for (long j = 0; j < d; j++) {
                double c_new = b.sums[m * d + j] / b.counts[m];
                double moved = c_new - centroids[m * d + j];
                sq += moved * moved;
                centroids[m * d + j] = c_new;
            }
            double row_shift = sqrt(sq);
            if (m == 0 || row_shift > shift)
                shift = row_shift;
        }
        if (shift < tol) {
            out->converged = 1;
            break;
        }
    }
    return 0;
}

/* The init, then Lloyd iterations; b.norms then holds the row norms. */
INLINE int fit(const double *restrict x, long n, long d, long k, uint64_t seed, long max_iter,
               double tol, double *restrict centroids, struct fit_result *out,
               struct lloyd_buf b)
{
    int status = pp_init(x, n, d, k, seed, centroids, b.point_d, b.norms);
    if (status)
        return status;
    return lloyd(x, n, d, k, max_iter, tol, centroids, out, b);
}

/* One fit of the n x d points x: k-means++ from default_rng(seed), then
 * Lloyd iterations from there. Writes the centroids, the iteration count,
 * the number of reseeded empty clusters, the inertia and whether the fit
 * converged. Returns a status code. */
int tcm_fit(const double *x, long n, long d, long k, uint64_t seed, long max_iter, double tol,
            double *centroids, long *n_iter, long *reseeds, double *inertia, int *converged)
{
    struct lloyd_buf b;
    struct fit_result out = {0, 0, 0.0, 0};
    int status = buf_alloc(&b, n, d, k);
    if (!status) {
        if (d == 3)
            status = fit(x, n, 3, k, seed, max_iter, tol, centroids, &out, b);
        else
            status = fit(x, n, d, k, seed, max_iter, tol, centroids, &out, b);
    }
    buf_free(&b);
    *n_iter = out.n_iter;
    *reseeds = out.reseeds;
    *inertia = out.inertia;
    *converged = out.converged;
    return status;
}

INLINE int layer_counts(const double *restrict x, long n, long d, long k,
                        const uint8_t *restrict region, uint64_t seed, long max_iter,
                        double tol, double *restrict centroids, int64_t *restrict counts,
                        struct fit_result *out, struct lloyd_buf b)
{
    int status = fit(x, n, d, k, seed, max_iter, tol, centroids, out, b);
    if (status)
        return status;
    for (long m = 0; m < k; m++)
        b.cnorms[m] = sumsq(centroids + m * d, d);
    for (long i = 0; i < n; i++)
        b.labels[i] = nearest(x + i * d, b.norms[i], centroids, b.cnorms, k, d, &b.point_d[i]);
    memset(counts, 0, (size_t)(2 * k) * sizeof(int64_t));
    for (long i = 0; i < n; i++)
        if (region[i] < 2)
            counts[region[i] * k + b.labels[i]]++;
    return 0;
}

/* Fits of every layer of a batch of chips, each followed by the assignment
 * of its points to the final centroids. Chip c has sizes[c] points and L
 * layers; x holds, chip after chip, its L layers of sizes[c] x d points, and
 * region its sizes[c] region codes, which its layers share. Fit f = c * L + l
 * draws from default_rng(seeds[f]); counts[f] (2 x k) counts the labels of
 * the points whose region code is 0, then of those whose code is 1; other
 * codes count nowhere. status[f] is 0, or 3 where the fit's counts, n_iter,
 * reseeds and converged flag are left unset. Returns 0, or 1 or 2 from the
 * first fit that failed. */
int tcm_region_counts(const double *x, long n_chips, const int64_t *sizes, long L, long d,
                      long k, const uint8_t *region, const uint64_t *seeds, long max_iter,
                      double tol, int64_t *counts, int64_t *n_iter, int64_t *reseeds,
                      uint8_t *converged, int32_t *status)
{
    long n_max = 0;
    for (long c = 0; c < n_chips; c++)
        if (sizes[c] > n_max)
            n_max = sizes[c];
    struct lloyd_buf b = {0};  /* gcc cannot see that a failed buf_alloc skips every fit */
    double *centroids = malloc((size_t)(k * d + 1) * sizeof(double));
    int failed = buf_alloc(&b, n_max, d, k);
    if (centroids == NULL)
        failed = 2;
    for (long c = 0, f = 0; c < n_chips && !failed; region += sizes[c], c++) {
        long n = sizes[c];
        for (long l = 0; l < L && !failed; l++, f++, x += n * d) {
            struct fit_result out = {0, 0, 0.0, 0};
            if (d == 3)
                status[f] = layer_counts(x, n, 3, k, region, seeds[f], max_iter, tol,
                                         centroids, counts + f * 2 * k, &out, b);
            else
                status[f] = layer_counts(x, n, d, k, region, seeds[f], max_iter, tol,
                                         centroids, counts + f * 2 * k, &out, b);
            n_iter[f] = out.n_iter;
            reseeds[f] = out.reseeds;
            converged[f] = (uint8_t)out.converged;
            if (status[f] == 1 || status[f] == 2)
                failed = status[f];
        }
    }
    buf_free(&b);
    free(centroids);
    return failed;
}
