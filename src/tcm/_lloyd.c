/* Compiled k-means of tcm.clustering: one entry point, tcm_region_counts,
 * fits every layer of a batch of chips and counts its labels per region;
 * clustering.region_counts calls it, and fit_kmeans is its one-fit case.
 *
 * It repeats the numpy code it stands in for operation by operation, so
 * that a fit gives the same centroids, inertia, iteration count and labels
 * on either path:
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
 * Labelling, in each Lloyd iteration and in the final assignment, runs
 * centroid-major, in _sqdist's order: label_all takes one centroid at a time
 * and all the points in an inner loop, and a point keeps the lowest-indexed
 * of its closest centroids. For that loop, lloyd() first copies the fit's
 * (n, d) rows into d planes of n coordinates (lloyd_buf.planes), so that
 * the loop reads each coordinate contiguously across points and the
 * compiler can vectorise it across points; GCC 12 does so for d = 3 with
 * AVX2 and AVX-512, and leaves it scalar, though branch-free, with SSE2
 * alone. A lane holds one point, and every point gets the same operations
 * in the same order at any vector width, or none: no sum runs across points
 * there. The sums that do (the init's total weight, the inertia, the
 * centroid sums) run left to right over the points, an order that the
 * compiler keeps without -ffast-math. So the bits do not depend on the
 * instruction set.
 *
 * The entry point calls always-inlined bodies with d = 3, the spectral
 * feature dimension, as a constant where it applies; the compiler then
 * unrolls the per-dimension loops without changing their order.
 *
 * On x86-64 with GCC or clang the labelling pass is compiled three times,
 * for AVX-512F, for AVX2 and for the plain target, as thin wrappers around
 * the one always-inlined label_all; each kernel call runs the fastest that
 * the CPU supports (__builtin_cpu_supports), and tcm_cpu_level names it: 2,
 * 1 or 0. The rest of the kernel, whose loops either run point by point in
 * order or cost little, is compiled once. No ifunc or target_clones, which
 * Mach-O lacks, and no -march: one built library runs on any x86-64 CPU.
 * Elsewhere the plain build is the only one. Tests build the source with
 * -DTCM_MAX_LEVEL=0, 1 or 2 to cap the level and so run every build that
 * the CPU supports; the runtime build leaves it out (2).
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

/* Squared distance from point i to centroid c, a norm expansion clamped at
 * 0; coordinate j of point i is planes[j * n + i]. */
INLINE double plane_dist(const double *restrict planes, const double *restrict norms, long n,
                         long d, long i, const double *restrict c, double cnorm)
{
    double cross = 0.0;
    for (long j = 0; j < d; j++)
        cross += planes[j * n + i] * c[j];
    double dist = norms[i] + cnorm - 2.0 * cross;
    return dist < 0.0 ? 0.0 : dist;
}

/* Labels every point with its nearest centroid and its distance, one
 * centroid at a time over all the points: centroid 0 seeds each point, and
 * a later one takes it only when strictly closer, so ties go to the lowest
 * index. The label is picked with a mask rather than a conditional store,
 * which the compiler would keep as a branch. */
INLINE void label_all(const double *restrict planes, const double *restrict norms, long n,
                      long d, const double *restrict centroids, const double *restrict cnorms,
                      long k, long *restrict labels, double *restrict point_d)
{
    for (long i = 0; i < n; i++) {
        point_d[i] = plane_dist(planes, norms, n, d, i, centroids, cnorms[0]);
        labels[i] = 0;
    }
    for (long m = 1; m < k; m++) {
        const double *c = centroids + m * d;
        for (long i = 0; i < n; i++) {
            double dist = plane_dist(planes, norms, n, d, i, c, cnorms[m]);
            double best = point_d[i];
            long keep = -(long)!(dist < best);  /* all ones where point i stays */
            point_d[i] = dist < best ? dist : best;
            labels[i] = (labels[i] & keep) | (m & ~keep);
        }
    }
}

/* label_all with d = 3 as a constant where it applies. */
#define LABEL_PARAMS                                                                    \
    const double *planes, const double *norms, long n, long d, const double *centroids, \
        const double *cnorms, long k, long *labels, double *point_d
#define LABEL_ARGS planes, norms, n, d, centroids, cnorms, k, labels, point_d
typedef void label_fn(LABEL_PARAMS);

INLINE void label_any(LABEL_PARAMS)
{
    if (d == 3)
        label_all(planes, norms, n, 3, centroids, cnorms, k, labels, point_d);
    else
        label_all(LABEL_ARGS);
}

static void label_plain(LABEL_PARAMS)
{
    label_any(LABEL_ARGS);
}

/* The labelling pass compiled for each instruction set that tcm_cpu_level
 * numbers, at label_at[level]. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#ifndef TCM_MAX_LEVEL
#define TCM_MAX_LEVEL 2
#endif

__attribute__((target("avx2"))) static void label_avx2(LABEL_PARAMS)
{
    label_any(LABEL_ARGS);
}

__attribute__((target("avx512f"))) static void label_avx512f(LABEL_PARAMS)
{
    label_any(LABEL_ARGS);
}

static label_fn *const label_at[] = {label_plain, label_avx2, label_avx512f};

int tcm_cpu_level(void)
{
    __builtin_cpu_init();
    if (TCM_MAX_LEVEL >= 2 && __builtin_cpu_supports("avx512f"))
        return 2;
    if (TCM_MAX_LEVEL >= 1 && __builtin_cpu_supports("avx2"))
        return 1;
    return 0;
}
#else
static label_fn *const label_at[] = {label_plain};

int tcm_cpu_level(void)
{
    return 0;
}
#endif

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

/* Scratch of one fit: planes holds its points as d planes of n coordinates,
 * and label the labelling pass that this CPU runs. The init uses norms as
 * its cdf and point_d as its closest distances. */
struct lloyd_buf {
    double *norms, *point_d, *sums, *counts, *cnorms, *planes;
    long *labels;
    char *taken;
    label_fn *label;
};

static int buf_alloc(struct lloyd_buf *b, long n, long d, long k)
{
    b->norms = malloc((size_t)(2 * n + k * d + 2 * k + d * n + 1) * sizeof(double));
    b->labels = malloc((size_t)(n + 1) * sizeof(long));
    b->taken = malloc((size_t)(n + 1));
    if (b->norms == NULL || b->labels == NULL || b->taken == NULL)
        return 2;
    b->point_d = b->norms + n;
    b->sums = b->point_d + n;
    b->counts = b->sums + k * d;
    b->cnorms = b->counts + k;
    b->planes = b->cnorms + k;
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
        for (long j = 0; j < d; j++)
            b.planes[j * n + i] = x[i * d + j];
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
        b.label(b.planes, b.norms, n, d, centroids, b.cnorms, k, b.labels, b.point_d);
        /* The inertia sums in the loop of the centroid sums, whose chains
         * through memory hide its own. */
        double inertia = 0.0;
        memset(b.sums, 0, (size_t)(k * d) * sizeof(double));
        memset(b.counts, 0, (size_t)k * sizeof(double));
        for (long i = 0; i < n; i++) {
            inertia += b.point_d[i];
            double *s = b.sums + b.labels[i] * d;
            const double *row = x + i * d;
            for (long j = 0; j < d; j++)
                s[j] += row[j];
            b.counts[b.labels[i]] += 1.0;
        }
        /* the rise rounding allows, derived in clustering._fit_kmeans_numpy */
        if (!(inertia <= prev_inertia + 0x1p-53 * (3.0 * n * prev_inertia + slack)))
            return 1;
        out->inertia = prev_inertia = inertia;
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

/* The init, then Lloyd iterations; b.norms then holds the row norms and
 * b.planes the points. */
INLINE int fit(const double *restrict x, long n, long d, long k, uint64_t seed, long max_iter,
               double tol, double *restrict centroids, struct fit_result *out,
               struct lloyd_buf b)
{
    int status = pp_init(x, n, d, k, seed, centroids, b.point_d, b.norms);
    if (status)
        return status;
    return lloyd(x, n, d, k, max_iter, tol, centroids, out, b);
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
    b.label(b.planes, b.norms, n, d, centroids, b.cnorms, k, b.labels, b.point_d);
    memset(counts, 0, (size_t)(2 * k) * sizeof(int64_t));
    for (long i = 0; i < n; i++)
        if (region[i] < 2)
            counts[region[i] * k + b.labels[i]]++;
    return 0;
}

/* The kernel's one entry point: fits of every layer of a batch of chips,
 * each followed by the assignment of its points to the final centroids.
 * Chip c has sizes[c] points and L layers; x holds, chip after chip, its L
 * layers of sizes[c] x d points, and region its sizes[c] region codes, which
 * its layers share. Fit f = c * L + l draws from default_rng(seeds[f]) and
 * runs at most max_iter Lloyd iterations; it writes its k x d centroids at
 * centroids + f * k * d, its inertia, n_iter, reseeds and converged flag, and
 * in counts[f] (2 x k) the labels of the points whose region code is 0, then
 * of those whose code is 1; other codes count nowhere. status[f] is 0, or 3
 * where the fit's outputs are left unset. Returns 0, or 1 or 2 from the first
 * fit that failed. */
int tcm_region_counts(const double *x, long n_chips, const int64_t *sizes, long L, long d,
                      long k, const uint8_t *region, const uint64_t *seeds, long max_iter,
                      double tol, int64_t *counts, double *centroids, double *inertia,
                      int64_t *n_iter, int64_t *reseeds, uint8_t *converged, int32_t *status)
{
    long n_max = 0;
    for (long c = 0; c < n_chips; c++)
        if (sizes[c] > n_max)
            n_max = sizes[c];
    struct lloyd_buf b = {0};  /* gcc cannot see that a failed buf_alloc skips every fit */
    int failed = buf_alloc(&b, n_max, d, k);
    b.label = label_at[tcm_cpu_level()];
    for (long c = 0, f = 0; c < n_chips && !failed; region += sizes[c], c++) {
        long n = sizes[c];
        for (long l = 0; l < L && !failed; l++, f++, x += n * d) {
            struct fit_result out = {0, 0, 0.0, 0};
            if (d == 3)
                status[f] = layer_counts(x, n, 3, k, region, seeds[f], max_iter, tol,
                                         centroids + f * k * d, counts + f * 2 * k, &out, b);
            else
                status[f] = layer_counts(x, n, d, k, region, seeds[f], max_iter, tol,
                                         centroids + f * k * d, counts + f * 2 * k, &out, b);
            inertia[f] = out.inertia;
            n_iter[f] = out.n_iter;
            reseeds[f] = out.reseeds;
            converged[f] = (uint8_t)out.converged;
            if (status[f] == 1 || status[f] == 2)
                failed = status[f];
        }
    }
    buf_free(&b);
    return failed;
}
