/* Compiled steps of tcm.clustering.fit_kmeans and assign_features.
 *
 * Each function repeats the numpy code it stands in for operation by
 * operation, so that a fit gives the same centroids, iteration count and
 * labels on either path:
 *   - row norms and point-to-centre distances sum their squares in the order
 *     of numpy's einsum("ij,ij->i") inner loop: two lanes, eight elements per
 *     main step taken from the back, then the tail two at a time;
 *   - the inertia and the centroid shift sum in numpy's pairwise order;
 *   - centroid sums accumulate point by point, as np.bincount does;
 *   - distances are norm expansions clamped at 0, ties go to the lowest index.
 * The cross term x.c is a plain left-to-right sum, where BLAS may fuse
 * multiply-adds; only the last bits of a distance can differ. Build with
 * -ffp-contract=off so that the compiler fuses nothing either.
 *
 * The exported functions call always-inlined bodies with d = 3, the
 * spectral feature dimension, as a constant where it applies; the compiler
 * then unrolls the per-dimension loops without changing their order.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

/* a.b summed as numpy's einsum sums a row: see the comment at the top. */
INLINE double einsum_dot(const double *restrict a, const double *restrict b, long d)
{
    double acc0 = 0.0, acc1 = 0.0;
    long i = 0;
    for (; d - i >= 8; i += 8) {
        for (int u = 3; u >= 0; u--) {
            acc0 = a[i + 2 * u] * b[i + 2 * u] + acc0;
            acc1 = a[i + 2 * u + 1] * b[i + 2 * u + 1] + acc1;
        }
    }
    for (; i < d; i += 2) {
        acc0 = a[i] * b[i] + acc0;
        if (i + 1 < d)
            acc1 = a[i + 1] * b[i + 1] + acc1;
    }
    return acc0 + acc1;
}

/* numpy's pairwise summation of a[0..n), as in np.add.reduce. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
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

INLINE void pp_add(const double *restrict x, long n, long d, const double *restrict centroid,
                   double *restrict closest, double *restrict diff, int first)
{
    for (long i = 0; i < n; i++) {
        const double *row = x + i * d;
        for (long j = 0; j < d; j++)
            diff[j] = row[j] - centroid[j];
        double dist = einsum_dot(diff, diff, d);
        if (first || dist < closest[i])
            closest[i] = dist;
    }
}

/* k-means++: copy row `pick` of x into `centroid` and lower each point's
 * squared distance to its closest centre so far (set it when `first`).
 * Returns 0, or 2 when memory ran out. */
int tcm_pp_add(const double *x, long n, long d, long pick, double *centroid,
               double *closest, int first)
{
    memcpy(centroid, x + pick * d, (size_t)d * sizeof(double));
    double *diff = malloc((size_t)(d + 1) * sizeof(double));
    if (diff == NULL)
        return 2;
    if (d == 3)
        pp_add(x, n, 3, centroid, closest, diff, first);
    else
        pp_add(x, n, d, centroid, closest, diff, first);
    free(diff);
    return 0;
}

/* Generator.choice(n, p=closest / total) for its uniform draw u: the first
 * index whose normalized cumulative probability exceeds u. */
long tcm_pp_pick(const double *closest, long n, double total, double u)
{
    double last = 0.0;
    for (long i = 0; i < n; i++)
        last += closest[i] / total;
    double run = 0.0;
    for (long i = 0; i < n; i++) {
        run += closest[i] / total;
        if (run / last > u)
            return i;
    }
    return n - 1;
}

/* Scratch of one Lloyd fit. */
struct lloyd_buf {
    double *norms, *point_d, *sums, *counts, *cnorms, *sq;
    long *labels;
    char *taken;
};

INLINE int lloyd(const double *restrict x, long n, long d, long k, long max_iter, double tol,
                 double *restrict centroids, long *n_iter, double *inertia, struct lloyd_buf b)
{
    for (long i = 0; i < n; i++)
        b.norms[i] = einsum_dot(x + i * d, x + i * d, d);
    double prev_inertia = INFINITY;
    *n_iter = 0;
    *inertia = 0.0;
    for (long it = 1; it <= max_iter; it++) {
        *n_iter = it;
        for (long m = 0; m < k; m++)
            b.cnorms[m] = einsum_dot(centroids + m * d, centroids + m * d, d);
        for (long i = 0; i < n; i++)
            b.labels[i] = nearest(x + i * d, b.norms[i], centroids, b.cnorms, k, d,
                                  &b.point_d[i]);
        *inertia = pairwise_sum(b.point_d, n);
        if (!(*inertia <= prev_inertia * (1.0 + 1e-12) + 1e-12))
            return 1;
        prev_inertia = *inertia;

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
        }

        double shift = 0.0;
        for (long m = 0; m < k; m++) {
            for (long j = 0; j < d; j++) {
                double c_new = b.sums[m * d + j] / b.counts[m];
                double moved = c_new - centroids[m * d + j];
                b.sq[j] = moved * moved;
                centroids[m * d + j] = c_new;
            }
            double row_shift = sqrt(pairwise_sum(b.sq, d));
            if (m == 0 || row_shift > shift)
                shift = row_shift;
        }
        if (shift < tol)
            break;
    }
    return 0;
}

/* Lloyd iterations from the centroids given, updated in place. Returns 0,
 * 1 when an iteration raised the inertia, or 2 when memory ran out. */
int tcm_lloyd(const double *x, long n, long d, long k, long max_iter, double tol,
              double *centroids, long *n_iter, double *inertia)
{
    double *block = malloc((size_t)(2 * n + k * d + 2 * k + d + 1) * sizeof(double));
    long *labels = malloc((size_t)(n + 1) * sizeof(long));
    char *taken = malloc((size_t)(n + 1));
    int status = 2;
    if (block != NULL && labels != NULL && taken != NULL) {
        struct lloyd_buf b = {.norms = block, .labels = labels, .taken = taken};
        b.point_d = b.norms + n;
        b.sums = b.point_d + n;
        b.counts = b.sums + k * d;
        b.cnorms = b.counts + k;
        b.sq = b.cnorms + k;  /* d doubles */
        if (d == 3)
            status = lloyd(x, n, 3, k, max_iter, tol, centroids, n_iter, inertia, b);
        else
            status = lloyd(x, n, d, k, max_iter, tol, centroids, n_iter, inertia, b);
    }
    free(block);
    free(labels);
    free(taken);
    return status;
}

INLINE void assign(const double *restrict x, long n, long d, const double *restrict centroids,
                   const double *restrict cnorms, long k, int32_t *restrict labels)
{
    double dist;
    for (long i = 0; i < n; i++)
        labels[i] = (int32_t)nearest(x + i * d, einsum_dot(x + i * d, x + i * d, d),
                                     centroids, cnorms, k, d, &dist);
}

/* Nearest-centroid label of every row of x, ties to the lowest index.
 * Returns 0, or 2 when memory ran out. */
int tcm_assign(const double *x, long n, long d, const double *centroids, long k,
               int32_t *labels)
{
    double *cnorms = malloc((size_t)(k + 1) * sizeof(double));
    if (cnorms == NULL)
        return 2;
    for (long m = 0; m < k; m++)
        cnorms[m] = einsum_dot(centroids + m * d, centroids + m * d, d);
    if (d == 3)
        assign(x, n, 3, centroids, cnorms, k, labels);
    else
        assign(x, n, d, centroids, cnorms, k, labels);
    free(cnorms);
    return 0;
}
