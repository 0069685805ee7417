/*
 * Native mini-batch SGD sweep over one block (band-local indices).
 *
 * The same mini-batch relaxation as repro.sgd.kernels.sgd_block_minibatch_local:
 * per batch, errors and BOTH gradients are evaluated against the factors as of
 * the start of the batch; every gradient row is divided by how often its
 * row / column occurs in the batch; the rows are then added to the band in
 * batch order, P first, then Q.
 *
 * Numerical contract (see DESIGN.md, "Native kernel").  Every operation below
 * is element-wise IEEE-754 double arithmetic in the order the numpy kernel
 * performs it, so it matches that kernel bit for bit -- except the dot product
 * p_u . q_v, which numpy takes from einsum (reduction order depends on the
 * numpy build).  Here it is summed in ONE fixed order: four running partial
 * sums over j mod 4 (lanes 0..3, each left to right), the k mod 4 tail added
 * to lanes 0..2 in turn, and the lanes combined as (s0 + s1) + (s2 + s3).
 * Build with -ffp-contract=off and without -ffast-math / -march=native: the
 * result is then the same on every x86-64 / aarch64 compiler.
 *
 * No static state: the gradient scratch (2 x batch x k doubles) and the two
 * multiplicity arrays are allocated per call, so concurrent calls on disjoint
 * bands are independent and the caller may release the GIL.
 *
 * Returns 0 on success, -1 when the scratch could not be allocated (nothing
 * has been written in that case).
 */

#include <stdint.h>
#include <stdlib.h>

static double dot_fixed_order(const double *a, const double *b, int64_t k)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= k; j += 4) {
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    if (j < k) s0 += a[j] * b[j];
    if (j + 1 < k) s1 += a[j + 1] * b[j + 1];
    if (j + 2 < k) s2 += a[j + 2] * b[j + 2];
    return (s0 + s1) + (s2 + s3);
}

/* target += grad / mult; dividing by 1 is an exact no-op, so it is skipped. */
static void add_divided(double *target, const double *grad, int64_t k, int32_t mult)
{
    if (mult == 1) {
        for (int64_t j = 0; j < k; j++) target[j] += grad[j];
    } else {
        double divisor = (double)mult;
        for (int64_t j = 0; j < k; j++) target[j] += grad[j] / divisor;
    }
}

/*
 * p_band:  band_rows x k, C-contiguous (the rows P[r0:r1]).
 * q_band:  band_cols x k, C-contiguous (the item-major rows Q.T[c0:c1]).
 * rows, cols, vals: the block's count ratings, indices local to the bands.
 */
int repro_sgd_minibatch(
    double *p_band, double *q_band, int64_t k,
    int64_t band_rows, int64_t band_cols,
    const int64_t *rows, const int64_t *cols, const double *vals,
    int64_t count, int64_t batch_size,
    double gamma, double reg_p, double reg_q)
{
    if (count <= 0) return 0;
    int64_t cap = batch_size < count ? batch_size : count;
    double *grad_p = (double *)malloc((size_t)(2 * cap * k) * sizeof(double));
    int32_t *row_mult = (int32_t *)calloc((size_t)(band_rows + band_cols), sizeof(int32_t));
    if (grad_p == NULL || row_mult == NULL) {
        free(grad_p);
        free(row_mult);
        return -1;
    }
    double *grad_q = grad_p + cap * k;
    int32_t *col_mult = row_mult + band_rows;

    for (int64_t start = 0; start < count; start += batch_size) {
        int64_t b = count - start < batch_size ? count - start : batch_size;
        const int64_t *u = rows + start;
        const int64_t *v = cols + start;
        const double *r = vals + start;

        /* Errors and both gradients against the start-of-batch factors. */
        for (int64_t i = 0; i < b; i++) {
            const double *pu = p_band + u[i] * k;
            const double *qv = q_band + v[i] * k;
            double e = r[i] - dot_fixed_order(pu, qv, k);
            double *gp = grad_p + i * k;
            double *gq = grad_q + i * k;
            for (int64_t j = 0; j < k; j++) {
                gp[j] = (e * qv[j] - pu[j] * reg_p) * gamma;
                gq[j] = (e * pu[j] - qv[j] * reg_q) * gamma;
            }
            row_mult[u[i]]++;
            col_mult[v[i]]++;
        }

        /* Divide by the per-batch multiplicity, then add in batch order: P... */
        for (int64_t i = 0; i < b; i++)
            add_divided(p_band + u[i] * k, grad_p + i * k, k, row_mult[u[i]]);
        /* ...then Q. */
        for (int64_t i = 0; i < b; i++)
            add_divided(q_band + v[i] * k, grad_q + i * k, k, col_mult[v[i]]);
        for (int64_t i = 0; i < b; i++) {
            row_mult[u[i]] = 0;
            col_mult[v[i]] = 0;
        }
    }
    free(grad_p);
    free(row_mult);
    return 0;
}
