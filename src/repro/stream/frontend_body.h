/* One working precision of the channelizer bank's front end.
 *
 * Included twice by derive.c, like derive_body.h: with REAL = float,
 * FMA = fmaf and SFX(x) = x##_f32, then with REAL = double, FMA = fma
 * and SFX(x) = x##_f64.  Complex streams are interleaved (re, im).
 *
 * The stream z is the bank's raw carry followed by the new block, cut
 * into rows of d samples.  Output m of channel c reads rows m .. m +
 * nb - 1, each against one band of the channel's zero-padded,
 * mixer-folded weights w (nb * d of them, nb = ceil(ntaps / d)):
 *
 *   V[r, b] = the chain over k = 0 .. d - 1, from +0, of
 *               re = FMA(xr, wr, FMA(-xi, wi, re))
 *               im = FMA(xr, wi, FMA(xi, wr, im))
 *             with x = z[r * d + k] and w = w[b * d + k];
 *   y[m]    = ((V[m, 0] + V[m + 1, 1]) + V[m + 2, 2]) + ...
 *
 * Then the lagged products p[n] = y[n] * conj(y[n + lag]) and their
 * rotation p[n] * rotation, each complex multiply u * v computed as
 *
 *   re = FMA(ur, vr, -(ui * vi)),  im = FMA(ur, vi, ui * vr)
 *
 * with the inner product rounded first.  Every FMA is the correctly
 * rounded fused multiply-add, so the bits depend on nothing but the
 * operands: not the host's BLAS, not the vector width, not where the
 * stream was cut.
 */

/* Outputs that may leave this call: all valid ones on the final call
 * (rows past the end read as zero), otherwise only those whose last
 * row is complete, so a cut never changes an output. */
static int64_t SFX(fe_emit)(int64_t n, int64_t ntaps, int64_t d,
                            int64_t nb, int32_t final)
{
    if (n < ntaps)
        return 0;
    int64_t valid = 1 + (n - ntaps) / d;
    if (final)
        return valid;
    int64_t rows = n / d - nb + 1;
    return rows < valid ? (rows > 0 ? rows : 0) : valid;
}

/* Rows [r0, r0 + rows) of z as phase planes: sample r * d + k lands at
 * xr/xi[k * rows + r - r0].  z is carry[0, nc) then x[0, nx), complex64
 * (x_f64 == 0) or complex128 rounded to REAL as numpy's astype rounds;
 * samples past its end are zero. */
static FE_INLINE void SFX(fe_spread)(const REAL *carry, int64_t nc,
                                     const void *x, int64_t nx, int32_t x_f64,
                                     int64_t r0, int64_t rows, int64_t d,
                                     REAL *restrict xr, REAL *restrict xi)
{
    for (int64_t k = 0; k < d; k++) {
        REAL *pr = xr + k * rows, *pi = xi + k * rows;
        int64_t s = r0 * d + k, i = 0;
        for (; i < rows && s < nc; i++, s += d) {
            pr[i] = carry[2 * s];
            pi[i] = carry[2 * s + 1];
        }
        /* Rows whose sample k lies in x. */
        int64_t n = s < nc + nx ? (nc + nx - s + d - 1) / d : 0;
        n = n < rows - i ? n : rows - i;
        if (x_f64) {
            const double *src = (const double *)x + 2 * (s - nc);
            for (int64_t j = 0; j < n; j++, src += 2 * d) {
                pr[i + j] = (REAL)src[0];
                pi[i + j] = (REAL)src[1];
            }
        } else {
            const float *src = (const float *)x + 2 * (s - nc);
            for (int64_t j = 0; j < n; j++, src += 2 * d) {
                pr[i + j] = (REAL)src[0];
                pi[i + j] = (REAL)src[1];
            }
        }
        for (i += n; i < rows; i++) {
            pr[i] = 0;
            pi[i] = 0;
        }
    }
}

/* Band b of n outputs of one channel: y = V[m + b, b] for the first
 * band, y += V[m + b, b] after it.  Inlined with a constant d, the
 * chain over k unrolls and the loop over outputs vectorises with the
 * accumulators in registers. */
static FE_INLINE void SFX(fe_band)(const REAL *xr, const REAL *xi,
                                   int64_t rows, int64_t n, int64_t d,
                                   const REAL *w, int first,
                                   REAL *restrict yr, REAL *restrict yi)
{
    for (int64_t j = 0; j < n; j++) {
        REAL re = 0, im = 0;
        for (int64_t k = 0; k < d; k++) {
            REAL pr = xr[k * rows + j], pi = xi[k * rows + j];
            REAL wr = w[2 * k], wi = w[2 * k + 1];
            re = FMA(pr, wr, FMA(-pi, wi, re));
            im = FMA(pr, wi, FMA(pi, wr, im));
        }
        if (first) {
            yr[j] = re;
            yi[j] = im;
        } else {
            yr[j] += re;
            yi[j] += im;
        }
    }
}

/* n outputs of one channel from the phase planes (rows = n + nb - 1). */
static FE_INLINE void SFX(fe_fir)(const REAL *xr, const REAL *xi,
                                  int64_t rows, int64_t n, int64_t d,
                                  int64_t nb, const REAL *w,
                                  REAL *restrict yr, REAL *restrict yi)
{
    for (int64_t b = 0; b < nb; b++) {
        const REAL *pr = xr + b, *pi = xi + b, *wb = w + 2 * b * d;
#define FE_BAND(D, FIRST) SFX(fe_band)(pr, pi, rows, n, D, wb, FIRST, yr, yi)
#define FE_BANDS(FIRST)                                                   \
    switch (d) {                                                          \
    case 1: FE_BAND(1, FIRST); break;                                     \
    case 2: FE_BAND(2, FIRST); break;                                     \
    case 4: FE_BAND(4, FIRST); break;                                     \
    case 8: FE_BAND(8, FIRST); break;                                     \
    default: FE_BAND(d, FIRST);                                           \
    }
        if (b == 0)
            FE_BANDS(1)
        else
            FE_BANDS(0)
#undef FE_BANDS
#undef FE_BAND
    }
}

/* n rotated lagged products of one channel's outputs y into out. */
static FE_INLINE void SFX(fe_products)(const REAL *yr, const REAL *yi,
                                       int64_t n, int64_t lag, REAL rr,
                                       REAL ri, REAL *restrict out)
{
    for (int64_t i = 0; i < n; i++) {
        REAL ur = yr[i], ui = yi[i];
        REAL vr = yr[i + lag], vi = -yi[i + lag];
        REAL pr = FMA(ur, vr, -(ui * vi));
        REAL pi = FMA(ur, vi, ui * vr);
        out[2 * i] = FMA(pr, rr, -(pi * ri));
        out[2 * i + 1] = FMA(pr, ri, pi * rr);
    }
}

static FE_INLINE int64_t SFX(fe_body)(const REAL *carry, int64_t nc,
                                      const void *x, int64_t nx,
                                      int32_t x_f64, int32_t final,
                                      int64_t ntaps, int64_t d,
                                      int64_t channels, const REAL *weights,
                                      const REAL *rotation, REAL *ycarry,
                                      int64_t have, int64_t lag,
                                      REAL *products, int64_t cap)
{
    int64_t nb = (ntaps + d - 1) / d;
    int64_t emit = SFX(fe_emit)(nc + nx, ntaps, d, nb, final);
    if (emit == 0)
        return 0;
    int64_t plane = FE_TILE + nb - 1, ylen = lag + FE_TILE;
    REAL *scratch = malloc(sizeof(REAL)
                           * (2 * d * plane + 2 * channels * ylen));
    if (!scratch)
        return -1;
    REAL *xr = scratch, *xi = xr + d * plane, *ybuf = xi + d * plane;
    /* Channel c's outputs: re at ybuf[2c * ylen], im at [(2c + 1) * ylen];
     * the first `cur` entries are the last outputs not yet paired. */
    for (int64_t c = 0; c < channels; c++)
        for (int64_t i = 0; i < have; i++) {
            ybuf[2 * c * ylen + i] = ycarry[2 * (c * lag + i)];
            ybuf[(2 * c + 1) * ylen + i] = ycarry[2 * (c * lag + i) + 1];
        }
    int64_t cur = have, done = 0;
    for (int64_t m0 = 0; m0 < emit; m0 += FE_TILE) {
        int64_t n = emit - m0 < FE_TILE ? emit - m0 : FE_TILE;
        int64_t rows = n + nb - 1;
        SFX(fe_spread)(carry, nc, x, nx, x_f64, m0, rows, d, xr, xi);
        int64_t total = cur + n, pairs = total - lag;
        int64_t keep = total < lag ? total : lag;
        for (int64_t c = 0; c < channels; c++) {
            REAL *yr = ybuf + 2 * c * ylen, *yi = yr + ylen;
            SFX(fe_fir)(xr, xi, rows, n, d, nb, weights + 2 * c * nb * d,
                        yr + cur, yi + cur);
            if (pairs > 0) {
                SFX(fe_products)(yr, yi, pairs, lag, rotation[2 * c],
                                 rotation[2 * c + 1],
                                 products + 2 * (c * cap + done));
            }
            memmove(yr, yr + total - keep, sizeof(REAL) * keep);
            memmove(yi, yi + total - keep, sizeof(REAL) * keep);
        }
        if (pairs > 0)
            done += pairs;
        cur = keep;
    }
    for (int64_t c = 0; c < channels; c++)
        for (int64_t i = 0; i < cur; i++) {
            ycarry[2 * (c * lag + i)] = ybuf[2 * c * ylen + i];
            ycarry[2 * (c * lag + i) + 1] = ybuf[(2 * c + 1) * ylen + i];
        }
    free(scratch);
    return emit;
}

#define FE_ARGS                                                           \
    const REAL *carry, int64_t nc, const void *x, int64_t nx,             \
        int32_t x_f64, int32_t final, int64_t ntaps, int64_t d,           \
        int64_t channels, const REAL *weights, const REAL *rotation,      \
        REAL *ycarry, int64_t have, int64_t lag, REAL *products,          \
        int64_t cap
#define FE_PASS                                                           \
    carry, nc, x, nx, x_f64, final, ntaps, d, channels, weights,          \
        rotation, ycarry, have, lag, products, cap

#ifdef FE_VECTOR_TARGET
FE_VECTOR_TARGET static int64_t SFX(fe_vector)(FE_ARGS)
{
    return SFX(fe_body)(FE_PASS);
}
#endif

static int64_t SFX(fe_portable)(FE_ARGS)
{
    return SFX(fe_body)(FE_PASS);
}

/* Filter, pair and rotate one block for every channel.
 *
 * weights is (channels, nb * d) complex, rotation (channels,) complex,
 * ycarry (channels, lag) complex holding each channel's last `have`
 * outputs (updated in place to its last min(have + emit, lag)), and
 * products (channels, cap) complex receiving max(0, have + emit - lag)
 * products per channel, cap >= that.  Returns emit, the outputs
 * consumed (the caller drops emit * d samples of z), or -1 when out of
 * memory.  The vector build runs where the CPU has it; both builds
 * compute the same bits. */
int64_t SFX(frontend)(FE_ARGS)
{
#ifdef FE_VECTOR_TARGET
    if (fe_has_vector())
        return SFX(fe_vector)(FE_PASS);
#endif
    return SFX(fe_portable)(FE_PASS);
}

#undef FE_ARGS
#undef FE_PASS
