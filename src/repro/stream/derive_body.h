/* One working precision of the derive kernels.
 *
 * Included twice by derive.c: with REAL = float and SFX(x) = x##_f32,
 * then with REAL = double and SFX(x) = x##_f64.  Complex streams are
 * interleaved (re, im) arrays, the layout of numpy's complex64 and
 * complex128.  Prefix outputs ("tails") receive the strict left fold
 * seed + v0, (seed + v0) + v1, ... of their values.
 */

/* Unit phasors of n products: (re, im) / sqrt(re*re + im*im), or
 * (fill_re, fill_im) where that magnitude is zero. */
static void SFX(units)(const REAL *prod, int64_t n, REAL fill_re,
                       REAL fill_im, REAL *unit)
{
    for (int64_t i = 0; i < n; i++) {
        REAL re = prod[2 * i], im = prod[2 * i + 1];
        REAL mag = SQRT(re * re + im * im);
        int zero = mag == 0;
        /* Divide unconditionally, then select: branch-free, so the loop
         * vectorises (d is never zero). */
        REAL d = zero ? (REAL)1 : mag;
        REAL ure = re / d, uim = im / d;
        unit[2 * i] = zero ? fill_re : ure;
        unit[2 * i + 1] = zero ? fill_im : uim;
    }
}

/* Vote flags and unit phasors of n new products, then the fold caches
 * of m new profile positions.
 *
 * mask[i] is the running count of prod.imag >= 0 from mask_seed.  u is
 * the unit-phasor stream from the first new profile position on (its
 * tail is the units written here); position j folds the units at j,
 * j + bp, ..., j + (folds - 1) * bp and extends:
 *   count -- running count of negative fold angles,
 *   coh   -- running sum of the fold magnitude,
 *   conc  -- running complex sum of the unit fold phasor.
 * pos0 is the absolute position of the first new profile position.  With
 * seam > 0 the two float sums restart from zero at every position that
 * is a positive multiple of seam (see the re-seeding note in
 * session_body.h); the integer counts never do.  m may be 0 (then u and
 * the fold outputs are not touched). */
void SFX(derive)(const REAL *prod, int64_t n, REAL fill_re, REAL fill_im,
                 REAL *unit, int32_t *mask, int32_t mask_seed,
                 const REAL *u, int64_t m, int64_t bp, int64_t folds,
                 int32_t *count, int32_t count_seed,
                 REAL *coh, REAL coh_seed,
                 REAL *conc, REAL conc_seed_re, REAL conc_seed_im,
                 int64_t pos0, int64_t seam)
{
    uint32_t votes = (uint32_t)mask_seed;
    for (int64_t i = 0; i < n; i++) {
        votes += prod[2 * i + 1] >= 0;
        mask[i] = (int32_t)votes;
    }
    SFX(units)(prod, n, fill_re, fill_im, unit);

    /* Tiles: the per-position arithmetic runs as independent loops the
     * compiler vectorises, then one sequential loop extends the folds. */
    REAL f[2 * TILE], mag[TILE];
    uint32_t neg[TILE];
    uint32_t negs = (uint32_t)count_seed;
    REAL csum = coh_seed, ure = conc_seed_re, uim = conc_seed_im;
    /* The next position whose float sums restart (none without seams). */
    int64_t next = -1;
    if (seam > 0)
        next = pos0 > 0 ? (pos0 + seam - 1) / seam * seam : seam;
    for (int64_t lo = 0; lo < m; lo += TILE) {
        int64_t t = m - lo < TILE ? m - lo : TILE;
        const REAL *src = u + 2 * lo;
        /* ((u0 + u1) + u2) + ..., the real and imaginary planes alike. */
        for (int64_t j = 0; j < 2 * t; j++)
            f[j] = src[j];
        for (int64_t k = 1; k < folds; k++) {
            const REAL *s = src + 2 * k * bp;
            for (int64_t j = 0; j < 2 * t; j++)
                f[j] = f[j] + s[j];
        }
        for (int64_t i = 0; i < t; i++) {
            REAL re = f[2 * i], im = f[2 * i + 1];
            /* angle < 0: imag < 0, or -pi at (-0.0 imag, negative real). */
            neg[i] = (im < 0) | ((im == 0) & (COPYSIGN(1, im) < 0) & (re < 0));
            REAL g = SQRT(re * re + im * im);
            mag[i] = g;
            REAL d = g < (REAL)1e-12 ? (REAL)1e-12 : g;
            f[2 * i] = re / d;
            f[2 * i + 1] = im / d;
        }
        for (int64_t i = 0; i < t; i++) {
            int64_t p = lo + i;
            if (pos0 + p == next) {
                csum = ure = uim = 0;
                next += seam;
            }
            negs += neg[i];
            count[p] = (int32_t)negs;
            csum = csum + mag[i];
            coh[p] = csum;
            ure = ure + f[2 * i];
            uim = uim + f[2 * i + 1];
            conc[2 * p] = ure;
            conc[2 * p + 1] = uim;
        }
    }
}

/* The coherence-pass prefix and hot filter of n window starts.
 *
 * cpass[i] is the running count of cohcand >= coh_pass from seed; the
 * indices offset + i where conc >= conc_min and cohcand >= coh_min go
 * to hot, in order.  Returns how many went (hot holds room for n). */
static int64_t SFX(index)(const REAL *cohcand, const REAL *conc, int64_t n,
                          int64_t offset, REAL coh_pass, REAL coh_min,
                          REAL conc_min, int32_t *cpass, int32_t seed,
                          int64_t *hot)
{
    uint32_t passes = (uint32_t)seed;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        passes += cohcand[i] >= coh_pass;
        cpass[i] = (int32_t)passes;
        hot[k] = offset + i;
        k += (conc[i] >= conc_min) & (cohcand[i] >= coh_min);
    }
    return k;
}

/* The sum of a re-seeded float prefix stream over the window [p, p + w)
 * (p absolute; at[k * step] is the entry of position p + k).  Entry
 * b = k * seam closes segment k - 1, and segment k's sums restart after
 * it, so a window starting on a seam subtracts nothing and a window
 * straddling one adds the closing entry's part to the new segment's. */
static REAL SFX(seam_sum)(const REAL *at, int64_t p, int64_t w,
                          int64_t seam, int64_t step)
{
    int64_t b = (p / seam + 1) * seam;
    REAL base = p % seam ? at[0] : (REAL)0;
    if (p + w <= b)
        return at[w * step] - base;
    return (at[(b - p) * step] - base) + at[w * step];
}

/* Windowed statistics of n window starts of width w, from the prefix
 * streams starting at the first of them (each holds n + w entries):
 *   counts  -- votes cn[p + w] - cn[p],
 *   cohcand -- (cm[p + w] - cm[p]) * inv_fw, or -inf below the floor,
 *   conc    -- |cu[p + w] - cu[p]| * inv_w,
 * then index() over them, the first start numbered offset.  With seams
 * (pp->seam > 0) the float windows that start on a seam or straddle one
 * are summed by seam_sum instead.  Returns the number of hot starts. */
static int64_t SFX(windowed)(const int32_t *cn, const REAL *cm,
                             const REAL *cu, int64_t n, int64_t offset,
                             const struct walk_params *pp, int32_t *counts,
                             REAL *cohcand, REAL *conc, int32_t *cpass,
                             int32_t seed, int64_t *hot)
{
    int64_t w = pp->window;
    int32_t floor = pp->floor;
    REAL inv_fw = (REAL)pp->inv_fw, inv_w = (REAL)pp->inv_w;
    int64_t n_hot = 0;
    for (int64_t lo = 0; lo < n; lo += TILE) {
        int64_t t = n - lo < TILE ? n - lo : TILE;
        for (int64_t p = lo; p < lo + t; p++) {
            int32_t c = (int32_t)((uint32_t)cn[p + w] - (uint32_t)cn[p]);
            counts[p] = c;
            REAL v = (cm[p + w] - cm[p]) * inv_fw;
            cohcand[p] = c < floor ? -(REAL)INFINITY : v;
            REAL dre = cu[2 * (p + w)] - cu[2 * p];
            REAL dim = cu[2 * (p + w) + 1] - cu[2 * p + 1];
            conc[p] = SQRT(dre * dre + dim * dim) * inv_w;
        }
        /* Window starts in (b - w, b] for a seam b > 0, inside the tile. */
        int64_t seam = pp->seam, a0 = offset + lo, a1 = a0 + t;
        if (seam > 0) {
            int64_t b = a0 > 0 ? (a0 + seam - 1) / seam * seam : seam;
            for (; b - w < a1 - 1; b += seam) {
                int64_t from = b - w + 1 > a0 ? b - w + 1 : a0;
                int64_t to = b < a1 - 1 ? b : a1 - 1;
                for (int64_t a = from; a <= to; a++) {
                    int64_t p = a - offset;
                    REAL v = SFX(seam_sum)(cm + p, a, w, seam, 1) * inv_fw;
                    cohcand[p] = counts[p] < floor ? -(REAL)INFINITY : v;
                    REAL dre = SFX(seam_sum)(cu + 2 * p, a, w, seam, 2);
                    REAL dim = SFX(seam_sum)(cu + 2 * p + 1, a, w, seam, 2);
                    conc[p] = SQRT(dre * dre + dim * dim) * inv_w;
                }
            }
        }
        n_hot += SFX(index)(cohcand + lo, conc + lo, t, offset + lo,
                            (REAL)pp->coh_pass, (REAL)pp->coh_min,
                            (REAL)pp->conc_min, cpass + lo, seed,
                            hot + n_hot);
        seed = cpass[lo + t - 1];
    }
    return n_hot;
}
