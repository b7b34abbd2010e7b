/* The stream receiver's native kernels: the channelizer bank's front
 * end, the scanner's derived caches and its scan walk.
 *
 * Every function is the numpy formulation's arithmetic in its order,
 * rounded exactly as numpy rounds it, so the caches match the numpy
 * derive bit for bit in float32 and in float64:
 *
 *   - magnitudes are re*re, then + im*im (two roundings: the build
 *     passes -ffp-contract=off, so no fused multiply-add);
 *   - sqrt and divide are the correctly rounded IEEE operations;
 *   - folds add in the fixed order ((u0 + u1) + u2) + ...;
 *   - prefix sums are strict left folds, one element at a time;
 *   - scalar thresholds arrive already rounded to the working dtype
 *     (numpy compares a Python float against a float32 array in
 *     float32).
 *
 * The scan walk (walk_body.h) makes the decisions of the Python walk
 * it replaced, from the same floats; its contract is spelled out there
 * and in repro/stream/session.py.  The front end (frontend_body.h)
 * has its own arithmetic, spelled out there: explicit correctly
 * rounded fmaf/fma in a fixed order, so its bits do not depend on the
 * host either.
 *
 * Never build this with -ffast-math: it licenses every reordering the
 * contract forbids.  See repro/stream/native.py for the build.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Positions per tile: the vectorised per-position loops run over a
 * tile held in cache before the sequential prefix loop consumes it. */
#define TILE 1024

/* A session's constants for the windowed caches and the walk.  Float
 * fields marked "working" hold values already rounded to the working
 * dtype (exact in a double); the others are the Python floats the
 * cascade computes its thresholds in. */
struct walk_params {
    int64_t window;        /* vote window w */
    int32_t floor;         /* capture floor on a window's vote count */
    double inv_fw;         /* working: 1 / (folds * w) */
    double inv_w;          /* working: 1 / w */
    double coh_pass;       /* working: least value clearing coherence_min */
    double coh_min;        /* working: coherence_min, the hot filter's */
    double conc_min;       /* working: 0.6, the hot filter's */
    int64_t stride;        /* scan-chunk stride s */
    int64_t bit_period;
    int64_t lead;          /* preamble to data start: folds * bit_period */
    int64_t header_span;   /* data start to the header's last vote end */
    int64_t scan_len;      /* products a full scan chunk needs */
    double slack;          /* coherence_slack */
    double coherence_min;
    double conc_floor;     /* 0.6 */
    int32_t tau_sync;      /* a bit is 1 when its votes reach this */
    int32_t version;       /* header checks: see header_length */
    int32_t max_type;
    int32_t ack_type;
    int32_t transport_base;
    int32_t max_length;
};

/* What one scan call leaves behind. */
struct walk_out {
    int64_t n_hot;         /* hot window starts appended */
    int64_t state;         /* WALK_SEARCH, WALK_PENDING or WALK_BODY */
    int64_t origin;        /* the session's origin afterwards */
    int64_t n0;            /* this call's last accepted hit, or -1 */
    double coherence;      /* ... and its coherence */
    int64_t length;        /* data bits of a valid header (WALK_BODY) */
    int64_t rejects;       /* header rejects */
    int64_t hits;          /* outcome counts, late hits included */
    int64_t miss_count;    /* skipped chunks only (metered calls) */
    int64_t miss_coherence;
    int64_t miss_concentration;
    int64_t observed;      /* hit coherences written (metered calls) */
};

enum { WALK_SEARCH, WALK_PENDING, WALK_BODY };

/* First index in sorted a[lo, hi) whose value is >= x (bisect_left). */
static int64_t lower_bound(const int64_t *a, int64_t lo, int64_t hi,
                           int64_t x)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The 24-bit header word's data length if the header is valid, else -1.
 * mask is the vote-mask prefix from data start on; bit b's votes are
 * the (wrapping, as numpy's int32) difference across its window. */
static int64_t header_length(const struct walk_params *pp,
                             const int32_t *mask)
{
    uint32_t word = 0;
    for (int64_t b = 0; b < 24; b++) {
        const int32_t *at = mask + b * pp->bit_period;
        int32_t votes = (int32_t)((uint32_t)at[pp->window] - (uint32_t)at[0]);
        word = (word << 1) | (votes >= pp->tau_sync);
    }
    int32_t version = (word >> 20) & 0xF;
    int32_t type = (word >> 16) & 0xF;
    int32_t length = (word >> 8) & 0xFF;
    int valid = version == pp->version && type <= pp->max_type
                && !(pp->ack_type < type && type < pp->transport_base)
                && length <= pp->max_length;
    return valid ? length : -1;
}

/* Front-end outputs per tile: the phase planes and the per-channel
 * outputs of a tile stay in cache between the FIR and the products. */
#define FE_TILE 256
#define FE_INLINE inline __attribute__((always_inline))

/* The front end's vectorised build: the same source compiled for AVX2
 * with FMA, chosen at run time by the CPU alone.  Elsewhere (or on an
 * x86-64 without FMA) the portable build runs, fmaf/fma then being
 * library calls: slower, the same bits. */
#if defined(__x86_64__) && defined(__GNUC__)
#define FE_VECTOR_TARGET __attribute__((target("avx2,fma")))
static int fe_has_vector(void)
{
    static int has = -1;
    if (has < 0) {
        __builtin_cpu_init();
        has = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    }
    return has;
}
#endif

#define REAL float
#define SQRT sqrtf
#define FMA fmaf
#define SFX(name) name##_f32
#include "derive_body.h"
#include "walk_body.h"
#include "frontend_body.h"
#undef REAL
#undef SQRT
#undef FMA
#undef SFX

#define REAL double
#define SQRT sqrt
#define FMA fma
#define SFX(name) name##_f64
#include "derive_body.h"
#include "walk_body.h"
#include "frontend_body.h"
#undef REAL
#undef SQRT
#undef FMA
#undef SFX
