/* The stream receiver's native kernels: the channelizer bank's front
 * end, the scanner's derived caches, its scan walk, and the stream
 * session that runs them (session_body.h).
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
 * and in repro/stream/session.py.  The session push (session_body.h)
 * runs derive, walk and the body decode over buffers it owns.  The front end (frontend_body.h)
 * has its own arithmetic, spelled out there: explicit correctly
 * rounded fmaf/fma in a fixed order, so its bits do not depend on the
 * host either.
 *
 * Never build this with -ffast-math: it licenses every reordering the
 * contract forbids.  See repro/stream/native.py for the build, which
 * also defines the frame layout (FRAME_*) from repro/core/frame.py.
 */

#ifndef FRAME_DATA_START
#error "the FRAME_* layout macros come from repro.stream.native"
#endif

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

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
    int64_t seam;          /* float prefixes restart every seam positions
                              (0: never) */
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

/* Field F (FRAME_F_LO, FRAME_F_BITS) of the header word, whose first
 * bit is its most significant. */
#define HEADER_FIELD(word, F) \
    (((word) >> (FRAME_DATA_START - F##_LO - F##_BITS)) \
     & ((1u << F##_BITS) - 1))

/* The header word's data length if the header is valid, else -1.
 * mask is the vote-mask prefix from data start on; bit b's votes are
 * the (wrapping, as numpy's int32) difference across its window. */
static int64_t header_length(const struct walk_params *pp,
                             const int32_t *mask)
{
    uint32_t word = 0;
    for (int64_t b = 0; b < FRAME_DATA_START; b++) {
        const int32_t *at = mask + b * pp->bit_period;
        int32_t votes = (int32_t)((uint32_t)at[pp->window] - (uint32_t)at[0]);
        word = (word << 1) | (votes >= pp->tau_sync);
    }
    int32_t version = HEADER_FIELD(word, FRAME_VERSION);
    int32_t type = HEADER_FIELD(word, FRAME_TYPE);
    int32_t length = HEADER_FIELD(word, FRAME_LENGTH);
    int valid = version == pp->version && type <= pp->max_type
                && !(pp->ack_type < type && type < pp->transport_base)
                && length <= pp->max_length;
    return valid ? length : -1;
}

/* ---- The stream session's state (session_body.h) -------------------- */

/* Most frame bits one body decode reads: header, data and CRC. */
#define SESSION_MAX_BITS 128
/* Frame bits beyond the data: header and CRC. */
#define FRAME_OVERHEAD_BITS (FRAME_DATA_START + FRAME_CRC_BITS)

/* A growable stream buffer addressed by absolute index: entry p lives
 * at element p - base + start of data.  Trimming drops the front in
 * O(1); appending compacts the dropped space, or doubles, when full. */
struct buf {
    char *data;
    int64_t cap, start, len, base, size;
};

static int buf_init(struct buf *b, int64_t size, int64_t cap)
{
    b->data = malloc((size_t)(cap * size));
    b->cap = cap;
    b->start = b->len = b->base = 0;
    b->size = size;
    return b->data != NULL;
}

static int64_t buf_end(const struct buf *b)
{
    return b->base + b->len;
}

static void *buf_at(const struct buf *b, int64_t p)
{
    return b->data + (p - b->base + b->start) * b->size;
}

/* Absolute index p is element p + buf_off(b) of the data. */
static int64_t buf_off(const struct buf *b)
{
    return b->start - b->base;
}

/* Append n entries; the first of them, or NULL when out of memory. */
static void *buf_alloc(struct buf *b, int64_t n)
{
    if (b->start + b->len + n > b->cap) {
        if (b->start) {
            memmove(b->data, b->data + b->start * b->size,
                    (size_t)(b->len * b->size));
            b->start = 0;
        }
        if (b->len + n > b->cap) {
            int64_t cap = b->cap;
            while (cap < b->len + n)
                cap *= 2;
            char *grown = realloc(b->data, (size_t)(cap * b->size));
            if (!grown)
                return NULL;
            b->data = grown;
            b->cap = cap;
        }
    }
    void *at = b->data + (b->start + b->len) * b->size;
    b->len += n;
    return at;
}

/* Forget everything below absolute index lo. */
static void buf_trim(struct buf *b, int64_t lo)
{
    int64_t drop = lo - b->base;
    drop = drop < 0 ? 0 : drop > b->len ? b->len : drop;
    b->start += drop;
    b->base += drop;
    b->len -= drop;
}

static void buf_clear(struct buf *b)
{
    b->start = b->len = 0;
}

/* One frame a push emitted. */
struct session_frame {
    int64_t n0;            /* preamble index */
    int64_t data_start;
    int64_t end;           /* one past the last vote window */
    int64_t n_bits;
    int64_t latency;       /* products buffered past end at the emit */
    int64_t runs_lo;       /* metered: this frame's phase run lengths, */
    int64_t runs_n;        /* session.runs[runs_lo .. runs_lo + runs_n) */
    double coherence;
    double band_power;     /* mean product magnitude over [n0, end) */
    double guard_power;    /* reserved for capture-time leak arbitration */
    int32_t crc_ok;
    int32_t outcome;       /* reserved for per-frame outcome accounting */
    int32_t version;       /* header fields, read from bits (all 0 when */
    int32_t frame_type;    /* the bits are shorter than header and CRC) */
    int32_t length;        /* declared data bits */
    int32_t sequence;
    int32_t votes[SESSION_MAX_BITS];
    uint8_t bits[SESSION_MAX_BITS];
};

/* What one push did: frames, outcome counts and stage times. */
struct session_out {
    int64_t frames;        /* descriptors in session.frames */
    int64_t crc_failed;
    int64_t rejects;       /* header rejects */
    int64_t hits;          /* capture outcomes, as struct walk_out */
    int64_t miss_count;
    int64_t miss_coherence;
    int64_t miss_concentration;
    int64_t observed;      /* metered: hit coherences in session.observed */
    int64_t partial;       /* final: a capture ran off the stream */
    int64_t derive_ns;     /* stage wall times */
    int64_t scan_ns;
    int64_t body_ns;
};

/* One channel's stream session.  The fields up to the marker are read
 * by Python; the rest is private to the push. */
struct session {
    int64_t state;         /* WALK_SEARCH, WALK_PENDING or WALK_BODY */
    int64_t origin;        /* the next scan chunk's start */
    int64_t n0;            /* the current capture's preamble index */
    int64_t data_start;
    int64_t total_bits;    /* the current capture's frame bits */
    double coherence;
    struct session_frame *frames;  /* the last push's outputs */
    double *observed;
    int64_t *runs;
    /* -- private -- */
    struct walk_params pp;
    struct walk_out wo;
    int64_t profile_end;   /* one past the last folded position */
    int64_t win_end;       /* one past the last windowed position */
    int64_t folds, span;
    double fill_re, fill_im;
    /* Running totals of the prefixes (floats held exactly). */
    int32_t mask_total, count_total, cohpass_total;
    double coh_total, conc_total_re, conc_total_im;
    struct buf prod, unit, mask, count, coh, conc;
    struct buf count_win, cohcand_win, conc_win, cohpass, hot;
    struct buf frame_out, observed_out, runs_out;
};

/* The session's buffers, in the order session_view numbers them. */
#define SESSION_BUFFERS(s) { &(s)->prod, &(s)->unit, &(s)->mask, \
    &(s)->count, &(s)->coh, &(s)->conc, &(s)->count_win, \
    &(s)->cohcand_win, &(s)->conc_win, &(s)->cohpass, &(s)->hot, \
    &(s)->frame_out, &(s)->observed_out, &(s)->runs_out }
#define SESSION_N_BUFFERS 14

static int64_t session_count;

/* Sessions allocated and not yet freed. */
int64_t session_live(void)
{
    return __atomic_load_n(&session_count, __ATOMIC_RELAXED);
}

void session_free(struct session *s)
{
    if (!s)
        return;
    struct buf *bufs[] = SESSION_BUFFERS(s);
    for (int i = 0; i < SESSION_N_BUFFERS; i++)
        free(bufs[i]->data);
    free(s);
    __atomic_fetch_sub(&session_count, 1, __ATOMIC_RELAXED);
}

/* A session with the walk constants pp, folds-bit preamble folds,
 * real_size-byte working floats, the zero product's unit phasor
 * (fill_re, fill_im); NULL when out of memory, when a frame could
 * outgrow SESSION_MAX_BITS, or when float prefix seams are closer than
 * a window (a window sum crosses at most one seam). */
struct session *session_new(const struct walk_params *pp, int64_t folds,
                            int64_t real_size, double fill_re,
                            double fill_im)
{
    if (FRAME_OVERHEAD_BITS + pp->max_length > SESSION_MAX_BITS
        || (pp->seam > 0 && pp->seam < pp->window))
        return NULL;
    struct session *s = calloc(1, sizeof *s);
    if (!s)
        return NULL;
    __atomic_fetch_add(&session_count, 1, __ATOMIC_RELAXED);
    s->pp = *pp;
    s->folds = folds;
    s->span = (folds - 1) * pp->bit_period;
    s->fill_re = fill_re;
    s->fill_im = fill_im;
    int64_t r = real_size, c = 2 * real_size, i4 = sizeof(int32_t);
    int ok = buf_init(&s->prod, c, 8192) && buf_init(&s->unit, c, 8192)
        && buf_init(&s->mask, i4, 8192) && buf_init(&s->count, i4, 8192)
        && buf_init(&s->coh, r, 8192) && buf_init(&s->conc, c, 8192)
        && buf_init(&s->count_win, i4, 8192)
        && buf_init(&s->cohcand_win, r, 8192)
        && buf_init(&s->conc_win, r, 8192)
        && buf_init(&s->cohpass, i4, 8192)
        && buf_init(&s->hot, sizeof(int64_t), 8192)
        && buf_init(&s->frame_out, sizeof(struct session_frame), 4)
        && buf_init(&s->observed_out, sizeof(double), 64)
        && buf_init(&s->runs_out, sizeof(int64_t), 1024);
    if (!ok) {
        session_free(s);
        return NULL;
    }
    /* Every prefix opens with its zero entry at index 0. */
    struct buf *prefixes[] = {&s->mask, &s->count, &s->coh, &s->conc,
                              &s->cohpass};
    for (int i = 0; i < 5; i++)
        memset(buf_alloc(prefixes[i], 1), 0, (size_t)prefixes[i]->size);
    return s;
}

/* Where buffer `which` (SESSION_BUFFERS order) holds its entries:
 * the data pointer at its oldest entry, that entry's absolute index and
 * the entry count.  For tests, which compare the caches. */
struct session_view {
    void *data;
    int64_t base, len;
};

void session_view(struct session *s, int32_t which, struct session_view *v)
{
    struct buf *bufs[] = SESSION_BUFFERS(s);
    if (which < 0 || which >= SESSION_N_BUFFERS) {
        v->data = NULL;
        v->base = v->len = 0;
        return;
    }
    struct buf *b = bufs[which];
    v->data = b->data + b->start * b->size;
    v->base = b->base;
    v->len = b->len;
}

/* Forget everything below absolute index lo (units: below the profile
 * end; hot: positions below lo). */
static void session_trim(struct session *s, int64_t lo)
{
    buf_trim(&s->prod, lo);
    buf_trim(&s->unit, s->profile_end);
    struct buf *indexed[] = {&s->mask, &s->count, &s->coh, &s->conc,
                             &s->count_win, &s->cohcand_win, &s->conc_win,
                             &s->cohpass};
    for (int i = 0; i < 8; i++)
        buf_trim(indexed[i], lo);
    struct buf *hot = &s->hot;
    if (hot->len) {
        /* The hot buffer's index counts entries, not positions. */
        const int64_t *h = (const int64_t *)hot->data + hot->start;
        int64_t drop = lower_bound(h, 0, hot->len, lo);
        hot->start += drop;
        hot->base += drop;
        hot->len -= drop;
    }
}

/* Parse a frame's bits into f: the header fields, and crc_ok set when
 * the declared data length fits and the ITU-T CRC-16 (reflected
 * 0x1021, initial 0) of the header and data bits, packed MSB first into
 * zero-padded bytes, equals the 16 bits after them.  The one CRC
 * verdict of a stream frame; f is zeroed beforehand. */
static void frame_parse(struct session_frame *f)
{
    const uint8_t *bits = f->bits;
    int64_t n = f->n_bits;
    if (n < FRAME_OVERHEAD_BITS)
        return;
    uint32_t word = 0;
    for (int64_t b = 0; b < FRAME_DATA_START; b++)
        word = word << 1 | bits[b];
    f->version = HEADER_FIELD(word, FRAME_VERSION);
    f->frame_type = HEADER_FIELD(word, FRAME_TYPE);
    f->length = HEADER_FIELD(word, FRAME_LENGTH);
    f->sequence = HEADER_FIELD(word, FRAME_SEQUENCE);
    int64_t end = FRAME_DATA_START + f->length;
    if (n < end + FRAME_CRC_BITS)
        return;
    uint32_t crc = 0;
    for (int64_t lo = 0; lo < end; lo += 8) {
        uint32_t byte = 0;
        for (int64_t k = lo; k < lo + 8; k++)
            byte = byte << 1 | (k < end ? bits[k] : 0);
        crc ^= byte;
        for (int k = 0; k < 8; k++)
            crc = crc & 1 ? (crc >> 1) ^ 0x8408 : crc >> 1;
    }
    uint32_t received = 0;
    for (int64_t b = end; b < end + FRAME_CRC_BITS; b++)
        received = received << 1 | bits[b];
    f->crc_ok = received == (crc & 0xFFFF);
}

static int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
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
#define COPYSIGN copysignf
#define FMA fmaf
#define SFX(name) name##_f32
#include "derive_body.h"
#include "walk_body.h"
#include "frontend_body.h"
#include "session_body.h"
#undef REAL
#undef SQRT
#undef COPYSIGN
#undef FMA
#undef SFX

#define REAL double
#define SQRT sqrt
#define COPYSIGN copysign
#define FMA fma
#define SFX(name) name##_f64
#include "derive_body.h"
#include "walk_body.h"
#include "frontend_body.h"
#include "session_body.h"
#undef REAL
#undef SQRT
#undef COPYSIGN
#undef FMA
#undef SFX
