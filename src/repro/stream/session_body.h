/* One working precision of the stream session's push.
 *
 * Included twice by derive.c after walk_body.h, like it.  A push runs
 * the whole session state machine that repro/stream/session.py
 * describes: derive the new products' caches, then, until blocked,
 * walk (search, header gate, reject rewinds, the stream's tail) and
 * decode bodies (votes, their tau_sync threshold, the frame CRC that
 * decides where the search resumes, band power), then trim.
 *
 * Re-seeding.  The float prefixes (fold magnitude, unit fold phasor)
 * restart from zero at every positive multiple of pp->seam, where the
 * entry closes the previous segment; windows starting on a seam or
 * straddling one are summed across it (seam_sum in derive_body.h).
 * Every entry is still a function of absolute position only, so this
 * is blocking-invariant, while a window sum now loses only the digits
 * of one segment's growth instead of the whole stream's.  Float32
 * sessions use 2^17-product segments (repro/stream/session.py says
 * why); float64 sessions none.  Sessions shorter than one segment
 * compute the bits they always did.
 */

/* A numpy-ordered pairwise sum of the magnitudes sqrt(re*re + im*im)
 * of n complex values: numpy's float sum of a contiguous array, with
 * its 8-way unrolled blocks of up to 128 and its halving split, so the
 * band power is the float np.mean gave the Python session. */
static REAL SFX(magnitude)(const REAL *z, int64_t i)
{
    REAL re = z[2 * i], im = z[2 * i + 1];
    return SQRT(re * re + im * im);
}

static REAL SFX(pairwise_magnitude)(const REAL *z, int64_t n)
{
    if (n < 8) {
        REAL res = 0;
        for (int64_t i = 0; i < n; i++)
            res += SFX(magnitude)(z, i);
        return res;
    }
    if (n <= 128) {
        REAL r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = SFX(magnitude)(z, j);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += SFX(magnitude)(z, i + j);
        REAL res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += SFX(magnitude)(z, i);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return SFX(pairwise_magnitude)(z, n2)
           + SFX(pairwise_magnitude)(z + 2 * n2, n - n2);
}

/* Append n products and derive every cache they complete (derive()). */
static int SFX(session_derive)(struct session *s, const REAL *prod,
                               int64_t n)
{
    int64_t lo = s->profile_end;
    int64_t hi = buf_end(&s->unit) + n - s->span;
    int64_t m = hi > lo ? hi - lo : 0;
    /* Room first: an append may move a buffer. */
    REAL *copy = buf_alloc(&s->prod, n);
    if (!copy || !buf_alloc(&s->unit, n) || !buf_alloc(&s->mask, n)
        || !buf_alloc(&s->count, m) || !buf_alloc(&s->coh, m)
        || !buf_alloc(&s->conc, m))
        return -1;
    memcpy(copy, prod, (size_t)n * 2 * sizeof(REAL));
    int32_t *mask = buf_at(&s->mask, buf_end(&s->mask) - n);
    int32_t *count = buf_at(&s->count, buf_end(&s->count) - m);
    REAL *coh = buf_at(&s->coh, buf_end(&s->coh) - m);
    REAL *conc = buf_at(&s->conc, buf_end(&s->conc) - m);
    SFX(derive)(copy, n, (REAL)s->fill_re, (REAL)s->fill_im,
                buf_at(&s->unit, buf_end(&s->unit) - n), mask,
                s->mask_total, buf_at(&s->unit, lo), m,
                s->pp.bit_period, s->folds, count, s->count_total,
                coh, (REAL)s->coh_total, conc, (REAL)s->conc_total_re,
                (REAL)s->conc_total_im, lo, s->pp.seam);
    s->mask_total = mask[n - 1];
    if (m) {
        s->profile_end = hi;
        s->count_total = count[m - 1];
        s->coh_total = coh[m - 1];
        s->conc_total_re = conc[2 * m - 2];
        s->conc_total_im = conc[2 * m - 1];
    }
    return 0;
}

/* One walk() call from the session's state over `chunks` full chunks
 * (and, if final, the stream's tail).  Returns 1 when a body is ready
 * to decode, 0 when the walk is blocked, -1 when out of memory and -2
 * when the scan would read outside the caches. */
static int SFX(session_scan)(struct session *s, int64_t chunks, int32_t final,
                             int32_t metered, struct session_out *out)
{
    const struct walk_params *pp = &s->pp;
    int64_t w = pp->window, s_len = pp->stride;
    int64_t buf_end_ = buf_end(&s->prod);
    int64_t origin = s->origin;
    int64_t pending = s->state == WALK_PENDING ? s->n0 : -1;
    int64_t lo = s->win_end, base = s->count.base;
    if (lo < base) {
        /* Trimmed past the windowed high-water mark while a capture was
         * decoding: positions below the trim floor can never be scanned
         * again, so the (emptied) windowed caches rejoin there, and the
         * coherence-pass prefix re-seeds with its running total. */
        struct buf *wins[] = {&s->count_win, &s->cohcand_win, &s->conc_win};
        for (int i = 0; i < 3; i++)
            wins[i]->base = base;
        s->cohpass.base = base;
        int32_t *seed = buf_alloc(&s->cohpass, 1);
        if (!seed)
            return -1;
        *seed = s->cohpass_total;
        s->win_end = lo = base;
    }
    int64_t hi = s->profile_end - w + 1;
    hi = hi > lo ? hi : lo;
    int64_t n = hi - lo;
    /* Every chunk's windows, and every header a reject chain may reach,
     * must be cached. */
    int64_t buffered = hi + s->span + w - 1;
    if (buffered > buf_end(&s->mask) - 1)
        buffered = buf_end(&s->mask) - 1;
    if ((chunks || final || pending >= 0)
        && !(s->count_win.base <= (pending < 0 ? origin : pending)
             && (!chunks || origin + chunks * s_len < hi)
             && buf_end_ <= buffered))
        return -2;
    double *observed = NULL;
    int64_t cap = 0;
    if (metered) {
        /* Every hit moves the walk on by at least a bit period. */
        int64_t reach = chunks * s_len;
        reach = reach > buf_end_ - origin ? reach : buf_end_ - origin;
        cap = reach / pp->bit_period + 2;
        observed = buf_alloc(&s->observed_out, cap);
    }
    struct buf *hot = &s->hot;
    int64_t n_hot = hot->len;
    if ((metered && !observed) || !buf_alloc(&s->count_win, n)
        || !buf_alloc(&s->cohcand_win, n) || !buf_alloc(&s->conc_win, n)
        || !buf_alloc(&s->cohpass, n) || !buf_alloc(hot, n))
        return -1;
    struct walk_out *wo = &s->wo;
    SFX(walk)(pp, wo, (int32_t *)s->count.data, buf_off(&s->count),
              (REAL *)s->coh.data, buf_off(&s->coh),
              (REAL *)s->conc.data, buf_off(&s->conc),
              (int32_t *)s->count_win.data, buf_off(&s->count_win),
              (REAL *)s->cohcand_win.data, buf_off(&s->cohcand_win),
              (REAL *)s->conc_win.data, buf_off(&s->conc_win),
              (int32_t *)s->cohpass.data, buf_off(&s->cohpass),
              (int64_t *)hot->data, hot->start, hot->start + n_hot,
              (int32_t *)s->mask.data, buf_off(&s->mask), lo, hi, origin,
              chunks, buf_end_, pending, final, observed, cap);
    hot->len -= n - wo->n_hot;
    if (metered)
        s->observed_out.len -= cap - wo->observed;
    if (n) {
        s->cohpass_total = *(int32_t *)buf_at(&s->cohpass, hi);
        s->win_end = hi;
    }
    s->origin = wo->origin;
    if (wo->n0 >= 0) {
        s->n0 = wo->n0;
        s->data_start = wo->n0 + pp->lead;
        s->coherence = wo->coherence;
    }
    s->state = wo->state;
    if (s->state == WALK_BODY)
        s->total_bits = FRAME_OVERHEAD_BITS + wo->length;
    out->rejects += wo->rejects;
    out->hits += wo->hits;
    out->miss_count += wo->miss_count;
    out->miss_coherence += wo->miss_coherence;
    out->miss_concentration += wo->miss_concentration;
    out->observed += wo->observed;
    return s->state == WALK_BODY;
}

/* Bin the same-sign run lengths of n products' phase flags (imag >= 0)
 * into b.  Per tile, the positions where the flag flips are written
 * branch-free, then each run ending there is binned; the runs cover
 * the n products, so their total is n. */
static void SFX(bin_runs)(const REAL *z, int64_t n,
                          const struct hist_layout *h, struct hist_bins *b)
{
    if (n <= 0)
        return;
    int32_t flips[TILE];
    int64_t start = 0;  /* where the open run began */
    int prev = z[1] >= 0;
    for (int64_t lo = 1; lo < n; lo += TILE) {
        int64_t hi = lo + TILE < n ? lo + TILE : n, k = 0;
        for (int64_t i = lo; i < hi; i++) {
            int flag = z[2 * i + 1] >= 0;
            flips[k] = (int32_t)(i - lo);
            k += flag != prev;
            prev = flag;
        }
        for (int64_t j = 0; j < k; j++) {
            int64_t at = lo + flips[j];
            b->counts[hist_bucket(h, at - start)]++;
            start = at;
        }
        b->count += k;
    }
    b->counts[hist_bucket(h, n - start)]++;
    b->count++;
    b->total += n;
}

/* Decode the body of the current capture if its last vote window is
 * buffered: 1 with a frame emitted and the search resumed (past the
 * frame on a valid CRC, one bit past the preamble otherwise), 0 when
 * blocked, -1 when out of memory.  Metered, it also bins the frame's
 * diagnostics into out. */
static int SFX(session_body)(struct session *s, int32_t metered,
                             struct session_out *out)
{
    const struct walk_params *pp = &s->pp;
    int64_t bp = pp->bit_period, w = pp->window, nb = s->total_bits;
    int64_t ds = s->data_start, end = ds + (nb - 1) * bp + w;
    int64_t buffered = buf_end(&s->prod);
    if (buffered < end)
        return 0;
    struct session_frame *f = buf_alloc(&s->frame_out, 1);
    if (!f)
        return -1;
    memset(f, 0, sizeof *f);
    /* Bit b's votes: the (wrapping, as numpy's int32) vote-prefix
     * difference across its window. */
    const int32_t *mask = buf_at(&s->mask, ds);
    int32_t votes[SESSION_MAX_BITS];
    for (int64_t b = 0; b < nb; b++) {
        const int32_t *at = mask + b * bp;
        votes[b] = (int32_t)((uint32_t)at[w] - (uint32_t)at[0]);
        f->bits[b] = votes[b] >= pp->tau_sync;
    }
    f->n_bits = nb;
    frame_parse(f);
    /* np.mean: the float sum, divided in double by the int64 count and
     * rounded back to the working float. */
    REAL sum = SFX(pairwise_magnitude)(buf_at(&s->prod, s->n0), end - s->n0);
    f->band_power = (REAL)((double)sum / (double)(end - s->n0));
    f->n0 = s->n0;
    f->data_start = ds;
    f->end = end;
    f->latency = buffered - end;
    f->coherence = s->coherence;
    if (metered) {
        /* The bit diagnostics: each bit's vote margin, the data
         * segment's phase runs; and the frame's latency. */
        for (int64_t b = 0; b < nb; b++)
            hist_add(&out->margins, &s->meter[METER_MARGINS],
                     llabs((int64_t)votes[b] - pp->tau_sync));
        SFX(bin_runs)(buf_at(&s->prod, ds), end - ds,
                      &s->meter[METER_RUNS], &out->runs);
        hist_add(&out->latency, &s->meter[METER_LATENCY], f->latency);
    }
    out->frames++;
    out->crc_failed += !f->crc_ok;
    s->state = WALK_SEARCH;
    /* A failed CRC means the capture was bogus (a neighbour's leaked
     * preamble, a collision): resume one bit past it, so a real frame
     * shadowed inside its claimed span is still found. */
    s->origin = f->crc_ok ? ds + nb * bp : s->n0 + bp;
    return 1;
}

/* Push n products (n may be 0; final flushes the end of the stream):
 * derive, then walk and decode until blocked, then trim.  Returns the
 * frames emitted (descriptors in s->frames), or -1 when out of memory
 * and -2 when a scan would read outside the caches.  With metered set
 * the walk also splits skipped chunks by gate and writes the hit
 * coherences to s->observed, and each body bins its vote margins,
 * phase runs and latency into out; no decision depends on it. */
int64_t SFX(session_push)(struct session *s, const REAL *prod, int64_t n,
                          int32_t final, int32_t metered,
                          struct session_out *out)
{
    memset(out, 0, metered ? sizeof *out : offsetof(struct session_out, runs));
    buf_clear(&s->frame_out);
    buf_clear(&s->observed_out);
    int64_t rc = 0, t0 = now_ns();
    if (n > 0 && SFX(session_derive)(s, prod, n) < 0)
        rc = -1;
    int64_t t = now_ns();
    out->derive_ns = t - t0;
    const struct walk_params *pp = &s->pp;
    while (!rc) {
        int64_t r;
        if (s->state == WALK_BODY) {
            r = SFX(session_body)(s, metered, out);
            int64_t done = now_ns();
            out->body_ns += done - t;
            t = done;
        } else {
            int64_t avail = buf_end(&s->prod) - s->origin;
            int64_t full = avail - pp->scan_len + pp->stride;
            int64_t chunks = full > 0 ? full / pp->stride : 0;
            int tail = final && avail >= pp->scan_len - pp->stride;
            if (!(chunks || tail || s->state == WALK_PENDING))
                break;
            r = SFX(session_scan)(s, chunks, final, metered, out);
            int64_t done = now_ns();
            out->scan_ns += done - t;
            t = done;
        }
        if (r <= 0) {
            rc = r;
            break;
        }
    }
    int64_t keep = s->state == WALK_SEARCH ? s->origin : s->n0;
    if (final && !rc) {
        out->partial = s->state != WALK_SEARCH;
        s->state = WALK_SEARCH;
        s->origin = keep = buf_end(&s->prod);
    }
    session_trim(s, keep);
    s->frames = (struct session_frame *)s->frame_out.data;
    s->observed = (double *)s->observed_out.data;
    return rc ? rc : out->frames;
}
