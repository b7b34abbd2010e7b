/* One working precision of the walk kernel.
 *
 * Included twice by derive.c after derive_body.h, like it.  Every cache
 * arrives as (pointer, offset): absolute stream position p lives at
 * pointer[p + offset] (complex caches at 2 * (p + offset)), so a trimmed
 * or compacted buffer needs only a new offset, never a new pointer.
 */

#define AT(name, p) name[(p) + name##_off]

/* Outcome metric of the chunk of window starts [q, e] when it holds no
 * hot position, split as the dense cascade splits it: no window start
 * reaches the count floor (count miss), the fused gate passes
 * (concentration miss: nothing hot is left to clear it), or neither
 * (coherence miss).  In the same arithmetic as the Python walk's bulk
 * split, so crafted caches that pass the fused gate below the floor
 * count alike. */
static void SFX(skipped)(const struct walk_params *pp,
                         const int32_t *cw, int64_t cw_off,
                         const int32_t *cp, int64_t cp_off,
                         int64_t q, int64_t e, struct walk_out *out)
{
    int32_t top = AT(cw, q);
    for (int64_t p = q + 1; p <= e; p++)
        top = AT(cw, p) > top ? AT(cw, p) : top;
    int64_t counted = top >= pp->floor;
    int64_t passed = AT(cp, e + 1) > AT(cp, q);
    out->miss_count += 1 - counted;
    out->miss_coherence += counted - passed;
    out->miss_concentration += passed;
}

/* The chunk of window starts [q, e], holding hot entry i: the fused
 * count+coherence gate, then the relative coherence threshold, the best
 * concentration, the first survivor cluster and its count peak, over
 * hot entries i, i+1, ... inside [q, e].  Returns 1 with *n0 /
 * *coherence for a hit (late hits included), 0 for a miss; counts
 * either. */
static int SFX(gate)(const struct walk_params *pp,
                     const int32_t *cw, int64_t cw_off,
                     const REAL *ch, int64_t ch_off,
                     const REAL *cc, int64_t cc_off,
                     const int32_t *cp, int64_t cp_off,
                     const int64_t *hot, int64_t i, int64_t hot_end,
                     int64_t q, int64_t e, int64_t *n0, double *coherence,
                     struct walk_out *out, double *observed,
                     int64_t observe_cap)
{
    if (AT(cp, e + 1) == AT(cp, q)) {
        /* A hot position clears the count floor, so a chunk holding
         * one can only miss the fused gate on coherence. */
        out->miss_coherence++;
        return 0;
    }
    /* numpy's max over [q, e]: any NaN makes it NaN. */
    REAL best = AT(ch, q);
    for (int64_t p = q + 1; p <= e; p++) {
        REAL v = AT(ch, p);
        if (v > best || v != v)
            best = v;
    }
    /* float(ftype(max(best - slack, coherence_min))): a Python max keeps
     * its first argument unless the second is greater. */
    double x = (double)best - pp->slack, c = pp->coherence_min;
    REAL thr = (REAL)(c > x ? c : x);
    int64_t end = i, last = -1;
    REAL top = 0;
    for (; end < hot_end && hot[end] <= e; end++) {
        int64_t p = hot[end];
        if (AT(ch, p) >= thr) {
            if (last < 0 || AT(cc, p) > top)
                top = AT(cc, p);
            last = end;
        }
    }
    if (last < 0) {
        out->miss_concentration++;
        return 0;
    }
    x = (double)top - pp->slack;
    c = pp->conc_floor;
    REAL cthr = (REAL)(c > x ? c : x);
    /* The first kept entry clearing cthr opens the first cluster (the
     * last kept entry stands in if none does); it runs on while kept
     * entries stay consecutive and clear cthr, anchored at its first
     * count peak. */
    int64_t peak = -1, j;
    for (j = i; j < end; j++) {
        int64_t p = hot[j];
        if (AT(ch, p) >= thr && AT(cc, p) >= cthr) {
            peak = j;
            break;
        }
    }
    if (peak < 0) {
        peak = last;
    } else {
        for (int64_t nxt = peak + 1; nxt < end; nxt++) {
            int64_t p = hot[nxt];
            if (!(AT(ch, p) >= thr))
                continue;
            if (p != hot[j] + 1 || AT(cc, p) < cthr)
                break;
            j = nxt;
            if (AT(cw, p) > AT(cw, hot[peak]))
                peak = j;
        }
    }
    *n0 = hot[peak];
    *coherence = (double)AT(ch, hot[peak]);
    out->hits++;
    if (observed && out->observed < observe_cap)
        observed[out->observed++] = *coherence;
    return 1;
}

/* One scan: extend the windowed caches over window starts [lo, hi),
 * appending their hot starts to hot (entries hot_lo .. hot_end - 1 are
 * the index so far; the buffer holds room for hi - lo more), then walk
 * hot position by hot position, gating each chunk holding one and the
 * header of each accepted hit, rewinding to n0 + bit_period on a header
 * reject.
 *
 * The walk first gates the header of the hit pending (accepted by an
 * earlier call before its header was buffered; -1 for none), then the
 * chunks [origin, origin + chunks * stride), and after a reject every
 * full chunk buffered from the new origin.  At the end of the stream
 * (final) the rest after the last full chunk is gated as one shorter
 * chunk, window starts up to buf_end - span - window, accepting a hit
 * anywhere in it; after a header reject, the shorter rest again.
 *
 * The walk is the dense cascade's decisions chunk for chunk (the
 * argument is in repro/stream/session.py); buf_end is one past the
 * newest buffered product.  observed (room for observe_cap values) is
 * NULL unless the registry is on: then skipped chunks are split by the
 * gate they miss and every hit's coherence is written in hit order. */
void SFX(walk)(const struct walk_params *pp, struct walk_out *out,
               const int32_t *cn, int64_t cn_off,
               const REAL *cm, int64_t cm_off,
               const REAL *cu, int64_t cu_off,
               int32_t *cw, int64_t cw_off,
               REAL *ch, int64_t ch_off,
               REAL *cc, int64_t cc_off,
               int32_t *cp, int64_t cp_off,
               int64_t *hot, int64_t hot_lo, int64_t hot_end,
               const int32_t *mask, int64_t mask_off,
               int64_t lo, int64_t hi,
               int64_t origin, int64_t chunks, int64_t buf_end,
               int64_t pending, int32_t final,
               double *observed, int64_t observe_cap)
{
    out->n_hot = 0;
    out->state = WALK_SEARCH;
    out->n0 = -1;
    out->coherence = 0;
    out->length = 0;
    out->rejects = out->hits = 0;
    out->miss_count = out->miss_coherence = out->miss_concentration = 0;
    out->observed = 0;
    if (hi > lo) {
        out->n_hot = SFX(windowed)(
            cn + (cn_off + lo), cm + (cm_off + lo), cu + 2 * (cu_off + lo),
            hi - lo, lo, pp, cw + (cw_off + lo), ch + (ch_off + lo),
            cc + (cc_off + lo), cp + (cp_off + lo + 1), AT(cp, lo),
            hot + hot_end);
        hot_end += out->n_hot;
    }

    int64_t s = pp->stride;
    int64_t o = origin, stop = o + chunks * s, n0 = pending;
    int64_t i = lower_bound(hot, hot_lo, hot_end, o);
    for (;;) {
        if (n0 < 0) {
            /* The first chunk holding hot[i]: k = max(0, ceil((h - o - s)
             * / s)), which is (h - o - 1) // s clamped at 0. */
            int64_t q = stop;
            if (i < hot_end) {
                int64_t k = (hot[i] - o - 1) / s;
                k = k > 0 ? k : 0;
                if (o + s * k < stop)
                    q = o + s * k;
            }
            if (observed)
                for (int64_t c = o; c < q; c += s)
                    SFX(skipped)(pp, cw, cw_off, cp, cp_off, c, c + s, out);
            int64_t e = q + s;  /* chunk q's last window start */
            int tail = q == stop;
            if (tail) {
                /* What is left after the last full chunk: gated at the
                 * end of the stream, if it holds a window start. */
                origin = stop;
                e = buf_end - pp->scan_len + s;
                if (!final || e < q)
                    break;
                if (i == hot_end || hot[i] > e) {
                    if (observed)
                        SFX(skipped)(pp, cw, cw_off, cp, cp_off, q, e, out);
                    break;
                }
            }
            double coherence = 0;
            int hit = SFX(gate)(pp, cw, cw_off, ch, ch_off, cc, cc_off, cp,
                                cp_off, hot, i, hot_end, q, e, &n0,
                                &coherence, out, observed, observe_cap);
            if (tail && !hit)
                break;
            if (!tail && (!hit || n0 >= e)) {
                /* A miss, or a late hit the next chunk finds again. */
                n0 = -1;
                o = e;
                i = lower_bound(hot, i, hot_end, o);
                continue;
            }
            origin = q;
            out->n0 = n0;
            out->coherence = coherence;
        }
        int64_t data_start = n0 + pp->lead;
        if (buf_end < data_start + pp->header_span) {
            out->state = WALK_PENDING;
            break;
        }
        int64_t length = header_length(pp, mask + (mask_off + data_start));
        if (length >= 0) {
            out->length = length;
            out->state = WALK_BODY;
            break;
        }
        out->rejects++;
        o = origin = n0 + pp->bit_period;
        n0 = -1;
        int64_t avail = buf_end - o;
        stop = o;
        if (avail >= pp->scan_len)
            stop += (1 + (avail - pp->scan_len) / s) * s;
        i = lower_bound(hot, i, hot_end, o);
    }
    out->origin = origin;
}

#undef AT
