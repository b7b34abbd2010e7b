"""The stream receiver's native kernels, compiled once and cached.

:mod:`repro.stream.frontend` runs the receiver's front end (channelizer
FIR, lagged products, product rotation for every channel) and
:mod:`repro.stream.session` runs each session push (derive the caches,
walk the hot index with its header gate, decode bodies, trim) through
the C kernels in ``derive.c``, built with the local ``gcc`` through
cffi's out-of-line API mode: ``frontend_f32``/``frontend_f64`` once per
block, ``session_push_f32``/``session_push_f64`` once per push (which
call ``derive_*`` and ``walk_*``, exported too, so tests can hold each
kernel to its oracle).  There is no other path: on a host without gcc
or cffi, importing this module raises :class:`ImportError` saying so.

The build is cached in ``_native/`` next to this module (gitignored),
keyed by a hash of the C sources, the cdef, the frame layout, the
compiler flags and the Python ABI, so an edit to any of them builds
afresh and a warm import only loads the compiled extension -- no cdef
parse, no compiler.
Concurrent first imports (a ``serve`` child and its client, say) may
both compile; each publishes its result by atomic rename, so a loader
never sees a partial file.

The flags keep the derive and walk kernels bit-identical to numpy's
arithmetic: ``-ffp-contract=off`` forbids fused multiply-adds,
``-fno-math-errno`` lets ``sqrt`` compile to the correctly rounded
instruction, ``-fno-trapping-math`` lets loops with selects vectorise
(the kernels never read floating-point exception flags, and it licenses
no value-changing rewrite), and ``-ffast-math`` is never used (see
``derive.c`` for the contract).  The front end fuses only where it says
so, with explicit ``fmaf``/``fma`` calls, which are correctly rounded
with or without FMA hardware; its AVX2+FMA build is chosen at run time
by the CPU alone, and both builds compute the same bits
(``frontend_body.h``).
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import _cffi_backend

from repro.core import frame

HERE = Path(__file__).resolve().parent
#: C sources, hashed into the build key.
SOURCES = (
    "derive.c",
    "derive_body.h",
    "walk_body.h",
    "frontend_body.h",
    "session_body.h",
)
#: Where compiled kernels are cached.
BUILD_DIR = HERE / "_native"
CFLAGS = (
    "-O3",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-fno-trapping-math",
    "-fPIC",
    "-shared",
)

_PRECISIONS = (("float", "f32"), ("double", "f64"))
_STRUCTS = """
struct walk_params {
    int64_t window; int32_t floor;
    double inv_fw, inv_w, coh_pass, coh_min, conc_min;
    int64_t stride, bit_period, lead, header_span, scan_len;
    double slack, coherence_min, conc_floor;
    int32_t tau_sync, version, max_type, ack_type, transport_base,
            max_length;
    int64_t seam;
};
struct walk_out {
    int64_t n_hot, state, origin, n0;
    double coherence;
    int64_t length, rejects, hits, miss_count, miss_coherence,
            miss_concentration, observed;
};
struct session_frame {
    int64_t n0, data_start, end, n_bits, latency;
    double coherence, band_power;
    int32_t crc_ok, version, frame_type, length, sequence;
    uint8_t bits[128];
};
struct hist_edges {
    double edges[15];
    int64_t n;
};
struct hist_bins {
    int64_t counts[16];
    int64_t count, total;
};
struct session_out {
    int64_t frames, crc_failed, rejects, hits, miss_count, miss_coherence,
            miss_concentration, observed, partial, derive_ns, scan_ns,
            body_ns;
    struct hist_bins runs, margins, latency;
};
struct session {
    int64_t state, origin, n0, data_start, total_bits;
    double coherence;
    struct session_frame *frames;
    double *observed;
    ...;
};
struct session_view {
    void *data;
    int64_t base, len;
};
struct session *session_new(const struct walk_params *pp, int64_t folds,
                            int64_t real_size, double fill_re,
                            double fill_im, const struct hist_edges *meter);
void session_free(struct session *s);
int64_t session_live(void);
void session_view(struct session *s, int32_t which, struct session_view *v);
"""
_DECLS = """
void derive_{s}({t} *prod, int64_t n, {t} fill_re, {t} fill_im,
                {t} *unit, int32_t *mask, int32_t mask_seed,
                {t} *u, int64_t m, int64_t bp, int64_t folds,
                int32_t *count, int32_t count_seed,
                {t} *coh, {t} coh_seed,
                {t} *conc, {t} conc_seed_re, {t} conc_seed_im,
                int64_t pos0, int64_t seam);
void walk_{s}(struct walk_params *pp, struct walk_out *out,
              int32_t *cn, int64_t cn_off, {t} *cm, int64_t cm_off,
              {t} *cu, int64_t cu_off, int32_t *cw, int64_t cw_off,
              {t} *ch, int64_t ch_off, {t} *cc, int64_t cc_off,
              int32_t *cp, int64_t cp_off,
              int64_t *hot, int64_t hot_lo, int64_t hot_end,
              int32_t *mask, int64_t mask_off, int64_t lo, int64_t hi,
              int64_t origin, int64_t chunks, int64_t buf_end,
              int64_t pending, int32_t final,
              double *observed, int64_t observe_cap);
int64_t session_push_{s}(struct session *s, const {t} *prod, int64_t n,
                         int32_t final, int32_t metered,
                         struct session_out *out);
int64_t frontend_{s}({t} *carry, int64_t nc, void *x, int64_t nx,
                     int32_t x_f64, int32_t final, int64_t ntaps, int64_t d,
                     int64_t channels, {t} *weights, {t} *rotation,
                     {t} *ycarry, int64_t have, int64_t lag,
                     {t} *products, int64_t cap);
"""
CDEF = _STRUCTS + "".join(_DECLS.format(t=t, s=s) for t, s in _PRECISIONS)
#: The SymBee frame layout (:mod:`repro.core.frame`) as the ``FRAME_*``
#: macros ``derive.c`` reads, emitted ahead of it in the generated source.
LAYOUT = "".join(
    f"#define FRAME_{name}_LO {field.start}\n"
    f"#define FRAME_{name}_BITS {field.stop - field.start}\n"
    for name, field in (("VERSION", frame.VERSION_FIELD),
                        ("TYPE", frame.TYPE_FIELD),
                        ("LENGTH", frame.LENGTH_FIELD),
                        ("SEQUENCE", frame.SEQUENCE_FIELD))
) + (f"#define FRAME_DATA_START {frame.DATA_START}\n"
     f"#define FRAME_CRC_BITS {frame.OUTER_CRC_BITS}\n")


def build_key():
    """Hash of everything the compiled kernel depends on."""
    digest = hashlib.sha256()
    for name in SOURCES:
        digest.update((HERE / name).read_bytes())
    for part in (
        CDEF,
        LAYOUT,
        " ".join(CFLAGS),
        sys.implementation.cache_tag,
        sysconfig.get_config_var("EXT_SUFFIX"),
        _cffi_backend.__version__,
    ):
        digest.update(b"\0" + str(part).encode())
    return digest.hexdigest()[:16]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(name, target):
    """Compile the kernel module ``name`` and publish it at ``target``."""
    try:
        import cffi
        from cffi.recompiler import make_c_source
    except ImportError as exc:
        raise ImportError(
            "repro.stream needs cffi to build its native stream kernels "
            "(pip install cffi)"
        ) from exc
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        c_file = os.path.join(tmp, name + ".c")
        make_c_source(ffi, name, LAYOUT + '#include "derive.c"', c_file)
        built = os.path.join(tmp, target.name)
        command = [
            "gcc", *CFLAGS,
            "-I", str(HERE),
            "-I", sysconfig.get_paths()["include"],
            c_file, "-o", built,
        ]
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise ImportError(
                "repro.stream needs gcc to build its native stream kernels "
                "(no gcc on PATH)"
            ) from exc
        if proc.returncode != 0:
            raise ImportError(
                "gcc failed to build the native stream kernels:\n"
                + proc.stderr
            )
        os.replace(built, target)


def load():
    """The compiled kernel module (``.ffi``, ``.lib``), built if needed."""
    name = f"_derive_{build_key()}"
    target = BUILD_DIR / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        try:
            return _load(name, target)
        except ImportError:
            pass  # unloadable cache entry: rebuild over it
    _build(name, target)
    return _load(name, target)


_module = load()
ffi = _module.ffi
lib = _module.lib
