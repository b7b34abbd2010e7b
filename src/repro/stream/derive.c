/* The stream scanner's derived caches in one native pass.
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
 * Never build this with -ffast-math: it licenses every reordering the
 * contract forbids.  See repro/stream/native.py for the build.
 */

#include <math.h>
#include <stdint.h>

/* Positions per tile: the vectorised per-position loops run over a
 * tile held in cache before the sequential prefix loop consumes it. */
#define TILE 1024

#define REAL float
#define SQRT sqrtf
#define SFX(name) name##_f32
#include "derive_body.h"
#undef REAL
#undef SQRT
#undef SFX

#define REAL double
#define SQRT sqrt
#define SFX(name) name##_f64
#include "derive_body.h"
#undef REAL
#undef SQRT
#undef SFX
