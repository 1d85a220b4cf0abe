//! The kernel plane: tuned numeric primitives under the Mat data plane.
//!
//! Every hot loop in the workspace — spectrogram frames, MFCC
//! extraction, the acoustic-model GEMMs, CTC trellis rows, SVM kernel
//! evaluations — routes through this module. Each vectorized kernel
//! keeps its original scalar implementation alive as a *correctness
//! oracle*: `force_scalar(true)` re-routes every entry point back onto
//! the oracle so benches can time (and parity tests can pin) vectorized
//! against scalar on identical inputs.
//!
//! # Parity policy, per kernel
//!
//! | kernel                         | guarantee vs scalar oracle           |
//! |--------------------------------|--------------------------------------|
//! | [`axpy`]                       | bit-exact (independent lanes)        |
//! | [`MelFilterbank::apply_into`]  | bit-exact (skipped terms are `+0.0`) |
//! | [`DctPlan`]                    | bit-exact (same order, cached `cos`) |
//! | [`dot`], [`gemv`], [`gemm_nt`] | 4-way reassociation; small relative  |
//! |                                | error `O(n·ε)`, tested ≤ 1e-12 rel   |
//! | [`sq_dist`], [`sq_zscore_sum`] | 4-way reassociation, as above        |
//! | [`dot_i8`], [`gemm_nt_i8`]     | bit-exact (i32 integer accumulation  |
//! |                                | is associative; lanes reorder freely,|
//! |                                | runtime ISA dispatch is invisible —  |
//! |                                | including the width heuristic that   |
//! |                                | keeps AVX-512 off short rows)        |
//! | [`quantize_i8`]                | bit-exact (saturating float→int cast |
//! |                                | equals the oracle's checked clamp on |
//! |                                | every input, `NaN → 0` included)     |
//! | [`RfftPlan`]                   | different algorithm (planned radix-4 |
//! |                                | half-size FFT); error `O(n·ε)`.      |
//! |                                | `forward_power` is bit-exact against |
//! |                                | `forward` then `norm_sq` (same       |
//! |                                | unpack, only the store differs)      |
//!
//! `gemm_nt` tiles over rows and columns only — it never splits the
//! inner `k` dimension — so `gemm_nt`, `gemv` and `dot` agree *bitwise*
//! with each other on the same operands. Batch and per-row call sites
//! (e.g. `AcousticModel::logit_matrix_into` vs `logits_into`) therefore
//! stay bit-identical, which several persistence tests rely on.
//!
//! [`MelFilterbank::apply_into`]: crate::mel::MelFilterbank::apply_into
//!
//! # Threads
//!
//! [`par_rows`] spreads independent row work over scoped threads. The
//! worker count is `set_threads` (the serve engine partitions cores
//! between its ASR workers) → the `MVP_EARS_KERNEL_THREADS` env var →
//! `std::thread::available_parallelism()`. Row outputs are independent,
//! so results are bit-identical at any thread count; on a single core
//! the serial path runs with zero extra allocation.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::complex::Complex;
use crate::fft;

// ---------------------------------------------------------------------------
// Mode knobs
// ---------------------------------------------------------------------------

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Routes every kernel entry point onto its scalar oracle (`true`) or
/// back to the vectorized path (`false`). Process-global: meant for
/// single-threaded bench binaries timing scalar vs vectorized on the
/// same inputs, never for use inside the parallel test harness.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Whether [`force_scalar`] has routed kernels onto the scalar oracle.
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the [`par_rows`] worker count; `0` restores the automatic
/// choice (`MVP_EARS_KERNEL_THREADS`, else available parallelism). The
/// serve engine calls this so each ASR worker gets an equal share of
/// the machine instead of oversubscribing it.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`par_rows`] will use for large row sets.
pub fn threads() -> usize {
    let n = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("MVP_EARS_KERNEL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    })
}

// ---------------------------------------------------------------------------
// Scalar oracles
// ---------------------------------------------------------------------------

/// The scalar reference implementations the vectorized kernels are
/// pinned against. Kept tiny and obviously correct; parity tests and
/// `force_scalar` benches are the only intended callers outside this
/// module.
pub mod scalar {
    /// Serial left-to-right dot product.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Serial squared Euclidean distance.
    pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// Serial sum of squared z-scores.
    pub fn sq_zscore_sum(x: &[f64], mean: &[f64], inv_std: &[f64]) -> f64 {
        x.iter()
            .zip(mean)
            .zip(inv_std)
            .map(|((&v, &m), &is)| {
                let z = (v - m) * is;
                z * z
            })
            .sum()
    }

    /// Serial `y += a * x`.
    pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// Serial i8 dot product with i32 accumulation. Exact: each product
    /// fits in 15 bits, so `k` up to `2^16` rows cannot overflow i32.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
    }

    /// Serial symmetric i8 quantization — `out[i] = saturate(xs[i] /
    /// scale)` with round-to-nearest (half away from zero), clamp to
    /// `±127` and `NaN → 0`; the oracle for
    /// [`quantize_i8`](super::quantize_i8). The branchy checked form
    /// here *defines* the saturate semantics the vectorized body must
    /// reproduce bit-for-bit.
    pub fn quantize_i8(xs: &[f64], scale: f64, out: &mut [i8]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            let q = x / scale;
            *o = if q.is_nan() {
                0
            } else {
                // The i64 intermediate is exact for the clamped range;
                // `try_from` keeps the no-wrap guarantee checked.
                // mvp-lint: allow(panic-path) -- the clamp to [-127, 127] makes the conversion infallible
                i8::try_from(q.round().clamp(-127.0, 127.0) as i64).expect("clamped to i8 range")
            };
        }
    }

    /// Serial i8 `C = A·Bᵀ` with i32 accumulation; the oracle for
    /// [`gemm_nt_i8`](super::gemm_nt_i8).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch between `a`, `b`, `k` and `out`.
    pub fn gemm_nt_i8(a: &[i8], m: usize, b: &[i8], n: usize, k: usize, out: &mut [i32]) {
        assert_eq!(a.len(), m * k, "gemm_nt_i8: A shape mismatch");
        assert_eq!(b.len(), n * k, "gemm_nt_i8: B shape mismatch");
        assert_eq!(out.len(), m * n, "gemm_nt_i8: output shape mismatch");
        if k == 0 {
            out.fill(0);
            return;
        }
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                out[i * n + j] = dot_i8(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane primitives
// ---------------------------------------------------------------------------

/// Dot product over four independent accumulator lanes.
///
/// Reassociates the sum (four partial sums plus a tail), so the result
/// can differ from [`scalar::dot`] by `O(n·ε)` relative error.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    if scalar_forced() {
        return scalar::dot(a, b);
    }
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(4);
    let mut cb = b[..n].chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        s0 += pa[0] * pb[0];
        s1 += pa[1] * pb[1];
        s2 += pa[2] * pb[2];
        s3 += pa[3] * pb[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (s0 + s2) + (s1 + s3) + tail
}

/// Squared Euclidean distance over four accumulator lanes.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    if scalar_forced() {
        return scalar::sq_dist(a, b);
    }
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(4);
    let mut cb = b[..n].chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        let (d0, d1, d2, d3) = (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2], pa[3] - pb[3]);
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    (s0 + s2) + (s1 + s3) + tail
}

/// Sum of squared z-scores `Σ ((x−mean)·inv_std)²` over four lanes;
/// the one-class scorer's inner loop.
pub fn sq_zscore_sum(x: &[f64], mean: &[f64], inv_std: &[f64]) -> f64 {
    if scalar_forced() {
        return scalar::sq_zscore_sum(x, mean, inv_std);
    }
    let n = x.len().min(mean.len()).min(inv_std.len());
    let mut cx = x[..n].chunks_exact(4);
    let mut cm = mean[..n].chunks_exact(4);
    let mut cs = inv_std[..n].chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for ((px, pm), ps) in (&mut cx).zip(&mut cm).zip(&mut cs) {
        let z0 = (px[0] - pm[0]) * ps[0];
        let z1 = (px[1] - pm[1]) * ps[1];
        let z2 = (px[2] - pm[2]) * ps[2];
        let z3 = (px[3] - pm[3]) * ps[3];
        s0 += z0 * z0;
        s1 += z1 * z1;
        s2 += z2 * z2;
        s3 += z3 * z3;
    }
    let mut tail = 0.0;
    for ((&v, &m), &is) in cx.remainder().iter().zip(cm.remainder()).zip(cs.remainder()) {
        let z = (v - m) * is;
        tail += z * z;
    }
    (s0 + s2) + (s1 + s3) + tail
}

/// `y += a * x`, unrolled four wide. Each element is an independent
/// fused update, so this is bit-exact against [`scalar::axpy`].
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    if scalar_forced() {
        return scalar::axpy(y, a, x);
    }
    let n = y.len().min(x.len());
    let mut cy = y[..n].chunks_exact_mut(4);
    let mut cx = x[..n].chunks_exact(4);
    for (py, px) in (&mut cy).zip(&mut cx) {
        py[0] += a * px[0];
        py[1] += a * px[1];
        py[2] += a * px[2];
        py[3] += a * px[3];
    }
    for (yi, &xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += a * xi;
    }
}

// ---------------------------------------------------------------------------
// GEMV / GEMM
// ---------------------------------------------------------------------------

/// `out[i] = dot(a_row_i, x)` for a row-major `a` with `n_cols` columns.
///
/// # Panics
///
/// Panics if `a.len() != out.len() * n_cols` or `x.len() != n_cols`.
pub fn gemv(a: &[f64], n_cols: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len() * n_cols, "gemv: matrix/output shape mismatch");
    assert_eq!(x.len(), n_cols, "gemv: vector length mismatch");
    for (o, row) in out.iter_mut().zip(a.chunks_exact(n_cols.max(1))) {
        *o = dot(row, x);
    }
    if n_cols == 0 {
        out.fill(0.0);
    }
}

/// Column-tile width for [`gemm_nt`]: one tile of B rows (16 × k f64)
/// stays resident in L1/L2 while every A row streams past it.
const GEMM_TILE: usize = 16;

/// `out[i·n + j] = dot(a_row_i, b_row_j)` — C = A·Bᵀ for row-major
/// `A (m×k)` and `B (n×k)`, cache-blocked over `B` rows. The inner `k`
/// loop is [`dot`] un-split, so every output element is bitwise equal
/// to the corresponding `gemv`/`dot` call on the same operands.
///
/// # Panics
///
/// Panics on any shape mismatch between `a`, `b`, `k` and `out`.
pub fn gemm_nt(a: &[f64], m: usize, b: &[f64], n: usize, k: usize, out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt: output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut jb = 0;
    while jb < n {
        let j_end = (jb + GEMM_TILE).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for j in jb..j_end {
                out_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
        jb = j_end;
    }
}

/// Dot product of two i8 vectors, accumulating in i32. Integer addition
/// is associative, so any evaluation order is *bit-exact* against
/// [`scalar::dot_i8`] — the quantized acoustic-model path inherits the
/// vectorized-equals-oracle guarantee the f64 kernels only meet up to
/// reassociation error.
///
/// Each product fits in 15 bits (`127·127`), so overflow needs
/// `k > 2^16` — far past any acoustic-model width; debug builds would
/// still catch it as an `i32` overflow panic.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    if scalar_forced() {
        return scalar::dot_i8(a, b);
    }
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

/// Generates one monomorphic `C = A·Bᵀ` body over pre-widened i16
/// operands, optionally compiled for a wider ISA. The i8 inputs are
/// widened to i16 *before* the hot loop so the auto-vectorizer sees the
/// `pmaddwd`/`vpmaddwd` shape (i16 × i16 → paired i32 adds) directly;
/// widening inside the loop defeats it and ends up slower than the f64
/// path. One source body, three instruction sets — bit-identical
/// results in all of them because i32 accumulation is associative.
macro_rules! gemm_i16_impl {
    ($name:ident $(, $feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        fn $name(aw: &[i16], m: usize, bw: &[i16], n: usize, k: usize, out: &mut [i32]) {
            for i in 0..m {
                let a_row = &aw[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &bw[j * k..(j + 1) * k];
                    *o = a_row.iter().zip(b_row).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
                }
            }
        }
    };
}

gemm_i16_impl!(gemm_i16_portable);
#[cfg(target_arch = "x86_64")]
gemm_i16_impl!(gemm_i16_avx2, "avx2");
#[cfg(target_arch = "x86_64")]
gemm_i16_impl!(gemm_i16_avx512, "avx512bw");

/// Shortest reduction axis at which the AVX-512BW GEMM body is worth
/// dispatching. A 512-bit vector holds 32 i16 lanes; below two full
/// vectors per row the masked tail and the wider horizontal reduce cost
/// more than the extra lanes earn, and the AVX2 body wins (measured
/// 1.2–2.1× faster at the acoustic-model shapes `k = 8..39`, while
/// AVX-512 stays ahead from `k = 64` up).
const GEMM_I8_AVX512_MIN_K: usize = 64;

/// Generates one monomorphic symmetric-quantization body, optionally
/// compiled for a wider ISA: `out[i] = saturate(xs[i] / scale)`. The
/// float→int `as` cast saturates and maps `NaN` to `0` (a Rust language
/// guarantee), so the branch-free form is element-for-element identical
/// to [`scalar::quantize_i8`]'s checked arithmetic while letting the
/// auto-vectorizer emit packed divide/round/clamp/convert.
macro_rules! quantize_i8_impl {
    ($name:ident $(, $feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        fn $name(xs: &[f64], scale: f64, out: &mut [i8]) {
            for (o, &x) in out.iter_mut().zip(xs) {
                // mvp-lint: allow(numeric-truncation) -- float→i8 `as` saturates with NaN→0 (never wraps); bit-parity with the checked oracle is pinned by quantize_i8_is_bit_exact_against_oracle
                *o = (x / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
    };
}

quantize_i8_impl!(quantize_i8_portable);
#[cfg(target_arch = "x86_64")]
quantize_i8_impl!(quantize_i8_avx2, "avx2");

/// Symmetric i8 quantization of a whole activation buffer:
/// `out[i] = saturate(xs[i] / scale)` — round to nearest (half away
/// from zero), clamp to `±127`, `NaN → 0`. This is the activation
/// ingress of the int8 acoustic-model path, hot enough to matter: the
/// quantized GEMMs only win end to end if feeding them does not cost
/// the savings back.
///
/// Bit-exact against [`scalar::quantize_i8`] on every dispatch target —
/// the saturating cast and the checked clamp agree on all inputs,
/// including non-finite ones.
///
/// # Panics
///
/// Panics if `xs` and `out` lengths differ.
pub fn quantize_i8(xs: &[f64], scale: f64, out: &mut [i8]) {
    assert_eq!(xs.len(), out.len(), "quantize_i8: shape mismatch");
    if scalar_forced() {
        return scalar::quantize_i8(xs, scale, out);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime feature check one line up.
            return unsafe { quantize_i8_avx2(xs, scale, out) };
        }
    }
    quantize_i8_portable(xs, scale, out);
}

/// `out[i·n + j] = dot_i8(a_row_i, b_row_j)` — integer `C = A·Bᵀ` for
/// row-major i8 `A (m×k)` and `B (n×k)`.
///
/// Both operands are widened to i16 scratch up front (cost `O(mk + nk)`
/// against `O(mnk)` multiplies), then a single generic inner body runs
/// on the widest instruction set the CPU reports — AVX-512BW, AVX2, or
/// the portable baseline. i32 accumulation is associative, so every
/// dispatch target is bit-exact against [`scalar::gemm_nt_i8`] and
/// against per-element [`dot_i8`] calls on the same operands; the
/// parity tests below pin all reachable paths.
///
/// # Panics
///
/// Panics on any shape mismatch between `a`, `b`, `k` and `out`.
pub fn gemm_nt_i8(a: &[i8], m: usize, b: &[i8], n: usize, k: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_nt_i8: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_i8: B shape mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt_i8: output shape mismatch");
    if scalar_forced() {
        return scalar::gemm_nt_i8(a, m, b, n, k, out);
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }
    // mvp-lint: allow(hot-path-alloc) -- one widening copy per GEMM call, amortized over O(m*n*k) work; the i8 kernel API is scratch-free by design
    let aw: Vec<i16> = a.iter().map(|&x| i16::from(x)).collect();
    // mvp-lint: allow(hot-path-alloc) -- one widening copy per GEMM call, amortized over O(m*n*k) work; the i8 kernel API is scratch-free by design
    let bw: Vec<i16> = b.iter().map(|&x| i16::from(x)).collect();
    #[cfg(target_arch = "x86_64")]
    {
        // Rows shorter than GEMM_I8_AVX512_MIN_K lose on 512-bit lanes;
        // every target computes bit-identical i32 sums, so the width
        // choice is purely a timing decision.
        if k >= GEMM_I8_AVX512_MIN_K && std::arch::is_x86_feature_detected!("avx512bw") {
            // SAFETY: guarded by the runtime feature check one line up.
            return unsafe { gemm_i16_avx512(&aw, m, &bw, n, k, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime feature check one line up.
            return unsafe { gemm_i16_avx2(&aw, m, &bw, n, k, out) };
        }
    }
    gemm_i16_portable(&aw, m, &bw, n, k, out);
}

// ---------------------------------------------------------------------------
// par_rows
// ---------------------------------------------------------------------------

/// Minimum row count before [`par_rows`] spins up threads at all; below
/// this the spawn overhead dwarfs the work.
const PAR_MIN_ROWS: usize = 8;

/// Applies `f` to every `n_cols`-wide row of `data`, spreading
/// contiguous row chunks across [`threads`] scoped workers. Each worker
/// builds its own scratch state with `init`, so `f` never contends; row
/// outputs are independent, making results bit-identical at any thread
/// count. With one worker (or few rows) it runs serially in the calling
/// thread with zero allocation.
///
/// `f` receives `(state, row_index, row)`.
pub fn par_rows<S, I, F>(data: &mut [f64], n_cols: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    if n_cols == 0 || data.is_empty() {
        return;
    }
    let n_rows = data.len() / n_cols;
    let workers = threads().clamp(1, n_rows.max(1));
    if workers <= 1 || n_rows < PAR_MIN_ROWS {
        let mut state = init();
        for (r, row) in data.chunks_exact_mut(n_cols).enumerate() {
            f(&mut state, r, row);
        }
        return;
    }
    let rows_per = n_rows.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, chunk) in data.chunks_mut(rows_per * n_cols).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                for (r, row) in chunk.chunks_exact_mut(n_cols).enumerate() {
                    f(&mut state, ci * rows_per + r, row);
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Real-input FFT
// ---------------------------------------------------------------------------

/// Reusable buffers for [`RfftPlan`]; one per thread of frame work.
#[derive(Debug, Clone, Default)]
pub struct RfftScratch {
    /// Real and imaginary parts of the half-size packed transform, kept
    /// in separate arrays so each butterfly stage runs lane-parallel.
    re: Vec<f64>,
    im: Vec<f64>,
    /// Full-size buffer, used only by the scalar-oracle fallback.
    full: Vec<Complex>,
}

/// A planned real-input FFT of size `n`: forward analysis to the
/// one-sided spectrum (`n/2 + 1` bins), its power `|S[k]|²`, Hermitian
/// synthesis back to a real signal, and the normalised inverse.
///
/// Packs the `n` reals into an `n/2` complex vector, runs a half-size
/// FFT and unpacks with a precomputed twiddle table — half the
/// butterfly work of the full complex transform the scalar oracle runs.
/// Everything that does not depend on the input is computed once here:
/// the bit-reversal permutation and one twiddle table per butterfly
/// stage. The half-size transform is decimation-in-time with radix-4
/// stages (plus one radix-2 stage when `log₂(n/2)` is odd). Its first
/// stage is twiddle-free and gathers its inputs straight from the
/// caller's samples (or, for synthesis, from the re-packed spectrum), so
/// no separate pack or permute pass runs. Synthesis runs the same stages
/// with conjugated twiddles.
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    /// `tw[k] = e^{-2πik/n}` for `k = 0..=n/2`: the pack/unpack twiddles.
    tw: Vec<Complex>,
    /// `rev[i]` is `i` with its `log₂(n/2)` bits reversed: the half-size
    /// transform's input order.
    rev: Vec<usize>,
    /// Whether the first stage is radix-2 (`log₂(n/2)` odd) or radix-4.
    radix2_first: bool,
    /// Twiddles of the radix-4 stages after the first, concatenated in
    /// stage order. The stage with quarter length `q` holds `6q` values,
    /// the real then the imaginary parts of `w^k`, `w^2k` and `w^3k`,
    /// `w = e^{-2πi/4q}`, each for `k = 0..q`.
    stage_tw: Vec<f64>,
}

impl RfftPlan {
    /// Plans a transform of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> RfftPlan {
        assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
        let tau = 2.0 * std::f64::consts::PI;
        let tw = (0..=n / 2).map(|k| Complex::from_angle(-tau * k as f64 / n as f64)).collect();
        let half = (n / 2).max(1);
        let bits = half.trailing_zeros();
        let rev = (0..half)
            .map(|i| if bits == 0 { 0 } else { i.reverse_bits() >> (usize::BITS - bits) })
            .collect();
        let radix2_first = bits % 2 == 1;
        let mut stage_tw = Vec::new();
        let mut q = if radix2_first { 2 } else { 4 };
        while q < half {
            let m = (4 * q) as f64;
            for j in 1..=3 {
                let w = |k: usize| Complex::from_angle(-tau * (j * k) as f64 / m);
                stage_tw.extend((0..q).map(|k| w(k).re));
                stage_tw.extend((0..q).map(|k| w(k).im));
            }
            q *= 4;
        }
        RfftPlan { n, tw, rev, radix2_first, stage_tw }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of one-sided spectrum bins, `n/2 + 1`.
    pub fn n_bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward DFT of `signal` zero-padded to `n`, writing the one-sided
    /// spectrum `S[0..=n/2]` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() > n` or `out.len() != n_bins()`.
    pub fn forward(&self, signal: &[f64], scratch: &mut RfftScratch, out: &mut [Complex]) {
        assert!(
            signal.len() <= self.n,
            "signal length {} exceeds FFT size {}",
            signal.len(),
            self.n
        );
        assert_eq!(out.len(), self.n_bins(), "one-sided spectrum length mismatch");
        if scalar_forced() {
            out.copy_from_slice(&self.oracle_forward(signal, scratch)[..self.n_bins()]);
            return;
        }
        self.analyse(signal, scratch, out, |s| s);
    }

    /// Power spectrum of `signal` zero-padded to `n`: `out[k] = |S[k]|²`
    /// for the one-sided bins `k = 0..=n/2`, without writing the complex
    /// spectrum anywhere. Every bin is bit-identical to
    /// `forward(signal)[k].norm_sq()`: both entries run the same unpack
    /// expression and differ only in what they store.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() > n` or `out.len() != n_bins()`.
    pub fn forward_power(&self, signal: &[f64], scratch: &mut RfftScratch, out: &mut [f64]) {
        assert!(
            signal.len() <= self.n,
            "signal length {} exceeds FFT size {}",
            signal.len(),
            self.n
        );
        assert_eq!(out.len(), self.n_bins(), "one-sided power length mismatch");
        if scalar_forced() {
            let full = self.oracle_forward(signal, scratch);
            for (p, z) in out.iter_mut().zip(full.iter()) {
                *p = z.norm_sq();
            }
            return;
        }
        self.analyse(signal, scratch, out, Complex::norm_sq);
    }

    /// Scalar oracle: the full complex FFT of the zero-padded signal.
    fn oracle_forward<'s>(&self, signal: &[f64], scratch: &'s mut RfftScratch) -> &'s [Complex] {
        let full = &mut scratch.full;
        full.resize(self.n, Complex::ZERO);
        for (i, z) in full.iter_mut().enumerate() {
            *z = Complex::new(signal.get(i).copied().unwrap_or(0.0), 0.0);
        }
        fft::fft(full);
        full
    }

    /// The tuned forward path shared by [`forward`](Self::forward) and
    /// [`forward_power`](Self::forward_power): packed half-size transform,
    /// then the unpack, passing each bin `S[k]` through `store`.
    fn analyse<T>(
        &self,
        signal: &[f64],
        scratch: &mut RfftScratch,
        out: &mut [T],
        store: impl Fn(Complex) -> T,
    ) {
        if self.n == 1 {
            out[0] = store(Complex::new(signal.first().copied().unwrap_or(0.0), 0.0));
            return;
        }
        let half = self.n / 2;
        // z[j] = x[2j] + i·x[2j+1], with the zero padding read in place.
        let s = |t: usize| signal.get(t).copied().unwrap_or(0.0);
        let (re, im) =
            self.half_transform::<false>(scratch, |j| Complex::new(s(2 * j), s(2 * j + 1)));
        // S[k] = Ze[k] + e^{-2πik/n}·Zo[k], where Ze/Zo are the DFTs of
        // the even/odd samples recovered from the packed transform Z.
        // DC and Nyquist both come from Z[0] and are real.
        out[0] = store(Complex::new(re[0] + im[0], 0.0));
        out[half] = store(Complex::new(re[0] - im[0], 0.0));
        // Interior bins pair Z[k] with Z[half − k].
        let zk = re[1..].iter().zip(&im[1..]);
        let mirrored = re[1..].iter().rev().zip(im[1..].iter().rev());
        for ((o, ((&kr, &ki), (&mr, &mi))), &tw) in
            out[1..half].iter_mut().zip(zk.zip(mirrored)).zip(&self.tw[1..])
        {
            let zk = Complex::new(kr, ki);
            let zr = Complex::new(mr, -mi);
            let ze = (zk + zr).scale(0.5);
            let d = zk - zr;
            let zo = Complex::new(d.im * 0.5, -d.re * 0.5); // (zk − zr) / 2i
            *o = store(ze + tw * zo);
        }
    }

    /// Unnormalised complex DFT of size `n/2` (sign `−` for analysis,
    /// `+` with `INV`) into the scratch's real/imaginary arrays, which it
    /// returns. It reads its input through `load(j)`, the `j`-th input
    /// element in natural order. The first stage gathers in bit-reversed
    /// order and needs no twiddles; every later stage is radix-4 over the
    /// plan's tables.
    fn half_transform<'s, const INV: bool>(
        &self,
        scratch: &'s mut RfftScratch,
        load: impl Fn(usize) -> Complex,
    ) -> (&'s [f64], &'s [f64]) {
        let half = self.rev.len();
        let (re, im) = (&mut scratch.re, &mut scratch.im);
        re.resize(half, 0.0);
        im.resize(half, 0.0);
        let put = |re: &mut [f64], im: &mut [f64], ys: &[Complex]| {
            for ((r, i), y) in re.iter_mut().zip(im.iter_mut()).zip(ys) {
                (*r, *i) = (y.re, y.im);
            }
        };
        if half == 1 {
            put(re, im, &[load(0)]);
        } else if self.radix2_first {
            let blocks = re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2));
            for ((br, bi), r) in blocks.zip(self.rev.chunks_exact(2)) {
                let (a, b) = (load(r[0]), load(r[1]));
                put(br, bi, &[a + b, a - b]);
            }
        } else {
            let blocks = re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4));
            for ((br, bi), r) in blocks.zip(self.rev.chunks_exact(4)) {
                put(br, bi, &butterfly4::<INV>(load(r[0]), load(r[2]), load(r[1]), load(r[3])));
            }
        }
        let mut q = if self.radix2_first { 2 } else { 4 };
        let mut tw = &self.stage_tw[..];
        while q < half {
            let (stage, rest) = tw.split_at(6 * q);
            for (br, bi) in re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q)) {
                radix4_block::<INV>(br, bi, stage);
            }
            tw = rest;
            q *= 4;
        }
        (re, im)
    }

    /// Hermitian synthesis `y[t] = Σ_{k=0}^{n-1} W̃_k e^{-2πikt/n}`,
    /// where `W̃` is the Hermitian extension of the one-sided `spec`
    /// (`W̃[n−k] = conj(spec[k])`). This is the adjoint of [`forward`]:
    /// exactly the `2·Re(F z)` term the MFCC backward pass needs. The
    /// DC and Nyquist bins must already be real.
    ///
    /// [`forward`]: RfftPlan::forward
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n_bins()` or `out.len() != n`.
    pub fn hfft(&self, spec: &[Complex], scratch: &mut RfftScratch, out: &mut [f64]) {
        self.synth_plus(spec, true, scratch, out);
    }

    /// Normalised inverse: recovers the real signal from its one-sided
    /// spectrum, `irfft(forward(x)) == x` up to `O(n·ε)`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n_bins()` or `out.len() != n`.
    pub fn inverse(&self, spec: &[Complex], scratch: &mut RfftScratch, out: &mut [f64]) {
        self.synth_plus(spec, false, scratch, out);
        let inv_n = 1.0 / self.n as f64;
        for y in out.iter_mut() {
            *y *= inv_n;
        }
    }

    /// Core synthesis `y[t] = Σ W̃_k e^{+2πikt/n}` (unscaled); with
    /// `conj_in` the input bins are conjugated first, turning the sum
    /// into the forward-signed Hermitian synthesis (the output is real
    /// either way).
    fn synth_plus(
        &self,
        spec: &[Complex],
        conj_in: bool,
        scratch: &mut RfftScratch,
        out: &mut [f64],
    ) {
        assert_eq!(spec.len(), self.n_bins(), "one-sided spectrum length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let c = |z: Complex| if conj_in { z.conj() } else { z };
        if self.n == 1 {
            out[0] = spec[0].re;
            return;
        }
        if scalar_forced() {
            // Oracle: materialise the full Hermitian spectrum and run
            // the full-size unnormalised inverse-sign transform.
            let full = &mut scratch.full;
            full.resize(self.n, Complex::ZERO);
            full[0] = c(spec[0]);
            let half = self.n / 2;
            full[half] = c(spec[half]);
            for k in 1..half {
                full[k] = c(spec[k]);
                full[self.n - k] = c(spec[k]).conj();
            }
            fft::transform(full, 1.0);
            for (y, z) in out.iter_mut().zip(full.iter()) {
                *y = z.re;
            }
            return;
        }
        let half = self.n / 2;
        // Re-pack the one-sided spectrum into the half-size transform
        // whose inverse interleaves to the even/odd output samples; the
        // first stage gathers each packed bin as it needs it.
        let (re, im) = self.half_transform::<true>(scratch, |k| {
            let a = c(spec[k]);
            let b = c(spec[half - k]).conj();
            let ze = (a + b).scale(0.5);
            let d = (a - b).scale(0.5);
            let zo = self.tw[k].conj() * d;
            // Z[k] = Ze[k] + i·Zo[k]
            Complex::new(ze.re - zo.im, ze.im + zo.re)
        });
        for ((pair, &zr), &zi) in out.chunks_exact_mut(2).zip(re).zip(im) {
            pair[0] = 2.0 * zr;
            pair[1] = 2.0 * zi;
        }
    }
}

/// One radix-4 decimation-in-time butterfly. `a` comes from the block's
/// first quarter; `b`, `c`, `d` are the second-half-even, first-half-odd
/// and second-half-odd quarters' elements already multiplied by `w^k`,
/// `w^2k` and `w^3k`. Returns the outputs for quarters 0..4 in order.
/// `w^q` contributes a quarter turn, `−i` for analysis and `+i` with
/// `INV`.
#[inline(always)]
fn butterfly4<const INV: bool>(a: Complex, b: Complex, c: Complex, d: Complex) -> [Complex; 4] {
    let (t0, t1) = (a + c, a - c);
    let (t2, t3) = (b + d, b - d);
    let r = if INV { Complex::new(-t3.im, t3.re) } else { Complex::new(t3.im, -t3.re) };
    [t0 + t2, t1 + r, t0 - t2, t1 - r]
}

/// Lane `l` of a two-lane radix-4 step: quarters `x = [re0, im0, …,
/// re3, im3]` and stage twiddles `w = [re(w^k), im(w^k), …]`.
#[inline(always)]
fn radix4_lane<const INV: bool>(x: &[[f64; 2]; 8], w: &[[f64; 2]; 6], l: usize) -> [Complex; 4] {
    let z = |j: usize| Complex::new(x[2 * j][l], x[2 * j + 1][l]);
    // Synthesis conjugates the twiddles.
    let tw = |j: usize| {
        let t = Complex::new(w[2 * j][l], w[2 * j + 1][l]);
        if INV {
            t.conj()
        } else {
            t
        }
    };
    butterfly4::<INV>(z(0), z(2) * tw(0), z(1) * tw(1), z(3) * tw(2))
}

/// One radix-4 stage over one block of `4q` elements held as separate
/// real (`re`) and imaginary (`im`) arrays: quarter `j` is
/// `re[jq..(j+1)q]`. `tw` is the stage's `6q`-value table. Each step
/// takes two consecutive `k` (`q` is even), loading every input before
/// storing any output, so the two run as one pair of vector lanes.
#[inline(always)]
fn radix4_block<const INV: bool>(re: &mut [f64], im: &mut [f64], tw: &[f64]) {
    let q = tw.len() / 6;
    let (r0, rest) = re.split_at_mut(q);
    let (r1, rest) = rest.split_at_mut(q);
    let (r2, r3) = rest.split_at_mut(q);
    let (i0, rest) = im.split_at_mut(q);
    let (i1, rest) = rest.split_at_mut(q);
    let (i2, i3) = rest.split_at_mut(q);
    let n = q / 2;
    fn pairs(s: &mut [f64], n: usize) -> &mut [[f64; 2]] {
        &mut s.as_chunks_mut::<2>().0[..n]
    }
    let (r0, r1, r2, r3) = (pairs(r0, n), pairs(r1, n), pairs(r2, n), pairs(r3, n));
    let (i0, i1, i2, i3) = (pairs(i0, n), pairs(i1, n), pairs(i2, n), pairs(i3, n));
    let tw = &tw.as_chunks::<2>().0[..3 * q];
    let (w1r, w1i, w2r) = (&tw[..n], &tw[n..2 * n], &tw[2 * n..3 * n]);
    let (w2i, w3r, w3i) = (&tw[3 * n..4 * n], &tw[4 * n..5 * n], &tw[5 * n..6 * n]);
    for k in 0..n {
        let x = [r0[k], i0[k], r1[k], i1[k], r2[k], i2[k], r3[k], i3[k]];
        let w = [w1r[k], w1i[k], w2r[k], w2i[k], w3r[k], w3i[k]];
        let (y0, y1) = (radix4_lane::<INV>(&x, &w, 0), radix4_lane::<INV>(&x, &w, 1));
        (r0[k], i0[k]) = ([y0[0].re, y1[0].re], [y0[0].im, y1[0].im]);
        (r1[k], i1[k]) = ([y0[1].re, y1[1].re], [y0[1].im, y1[1].im]);
        (r2[k], i2[k]) = ([y0[2].re, y1[2].re], [y0[2].im, y1[2].im]);
        (r3[k], i3[k]) = ([y0[3].re, y1[3].re], [y0[3].im, y1[3].im]);
    }
}

// ---------------------------------------------------------------------------
// DCT-II plan
// ---------------------------------------------------------------------------

/// A planned truncated DCT-II (`n_in` log-mel energies → `n_out`
/// cepstra) with the cosine table precomputed. Summation order matches
/// the scalar oracle in [`crate::dct`] exactly, so forward and adjoint
/// are bit-exact against `dct2_into` / `dct2_transpose_into`.
#[derive(Debug, Clone)]
pub struct DctPlan {
    n_in: usize,
    n_out: usize,
    /// `cos_table[k·n_in + i] = cos(π·k·(2i+1) / (2·n_in))`.
    cos_table: Vec<f64>,
    /// Orthonormal scale per output coefficient.
    scale: Vec<f64>,
}

impl DctPlan {
    /// Plans an `n_in → n_out` truncated orthonormal DCT-II.
    ///
    /// # Panics
    ///
    /// Panics if `n_in == 0` or `n_out > n_in`.
    pub fn new(n_in: usize, n_out: usize) -> DctPlan {
        assert!(n_in > 0, "DCT input length must be positive");
        assert!(n_out <= n_in, "cannot keep {n_out} coefficients of {n_in}");
        let mut cos_table = Vec::with_capacity(n_in * n_out);
        for k in 0..n_out {
            for i in 0..n_in {
                cos_table.push(
                    (std::f64::consts::PI * k as f64 * (2 * i + 1) as f64 / (2 * n_in) as f64)
                        .cos(),
                );
            }
        }
        let scale = (0..n_out)
            .map(|k| if k == 0 { (1.0 / n_in as f64).sqrt() } else { (2.0 / n_in as f64).sqrt() })
            .collect();
        DctPlan { n_in, n_out, cos_table, scale }
    }

    /// Input length the plan was built for.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of retained output coefficients.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Forward DCT-II: `out[k] = s_k · Σ_i x_i cos(πk(2i+1)/2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_in()` or `out.len() != n_out()`.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_in, "DCT input length mismatch");
        assert_eq!(out.len(), self.n_out, "DCT output length mismatch");
        if scalar_forced() {
            crate::dct::dct2_into(x, out);
            return;
        }
        for (k, o) in out.iter_mut().enumerate() {
            let row = &self.cos_table[k * self.n_in..(k + 1) * self.n_in];
            let sum: f64 = x.iter().zip(row).map(|(&xi, &c)| xi * c).sum();
            *o = self.scale[k] * sum;
        }
    }

    /// Adjoint (transpose) of [`forward_into`]: scatters `n_out`
    /// coefficient gradients back to `n_in` input gradients.
    ///
    /// [`forward_into`]: DctPlan::forward_into
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != n_out()` or `out.len() != n_in()`.
    pub fn adjoint_into(&self, grad: &[f64], out: &mut [f64]) {
        assert_eq!(grad.len(), self.n_out, "DCT gradient length mismatch");
        assert_eq!(out.len(), self.n_in, "DCT adjoint output length mismatch");
        if scalar_forced() {
            crate::dct::dct2_transpose_into(grad, out);
            return;
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = grad
                .iter()
                .enumerate()
                .map(|(k, &g)| self.scale[k] * g * self.cos_table[k * self.n_in + i])
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::{dct2_into, dct2_transpose_into};
    use proptest::prelude::*;

    /// Deterministic pseudo-random fill (xorshift64*), so parity runs
    /// are seeded and reproducible without any RNG dependency.
    fn lcg_fill(seed: u64, out: &mut [f64]) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for v in out.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        }
    }

    fn vec_seeded(seed: u64, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        lcg_fill(seed, &mut v);
        v
    }

    #[test]
    fn dot_matches_scalar_within_reassociation() {
        // Non-multiples of the lane width and degenerate lengths.
        for (seed, n) in [(1u64, 0usize), (2, 1), (3, 3), (4, 4), (5, 7), (6, 39), (7, 257)] {
            let a = vec_seeded(seed, n);
            let b = vec_seeded(seed ^ 0xABCD, n);
            let got = dot(&a, &b);
            let want = scalar::dot(&a, &b);
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert!((got - want).abs() <= 1e-12 * (1.0 + mag), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn axpy_is_bit_exact() {
        for (seed, n) in [(11u64, 0usize), (12, 1), (13, 5), (14, 64), (15, 129)] {
            let x = vec_seeded(seed, n);
            let mut y = vec_seeded(seed ^ 0x55, n);
            let mut y_oracle = y.clone();
            axpy(&mut y, 0.37, &x);
            scalar::axpy(&mut y_oracle, 0.37, &x);
            assert_eq!(y, y_oracle, "n={n}");
        }
    }

    #[test]
    fn sq_dist_and_zscore_match_scalar() {
        for (seed, n) in [(21u64, 1usize), (22, 6), (23, 40), (24, 101)] {
            let a = vec_seeded(seed, n);
            let b = vec_seeded(seed ^ 0x99, n);
            let is: Vec<f64> = vec_seeded(seed ^ 0x777, n).iter().map(|v| 1.0 + v.abs()).collect();
            let d = sq_dist(&a, &b);
            let ds = scalar::sq_dist(&a, &b);
            assert!((d - ds).abs() <= 1e-12 * (1.0 + ds.abs()), "n={n}: {d} vs {ds}");
            let z = sq_zscore_sum(&a, &b, &is);
            let zs = scalar::sq_zscore_sum(&a, &b, &is);
            assert!((z - zs).abs() <= 1e-12 * (1.0 + zs.abs()), "n={n}: {z} vs {zs}");
        }
    }

    #[test]
    fn gemm_equals_gemv_equals_dot_bitwise() {
        // The internal-consistency invariant several persistence tests
        // lean on: tiling never splits k, so all three entry points
        // produce identical bits.
        for (m, n, k) in [(1usize, 1usize, 1usize), (3, 5, 7), (17, 33, 4), (2, 40, 39)] {
            let a = vec_seeded(31 + (m * n) as u64, m * k);
            let b = vec_seeded(37 + k as u64, n * k);
            let mut c = vec![0.0; m * n];
            gemm_nt(&a, m, &b, n, k, &mut c);
            for i in 0..m {
                let mut row = vec![0.0; n];
                gemv(&b, k, &a[i * k..(i + 1) * k], &mut row);
                for j in 0..n {
                    assert_eq!(c[i * n + j], row[j], "gemm vs gemv at ({i},{j})");
                    assert_eq!(c[i * n + j], dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]));
                }
            }
        }
    }

    #[test]
    fn gemm_matches_scalar_oracle() {
        for (m, n, k) in [(0usize, 3usize, 4usize), (3, 0, 4), (3, 4, 0), (5, 19, 23), (20, 20, 1)]
        {
            let a = vec_seeded(41 + m as u64, m * k);
            let b = vec_seeded(43 + n as u64, n * k);
            let mut c = vec![0.0; m * n];
            gemm_nt(&a, m, &b, n, k, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let want = scalar::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    let mag: f64 = a[i * k..(i + 1) * k]
                        .iter()
                        .zip(&b[j * k..(j + 1) * k])
                        .map(|(x, y)| (x * y).abs())
                        .sum();
                    assert!(
                        (c[i * n + j] - want).abs() <= 1e-12 * (1.0 + mag),
                        "({i},{j}) of {m}x{n}x{k}"
                    );
                }
            }
        }
    }

    /// Deterministic i8 fill from the same xorshift stream.
    fn i8_seeded(seed: u64, n: usize) -> Vec<i8> {
        vec_seeded(seed, n).iter().map(|v| (v * 127.0).round().clamp(-127.0, 127.0) as i8).collect()
    }

    #[test]
    fn dot_i8_is_bit_exact_against_oracle() {
        for (seed, n) in [(61u64, 0usize), (62, 1), (63, 3), (64, 4), (65, 39), (66, 257)] {
            let a = i8_seeded(seed, n);
            let b = i8_seeded(seed ^ 0x5A5A, n);
            assert_eq!(dot_i8(&a, &b), scalar::dot_i8(&a, &b), "n={n}");
        }
    }

    #[test]
    fn gemm_i8_equals_dot_i8_and_scalar_oracle() {
        // Same invariant as the f64 GEMM, but *exact*: integer
        // accumulation makes tiling and lane order invisible.
        // Shapes straddle GEMM_I8_AVX512_MIN_K so both sides of the
        // width dispatch run (63/64/65 pin the cutoff boundary).
        for (m, n, k) in [
            (0usize, 3usize, 4usize),
            (3, 4, 0),
            (1, 1, 1),
            (5, 19, 23),
            (17, 33, 4),
            (7, 11, 63),
            (7, 11, 64),
            (7, 11, 65),
        ] {
            let a = i8_seeded(71 + m as u64, m * k);
            let b = i8_seeded(73 + n as u64, n * k);
            let mut c = vec![0i32; m * n];
            let mut want = vec![0i32; m * n];
            gemm_nt_i8(&a, m, &b, n, k, &mut c);
            scalar::gemm_nt_i8(&a, m, &b, n, k, &mut want);
            assert_eq!(c, want, "{m}x{n}x{k}");
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c[i * n + j],
                        dot_i8(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]),
                        "({i},{j}) of {m}x{n}x{k}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_i8_is_bit_exact_against_oracle() {
        // Edge inputs first: both half boundaries, saturation on both
        // sides, and every non-finite class must land exactly where the
        // checked oracle puts them.
        let edges = [
            0.0,
            -0.0,
            0.49,
            0.5,
            0.51,
            -0.5,
            -0.51,
            126.49,
            126.5,
            127.0,
            127.49,
            128.0,
            300.0,
            -300.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for scale in [1.0, 0.031, 7.5] {
            let mut got = vec![0i8; edges.len()];
            let mut want = vec![0i8; edges.len()];
            quantize_i8(&edges, scale, &mut got);
            scalar::quantize_i8(&edges, scale, &mut want);
            assert_eq!(got, want, "edges at scale {scale}");
        }
        // Dense random sweep across lengths that exercise every lane
        // position of the vectorized body.
        for (seed, n) in [(91u64, 1usize), (92, 3), (93, 4), (94, 17), (95, 64), (96, 403)] {
            let xs: Vec<f64> = vec_seeded(seed, n).iter().map(|v| v * 9.0).collect();
            let mut got = vec![0i8; n];
            let mut want = vec![0i8; n];
            quantize_i8(&xs, 0.031, &mut got);
            scalar::quantize_i8(&xs, 0.031, &mut want);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        // Worst case ±127·±127 across a wide row stays well inside i32.
        let a = vec![i8::MIN + 1; 4096];
        let b = vec![127i8; 4096];
        assert_eq!(dot_i8(&a, &b), -127 * 127 * 4096);
        assert_eq!(scalar::dot_i8(&a, &b), -127 * 127 * 4096);
    }

    #[test]
    fn rfft_matches_full_fft_oracle() {
        // Degenerate and non-trivial power-of-two sizes, with the input
        // shorter than the transform (the zero-padded framing case).
        for (seed, n, sig_len) in
            [(51u64, 1usize, 1usize), (52, 2, 2), (53, 8, 5), (54, 64, 64), (55, 512, 400)]
        {
            let x = vec_seeded(seed, sig_len);
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut got = vec![Complex::ZERO; plan.n_bins()];
            plan.forward(&x, &mut scratch, &mut got);
            let full = fft::rfft(&x, n);
            let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>() + 1.0;
            for (k, (g, w)) in got.iter().zip(&full).enumerate() {
                assert!(
                    (g.re - w.re).abs() <= 1e-12 * n as f64 * scale
                        && (g.im - w.im).abs() <= 1e-12 * n as f64 * scale,
                    "n={n} bin {k}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn irfft_round_trips() {
        for (seed, n) in [(61u64, 2usize), (62, 16), (63, 256), (64, 512), (65, 1024)] {
            let x = vec_seeded(seed, n);
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut spec = vec![Complex::ZERO; plan.n_bins()];
            plan.forward(&x, &mut scratch, &mut spec);
            let mut back = vec![0.0; n];
            plan.inverse(&spec, &mut scratch, &mut back);
            for (t, (&g, &w)) in back.iter().zip(&x).enumerate() {
                assert!((g - w).abs() <= 1e-10 * n as f64, "n={n} t={t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn hfft_matches_oracle_synthesis() {
        for (seed, n) in [(71u64, 4usize), (72, 32), (73, 128), (74, 512), (75, 1024)] {
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut spec: Vec<Complex> = (0..plan.n_bins())
                .map(|k| {
                    let v = vec_seeded(seed + k as u64, 2);
                    Complex::new(v[0], v[1])
                })
                .collect();
            // Hermitian synthesis requires real DC/Nyquist bins.
            spec[0].im = 0.0;
            let last = plan.n_bins() - 1;
            spec[last].im = 0.0;
            let mut got = vec![0.0; n];
            plan.hfft(&spec, &mut scratch, &mut got);
            // Oracle: y[t] = 2·Re(full FFT of the one-sided spectrum
            // laid out as a zero-extended buffer), minus the
            // double-counted DC/Nyquist halves — equivalently, direct
            // evaluation of the Hermitian sum.
            for (t, &g) in got.iter().enumerate() {
                let mut want = 0.0;
                for (k, z) in spec.iter().enumerate() {
                    let w = Complex::from_angle(
                        -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                    );
                    let term = *z * w;
                    want += if k == 0 || k == last { term.re } else { 2.0 * term.re };
                }
                assert!((g - want).abs() <= 1e-9 * n as f64, "n={n} t={t}: {g} vs {want}");
            }
        }
    }

    /// Every power of two from 1 to 4096: both parities of `log₂(n/2)`,
    /// so the radix-2 first stage and the pure radix-4 path both run.
    fn every_size() -> impl Iterator<Item = usize> {
        (0..=12).map(|b| 1usize << b)
    }

    #[test]
    fn rfft_matches_oracle_at_every_size_and_length() {
        for n in every_size() {
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut got = vec![Complex::ZERO; plan.n_bins()];
            for len in [0, 1, n / 2 + 3, n].map(|len| len.min(n)) {
                let x = vec_seeded(101 + (n * 7 + len) as u64, len);
                plan.forward(&x, &mut scratch, &mut got);
                let full = fft::rfft(&x, n);
                let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>() + 1.0;
                for (k, (g, w)) in got.iter().zip(&full).enumerate() {
                    assert!(
                        (g.re - w.re).abs() <= 1e-12 * n as f64 * scale
                            && (g.im - w.im).abs() <= 1e-12 * n as f64 * scale,
                        "n={n} len={len} bin {k}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_power_is_bit_identical_to_forward_norm_sq() {
        for n in every_size() {
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut spec = vec![Complex::ZERO; plan.n_bins()];
            let mut power = vec![0.0; plan.n_bins()];
            for len in [0, 1, n / 2 + 3, n].map(|len| len.min(n)) {
                let x = vec_seeded(211 + (n * 7 + len) as u64, len);
                plan.forward(&x, &mut scratch, &mut spec);
                plan.forward_power(&x, &mut scratch, &mut power);
                for (k, (p, z)) in power.iter().zip(&spec).enumerate() {
                    assert_eq!(p.to_bits(), z.norm_sq().to_bits(), "n={n} len={len} bin {k}");
                }
            }
        }
    }

    #[test]
    fn dct_plan_is_bit_exact_against_oracle() {
        for (n_in, n_out) in [(1usize, 1usize), (5, 3), (26, 13), (26, 26), (40, 1)] {
            let plan = DctPlan::new(n_in, n_out);
            let x = vec_seeded(81 + n_in as u64, n_in);
            let mut got = vec![0.0; n_out];
            let mut want = vec![0.0; n_out];
            plan.forward_into(&x, &mut got);
            dct2_into(&x, &mut want);
            assert_eq!(got, want, "forward {n_in}->{n_out}");

            let g = vec_seeded(83 + n_out as u64, n_out);
            let mut agot = vec![0.0; n_in];
            let mut awant = vec![0.0; n_in];
            plan.adjoint_into(&g, &mut agot);
            dct2_transpose_into(&g, &mut awant);
            assert_eq!(agot, awant, "adjoint {n_in}->{n_out}");
        }
    }

    #[test]
    fn par_rows_is_thread_count_invariant() {
        let n_cols = 17;
        let n_rows = 40;
        let mut serial = vec_seeded(91, n_rows * n_cols);
        let mut parallel = serial.clone();
        let work = |state: &mut Vec<f64>, r: usize, row: &mut [f64]| {
            state.resize(n_cols, 0.0);
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v * 3.0).sin() + r as f64 * 0.01 + j as f64;
            }
        };
        // Serial reference in the calling thread.
        {
            let mut state = Vec::new();
            for (r, row) in serial.chunks_exact_mut(n_cols).enumerate() {
                work(&mut state, r, row);
            }
        }
        par_rows(&mut parallel, n_cols, Vec::new, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_rows_handles_degenerate_shapes() {
        let mut empty: Vec<f64> = Vec::new();
        par_rows(&mut empty, 4, || (), |_, _, _| panic!("no rows"));
        let mut one = vec![1.0, 2.0, 3.0];
        par_rows(
            &mut one,
            3,
            || (),
            |_, r, row| {
                assert_eq!(r, 0);
                row[0] += 1.0;
            },
        );
        assert_eq!(one[0], 2.0);
    }

    proptest! {
        #[test]
        fn dot_parity_property(raw in proptest::collection::vec(-1e3f64..1e3, 0..64)) {
            let m = raw.len() / 2;
            let (a, b) = (&raw[..m], &raw[m..2 * m]);
            let got = dot(a, b);
            let want = scalar::dot(a, b);
            let mag: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
            prop_assert!((got - want).abs() <= 1e-12 * (1.0 + mag));
        }

        #[test]
        fn rfft_forward_parity_property(raw in proptest::collection::vec(-1.0f64..1.0, 0..48)) {
            let n = 64;
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut got = vec![Complex::ZERO; plan.n_bins()];
            plan.forward(&raw, &mut scratch, &mut got);
            let full = fft::rfft(&raw, n);
            for (g, w) in got.iter().zip(&full) {
                prop_assert!((g.re - w.re).abs() <= 1e-10 && (g.im - w.im).abs() <= 1e-10);
            }
        }
    }
}
