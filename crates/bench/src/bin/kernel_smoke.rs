//! CI smoke test for the kernel plane. Exits non-zero on any failure,
//! so `scripts/ci.sh` can gate on it. Two gates:
//!
//! 1. **Parity**: every tuned kernel agrees with its scalar oracle —
//!    bit-exactly where the kernel preserves the oracle's operation
//!    order (mel, DCT, axpy), within documented reassociation slack for
//!    the 4-lane reductions (dot/GEMM), and within O(n·ε) for the
//!    real-input FFT against the full complex transform (whose fused
//!    power entry must equal `|forward|²` bit for bit).
//! 2. **Timing**: end-to-end tiny-scale transcription with the tuned
//!    kernels must not be slower than the scalar-oracle path (10%
//!    tolerance absorbs scheduler noise) — a vectorized kernel that
//!    loses to its own fallback is a regression even when it is correct.
//!
//! The process is single-threaded apart from `par_rows` workers, so the
//! global `force_scalar` switch is safe here (it is not in `cargo test`,
//! whose harness runs tests concurrently).

use std::process::ExitCode;
use std::time::Instant;

use mvp_asr::{Asr, AsrProfile};
use mvp_bench::{ExperimentContext, Scale};
use mvp_dsp::kernel::{self, DctPlan, RfftPlan, RfftScratch};
use mvp_dsp::mel::MelFilterbank;
use mvp_dsp::{dct, fft, Complex};

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("kernel smoke: PASS");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("kernel smoke: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    parity_gate()?;
    timing_gate()
}

/// Deterministic xorshift fill, seeded per call site.
fn lcg_fill(buf: &mut [f64], mut seed: u64) {
    for v in buf.iter_mut() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *v = (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// Gate 1: tuned kernels vs scalar oracles across degenerate, odd and
/// hot-path shapes.
fn parity_gate() -> Result<(), String> {
    // dot: 4-lane reduction vs in-order sum, reassociation slack only.
    for (i, &n) in [0usize, 1, 3, 4, 7, 8, 17, 64, 403].iter().enumerate() {
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        lcg_fill(&mut a, 0xA0 + i as u64);
        lcg_fill(&mut b, 0xB0 + i as u64);
        let (fast, oracle) = (kernel::dot(&a, &b), kernel::scalar::dot(&a, &b));
        if rel_err(fast, oracle) > 1e-12 {
            return Err(format!("dot parity at n={n}: {fast} vs {oracle}"));
        }
    }

    // gemm == gemv == dot, bitwise: the tiling must never split the
    // reduction axis (the per-call/batch equality in serve rests on it).
    let (m, n, k) = (5usize, 7usize, 403usize);
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; n * k];
    lcg_fill(&mut a, 0xC0);
    lcg_fill(&mut b, 0xC1);
    let mut out = vec![0.0; m * n];
    kernel::gemm_nt(&a, m, &b, n, k, &mut out);
    for i in 0..m {
        let mut row = vec![0.0; n];
        kernel::gemv(&b, k, &a[i * k..(i + 1) * k], &mut row);
        for j in 0..n {
            let direct = kernel::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            if out[i * n + j] != row[j] || row[j] != direct {
                return Err(format!("gemm/gemv/dot bitwise parity broke at ({i}, {j})"));
            }
        }
    }

    // rfft: half-size packed transform vs the full complex FFT, at both
    // parities of log2(n/2) (radix-2 first stage or pure radix-4).
    for n in [2usize, 8, 64, 512, 1024] {
        let plan = RfftPlan::new(n);
        let mut scratch = RfftScratch::default();
        let mut signal = vec![0.0; n];
        lcg_fill(&mut signal, 0xD0 + n as u64);
        let mut spec = vec![Complex::default(); n / 2 + 1];
        plan.forward(&signal, &mut scratch, &mut spec);
        let mut full: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft::fft(&mut full);
        for (i, z) in spec.iter().enumerate() {
            let err = (z.re - full[i].re).abs().max((z.im - full[i].im).abs());
            if err > 1e-9 {
                return Err(format!("rfft parity at n={n} bin {i}: err {err:e}"));
            }
        }
        // The fused power entry must reproduce |forward|^2 bit for bit.
        let mut power = vec![0.0; n / 2 + 1];
        plan.forward_power(&signal, &mut scratch, &mut power);
        for (i, (p, z)) in power.iter().zip(&spec).enumerate() {
            if p.to_bits() != z.norm_sq().to_bits() {
                return Err(format!("rfft power != |forward|^2 at n={n} bin {i}"));
            }
        }
        // Round trip through the inverse.
        let mut back = vec![0.0; n];
        plan.inverse(&spec, &mut scratch, &mut back);
        for (i, (&x, &y)) in signal.iter().zip(&back).enumerate() {
            if (x - y).abs() > 1e-10 {
                return Err(format!("irfft round-trip at n={n} sample {i}"));
            }
        }
    }

    // mel: fused in-range apply vs the dense oracle, bit-exact.
    let bank = MelFilterbank::new(26, 512, 16_000.0, 0.0, 8_000.0);
    let mut power = vec![0.0; bank.n_bins()];
    lcg_fill(&mut power, 0xE0);
    for p in &mut power {
        *p = p.abs();
    }
    let mut fused = vec![0.0; bank.n_filters()];
    let mut dense = vec![0.0; bank.n_filters()];
    bank.apply_into(&power, &mut fused);
    bank.apply_dense_into(&power, &mut dense);
    if fused != dense {
        return Err("mel fused apply diverged from dense oracle".into());
    }

    // dct: plan with cached cosines vs the recomputing oracle, bit-exact.
    let plan = DctPlan::new(26, 13);
    let mut logmel = vec![0.0; 26];
    lcg_fill(&mut logmel, 0xF0);
    let mut cep = vec![0.0; 13];
    let mut oracle = vec![0.0; 13];
    plan.forward_into(&logmel, &mut cep);
    dct::dct2_into(&logmel, &mut oracle);
    if cep != oracle {
        return Err("dct plan diverged from oracle".into());
    }

    println!("parity gate: dot/gemm/rfft/mel/dct agree with scalar oracles");
    Ok(())
}

/// Gate 2: the tuned kernels must not lose to their own scalar fallback
/// on end-to-end tiny-scale transcription.
fn timing_gate() -> Result<(), String> {
    let ctx = ExperimentContext::load_or_generate(Scale::TINY);
    let asr = AsrProfile::Ds0.trained_in(Some(&ctx.models_dir()));
    let waves: Vec<&mvp_audio::Waveform> =
        ctx.benign.utterances().iter().map(|u| &u.wave).collect();

    let time_stream = |rounds: usize| {
        let t = Instant::now();
        for _ in 0..rounds {
            for w in &waves {
                std::hint::black_box(asr.transcribe(w));
            }
        }
        t.elapsed().as_secs_f64()
    };

    // Warm both modes once (code, caches, allocator), then measure.
    time_stream(1);
    kernel::force_scalar(true);
    time_stream(1);
    let scalar = time_stream(2);
    kernel::force_scalar(false);
    let vectorized = time_stream(2);

    println!(
        "timing gate: vectorized {:.1} ms vs scalar {:.1} ms ({:.2}x)",
        vectorized * 1e3,
        scalar * 1e3,
        scalar / vectorized
    );
    if vectorized > scalar * 1.10 {
        return Err(format!(
            "vectorized transcription ({:.1} ms) slower than scalar oracles ({:.1} ms)",
            vectorized * 1e3,
            scalar * 1e3
        ));
    }
    Ok(())
}
