//! CI smoke test for the streaming/sharding plane. Exits non-zero on
//! any failure, so `scripts/ci.sh` can gate on it. Two gates:
//!
//! 1. **Shard scaling**: a 4-shard router must beat a single engine by
//!    at least 1.5x throughput on the tiny working set. CI has one
//!    core, so the speedup comes from cache affinity: the per-shard
//!    cache is sized below the distinct-waveform set, which makes one
//!    shard thrash its LRU on every pass while four shards keep their
//!    content-hashed residents cached.
//! 2. **Streaming parity**: a forced chunked run (early exit off) must
//!    produce exactly the one-shot verdict — same flag, same scores,
//!    same transcript — for every tiny-scale utterance.

use std::process::ExitCode;
use std::sync::Arc;

use mvp_asr::AsrProfile;
use mvp_audio::Waveform;
use mvp_bench::{ExperimentContext, Scale};
use mvp_ears::{DetectionSystem, SimilarityMethod};
use mvp_ml::ClassifierKind;
use mvp_serve::{
    run_load, DegradePolicy, DetectionEngine, EngineConfig, LoadMode, LoadSpec, RouterConfig,
    ShardRouter,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("shard smoke: PASS");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("shard smoke: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let ctx = ExperimentContext::load_or_generate(Scale::TINY);
    let method = SimilarityMethod::default();
    let aux: Vec<AsrProfile> = mvp_bench::experiments::THREE_AUX.to_vec();

    let mut system = DetectionSystem::builder(AsrProfile::Ds0)
        .auxiliary(aux[0])
        .auxiliary(aux[1])
        .auxiliary(aux[2])
        .build();
    let benign_scores = ctx.benign_scores(&aux, method);
    let ae_scores = ctx.ae_scores(&aux, method, None);
    system.train_on_scores(&benign_scores, &ae_scores, ClassifierKind::Svm);
    let system = Arc::new(system);
    let n_aux = system.n_auxiliaries();

    let corpus: Vec<Arc<Waveform>> =
        ctx.benign.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect();
    if corpus.is_empty() {
        return Err("tiny corpus is empty".into());
    }

    scaling_gate(&system, n_aux, &benign_scores, &ae_scores, &corpus)?;
    parity_gate(&system, n_aux, &corpus)
}

/// Gate 1: 4 shards must beat 1 shard by >= 1.5x on the same workload.
fn scaling_gate(
    system: &Arc<DetectionSystem>,
    n_aux: usize,
    benign_scores: &[Vec<f64>],
    ae_scores: &[Vec<f64>],
    corpus: &[Arc<Waveform>],
) -> Result<(), String> {
    let engine = EngineConfig {
        queue_cap: 64,
        deadline_ms: 120_000,
        // Smaller than the distinct set: one shard must thrash.
        cache_cap: (corpus.len() / 3).max(2),
        ..EngineConfig::default()
    };
    let mut rps = Vec::new();
    for n_shards in [1usize, 4] {
        let spec = LoadSpec {
            name: format!("smoke-x{n_shards}"),
            requests: corpus.len() * 3,
            mode: LoadMode::Closed { concurrency: 4 },
            duplicate_frac: 0.0,
            seed: 77,
        };
        let config = RouterConfig { n_shards, steal_depth: 64, engine: engine.clone() };
        let router = ShardRouter::start(Arc::clone(system), config, |_| {
            DegradePolicy::trained(n_aux, benign_scores, ae_scores, ClassifierKind::Knn, 0.05)
        });
        let report = run_load(&router, corpus, &spec);
        router.shutdown();
        if report.tally.total() != report.offered as u64 {
            return Err(format!(
                "{}: answered {} of {} requests",
                report.name,
                report.tally.total(),
                report.offered
            ));
        }
        rps.push(report.throughput_rps);
    }
    let speedup = rps[1] / rps[0].max(1e-9);
    println!("scaling gate: 1 shard {:.1} rps, 4 shards {:.1} rps ({speedup:.2}x)", rps[0], rps[1]);
    if speedup < 1.5 {
        return Err(format!("4-shard speedup {speedup:.2}x below the 1.5x floor"));
    }
    Ok(())
}

/// Gate 2: chunked ingress with early exit off reproduces the one-shot
/// verdict exactly.
fn parity_gate(
    system: &Arc<DetectionSystem>,
    n_aux: usize,
    corpus: &[Arc<Waveform>],
) -> Result<(), String> {
    let config = EngineConfig { deadline_ms: 120_000, ..EngineConfig::default() };
    let engine =
        DetectionEngine::start(Arc::clone(system), DegradePolicy::untrained(n_aux), config);
    for (i, wave) in corpus.iter().enumerate() {
        let expected = system.detect(wave);
        let mut handle = engine.submit_stream().map_err(|e| format!("open stream {i}: {e:?}"))?;
        for chunk in wave.samples().chunks(1_600) {
            handle.push(chunk).map_err(|e| format!("push on stream {i}: {e:?}"))?;
        }
        let verdict = handle.finish().map_err(|e| format!("finish stream {i}: {e:?}"))?;
        let scores: Vec<f64> = verdict.scores.iter().map(|s| s.unwrap_or(f64::NAN)).collect();
        if verdict.is_adversarial != Some(expected.is_adversarial)
            || scores != expected.scores
            || verdict.target_transcription.as_deref()
                != Some(expected.target_transcription.as_str())
        {
            return Err(format!("chunked verdict diverged from one-shot on utterance {i}"));
        }
    }
    engine.shutdown();
    println!("parity gate: chunked verdicts match one-shot on {} utterances", corpus.len());
    Ok(())
}
