//! Verdict equivalence across every route a waveform can take: in-process
//! one-shot detection, the serving engine's one-shot submit, chunked
//! streams at seeded random chunkings, a 2-shard router, an engine
//! warm-started from a saved `detector.mvpa`, and the same waveform
//! submitted twice concurrently. Scores, target transcripts and verdicts
//! must agree bit for bit on benign speech and on committed adversarial
//! examples. A second test pins served early exit to the in-process
//! streaming detector, chunk for chunk.

use std::path::Path;
use std::sync::Arc;

use mvp_ears_suite::asr::AsrProfile;
use mvp_ears_suite::audio::wav::read_wav;
use mvp_ears_suite::audio::Waveform;
use mvp_ears_suite::corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears_suite::ears::{DetectionSystem, EarlyExit};
use mvp_ears_suite::ml::ClassifierKind;
use mvp_ears_suite::serve::{
    DegradePolicy, DetectionEngine, EngineConfig, RouterConfig, ShardRouter, Verdict, VerdictKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn trained_system() -> DetectionSystem {
    let mut system = DetectionSystem::builder(AsrProfile::Ds0)
        .auxiliary(AsrProfile::Ds1)
        .auxiliary(AsrProfile::Gcs)
        .build();
    let n_aux = system.n_auxiliaries();
    let benign: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..n_aux).map(|j| 0.82 + 0.015 * ((i + j) % 10) as f64).collect())
        .collect();
    let aes: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..n_aux).map(|j| 0.03 + 0.015 * ((i * 3 + j) % 10) as f64).collect())
        .collect();
    system.train_on_scores(&benign, &aes, ClassifierKind::Knn);
    system
}

/// Seeded benign speech plus committed adversarial examples (white- and
/// black-box AEs against DS0, from `data/tiny/ae_wavs`).
fn inputs() -> Vec<(String, Arc<Waveform>)> {
    let corpus =
        CorpusBuilder::new(CorpusConfig { size: 3, seed: 2_026, ..CorpusConfig::default() })
            .build();
    let mut out: Vec<(String, Arc<Waveform>)> = corpus
        .utterances()
        .iter()
        .enumerate()
        .map(|(i, u)| (format!("benign{i}"), Arc::new(u.wave.clone())))
        .collect();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/tiny/ae_wavs");
    for id in ["wb0", "wb1", "bb0"] {
        let path = dir.join(format!("{id}.wav"));
        let file = std::fs::File::open(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let wave = read_wav(std::io::BufReader::new(file)).expect("committed AE parses");
        out.push((id.to_string(), Arc::new(wave)));
    }
    out
}

fn no_deadline() -> EngineConfig {
    EngineConfig { deadline_ms: 60_000, ..EngineConfig::default() }
}

/// Seeded random chunk sizes covering `len` samples, each below `max`
/// and one in five a single sample.
fn chunk_sizes(rng: &mut StdRng, len: usize, max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = len;
    while left > 0 {
        let size = if rng.gen_range(0u32..5) == 0 { 1 } else { rng.gen_range(1..max) };
        let size = size.min(left);
        sizes.push(size);
        left -= size;
    }
    sizes
}

fn stream(engine: &DetectionEngine, wave: &Waveform, sizes: &[usize]) -> Verdict {
    let mut handle = engine.submit_stream().expect("stream accepted");
    let mut offset = 0;
    for &size in sizes {
        handle.push(&wave.samples()[offset..offset + size]).expect("chunk accepted");
        offset += size;
    }
    handle.finish().expect("stream answered")
}

/// What every route must agree on, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    adversarial: bool,
    scores: Vec<u64>,
    target: String,
}

impl Outcome {
    fn from_verdict(verdict: &Verdict) -> Outcome {
        assert_eq!(verdict.kind, VerdictKind::Full, "no route may degrade here");
        assert!(!verdict.early_exit);
        Outcome {
            adversarial: verdict.is_adversarial.expect("full verdicts decide"),
            scores: verdict.scores.iter().map(|s| s.expect("full vector").to_bits()).collect(),
            target: verdict.target_transcription.clone().expect("target answered"),
        }
    }
}

#[test]
fn every_route_returns_the_same_verdict() {
    let system = Arc::new(trained_system());
    let n_aux = system.n_auxiliaries();
    let policy = || DegradePolicy::untrained(n_aux);
    let engine = DetectionEngine::start(Arc::clone(&system), policy(), no_deadline());
    let uncached = DetectionEngine::start(
        Arc::clone(&system),
        policy(),
        EngineConfig { cache_cap: 0, ..no_deadline() },
    );
    let router = ShardRouter::start(
        Arc::clone(&system),
        RouterConfig { n_shards: 2, steal_depth: 8, engine: no_deadline() },
        |_| policy(),
    );
    let dir = std::env::temp_dir().join(format!("mvp-verdict-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let warm_config = EngineConfig { model_dir: Some(dir.clone()), ..no_deadline() };
    let (cold, warm) =
        DetectionEngine::start_or_warm(policy(), warm_config.clone(), trained_system)
            .expect("cold start persists the system");
    assert!(!warm);
    cold.shutdown();
    let (warmed, warm) =
        DetectionEngine::start_or_warm(policy(), warm_config, || panic!("must warm-start"))
            .expect("warm start");
    assert!(warm);

    let mut rng = StdRng::seed_from_u64(0x5EED_0012);
    let mut adversarial = 0;
    for (name, wave) in inputs() {
        let d = system.detect(&wave);
        let reference = Outcome {
            adversarial: d.is_adversarial,
            scores: d.scores.iter().map(|s| s.to_bits()).collect(),
            target: d.target_transcription,
        };
        adversarial += usize::from(reference.adversarial);
        let chunkings =
            [chunk_sizes(&mut rng, wave.len(), 3_000), chunk_sizes(&mut rng, wave.len(), 3_000)];
        type Route<'a> = (&'a str, Box<dyn Fn() -> Vec<Verdict> + 'a>);
        let routes: Vec<Route<'_>> = vec![
            ("submit", Box::new(|| vec![engine.detect_blocking(Arc::clone(&wave)).unwrap()])),
            (
                "stream",
                Box::new(|| chunkings.iter().map(|sizes| stream(&engine, &wave, sizes)).collect()),
            ),
            ("router", Box::new(|| vec![router.detect_blocking(Arc::clone(&wave)).unwrap()])),
            ("warm", Box::new(|| vec![warmed.detect_blocking(Arc::clone(&wave)).unwrap()])),
            (
                "concurrent twins",
                Box::new(|| {
                    let first = uncached.submit(Arc::clone(&wave)).unwrap();
                    let second = uncached.submit(Arc::clone(&wave)).unwrap();
                    vec![first.wait(), second.wait()]
                }),
            ),
        ];
        for (route, run) in &routes {
            for verdict in run() {
                let got = Outcome::from_verdict(&verdict);
                assert_eq!(got, reference, "{name}: route `{route}` diverged from detect");
            }
        }
    }
    assert!(adversarial > 0, "the AE fixtures must exercise adversarial verdicts");
    assert_eq!(uncached.stats().cache_hits, 0);

    engine.shutdown();
    uncached.shutdown();
    router.shutdown();
    warmed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_early_exit_matches_in_process_streams() {
    let system = Arc::new(trained_system());
    let rule = EarlyExit { threshold: 0.6, margin: 0.05, horizon: 2, min_frames: 20 };
    let config = EngineConfig { early_exit: Some(rule), ..no_deadline() };
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let mut rng = StdRng::seed_from_u64(0xEA51_E817);
    let (mut early, mut late) = (0, 0);
    for (name, wave) in inputs() {
        for chunking in 0..2 {
            let sizes = chunk_sizes(&mut rng, wave.len(), 1_600);
            // In-process reference: the first early verdict, else finish.
            let mut reference = system.stream_begin(Some(rule));
            let mut offset = 0;
            let mut fired = None;
            for &size in &sizes {
                let chunk = &wave.samples()[offset..offset + size];
                offset += size;
                if let Some(d) = reference.push_f32(&system, chunk) {
                    fired = Some(d.clone());
                    break;
                }
            }
            let expected = fired.unwrap_or_else(|| reference.finish(&system));
            if expected.early_exit {
                early += 1;
            } else {
                late += 1;
            }
            for repetition in 0..5 {
                let verdict = stream(&engine, &wave, &sizes);
                let context = format!("{name} chunking {chunking} repetition {repetition}");
                assert_eq!(verdict.early_exit, expected.early_exit, "{context}: early flag");
                assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial), "{context}");
                let scores: Vec<u64> =
                    verdict.scores.iter().map(|s| s.expect("full vector").to_bits()).collect();
                let bits: Vec<u64> = expected.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(scores, bits, "{context}: scores");
                assert_eq!(
                    verdict.target_transcription.as_deref(),
                    Some(expected.target_transcription.as_str()),
                    "{context}: target transcript"
                );
            }
        }
    }
    assert!(early > 0 && late > 0, "need both early and end-of-stream verdicts: {early}/{late}");
    engine.shutdown();
}
