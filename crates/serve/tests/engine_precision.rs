//! End-to-end tests for precision-mixed ensembles on the engine: a
//! system built with an int8 auxiliary
//! (`DetectionSystemBuilder::auxiliary_variant`) serves verdicts that
//! match in-process detection on the same system bit for bit.

use std::sync::Arc;

use mvp_asr::{AsrProfile, PrecisionVariant};
use mvp_audio::synth::{SpeakerProfile, Synthesizer};
use mvp_ears::DetectionSystem;
use mvp_ml::ClassifierKind;
use mvp_phonetics::Lexicon;
use mvp_serve::{DegradePolicy, DetectionEngine, EngineConfig, VerdictKind};

fn train(system: &mut DetectionSystem) {
    let benign: Vec<Vec<f64>> = (0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01]).collect();
    let aes: Vec<Vec<f64>> = (0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01]).collect();
    system.train_on_scores(&benign, &aes, ClassifierKind::Svm);
}

fn speech() -> mvp_audio::Waveform {
    let synth = Synthesizer::new(16_000);
    synth.synthesize(&Lexicon::builtin(), "turn on the light", &SpeakerProfile::default()).0
}

#[test]
fn int8_auxiliary_variant_serves_like_in_process_detection() {
    // One system with DS1@int8 as its auxiliary, served and in-process:
    // the engine's worker for that auxiliary runs the quantized model it
    // was handed, so the verdicts must agree bit for bit.
    let mut system = DetectionSystem::builder(AsrProfile::Ds0)
        .auxiliary_variant(PrecisionVariant::int8(AsrProfile::Ds1))
        .build();
    train(&mut system);
    let system = Arc::new(system);
    assert_eq!(system.auxiliaries()[0].precision(), "int8");
    let wave = speech();
    let expected = system.detect(&wave);

    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig { cache_cap: 0, ..EngineConfig::default() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);
    let verdict = engine.detect_blocking(wave).unwrap();
    engine.shutdown();

    assert_eq!(verdict.kind, VerdictKind::Full);
    assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
    let scores: Vec<Option<f64>> = expected.scores.iter().map(|&s| Some(s)).collect();
    assert_eq!(verdict.scores, scores);
    assert_eq!(
        verdict.target_transcription.as_deref(),
        Some(expected.target_transcription.as_str())
    );
}

#[test]
fn empty_precision_mix_serves_full_precision() {
    let mut system = DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build();
    train(&mut system);
    let wave = speech();
    let expected = system.detect(&wave);
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let engine = DetectionEngine::start(
        Arc::new(system),
        policy,
        EngineConfig { cache_cap: 0, ..EngineConfig::default() },
    );
    let verdict = engine.detect_blocking(wave).unwrap();
    engine.shutdown();
    let scores: Vec<Option<f64>> = expected.scores.iter().map(|&s| Some(s)).collect();
    assert_eq!(verdict.scores, scores);
}
