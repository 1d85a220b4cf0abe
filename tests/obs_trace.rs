//! Span tracing across the serving path. Tracing state is process-global,
//! so this test lives alone in its own binary: no concurrent test can
//! record spans into the ring while the forest is being validated.

use std::sync::Arc;

use mvp_ears_suite::asr::AsrProfile;
use mvp_ears_suite::audio::Waveform;
use mvp_ears_suite::corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears_suite::ears::DetectionSystem;
use mvp_ears_suite::ml::ClassifierKind;
use mvp_ears_suite::obs::trace;
use mvp_ears_suite::serve::{DegradePolicy, DetectionEngine, EngineConfig};

#[test]
fn serve_path_emits_a_valid_span_forest() {
    let mut system = DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build();
    let n_aux = system.n_auxiliaries();
    let benign: Vec<Vec<f64>> = (0..24).map(|i| vec![0.85 + 0.01 * (i % 5) as f64]).collect();
    let aes: Vec<Vec<f64>> = (0..24).map(|i| vec![0.05 + 0.01 * (i % 5) as f64]).collect();
    system.train_on_scores(&benign, &aes, ClassifierKind::Knn);
    let system = Arc::new(system);
    let corpus =
        CorpusBuilder::new(CorpusConfig { size: 2, seed: 31, ..CorpusConfig::default() }).build();
    let waves: Vec<Arc<Waveform>> =
        corpus.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect();

    // Enable only around the serving window, after all training noise.
    trace::enable(1 << 16);
    let policy = DegradePolicy::untrained(n_aux);
    let config = EngineConfig { deadline_ms: 60_000, ..EngineConfig::default() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);
    for wave in &waves {
        engine.detect_blocking(Arc::clone(wave)).expect("accepted");
    }
    let replay = engine.detect_blocking(Arc::clone(&waves[0])).expect("accepted");
    assert!(replay.from_cache, "replay must hit the cache");
    engine.shutdown(); // joins every worker: all spans are closed
    let events = trace::drain();
    trace::disable();

    assert_eq!(trace::dropped(), 0, "ring must not overflow in this test");
    trace::validate(&events).unwrap_or_else(|e| panic!("invalid span forest: {e}"));

    // Every stage of the serving pipeline shows up.
    for name in [
        "serve.submit",
        "serve.transcribe",
        "serve.finalize",
        "serve.cache_hit",
        "asr.features",
        "asr.decode",
    ] {
        assert!(
            events.iter().any(|e| e.name == name),
            "no `{name}` span among {} events",
            events.len()
        );
    }

    // Ingress spans are tagged with the request id, one per submission.
    let submits = events.iter().filter(|e| e.name == "serve.submit").count();
    assert_eq!(submits, waves.len() + 1);

    // The forest renders with one line per span.
    let tree = trace::render_tree(&events);
    assert_eq!(tree.lines().count(), events.len());
    assert!(tree.contains("serve.transcribe"));
}
