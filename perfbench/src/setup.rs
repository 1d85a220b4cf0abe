//! Cold set-up: train the four recognisers in-process, generate the
//! workload's inputs from its seed, and fit the classifiers.
//!
//! Nothing is read from or written to a model directory, so a model
//! trained by another build is never measured. The committed quick-scale
//! adversarial examples are the only files read.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mvp_asr::{Asr, AsrProfile, TrainedAsr};
use mvp_audio::wav::read_wav;
use mvp_audio::Waveform;
use mvp_corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears::DetectionSystem;
use mvp_ml::{ClassifierKind, Mat};
use mvp_modality::ModalityKind;

use crate::rng::SplitMix64;

/// The paper's detector: DS0 target, then the DS1, GCS and AT auxiliaries.
pub const PROFILES: [AsrProfile; 4] =
    [AsrProfile::Ds0, AsrProfile::Ds1, AsrProfile::Gcs, AsrProfile::At];

/// Corpus seed of the classifier's benign training utterances. Workload
/// inputs are drawn from `INPUT_SEED_BASE + seed`, far from it and from
/// every profile's own training seed.
const TRAIN_CORPUS_SEED: u64 = 7_707;
const INPUT_SEED_BASE: u64 = 0x5EED_0000_0000;
const TRAIN_BENIGN: usize = 40;
/// Per class, for the fused classifier: modality scoring costs ~30 ms per
/// utterance, so it trains on a subset of the similarity training set.
const FUSED_TRAIN_PER_CLASS: usize = 24;

/// One labelled input.
#[derive(Debug, Clone)]
pub struct Item {
    pub wave: Arc<Waveform>,
    pub adversarial: bool,
}

/// Which detector a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Similarity scores only, SVM (the paper's detector).
    Similarity,
    /// Similarity plus every modality, fused SVM.
    Fused,
}

/// A ready-to-measure detector and its seeded inputs.
pub struct Fixture {
    pub system: Arc<DetectionSystem>,
    /// Labelled inputs in seeded order.
    pub pool: Vec<Item>,
}

/// Where the committed quick-scale adversarial examples live.
fn ae_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/quick")
}

/// Runs `f` over `items` on two threads, preserving order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *out[i].lock().expect("result slot") = Some(f(item));
            });
        }
    });
    out.into_iter().map(|m| m.into_inner().expect("result slot").expect("item mapped")).collect()
}

/// Trains the four profiles cold, two at a time, longest first.
pub fn train_profiles() -> Vec<Arc<TrainedAsr>> {
    // GCS trains longest (widest context, largest corpus).
    let order = [AsrProfile::Gcs, AsrProfile::At, AsrProfile::Ds1, AsrProfile::Ds0];
    let trained = par_map(&order, |p| Arc::new(p.train()));
    PROFILES
        .iter()
        .map(|p| {
            let i = order.iter().position(|o| o == p).expect("profile trained");
            Arc::clone(&trained[i])
        })
        .collect()
}

/// Reads the committed adversarial examples in manifest order.
pub fn load_aes(dir: &Path) -> Result<Vec<Waveform>, String> {
    let manifest = dir.join("aes.tsv");
    let text = fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let id = line.split('\t').next().unwrap_or_default();
            let path = dir.join("ae_wavs").join(format!("{id}.wav"));
            let file = fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            read_wav(std::io::BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

fn benign(size: usize, seed: u64) -> Vec<Waveform> {
    CorpusBuilder::new(CorpusConfig { size, seed, noise_prob: 0.5, ..CorpusConfig::default() })
        .build()
        .utterances()
        .iter()
        .map(|u| u.wave.clone())
        .collect()
}

fn serial_transcripts(system: &DetectionSystem, wave: &Waveform) -> (String, Vec<String>) {
    system.transcribe_all(wave, |asrs, w| asrs.iter().map(|a| a.transcribe(w)).collect())
}

/// One complete cold set-up.
///
/// The adversarial examples are split by manifest position: even ones
/// train the classifier, odd ones are workload inputs. The pool holds
/// `pool_len` inputs: every held-out AE and as many seeded benign
/// utterances as fill it, shuffled by `seed`.
pub fn setup(plane: Plane, pool_len: usize, seed: u64) -> Result<Fixture, String> {
    let asrs = train_profiles();
    let aes = load_aes(&ae_dir())?;
    if aes.len() < 4 {
        return Err(format!(
            "only {} adversarial examples under {}",
            aes.len(),
            ae_dir().display()
        ));
    }
    let (train_ae, test_ae): (Vec<_>, Vec<_>) =
        aes.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);

    let mut builder = DetectionSystem::builder_for(Arc::clone(&asrs[0]));
    for aux in &asrs[1..] {
        builder = builder.auxiliary_asr(Arc::clone(aux));
    }
    if plane == Plane::Fused {
        builder = builder.modality_kinds(&ModalityKind::ALL);
    }
    let mut system = builder.build();

    let train_benign = benign(TRAIN_BENIGN, TRAIN_CORPUS_SEED);
    let train_ae: Vec<Waveform> = train_ae.into_iter().map(|(_, w)| w).collect();
    let rows = |waves: &[Waveform], with_modalities: usize| -> Vec<Vec<f64>> {
        let indexed: Vec<(usize, &Waveform)> = waves.iter().enumerate().collect();
        par_map(&indexed, |&(i, w)| {
            let (target, aux) = serial_transcripts(&system, w);
            let mut row = system.scores_from_transcripts(&target, &aux);
            if i < with_modalities {
                for outcome in system.score_modalities(w, &target) {
                    row.extend_from_slice(&outcome.features);
                }
            }
            row
        })
    };
    let fused_n = if plane == Plane::Fused { FUSED_TRAIN_PER_CLASS } else { 0 };
    let neg = rows(&train_benign, fused_n);
    let pos = rows(&train_ae, fused_n);
    let n_aux = system.n_auxiliaries();
    let sim = |rows: &[Vec<f64>]| {
        Mat::from_rows(rows.iter().map(|r| r[..n_aux].to_vec()).collect(), n_aux)
    };
    system.train_on_mats(sim(&neg), sim(&pos), ClassifierKind::Svm);
    if let Some(layout) = system.fusion_layout() {
        let raw = |rows: &[Vec<f64>]| Mat::from_rows(rows[..fused_n].to_vec(), layout.raw_dim());
        let (n, p) = (raw(&neg), raw(&pos));
        system.train_fused_on_mats(n, p, ClassifierKind::Svm);
    }

    let n_benign = pool_len.saturating_sub(test_ae.len());
    let mut pool: Vec<Item> = benign(n_benign, INPUT_SEED_BASE.wrapping_add(seed))
        .into_iter()
        .map(|w| Item { wave: Arc::new(w), adversarial: false })
        .chain(test_ae.into_iter().map(|(_, w)| Item { wave: Arc::new(w), adversarial: true }))
        .collect();
    SplitMix64::new(seed ^ 0x9E37_79B9).shuffle(&mut pool);
    Ok(Fixture { system: Arc::new(system), pool })
}
