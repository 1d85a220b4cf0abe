//! The five diverse ASR profiles and their training harness.
//!
//! Diversity axes mirror the paper's Section IV-D discussion:
//!
//! | Profile | Mirrors | Feature geometry | Context | Subsample | Training data |
//! |---|---|---|---|---|---|
//! | `Ds0` | DeepSpeech v0.1.0 (the attack target) | 25 ms / 10 ms, 26 mel, 13 cep | ±1 | 1 | seed A |
//! | `Ds1` | DeepSpeech v0.1.1 (same architecture, retrained) | identical to DS0 | ±1 | 1 | seed B |
//! | `Gcs` | Google Cloud Speech (LSTM: long context) | 20 ms / 10 ms, 40 mel, 13 cep | ±3 | 1 | seed C |
//! | `At` | Amazon Transcribe (unknown internals) | 32 ms / 12 ms, 32 mel, 16 cep | ±2 | 1 | seed D |
//! | `Kaldi` | Kaldi (deliberately weak auxiliary, §V-E note) | 25 ms / 10 ms, 13 mel, 8 cep | 0 | 3 | small, noisy |
//! | `KaldiVariant` | the Kaldi `--frame-subsampling-factor` variant of §III | as Kaldi | 0 | 1 | as Kaldi |
//!
//! Training is deterministic per profile and cached process-wide, so tests
//! and experiment binaries pay the (few-second) cost once.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use mvp_artifact::{ArtifactError, Persist};
use mvp_corpus::{command_phrases, CorpusBuilder, CorpusConfig, SentenceGenerator};
use mvp_dsp::mfcc::{FeatureMatrix, MfccConfig};
use mvp_dsp::Window;
use mvp_phonetics::{Lexicon, Phoneme};

use crate::am::{AcousticModel, TrainConfig};
use crate::decoder::{Decoder, DecoderConfig};
use crate::features::{FeatureFrontEnd, FrontEndConfig};
use crate::lm::BigramLm;
use crate::recognizer::{Asr, TrainedAsr};

/// Environment variable naming a directory of persisted profile artifacts.
///
/// When set, [`AsrProfile::trained`] backs its process-wide cache with the
/// directory: profiles load from disk instead of retraining, and freshly
/// trained profiles are saved there for the next process.
pub const MODEL_DIR_ENV: &str = "MVP_EARS_MODEL_DIR";

/// One of the simulated ASR systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsrProfile {
    /// DeepSpeech v0.1.0 analogue — the attack target model.
    Ds0,
    /// DeepSpeech v0.1.1 analogue — same architecture, different training.
    Ds1,
    /// Google Cloud Speech analogue — wide temporal context.
    Gcs,
    /// Amazon Transcribe analogue — distinct feature geometry.
    At,
    /// Weak Kaldi analogue (frame subsampling 3, low feature resolution).
    Kaldi,
    /// The Kaldi variant with `--frame-subsampling-factor` set to 1
    /// (Section III transferability probe).
    KaldiVariant,
}

/// Everything needed to train one profile.
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    /// Display name.
    pub name: &'static str,
    /// Front-end geometry.
    pub frontend: FrontEndConfig,
    /// Acoustic-model training hyper-parameters.
    pub train: TrainConfig,
    /// Seed of the training corpus (different seeds = different data).
    pub corpus_seed: u64,
    /// Number of training sentences.
    pub corpus_size: usize,
    /// Probability of noise augmentation during training.
    pub noise_prob: f64,
    /// Seed of the LM training sample.
    pub lm_seed: u64,
    /// Number of LM training sentences.
    pub lm_size: usize,
    /// Decoder tuning.
    pub decoder: DecoderConfig,
}

impl AsrProfile {
    /// All profiles the workspace trains.
    pub const ALL: [AsrProfile; 6] = [
        AsrProfile::Ds0,
        AsrProfile::Ds1,
        AsrProfile::Gcs,
        AsrProfile::At,
        AsrProfile::Kaldi,
        AsrProfile::KaldiVariant,
    ];

    /// Display name (matches the paper's system notation).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The training specification of this profile.
    pub fn spec(self) -> ProfileSpec {
        let mfcc = |frame_len: usize, hop: usize, n_mels: usize, n_cepstra: usize| MfccConfig {
            sample_rate: 16_000,
            frame_len,
            hop,
            n_fft: 512,
            n_mels,
            n_cepstra,
            window: Window::Hann,
            f_min: 50.0,
            f_max: 8_000.0,
            pre_emphasis: 0.97,
            log_floor: 1e-10,
        };
        match self {
            AsrProfile::Ds0 => ProfileSpec {
                name: "DS0",
                frontend: FrontEndConfig { mfcc: mfcc(400, 160, 26, 13), context: 1, subsample: 1 },
                train: TrainConfig { seed: 100, hidden: 64, ..TrainConfig::default() },
                corpus_seed: 1_000,
                corpus_size: 70,
                noise_prob: 0.4,
                lm_seed: 100,
                lm_size: 400,
                decoder: DecoderConfig::default(),
            },
            AsrProfile::Ds1 => ProfileSpec {
                name: "DS1",
                // Same architecture as DS0; only training data and seeds
                // differ (v0.1.0 vs v0.1.1).
                frontend: FrontEndConfig { mfcc: mfcc(400, 160, 26, 13), context: 1, subsample: 1 },
                train: TrainConfig { seed: 200, hidden: 64, ..TrainConfig::default() },
                corpus_seed: 2_000,
                corpus_size: 70,
                noise_prob: 0.4,
                lm_seed: 200,
                lm_size: 400,
                decoder: DecoderConfig::default(),
            },
            AsrProfile::Gcs => ProfileSpec {
                name: "GCS",
                frontend: FrontEndConfig { mfcc: mfcc(320, 160, 40, 13), context: 3, subsample: 1 },
                train: TrainConfig { seed: 300, hidden: 96, ..TrainConfig::default() },
                corpus_seed: 3_000,
                corpus_size: 80,
                noise_prob: 0.5,
                lm_seed: 300,
                lm_size: 500,
                decoder: DecoderConfig::default(),
            },
            AsrProfile::At => ProfileSpec {
                name: "AT",
                frontend: FrontEndConfig { mfcc: mfcc(512, 192, 32, 16), context: 2, subsample: 1 },
                train: TrainConfig { seed: 400, hidden: 80, ..TrainConfig::default() },
                corpus_seed: 4_000,
                corpus_size: 80,
                noise_prob: 0.5,
                lm_seed: 400,
                lm_size: 500,
                decoder: DecoderConfig::default(),
            },
            AsrProfile::Kaldi => ProfileSpec {
                name: "KALDI",
                frontend: FrontEndConfig { mfcc: mfcc(400, 160, 13, 8), context: 0, subsample: 3 },
                train: TrainConfig { seed: 500, epochs: 4, hidden: 24, ..TrainConfig::default() },
                corpus_seed: 5_000,
                corpus_size: 25,
                noise_prob: 0.9,
                lm_seed: 500,
                lm_size: 150,
                decoder: DecoderConfig { min_run: 1, ..DecoderConfig::default() },
            },
            AsrProfile::KaldiVariant => {
                let mut spec = AsrProfile::Kaldi.spec();
                spec.name = "KALDI-SUB1";
                spec.frontend.subsample = 1;
                spec
            }
        }
    }

    /// Trains this profile from scratch (deterministic; a few seconds).
    pub fn train(self) -> TrainedAsr {
        let spec = self.spec();
        let frontend = FeatureFrontEnd::new(spec.frontend.clone());

        // 1. Acoustic model on frame-labelled synthetic speech.
        let corpus = CorpusBuilder::new(CorpusConfig {
            size: spec.corpus_size,
            seed: spec.corpus_seed,
            sample_rate: 16_000,
            noise_prob: spec.noise_prob,
            noise_snr_db: (12.0, 28.0),
        })
        .build();
        let mut features = FeatureMatrix::zeros(0, frontend.dim());
        let mut labels: Vec<usize> = Vec::new();
        for utt in corpus.utterances() {
            let feats = frontend.features(&utt.wave);
            for row in 0..feats.n_frames() {
                let center = frontend.frame_center_sample(row);
                let label = utt
                    .alignment
                    .iter()
                    .find(|a| center >= a.start && center < a.end)
                    .map_or(Phoneme::SIL, |a| a.phoneme);
                features.push_row(feats.row(row));
                labels.push(label.index());
            }
        }
        let am = AcousticModel::train(features, &labels, &spec.train);

        // 2. Language model on this profile's own sentence sample, plus the
        //    assistant command phrases every deployed ASR has seen.
        let mut lm_sentences = SentenceGenerator::new(spec.lm_seed).take_sentences(spec.lm_size);
        for cmd in command_phrases() {
            for _ in 0..3 {
                lm_sentences.push(cmd.to_string());
            }
        }
        let lm = BigramLm::train(lm_sentences.iter().map(String::as_str), 0.05);

        // 3. Decoder over the shared lexicon.
        let decoder = Decoder::new(&Lexicon::builtin(), lm, spec.decoder.clone());
        TrainedAsr::new(spec.name, frontend, am, decoder)
    }

    /// Resolves a display name back to its profile.
    pub fn by_name(name: &str) -> Option<AsrProfile> {
        AsrProfile::ALL.into_iter().find(|p| p.name() == name)
    }

    /// File name of this profile's artifact inside a model directory.
    pub fn artifact_file_name(self) -> String {
        format!("asr-{}.mvpa", self.name().to_lowercase())
    }

    /// File name of this profile's *quantized* artifact inside a model
    /// directory.
    pub fn quantized_artifact_file_name(self) -> String {
        format!("asr-{}-i8.mvpa", self.name().to_lowercase())
    }

    /// Path of this profile's artifact inside `dir`.
    pub fn artifact_path(self, dir: &Path) -> PathBuf {
        dir.join(self.artifact_file_name())
    }

    /// Loads this profile's persisted pipeline from `dir`.
    ///
    /// Refuses (with the typed [`ArtifactError`]) rather than degrade: a
    /// corrupt, truncated or version-skewed artifact — or one whose stored
    /// profile name does not match — is an error, never a silently wrong
    /// model. A missing file is reported as a `NotFound` I/O error
    /// ([`ArtifactError::is_not_found`]).
    pub fn load(self, dir: &Path) -> Result<TrainedAsr, ArtifactError> {
        let asr = TrainedAsr::load_file(&self.artifact_path(dir))?;
        if asr.name() != self.name() {
            return Err(ArtifactError::SchemaMismatch(format!(
                "artifact holds profile {:?} where {:?} was expected",
                asr.name(),
                self.name()
            )));
        }
        Ok(asr)
    }

    /// Loads this profile from `dir`, training and saving it on a cache
    /// miss (missing file). Any other load failure propagates — a corrupt
    /// artifact is *not* silently replaced, because whoever wrote it may
    /// still be relying on it.
    pub fn load_or_train(self, dir: &Path) -> Result<TrainedAsr, ArtifactError> {
        match self.load(dir) {
            Ok(asr) => Ok(asr),
            Err(e) if e.is_not_found() => {
                let asr = self.train();
                asr.save_file(&self.artifact_path(dir))?;
                Ok(asr)
            }
            Err(e) => Err(e),
        }
    }

    /// The process-wide cached trained instance of this profile, backed by
    /// the artifact directory in [`MODEL_DIR_ENV`] when that is set.
    pub fn trained(self) -> Arc<TrainedAsr> {
        let dir = std::env::var_os(MODEL_DIR_ENV).map(PathBuf::from);
        self.trained_in(dir.as_deref())
    }

    /// [`trained`](Self::trained) with an explicit disk tier.
    ///
    /// With `dir = None` this is a pure in-process cache (train on miss).
    /// With a directory, misses first try the persisted artifact and only
    /// then retrain; fresh models are saved back best-effort. Because this
    /// path is infallible, a *corrupt* artifact here is warned about and
    /// healed by retraining — use [`load`](Self::load) /
    /// [`load_or_train`](Self::load_or_train) where refusal is wanted.
    pub fn trained_in(self, dir: Option<&Path>) -> Arc<TrainedAsr> {
        static CACHE: OnceLock<Mutex<HashMap<AsrProfile, Arc<TrainedAsr>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        // Training panics can poison the lock; the map itself is never left
        // half-updated (single insert), so recover the guard and go on.
        {
            let map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(asr) = map.get(&self) {
                return Arc::clone(asr);
            }
        }
        // Resolve outside the lock: loading takes milliseconds but training
        // takes seconds, and other profiles should not serialise behind it.
        let resolved = match dir {
            Some(dir) => match self.load(dir) {
                Ok(asr) => asr,
                Err(e) => {
                    if !e.is_not_found() {
                        eprintln!(
                            "warning: discarding unusable artifact for {} in {}: {e}",
                            self.name(),
                            dir.display()
                        );
                    }
                    let asr = self.train();
                    if let Err(e) = asr.save_file(&self.artifact_path(dir)) {
                        eprintln!("warning: could not persist {} model: {e}", self.name());
                    }
                    asr
                }
            },
            None => self.train(),
        };
        let trained = Arc::new(resolved);
        let mut map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(map.entry(self).or_insert(trained))
    }

    /// The process-wide cached *int8* variant of this profile, backed by
    /// the artifact directory in [`MODEL_DIR_ENV`] when that is set.
    ///
    /// The variant is the profile's full-precision pipeline carrying a
    /// [`crate::am::QuantizedAcousticModel`] calibrated on a small fixed
    /// benign sample (seed disjoint from every training corpus), so it is
    /// deterministic per profile, exactly like [`trained`](Self::trained).
    pub fn trained_quantized(self) -> Arc<TrainedAsr> {
        let dir = std::env::var_os(MODEL_DIR_ENV).map(PathBuf::from);
        self.trained_quantized_in(dir.as_deref())
    }

    /// [`trained_quantized`](Self::trained_quantized) with an explicit
    /// disk tier, mirroring [`trained_in`](Self::trained_in): `None` is a
    /// pure in-process cache; with a directory, misses first try the
    /// persisted `asr-<name>-i8.mvpa` artifact (healing an unusable one by
    /// re-quantizing, with a warning) and fresh variants are saved back
    /// best-effort.
    pub fn trained_quantized_in(self, dir: Option<&Path>) -> Arc<TrainedAsr> {
        static CACHE: OnceLock<Mutex<HashMap<AsrProfile, Arc<TrainedAsr>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        {
            let map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(asr) = map.get(&self) {
                return Arc::clone(asr);
            }
        }
        let path = dir.map(|d| d.join(self.quantized_artifact_file_name()));
        let loaded =
            path.as_deref().and_then(|p| match crate::persist::QuantizedAsr::load_file(p) {
                Ok(q) if q.as_asr().name() == format!("{}-I8", self.name()) => Some(q.into_asr()),
                Ok(_) => {
                    eprintln!("warning: {} holds another profile; re-quantizing", p.display());
                    None
                }
                Err(e) => {
                    if !e.is_not_found() {
                        eprintln!("warning: discarding unusable int8 artifact for {self}: {e}");
                    }
                    None
                }
            });
        let resolved = loaded.unwrap_or_else(|| {
            let base = self.trained_in(dir);
            let calibration = calibration_corpus();
            let refs: Vec<&mvp_audio::Waveform> =
                calibration.utterances().iter().map(|u| &u.wave).collect();
            let quantized = base.quantize(&refs);
            if let Some(path) = &path {
                if let Err(e) = crate::persist::QuantizedAsr::new(quantized.clone()).save_file(path)
                {
                    eprintln!("warning: could not persist {self} int8 variant: {e}");
                }
            }
            quantized
        });
        let trained = Arc::new(resolved);
        let mut map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(map.entry(self).or_insert(trained))
    }
}

/// The shared activation-calibration sample: a small clean corpus whose
/// seed is disjoint from every profile's training and LM seeds, so the
/// int8 scales never memorise training audio.
fn calibration_corpus() -> mvp_corpus::SpeechCorpus {
    CorpusBuilder::new(CorpusConfig {
        size: 8,
        seed: 90_909,
        sample_rate: 16_000,
        noise_prob: 0.0,
        noise_snr_db: (12.0, 28.0),
    })
    .build()
}

/// One ensemble member: an ASR profile at a numeric precision.
///
/// The paper's ensemble diversity comes from *architectural* version
/// differences; PVP (PAPERS.md) shows numeric precision is a second, free
/// diversity axis. A `PrecisionVariant` names a point on both axes, so a
/// detection system can mix `DS1@f64` with `DS1@int8` — or run a
/// precision-only ensemble of one architecture at several precisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecisionVariant {
    /// The architectural version.
    pub profile: AsrProfile,
    /// Run the profile's int8 quantized acoustic model instead of f64.
    pub int8: bool,
}

impl PrecisionVariant {
    /// The profile at full f64 precision.
    pub fn f64(profile: AsrProfile) -> PrecisionVariant {
        PrecisionVariant { profile, int8: false }
    }

    /// The profile's int8 quantized variant.
    pub fn int8(profile: AsrProfile) -> PrecisionVariant {
        PrecisionVariant { profile, int8: true }
    }

    /// Display name, e.g. `"DS1"` or `"DS1-I8"`.
    pub fn name(self) -> String {
        if self.int8 {
            format!("{}-I8", self.profile.name())
        } else {
            self.profile.name().to_string()
        }
    }

    /// The process-wide cached trained pipeline of this variant.
    pub fn trained(self) -> Arc<TrainedAsr> {
        if self.int8 {
            self.profile.trained_quantized()
        } else {
            self.profile.trained()
        }
    }
}

impl std::fmt::Display for PrecisionVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl std::fmt::Display for AsrProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognizer::Asr;
    use mvp_corpus::{CorpusBuilder, CorpusConfig};
    use mvp_textsim::wer;

    #[test]
    fn specs_are_diverse() {
        let specs: Vec<ProfileSpec> = AsrProfile::ALL.iter().map(|p| p.spec()).collect();
        // DS0 and DS1 share geometry but not training seeds.
        assert_eq!(specs[0].frontend, specs[1].frontend);
        assert_ne!(specs[0].train.seed, specs[1].train.seed);
        assert_ne!(specs[0].corpus_seed, specs[1].corpus_seed);
        // GCS and AT differ from DS0 in feature geometry.
        assert_ne!(specs[2].frontend.mfcc.n_mels, specs[0].frontend.mfcc.n_mels);
        assert_ne!(specs[3].frontend.mfcc.frame_len, specs[0].frontend.mfcc.frame_len);
        // Kaldi subsamples; its variant does not.
        assert_eq!(specs[4].frontend.subsample, 3);
        assert_eq!(specs[5].frontend.subsample, 1);
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> =
            AsrProfile::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), AsrProfile::ALL.len());
    }

    #[test]
    fn trained_is_cached() {
        let a = AsrProfile::Ds0.trained();
        let b = AsrProfile::Ds0.trained();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn by_name_round_trips() {
        for p in AsrProfile::ALL {
            assert_eq!(AsrProfile::by_name(p.name()), Some(p));
        }
        assert_eq!(AsrProfile::by_name("DS0-I8"), None);
    }

    #[test]
    fn quantized_variant_is_cached_and_named() {
        let a = AsrProfile::Kaldi.trained_quantized();
        let b = PrecisionVariant::int8(AsrProfile::Kaldi).trained();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.name(), "KALDI-I8");
        assert_eq!(a.precision(), "int8");
        assert!(a.quantized_model().is_some());
        // The f64 cache entry is untouched by quantization.
        let base = PrecisionVariant::f64(AsrProfile::Kaldi).trained();
        assert_eq!(base.precision(), "f64");
        assert_eq!(PrecisionVariant::int8(AsrProfile::Kaldi).name(), "KALDI-I8");
    }

    #[test]
    fn quantized_disk_tier_round_trips() {
        // KaldiVariant: no other test quantizes it, so the in-process
        // cache is guaranteed cold and the disk-tier miss path runs.
        let dir = std::env::temp_dir().join(format!("mvp-quant-tier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let profile = AsrProfile::KaldiVariant;
        profile.trained().save_file(&profile.artifact_path(&dir)).unwrap();
        let first = profile.trained_quantized_in(Some(&dir));
        let saved = dir.join(profile.quantized_artifact_file_name());
        assert!(saved.exists(), "int8 artifact persisted on the miss path");
        let reloaded = crate::persist::QuantizedAsr::load_file(&saved).unwrap();
        assert_eq!(reloaded.as_asr().name(), first.name());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ds0_transcribes_benign_speech_accurately() {
        let asr = AsrProfile::Ds0.trained();
        // Held-out corpus: seed differs from every training seed.
        let corpus = CorpusBuilder::new(CorpusConfig {
            size: 10,
            seed: 777_777,
            noise_prob: 0.3,
            ..CorpusConfig::default()
        })
        .build();
        let mut total_wer = 0.0;
        for utt in corpus.utterances() {
            let hyp = asr.transcribe(&utt.wave);
            total_wer += wer(&utt.text, &hyp);
        }
        let mean = total_wer / 10.0;
        assert!(mean < 0.25, "mean WER {mean}");
    }

    #[test]
    fn profiles_disagree_more_on_kaldi() {
        let ds0 = AsrProfile::Ds0.trained();
        let kaldi = AsrProfile::Kaldi.trained();
        let corpus = CorpusBuilder::new(CorpusConfig {
            size: 6,
            seed: 888_888,
            noise_prob: 0.5,
            ..CorpusConfig::default()
        })
        .build();
        let mut kaldi_wer = 0.0;
        let mut ds0_wer = 0.0;
        for utt in corpus.utterances() {
            ds0_wer += wer(&utt.text, &ds0.transcribe(&utt.wave));
            kaldi_wer += wer(&utt.text, &kaldi.transcribe(&utt.wave));
        }
        assert!(kaldi_wer > ds0_wer, "kaldi {kaldi_wer} vs ds0 {ds0_wer}");
    }
}
