#![warn(missing_docs)]

//! Simulated automatic speech recognition.
//!
//! A complete, self-contained ASR pipeline mirroring the four stages of the
//! paper's Figure 2 — feature extraction, acoustic feature recognition,
//! phoneme assembling and language generation:
//!
//! 1. [`features`]: MFCC extraction with per-profile geometry, context
//!    stacking and frame subsampling (all differentiable end to end);
//! 2. [`am`]: a trainable frame-level acoustic model (affine + softmax over
//!    the ARPAbet classes) with SGD training on aligned synthetic speech;
//! 3. [`ctc`]: greedy best-path decoding plus the full CTC forward-backward
//!    loss *with gradients*, which the white-box attack optimises;
//! 4. [`decoder`] + [`lm`]: lexicon-driven phoneme-to-word assembly with a
//!    bigram language model (this is where homophone choices diverge
//!    between ASRs);
//! 5. [`profile`]: five trained-model profiles — DS0, DS1, GCS, AT and a
//!    deliberately weak KALDI — diverse in features, context, training data
//!    and decoding, reproducing the ASR diversity the paper's detection
//!    idea rests on.
//!
//! # Examples
//!
//! ```no_run
//! use mvp_asr::profile::AsrProfile;
//! use mvp_asr::Asr;
//! use mvp_audio::synth::{SpeakerProfile, Synthesizer};
//! use mvp_phonetics::Lexicon;
//!
//! let asr = AsrProfile::Ds0.trained();
//! let synth = Synthesizer::new(16_000);
//! let (wave, _) = synth.synthesize(&Lexicon::builtin(), "open the door", &SpeakerProfile::default());
//! let text = asr.transcribe(&wave);
//! assert!(text.contains("door"));
//! ```

pub mod am;
pub mod ctc;
pub mod decoder;
pub mod features;
pub mod lm;
pub mod persist;
pub mod profile;
pub mod recognizer;

pub use am::{AcousticModel, AmScratch, QuantizedAcousticModel};
pub use ctc::{ctc_loss_and_grad, greedy_phonemes, RunAccumulator};
pub use decoder::{Decoder, DecoderConfig};
pub use features::{FeatureFrontEnd, FrontEndConfig, FrontEndScratch, FrontEndStream};
pub use lm::BigramLm;
pub use persist::QuantizedAsr;
pub use profile::{AsrProfile, PrecisionVariant, MODEL_DIR_ENV};
pub use recognizer::{Asr, AsrStream, TrainedAsr};
