//! The per-layer ledger, measured from outside the program.
//!
//! Layer times come from the benchmark timing its own calls into each
//! module's public functions on the workload's own inputs (replays), and
//! from the engine's public `stats()` snapshots and audit log of the
//! traced window. Nothing inside the program is instrumented.

use std::path::Path;
use std::time::Instant;

use mvp_asr::{Asr, AsrStream, FrontEndScratch, TrainedAsr};
use mvp_dsp::kernel::{DctPlan, RfftPlan, RfftScratch};
use mvp_dsp::mel::MelFilterbank;
use mvp_dsp::{Complex, FeatureMatrix, MfccExtractor, MfccScratch};
use mvp_ears::DetectionSystem;
use mvp_modality::{ModalityInput, ModalityKind, ModalityRegistry};
use mvp_obs::json;

use crate::setup::{Fixture, PROFILES};
use crate::stats::{median, percentile_sorted};
use crate::workloads::Outcome;

/// Inputs replayed per layer, and repetitions per input.
const REPLAY_ITEMS: usize = 12;
const MODALITY_ITEMS: usize = 6;
const REPEATS: usize = 3;
/// Samples per pushed chunk in the streaming replay (200 ms at 16 kHz).
const STREAM_CHUNK: usize = 3_200;

/// One ledger entry.
#[derive(Debug, Clone)]
pub struct Entry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates entries in print order.
#[derive(Debug, Default)]
pub struct Ledger {
    pub entries: Vec<Entry>,
    /// Human-readable accounting lines printed with the ledger.
    pub notes: Vec<String>,
    /// Replays that did not reproduce the program's own output.
    pub errors: Vec<String>,
}

impl Ledger {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push(Entry { name: name.into(), value, unit });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries.iter().find(|e| e.name == name).map_or(f64::NAN, |e| e.value)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median over inputs of the per-input median of `REPEATS` timings.
fn timed(items: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let per_item: Vec<f64> =
        (0..items).map(|i| median(&(0..REPEATS).map(|_| f(i)).collect::<Vec<_>>())).collect();
    median(&per_item)
}

fn profile_key(i: usize) -> String {
    PROFILES[i].name().to_lowercase()
}

/// DSP: the target's MFCC front end, then the same frames replayed stage
/// by stage through the public kernel plans.
fn dsp(ledger: &mut Ledger, target: &TrainedAsr, samples: &[Vec<f64>]) {
    let cfg = target.frontend().mfcc_config().clone();
    let extractor = MfccExtractor::new(cfg.clone());
    let mut scratch = MfccScratch::default();
    let mut mfcc = FeatureMatrix::default();
    let mfcc_ms = timed(samples.len(), |i| {
        let t = Instant::now();
        extractor.extract_into(&samples[i], &mut scratch, &mut mfcc);
        ms_since(t)
    });
    ledger.put("dsp.mfcc_ms", mfcc_ms, "ms");

    let window = cfg.window.coefficients(cfg.frame_len);
    let plan = RfftPlan::new(cfg.n_fft);
    let bank =
        MelFilterbank::new(cfg.n_mels, cfg.n_fft, f64::from(cfg.sample_rate), cfg.f_min, cfg.f_max);
    let dct = DctPlan::new(cfg.n_mels, cfg.n_cepstra);
    let n_bins = plan.n_bins();
    let mut rfft_scratch = RfftScratch::default();
    let (mut rfft_us, mut mel_us, mut dct_us, mut frames) = (vec![], vec![], vec![], vec![]);
    for s in samples {
        // Pre-emphasis and windowing exactly as the extractor does them.
        let mut emph = Vec::with_capacity(s.len());
        let mut prev = 0.0;
        for &x in s {
            emph.push(x - cfg.pre_emphasis * prev);
            prev = x;
        }
        let n = extractor.n_frames_for(s.len());
        let windowed: Vec<Vec<f64>> = (0..n)
            .map(|f| {
                let start = (f * cfg.hop).min(emph.len());
                let end = (start + cfg.frame_len).min(emph.len());
                (0..cfg.frame_len)
                    .map(|t| {
                        emph.get(start + t).filter(|_| start + t < end).copied().unwrap_or(0.0)
                            * window[t]
                    })
                    .collect()
            })
            .collect();
        let mut spec = vec![vec![Complex::ZERO; n_bins]; n];
        let mut mel = vec![vec![0.0; cfg.n_mels]; n];
        let mut cep = vec![vec![0.0; cfg.n_cepstra]; n];
        let per_frame = |t: Instant| ms_since(t) * 1e3 / n.max(1) as f64;
        let mut best = [f64::INFINITY; 3];
        for _ in 0..REPEATS {
            let t = Instant::now();
            for (w, out) in windowed.iter().zip(&mut spec) {
                plan.forward(w, &mut rfft_scratch, out);
            }
            best[0] = best[0].min(per_frame(t));
            let power: Vec<Vec<f64>> =
                spec.iter().map(|z| z.iter().map(|c| c.norm_sq()).collect()).collect();
            let t = Instant::now();
            for (p, out) in power.iter().zip(&mut mel) {
                bank.apply_into(p, out);
            }
            best[1] = best[1].min(per_frame(t));
            let logmel: Vec<Vec<f64>> =
                mel.iter().map(|m| m.iter().map(|&v| (v + cfg.log_floor).ln()).collect()).collect();
            let t = Instant::now();
            for (l, out) in logmel.iter().zip(&mut cep) {
                dct.forward_into(l, out);
            }
            best[2] = best[2].min(per_frame(t));
        }
        // The replay must reproduce the extractor's own MFCC rows.
        extractor.extract_into(s, &mut scratch, &mut mfcc);
        let same = mfcc.n_frames() == n
            && mfcc
                .rows()
                .zip(&cep)
                .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        if !same {
            ledger.errors.push("dsp replay does not reproduce MfccExtractor::extract_into".into());
        }
        rfft_us.push(best[0]);
        mel_us.push(best[1]);
        dct_us.push(best[2]);
        frames.push(n as f64);
    }
    ledger.put("dsp.rfft_us", median(&rfft_us), "us");
    ledger.put("dsp.mel_us", median(&mel_us), "us");
    ledger.put("dsp.dct_us", median(&dct_us), "us");
    ledger.put("dsp.frames_per_utt", median(&frames), "count");
    // Bytes each stage reads and writes per frame, from buffer sizes:
    // rfft f64 frame in, complex bins out; mel power in, energies out;
    // DCT log energies in, cepstra out.
    let f64b = std::mem::size_of::<f64>();
    let bytes = cfg.frame_len * f64b
        + n_bins * std::mem::size_of::<Complex>()
        + n_bins * f64b
        + cfg.n_mels * f64b
        + cfg.n_mels * f64b
        + cfg.n_cepstra * f64b;
    ledger.put("dsp.bytes_per_frame", bytes as f64, "bytes");
}

/// ASR: front end, acoustic model and decoder per recogniser, composed
/// and checked against `transcribe`; then the streaming entry points.
fn asr(ledger: &mut Ledger, system: &DetectionSystem, fix: &Fixture, samples: &[Vec<f64>]) -> f64 {
    let recognizers = system.recognizers();
    let mut serial_sum = 0.0;
    for (p, asr) in recognizers.iter().enumerate() {
        let mut scratch = FrontEndScratch::default();
        let mut feats = FeatureMatrix::default();
        let mut logits = FeatureMatrix::default();
        let mut am_scratch = mvp_asr::AmScratch::default();
        let (mut fe, mut am, mut dec) = (vec![], vec![], vec![]);
        for (i, s) in samples.iter().enumerate() {
            let mut t3 = [vec![], vec![], vec![]];
            let mut text = String::new();
            for _ in 0..REPEATS {
                let t = Instant::now();
                asr.frontend().features_into(s, &mut scratch, &mut feats);
                t3[0].push(ms_since(t));
                let t = Instant::now();
                asr.acoustic_model().logit_matrix_into(&feats, &mut am_scratch, &mut logits);
                t3[1].push(ms_since(t));
                let t = Instant::now();
                text = asr.decoder().decode(&logits);
                t3[2].push(ms_since(t));
            }
            if text != asr.transcribe(&fix.pool[i].wave) {
                ledger.errors.push(format!("{} composed transcript != transcribe", asr.name()));
            }
            fe.push(median(&t3[0]));
            am.push(median(&t3[1]));
            dec.push(median(&t3[2]));
        }
        let key = profile_key(p);
        let (fe, am, dec) = (median(&fe), median(&am), median(&dec));
        serial_sum += fe + am + dec;
        ledger.put(format!("asr.{key}.frontend_ms"), fe, "ms");
        ledger.put(format!("asr.{key}.am_ms"), am, "ms");
        ledger.put(format!("asr.{key}.decode_ms"), dec, "ms");
    }

    let target = system.target();
    let mut stream = AsrStream::default();
    let (mut push, mut finish) = (vec![], vec![]);
    for (i, s) in samples.iter().enumerate() {
        let (mut p, mut f) = (vec![], vec![]);
        let mut text = String::new();
        for _ in 0..REPEATS {
            let t = Instant::now();
            for chunk in s.chunks(STREAM_CHUNK) {
                target.stream_push(&mut stream, chunk);
            }
            p.push(ms_since(t));
            let t = Instant::now();
            text = target.stream_finish(&mut stream);
            f.push(ms_since(t));
        }
        if text != target.transcribe(&fix.pool[i].wave) {
            ledger.errors.push("stream_finish transcript != transcribe".into());
        }
        push.push(median(&p));
        finish.push(median(&f));
    }
    ledger.put("asr.stream_push_ms", median(&push), "ms");
    ledger.put("asr.stream_finish_ms", median(&finish), "ms");
    serial_sum
}

/// Core, similarity, classifier and modalities around one `detect`.
fn core(ledger: &mut Ledger, system: &DetectionSystem, fix: &Fixture, n: usize) {
    let registry = ModalityRegistry::from_kinds(&ModalityKind::ALL);
    let (mut walls, mut trans, mut sim, mut cls, mut resid) =
        (vec![], vec![], vec![], vec![], vec![]);
    for item in fix.pool.iter().take(n) {
        for _ in 0..REPEATS {
            let t = Instant::now();
            let detection = system.detect(&item.wave);
            let wall = ms_since(t);

            let t = Instant::now();
            let (target, aux) = system.transcripts(&item.wave);
            let transcripts_ms = ms_since(t);
            let t = Instant::now();
            let scores: Vec<f64> = aux.iter().map(|a| system.method().score(&target, a)).collect();
            let sim_ms = ms_since(t);
            let mut parts = transcripts_ms + sim_ms;
            let t = Instant::now();
            let verdict = match system.fused_classifier() {
                Some(fused) => {
                    let mut raw = scores.clone();
                    for o in system.score_modalities(&item.wave, &target) {
                        raw.extend_from_slice(&o.features);
                    }
                    parts += ms_since(t);
                    let t = Instant::now();
                    let v = fused.is_adversarial(&raw);
                    let c = ms_since(t);
                    cls.push(c * 1e3);
                    parts += c;
                    v
                }
                None => {
                    let v = system.classify_scores(&scores);
                    let c = ms_since(t);
                    cls.push(c * 1e3);
                    parts += c;
                    v
                }
            };
            if verdict != detection.is_adversarial || target != detection.target_transcription {
                ledger.errors.push("composed detection != detect".into());
            }
            walls.push(wall);
            trans.push(transcripts_ms);
            sim.push(sim_ms * 1e3 / aux.len().max(1) as f64);
            resid.push(wall - parts);
        }
    }
    ledger.put("core.similarity_us", median(&sim), "us");
    ledger.put("ml.classify_us", median(&cls), "us");
    ledger.put("core.detect_ms", median(&walls), "ms");
    ledger.put("core.transcripts_ms", median(&trans), "ms");
    ledger.put("core.unattributed_ms", median(&resid), "ms");

    for kind in ModalityKind::ALL {
        let registry = if system.is_fused() { system.modalities() } else { &registry };
        let mut times = vec![];
        for item in fix.pool.iter().take(MODALITY_ITEMS) {
            let target = system.target().transcribe(&item.wave);
            let input = ModalityInput::new(system.target(), &item.wave, &target);
            let t = Instant::now();
            std::hint::black_box(registry.score_where(&input, |k| k == kind));
            times.push(ms_since(t));
        }
        ledger.put(format!("modality.{}_ms", kind.name()), median(&times), "ms");
    }
}

/// Replays every module on the first inputs of the workload's pool.
pub fn replay(ledger: &mut Ledger, fix: &Fixture) {
    let system = &fix.system;
    let n = REPLAY_ITEMS.min(fix.pool.len());
    let samples: Vec<Vec<f64>> = fix.pool[..n].iter().map(|i| i.wave.to_f64()).collect();
    // Warm every path once before timing it.
    for item in &fix.pool[..n.min(2)] {
        std::hint::black_box(system.detect(&item.wave));
    }
    dsp(ledger, system.target(), &samples);
    let serial_sum = asr(ledger, system, fix, &samples);
    core(ledger, system, fix, n);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let transcripts = ledger.get("core.transcripts_ms");
    ledger.notes.push(format!(
        "per-recogniser front end + AM + decode, summed over {} recognisers: {serial_sum:.3} ms \
         serial; on {cores} cores that is {:.3} ms of wall; core.transcripts_ms {transcripts:.3} ms \
         leaves {:.3} ms for thread spawn, join and imbalance",
        system.n_recognizers(),
        serial_sum / cores as f64,
        transcripts - serial_sum / cores as f64,
    ));
}

/// One verdict record of the engine's audit log.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    pub request: u64,
    pub cache: bool,
    pub early: bool,
    pub queue_us: f64,
    pub transcribe_us: Vec<Option<f64>>,
    pub finalize_us: f64,
    pub total_us: f64,
    pub aux: Vec<Option<String>>,
}

/// Reads every verdict record of an audit log.
pub fn read_audit(path: &Path) -> Result<Vec<AuditRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let v = json::parse(line).map_err(|e| format!("audit line: {e}"))?;
        if v.get("event").and_then(json::Value::as_str) != Some("verdict") {
            continue;
        }
        let num = |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);
        let timing = v.get("timing").ok_or("audit record without timing")?;
        out.push(AuditRecord {
            request: num(&v, "request") as u64,
            cache: v.get("cache").and_then(json::Value::as_bool).unwrap_or(false),
            early: v.get("early").and_then(json::Value::as_bool).unwrap_or(false),
            queue_us: num(timing, "queue_us"),
            transcribe_us: timing
                .get("transcribe_us")
                .and_then(json::Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(json::Value::as_f64)
                .collect(),
            finalize_us: num(timing, "finalize_us"),
            total_us: num(timing, "total_us"),
            aux: v
                .get("aux")
                .and_then(json::Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|a| a.get("text").and_then(json::Value::as_str).map(str::to_string))
                .collect(),
        });
    }
    Ok(out)
}

fn med_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Serve, router and load-generator layers from the traced window.
pub fn serve(ledger: &mut Ledger, traced: &Outcome, audit: &[AuditRecord]) {
    // Batched (non-cache) records carry the stage timings.
    let batched: Vec<&AuditRecord> =
        audit.iter().filter(|r| !r.cache && !r.transcribe_us.is_empty()).collect();
    let queue: Vec<f64> =
        audit.iter().filter(|r| r.queue_us > 0.0).map(|r| r.queue_us / 1e3).collect();
    ledger.put("serve.queue_ms", med_or_zero(&queue), "ms");
    for p in 0..PROFILES.len() {
        let t: Vec<f64> = batched
            .iter()
            .filter_map(|r| r.transcribe_us.get(p).copied().flatten())
            .map(|us| us / 1e3)
            .collect();
        ledger.put(format!("serve.transcribe_ms.{}", profile_key(p)), med_or_zero(&t), "ms");
    }
    let finalize: Vec<f64> = batched.iter().map(|r| r.finalize_us / 1e3).collect();
    ledger.put("serve.finalize_ms", med_or_zero(&finalize), "ms");
    let total: Vec<f64> = audit.iter().map(|r| r.total_us / 1e3).collect();
    ledger.put("serve.total_ms", med_or_zero(&total), "ms");
    // Audit total minus its timed stages: batch wait plus collector wait.
    let resid: Vec<f64> = batched
        .iter()
        .map(|r| {
            let slowest = r.transcribe_us.iter().flatten().fold(0.0_f64, |a, &b| a.max(b));
            (r.total_us - r.queue_us - slowest - r.finalize_us) / 1e3
        })
        .collect();
    ledger.put("serve.unattributed_ms", med_or_zero(&resid), "ms");

    let stats = traced.stats.clone().unwrap_or_default();
    ledger.put("serve.mean_batch_size", stats.mean_batch_size, "count");
    ledger.put("serve.cache_hit_rate", stats.cache_hit_rate(), "frac");
    ledger.put("serve.shed", stats.shed as f64, "count");
    ledger.put("serve.degraded", stats.degraded as f64, "count");
    for s in 0..2 {
        let rate = traced.shard_stats.get(s).map_or(0.0, |st| st.cache_hit_rate());
        ledger.put(format!("router.shard{s}_hit_rate"), rate, "frac");
    }
    ledger.put("router.steals", traced.steals.iter().sum::<u64>() as f64, "count");

    let mut late = traced.lateness_ms.clone();
    late.sort_by(f64::total_cmp);
    ledger.put(
        "loadgen.lateness_p99_ms",
        if late.is_empty() { 0.0 } else { percentile_sorted(&late, 99.0) },
        "ms",
    );
    for phase in ["warmup", "measure"] {
        let p = traced.phases.iter().find(|p| p.name == phase).cloned().unwrap_or_default();
        ledger.put(format!("loadgen.{phase}.sent"), p.sent as f64, "count");
        ledger.put(format!("loadgen.{phase}.succeeded"), p.succeeded as f64, "count");
        ledger.put(format!("loadgen.{phase}.failed"), p.failed as f64, "count");
    }
}
