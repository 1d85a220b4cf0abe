//! The long-lived detection engine.
//!
//! ```text
//!  submit(wave) ─try_send─┐        submit_stream / push / finish ─send─┐
//!                         ▼                                             ▼
//!        ingress queue (bounded; full ⇒ submit sheds, a stream push blocks)
//!                                     │
//!                              dispatcher thread
//!              cache hit ⇒ answered inline; otherwise Open ─▶ collector,
//!              chunks fanned out in order, Finish ─▶ collector + workers
//!                          │                            │
//!          Chunk / Finish ─▶ one persistent worker      │
//!            per recogniser (one recycled AsrStream     │
//!            per in-flight request)                     │
//!                          │ Running / Final            │
//!                          ▼                            ▼
//!                              collector thread
//!              one RequestState per request; lockstep early exit;
//!              at finish: deadline → degrade ladder → modalities →
//!              fused classifier → cache insert → audit → reply
//!                                     │
//!            reply channel ──▶ PendingVerdict::wait / StreamHandle::finish
//! ```
//!
//! Every request is a stream. A one-shot [`submit`](DetectionEngine::submit)
//! opens one, pushes the whole waveform as a single chunk (shared, not
//! copied) and finishes it; [`submit_stream`](DetectionEngine::submit_stream)
//! hands the same three steps to the caller through a [`StreamHandle`].
//! Unlike [`DetectionSystem::detect`], which spawns one thread per
//! recogniser per call, the engine keeps one worker per recogniser alive
//! for its whole lifetime; each worker advances one [`AsrStream`] per
//! in-flight request and recycles finished ones, so buffers keep their
//! capacity across requests.
//!
//! The collector finishes every request — computed, cache hit, early
//! exit, or drained at shutdown — through one function that applies, in
//! order: the deadline, the degrade ladder, the modality plan, the fused
//! classifier, the cache insert, the audit record and the reply. The
//! deadline clock starts at finish, which for a one-shot request is
//! submit, so streams get the same deadlines and degradation as one-shot
//! requests. What streams still lack is the transcription cache and the
//! modalities: their audio arrives chunk by chunk and is never retained,
//! so there is no content key to cache under and no waveform to score.
//! With early exit off, a chunked stream and a one-shot submission of the
//! same signal produce byte-identical transcripts and scores. Streams are
//! flow-controlled, not shed: a full ingress queue blocks the pushing
//! caller instead of dropping a chunk mid-utterance.
//!
//! With an [`EngineConfig::early_exit`] rule, each worker reports its
//! running transcript after every stream chunk and the collector scores
//! chunk *s* only once every recogniser has reported chunk *s*, so an
//! early `Adversarial` fires on exactly the chunk where in-process
//! [`DetectionStream`](mvp_ears::DetectionStream) fires, whatever the
//! worker timing.
//!
//! Every stage is instrumented: `serve.submit`, `serve.cache_hit`,
//! `serve.transcribe` and `serve.finalize` spans (inert unless
//! `mvp_obs::trace` is enabled), registry-backed [`ServeStats`] counters,
//! and — when [`EngineConfig::audit`] is set — one JSONL record per
//! verdict or shed from which the decision can be reconstructed offline.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};

use mvp_artifact::{ArtifactError, Persist};
use mvp_asr::{AsrStream, TrainedAsr};
use mvp_audio::Waveform;
use mvp_ears::{DetectionSystem, DetectionSystemSnapshot, EarlyExit};
use mvp_modality::{ModalityInput, ModalityKind};
use mvp_obs::metrics::Counter;
use mvp_obs::{AuditLog, JsonObj, Registry};

use crate::cache::{waveform_key, LruCache, TranscriptVec};
use crate::degrade::{DegradePolicy, FallbackTier};
use crate::stats::{ServeStats, StatsSnapshot};

/// Engine tuning knobs. The defaults suit an interactive service; load
/// tests override them per level.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Ingress queue capacity; a full queue sheds new requests.
    pub queue_cap: usize,
    /// Per-request deadline, counted from the request's finish (for a
    /// one-shot request, its submit). The target ASR missing it fails the
    /// request; an auxiliary missing it degrades the verdict.
    pub deadline_ms: u64,
    /// Per-auxiliary deadline override (clamped to `deadline_ms`).
    /// `None` inherits `deadline_ms`; `Some(0)` disables the auxiliary
    /// outright (it is never dispatched — deterministic degraded mode,
    /// and no early exit). May be shorter than the full auxiliary list;
    /// missing tail entries are `None`.
    pub aux_deadline_ms: Vec<Option<u64>>,
    /// Transcription-cache capacity in waveforms; `0` disables caching.
    pub cache_cap: usize,
    /// The modality mix scored per request, in order. Every kind must be
    /// registered on the served system. Empty (the default) = similarity
    /// only, the pre-modality behaviour. When the system carries a fused
    /// classifier and this mix covers its whole registry, requests whose
    /// modalities all score within budget get fused verdicts.
    pub modalities: Vec<ModalityKind>,
    /// Per-modality time budget, parallel to `modalities` (missing tail
    /// entries are `None`). `None` always scores; `Some(ms)` skips the
    /// modality when the request is already older than `ms` when its
    /// turn comes — so `Some(0)` disables it outright. A skipped
    /// modality on a fused-capable engine degrades the verdict to
    /// [`FallbackTier::SimilarityOnly`].
    pub modality_budget_ms: Vec<Option<u64>>,
    /// Model directory for [`DetectionEngine::start_or_warm`]: when set,
    /// the engine loads its detection system from
    /// `<model_dir>/detector.mvpa` instead of training, and persists the
    /// system there after a cold start. `None` disables the disk tier.
    pub model_dir: Option<PathBuf>,
    /// Verdict audit log. When set, every answered request (full,
    /// degraded, failed, cache hit, early exit) and every shed appends
    /// one JSONL record. `None` (the default) disables auditing.
    pub audit: Option<Arc<AuditLog>>,
    /// Early-exit rule for streamed requests: when set, the collector
    /// re-scores the running transcripts after every chunk and can
    /// answer `Adversarial` before end-of-stream. `None` (the default)
    /// decides only at [`StreamHandle::finish`], which keeps chunked
    /// verdicts byte-identical to one-shot ones. Ignored while an
    /// auxiliary is disabled by `aux_deadline_ms`.
    pub early_exit: Option<EarlyExit>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            queue_cap: 64,
            deadline_ms: 1_000,
            aux_deadline_ms: Vec::new(),
            cache_cap: 256,
            modalities: Vec::new(),
            modality_budget_ms: Vec::new(),
            model_dir: None,
            audit: None,
            early_exit: None,
        }
    }
}

/// The per-request modality schedule, fixed at engine start.
struct ModalityPlan {
    kinds: Vec<ModalityKind>,
    budgets_ms: Vec<Option<u64>>,
    /// The system carries a fused classifier and `kinds` covers its
    /// whole registry, so fully-scored requests get fused verdicts.
    fused_capable: bool,
}

impl ModalityPlan {
    fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

/// One modality's evidence for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ModalityReport {
    /// Which modality.
    pub kind: ModalityKind,
    /// Whether it was scored (false = its budget was already spent).
    pub scored: bool,
    /// The feature block, higher = more benign-stable; empty when
    /// skipped.
    pub features: Vec<f64>,
    /// Wall time spent scoring (0 when skipped).
    pub elapsed_us: u64,
}

/// Scores the planned modalities for one request, skipping any whose
/// budget is already spent relative to `submitted`.
fn score_modalities(
    system: &DetectionSystem,
    plan: &ModalityPlan,
    wave: &Waveform,
    target_text: &str,
    submitted: Instant,
    stats: &ServeStats,
) -> Vec<ModalityReport> {
    let input = ModalityInput::new(system.target(), wave, target_text);
    plan.kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let budget = plan.budgets_ms.get(i).copied().flatten();
            let spent_ms = submitted.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            if budget.is_some_and(|ms| spent_ms >= ms) {
                stats.modality_budget_missed.inc();
                return ModalityReport { kind, scored: false, features: Vec::new(), elapsed_us: 0 };
            }
            let outcome = system
                .modalities()
                .score_where(&input, |k| k == kind)
                .pop()
                // mvp-lint: allow(panic-path) -- engine start asserted every planned kind is registered; an empty result is a config-validation bug, not request input
                .expect("planned modality registered");
            stats.modality_scored.inc();
            ModalityReport {
                kind,
                scored: true,
                features: outcome.features,
                elapsed_us: outcome.elapsed_us,
            }
        })
        .collect()
}

/// How a verdict was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Every recogniser answered; full classifier verdict.
    Full,
    /// At least one auxiliary was missing; a fallback tier answered.
    Degraded(FallbackTier),
    /// The target ASR itself missed the deadline; no verdict possible.
    Failed,
}

/// The engine's answer for one request.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The classification, or `None` when the request [failed](VerdictKind::Failed).
    pub is_adversarial: Option<bool>,
    /// Full, degraded, or failed.
    pub kind: VerdictKind,
    /// Whether the transcription vector came from the cache.
    pub from_cache: bool,
    /// Per-auxiliary similarity scores; `None` where the auxiliary was
    /// missing.
    pub scores: Vec<Option<f64>>,
    /// The target transcription, when the target answered.
    pub target_transcription: Option<String>,
    /// One report per planned modality, in plan order; empty when the
    /// engine runs similarity-only, the request is a stream (no audio is
    /// retained to score), or it failed/degraded before modality
    /// scoring.
    pub modalities: Vec<ModalityReport>,
    /// Whether the fused similarity + modality classifier answered.
    pub fused: bool,
    /// Whether this verdict fired before end-of-stream under the
    /// engine's [`EngineConfig::early_exit`] rule. Always `false` for
    /// one-shot submissions and for stream verdicts decided at finish.
    pub early_exit: bool,
    /// End-to-end latency from `submit` (or stream open) to the verdict.
    pub latency: Duration,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The ingress queue is full — backpressure; retry later.
    Overloaded,
    /// The engine has shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "ingress queue full (request shed)"),
            SubmitError::Closed => write!(f, "engine shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A handle to a verdict still being computed.
#[derive(Debug)]
pub struct PendingVerdict {
    rx: Receiver<Verdict>,
}

impl PendingVerdict {
    /// Blocks until the verdict arrives. Every accepted request is
    /// answered, even through shutdown and deadline misses.
    ///
    /// # Panics
    ///
    /// Panics if the engine's threads died without replying (a bug).
    pub fn wait(self) -> Verdict {
        // mvp-lint: allow(panic-path) -- every accepted ticket is answered by construction (drain-on-shutdown); a dropped channel is an engine bug the caller cannot degrade around
        self.rx.recv().expect("engine dropped the reply channel")
    }

    /// Returns the verdict if it is already available.
    pub fn try_wait(&self) -> Option<Verdict> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the verdict. `Err(self)` on timeout
    /// returns the ticket so the caller can keep waiting, retry with a
    /// longer budget, or drop it — no caller is ever forced to hang
    /// forever on a wedged engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine's threads died without replying (a bug),
    /// exactly as [`wait`](Self::wait) does.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Verdict, PendingVerdict> {
        match self.rx.recv_timeout(timeout) {
            Ok(verdict) => Ok(verdict),
            Err(RecvTimeoutError::Timeout) => Err(self),
            Err(RecvTimeoutError::Disconnected) => {
                // mvp-lint: allow(panic-path) -- same invariant as wait(): every accepted ticket is answered by construction; a dropped channel is an engine bug
                panic!("engine dropped the reply channel")
            }
        }
    }
}

/// Samples fanned out to the workers: one pushed stream chunk, or a
/// one-shot request's whole waveform, shared without copying.
#[derive(Clone)]
enum Samples {
    Chunk(Arc<Vec<f32>>),
    Whole(Arc<Waveform>),
}

impl Samples {
    fn as_slice(&self) -> &[f32] {
        match self {
            Samples::Chunk(samples) => samples,
            Samples::Whole(wave) => wave.samples(),
        }
    }
}

/// Everything that can enter the ingress queue. One bounded channel
/// carries every request's messages, so each request's chunk order is
/// preserved end to end. `Open` with a waveform and its content key is a
/// one-shot request: pushed whole and finished at once.
enum IngressMsg {
    Open { id: u64, at: Instant, reply: Sender<Verdict>, wave: Option<(Arc<Waveform>, u64)> },
    Chunk { id: u64, samples: Arc<Vec<f32>> },
    Finish { id: u64, at: Instant },
}

/// Work for one recogniser. `report_running` sends the running
/// transcript back after the chunk (only for streams on an engine with an
/// early-exit rule).
enum WorkItem {
    Chunk { id: u64, samples: Samples, report_running: bool },
    Finish { id: u64 },
}

enum CollectorMsg {
    Open(RequestState),
    Finished { id: u64, at: Instant },
    Running { id: u64, asr_index: usize, seq: u64, frames: usize, text: String },
    Final { id: u64, asr_index: usize, text: String, busy_us: u64 },
}

/// Where the transcripts behind a verdict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The workers' final transcripts (or as many as met their deadline).
    Workers,
    /// The transcription cache, looked up at dispatch.
    Cache,
    /// The workers' running transcripts at the chunk where the early-exit
    /// rule fired.
    EarlyExit,
}

/// Collector-side state of one request, one-shot or stream.
struct RequestState {
    id: u64,
    reply: Sender<Verdict>,
    /// Submit (one-shot) or open (stream) time; latency runs from here.
    submitted: Instant,
    /// Time spent in the ingress queue, stamped at dispatch.
    queued_us: u64,
    /// A one-shot request's waveform and content key, held for the
    /// modalities and the cache insert. `None` for streams, whose audio
    /// is never retained.
    wave: Option<(Arc<Waveform>, u64)>,
    /// When the request finished; every deadline runs from here. A
    /// one-shot request finishes at submit; `None` while a stream is open.
    finished: Option<Instant>,
    /// Per recogniser (target first): the final transcript.
    finals: Vec<Option<String>>,
    /// Per recogniser: worker wall time spent on this request.
    busy_us: Vec<Option<u64>>,
    /// An early verdict has been sent; retiring only cleans up.
    answered: bool,
    /// Consecutive collapsed early-exit evaluations.
    collapsed: usize,
    /// Chunk seq of the front of `running`.
    next_seq: u64,
    /// Per chunk seq from `next_seq` on, per recogniser: the running
    /// `(frames decoded, transcript)` after that chunk. A seq is
    /// evaluated once every recogniser has reported it.
    running: VecDeque<Vec<Option<(usize, String)>>>,
}

impl RequestState {
    /// The instants at which the collector stops waiting for each
    /// dispatched recogniser that has not answered yet.
    fn open_deadlines<'a>(&'a self, shared: &'a Shared) -> impl Iterator<Item = Instant> + 'a {
        let finished = self.finished;
        shared.budgets.iter().zip(&self.finals).filter_map(move |(budget, text)| {
            match (budget, text) {
                (Some(budget), None) => finished.map(|at| at + *budget),
                _ => None,
            }
        })
    }

    /// Finished, and every dispatched recogniser has answered or timed out.
    fn is_ready(&self, shared: &Shared, now: Instant) -> bool {
        self.finished.is_some() && self.open_deadlines(shared).all(|deadline| now >= deadline)
    }

    /// Records one recogniser's running transcript after chunk `seq`, then
    /// evaluates, in order, every chunk all recognisers have now reported
    /// — the same gate and [`EarlyExit::fires`] rule
    /// `mvp_ears::DetectionStream::push` applies, so served and in-process
    /// streams fire on the same chunk.
    fn on_running(
        &mut self,
        shared: &Shared,
        asr_index: usize,
        seq: u64,
        frames: usize,
        text: String,
    ) {
        let Some(rule) = shared.early_exit else { return };
        if self.answered || seq < self.next_seq {
            return;
        }
        let slot = (seq - self.next_seq) as usize;
        while self.running.len() <= slot {
            self.running.push_back(vec![None; self.finals.len()]);
        }
        if let Some(cell) = self.running.get_mut(slot).and_then(|row| row.get_mut(asr_index)) {
            *cell = Some((frames, text));
        }
        while self.running.front().is_some_and(|row| row.iter().all(Option::is_some)) {
            let Some(row) = self.running.pop_front() else { return };
            self.next_seq += 1;
            let (frames, texts): (Vec<usize>, Vec<String>) = row.into_iter().flatten().unzip();
            if frames.iter().copied().min().unwrap_or(0) < rule.min_frames {
                continue;
            }
            let Some((target, auxiliaries)) = texts.split_first() else { return };
            let scores = shared.system.scores_from_transcripts(target, auxiliaries);
            if rule.fires(&shared.system, &scores, &mut self.collapsed) {
                shared.answer(self, texts.into_iter().map(Some).collect(), Source::EarlyExit);
                self.answered = true;
                self.running.clear();
                return;
            }
        }
    }
}

/// The transcription cache shared between dispatcher and collector.
///
/// All access goes through [`with`](Self::with), which recovers — and
/// counts — a poisoned lock: a thread panicking while holding the cache
/// must degrade to a possibly-stale cache, never wedge the engine.
#[derive(Clone)]
struct SharedCache {
    inner: Arc<Mutex<LruCache<u64, TranscriptVec>>>,
    poison_recovered: Counter,
}

impl SharedCache {
    fn new(capacity: usize, poison_recovered: Counter) -> SharedCache {
        SharedCache { inner: Arc::new(Mutex::new(LruCache::new(capacity))), poison_recovered }
    }

    fn with<T>(&self, f: impl FnOnce(&mut LruCache<u64, TranscriptVec>) -> T) -> T {
        let mut guard = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // Count the incident once, then clear the flag: the LRU
                // is never left mid-mutation by its panic-free methods.
                self.poison_recovered.inc();
                self.inner.clear_poison();
                poisoned.into_inner()
            }
        };
        f(&mut guard)
    }
}

/// Wall-clock microseconds since the Unix epoch, for audit records.
fn wall_ts_us() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::SystemTime::UNIX_EPOCH).map_or(0, micros)
}

/// A JSON array of already-encoded values.
fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// Builds the JSONL audit record for one answered request. `dispatch`
/// fills the record's `batch` field: the worker dispatch that computed
/// the transcripts (every computed request is its own dispatch, so this
/// is its request id), `None` for a cache hit.
#[allow(clippy::too_many_arguments)]
fn verdict_record(
    id: u64,
    dispatch: Option<u64>,
    verdict: &Verdict,
    aux_texts: &[Option<String>],
    threshold: Option<f64>,
    queued_us: u64,
    transcribe_us: &[Option<u64>],
    finalize_us: u64,
) -> String {
    let (kind, tier) = match verdict.kind {
        VerdictKind::Full => ("full", None),
        VerdictKind::Degraded(t) => ("degraded", Some(t.name())),
        VerdictKind::Failed => ("failed", None),
    };
    let aux = json_array(aux_texts.iter().enumerate().map(|(j, text)| {
        JsonObj::new()
            .u64("i", j as u64)
            .opt_str("text", text.as_deref())
            .opt_f64("score", verdict.scores.get(j).copied().flatten())
            .finish()
    }));
    let transcribe =
        json_array(transcribe_us.iter().map(|t| t.map_or("null".to_string(), |us| us.to_string())));
    let modalities = json_array(verdict.modalities.iter().map(|report| {
        JsonObj::new()
            .str("name", report.kind.name())
            .bool("scored", report.scored)
            .raw("features", &json_array(report.features.iter().map(|f| format!("{f}"))))
            .u64("us", report.elapsed_us)
            .finish()
    }));
    let timing = JsonObj::new()
        .u64("queue_us", queued_us)
        .raw("transcribe_us", &transcribe)
        .u64("finalize_us", finalize_us)
        .u64("total_us", verdict.latency.as_micros().min(u128::from(u64::MAX)) as u64)
        .finish();
    let obj = JsonObj::new()
        // v2 added the "modalities" array and the "fused" flag;
        // v3 added the "early" flag (stream verdicts that fired before
        // end-of-stream).
        .u64("v", 3)
        .str("event", "verdict")
        .u64("ts_us", wall_ts_us())
        .u64("request", id);
    let obj = match dispatch {
        Some(b) => obj.u64("batch", b),
        None => obj.null("batch"),
    };
    obj.str("kind", kind)
        .opt_str("tier", tier)
        .bool("cache", verdict.from_cache)
        .opt_bool("adversarial", verdict.is_adversarial)
        .bool("fused", verdict.fused)
        .bool("early", verdict.early_exit)
        .opt_str("target", verdict.target_transcription.as_deref())
        .opt_f64("threshold", threshold)
        .raw("aux", &aux)
        .raw("modalities", &modalities)
        .raw("timing", &timing)
        .finish()
}

/// What the dispatcher and the collector share: the served system and
/// the policy every verdict passes through.
struct Shared {
    system: Arc<DetectionSystem>,
    policy: DegradePolicy,
    plan: ModalityPlan,
    cache: Option<SharedCache>,
    stats: Arc<ServeStats>,
    audit: Option<Arc<AuditLog>>,
    /// The early-exit rule; `None` when unset or an auxiliary is disabled.
    early_exit: Option<EarlyExit>,
    /// Per recogniser (target first): its deadline, counted from the
    /// request's finish; `None` when it is never dispatched.
    budgets: Vec<Option<Duration>>,
}

impl Shared {
    /// A fresh request state. One-shot requests (`wave` present) are
    /// finished at submit.
    fn request(
        &self,
        id: u64,
        reply: Sender<Verdict>,
        submitted: Instant,
        wave: Option<(Arc<Waveform>, u64)>,
    ) -> RequestState {
        let n_rec = self.budgets.len();
        RequestState {
            id,
            reply,
            submitted,
            queued_us: micros(submitted.elapsed()),
            finished: wave.is_some().then_some(submitted),
            wave,
            finals: vec![None; n_rec],
            busy_us: vec![None; n_rec],
            answered: false,
            collapsed: 0,
            next_seq: 1,
            running: VecDeque::new(),
        }
    }

    fn lookup(&self, key: u64) -> Option<TranscriptVec> {
        let cache = self.cache.as_ref()?;
        self.stats.cache_lookups.inc();
        let hit = cache.with(|c| c.get(&key).cloned());
        if hit.is_some() {
            self.stats.cache_hits.inc();
        }
        hit
    }

    /// Builds, counts, audits and sends the one verdict of `req` from its
    /// per-recogniser transcripts (target first; `None` = missed its
    /// deadline or never dispatched). Every verdict the engine sends —
    /// full, degraded, failed, cache hit, early exit — is made here, by
    /// these steps in order:
    ///
    /// 1. deadline: without the target's transcript the request fails;
    /// 2. degrade ladder: a missing auxiliary hands the partial score
    ///    vector to the [`DegradePolicy`];
    /// 3. modalities, when the waveform is held (one-shot requests);
    /// 4. the fused classifier, when every planned modality scored;
    /// 5. cache insert, for a full vector the workers just computed;
    /// 6. audit;
    /// 7. reply.
    fn answer(&self, req: &RequestState, texts: Vec<Option<String>>, source: Source) {
        let _span = mvp_obs::span!("serve.finalize", req.id);
        let started = Instant::now();
        let mut texts = texts.into_iter();
        let target = texts.next().flatten();
        let aux_texts: Vec<Option<String>> = texts.collect();
        let mut verdict = Verdict {
            is_adversarial: None,
            kind: VerdictKind::Failed,
            from_cache: source == Source::Cache,
            scores: vec![None; aux_texts.len()],
            target_transcription: None,
            modalities: Vec::new(),
            fused: false,
            early_exit: source == Source::EarlyExit,
            latency: Duration::ZERO,
        };
        // The mean-score threshold makes MeanThreshold verdicts
        // reconstructible from the audit record alone.
        let mut threshold = None;
        if let Some(target) = target {
            let present: Vec<(usize, String)> = aux_texts
                .iter()
                .enumerate()
                .filter_map(|(j, text)| Some((j, text.clone()?)))
                .collect();
            let (indices, present): (Vec<usize>, Vec<String>) = present.into_iter().unzip();
            let scores = self.system.scores_from_transcripts(&target, &present);
            for (&j, &score) in indices.iter().zip(&scores) {
                if let Some(slot) = verdict.scores.get_mut(j) {
                    *slot = Some(score);
                }
            }
            if present.len() < aux_texts.len() {
                let pairs: Vec<(usize, f64)> = indices.into_iter().zip(scores).collect();
                let (is_adversarial, tier) = self.policy.classify(&pairs);
                verdict.is_adversarial = Some(is_adversarial);
                verdict.kind = VerdictKind::Degraded(tier);
                if tier == FallbackTier::MeanThreshold {
                    threshold = self.policy.mean_threshold();
                }
            } else {
                verdict.is_adversarial = Some(self.system.classify_scores(&scores));
                verdict.kind = VerdictKind::Full;
                if let Some((wave, key)) = &req.wave {
                    self.apply_modalities(&mut verdict, wave, &scores, &target, req.submitted);
                    if let (Source::Workers, Some(cache)) = (source, &self.cache) {
                        let vector: Vec<String> =
                            std::iter::once(target.clone()).chain(present).collect();
                        cache.with(|c| c.insert(*key, Arc::new(vector)));
                    }
                }
            }
            verdict.target_transcription = Some(target);
        }
        verdict.latency = req.submitted.elapsed();

        let stats = &self.stats;
        match verdict.kind {
            VerdictKind::Failed => stats.deadline_failures.inc(),
            VerdictKind::Degraded(_) => stats.degraded.inc(),
            VerdictKind::Full => {}
        }
        if verdict.fused {
            stats.fused_verdicts.inc();
        }
        if verdict.early_exit {
            stats.stream_early_exits.inc();
        }
        stats.latency.record(verdict.latency);
        stats.completed.inc();
        if let Some(audit) = &self.audit {
            let (dispatch, transcribe_us) = match source {
                Source::Cache => (None, [].as_slice()),
                _ => (Some(req.id), req.busy_us.as_slice()),
            };
            let record = verdict_record(
                req.id,
                dispatch,
                &verdict,
                &aux_texts,
                threshold,
                req.queued_us,
                transcribe_us,
                micros(started.elapsed()),
            );
            let _ = audit.append(&record);
        }
        let _ = req.reply.send(verdict);
    }

    /// Steps 3 and 4 of [`answer`](Self::answer) on a full similarity
    /// verdict: upgrade to a fused verdict when every planned modality
    /// scored on a fused-capable engine, degrade to
    /// [`FallbackTier::SimilarityOnly`] when one missed its budget, or
    /// just attach the evidence reports otherwise.
    fn apply_modalities(
        &self,
        verdict: &mut Verdict,
        wave: &Waveform,
        scores: &[f64],
        target_text: &str,
        submitted: Instant,
    ) {
        if self.plan.is_empty() {
            return;
        }
        let reports =
            score_modalities(&self.system, &self.plan, wave, target_text, submitted, &self.stats);
        if self.plan.fused_capable {
            if reports.iter().all(|r| r.scored) {
                let mut raw = scores.to_vec();
                for report in &reports {
                    raw.extend_from_slice(&report.features);
                }
                let fused = self
                    .system
                    .fused_classifier()
                    // mvp-lint: allow(panic-path) -- fused_capable is only set at engine start when the system carries a fused classifier
                    .expect("fused-capable plan implies a fused classifier");
                verdict.is_adversarial = Some(fused.is_adversarial(&raw));
                verdict.fused = true;
            } else {
                verdict.kind = VerdictKind::Degraded(FallbackTier::SimilarityOnly);
            }
        }
        verdict.modalities = reports;
    }

    /// Retires a request whose recognisers have all answered or timed
    /// out, answering it unless an early verdict already went out.
    fn retire(&self, mut req: RequestState) {
        if req.wave.is_none() {
            self.stats.streams_completed.inc();
        }
        if !req.answered {
            let texts = std::mem::take(&mut req.finals);
            self.answer(&req, texts, Source::Workers);
        }
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The long-lived serving engine. Dropping it drains in-flight requests
/// (each gets a verdict) and joins all threads.
pub struct DetectionEngine {
    ingress: Option<Sender<IngressMsg>>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<ServeStats>,
    audit: Option<Arc<AuditLog>>,
    /// One id space for one-shot requests and streams alike.
    next_id: AtomicU64,
}

impl std::fmt::Debug for DetectionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionEngine").field("threads", &self.threads.len()).finish()
    }
}

impl DetectionEngine {
    /// Starts the engine: one dispatcher, one persistent worker per
    /// recogniser, one collector.
    ///
    /// # Panics
    ///
    /// Panics if the system is untrained, `queue_cap` is zero, or
    /// `aux_deadline_ms` is longer than the auxiliary list.
    pub fn start(
        system: Arc<DetectionSystem>,
        policy: DegradePolicy,
        config: EngineConfig,
    ) -> DetectionEngine {
        assert!(system.is_trained(), "serve a trained DetectionSystem");
        assert!(config.queue_cap > 0, "queue_cap must be positive");
        let n_aux = system.n_auxiliaries();
        assert!(
            config.aux_deadline_ms.len() <= n_aux,
            "aux_deadline_ms has {} entries for {} auxiliaries",
            config.aux_deadline_ms.len(),
            n_aux
        );
        assert_eq!(policy.n_aux(), n_aux, "degrade policy dimension mismatch");
        let registered = system.modalities().kinds();
        for (i, kind) in config.modalities.iter().enumerate() {
            assert!(
                registered.contains(kind),
                "modality {kind} is not registered on the served system"
            );
            assert!(
                !config.modalities[..i].contains(kind),
                "modality {kind} listed twice in the engine config"
            );
        }
        assert!(
            config.modality_budget_ms.len() <= config.modalities.len(),
            "modality_budget_ms has {} entries for {} modalities",
            config.modality_budget_ms.len(),
            config.modalities.len()
        );

        // Entry 0 is the target recogniser; per-auxiliary overrides start
        // at index 1.
        let overall = Duration::from_millis(config.deadline_ms);
        let mut budgets = vec![Some(overall); 1 + n_aux];
        for (override_ms, budget) in config.aux_deadline_ms.iter().zip(budgets.iter_mut().skip(1)) {
            *budget = match override_ms {
                Some(0) => None,
                Some(ms) => Some(Duration::from_millis((*ms).min(config.deadline_ms))),
                None => Some(overall),
            };
        }
        let stats = Arc::new(ServeStats::new());
        let shared = Arc::new(Shared {
            plan: ModalityPlan {
                fused_capable: system.is_fused() && config.modalities == registered,
                kinds: config.modalities.clone(),
                budgets_ms: config.modality_budget_ms.clone(),
            },
            early_exit: config.early_exit.filter(|_| budgets.iter().all(Option::is_some)),
            budgets,
            cache: (config.cache_cap > 0)
                .then(|| SharedCache::new(config.cache_cap, stats.cache_poison_recovered.clone())),
            stats: Arc::clone(&stats),
            audit: config.audit.clone(),
            policy,
            system,
        });

        let (ingress_tx, ingress_rx) = channel::bounded::<IngressMsg>(config.queue_cap);
        // Bounded like every other serve channel (channel-discipline):
        // the collector always drains and never sends into a producer,
        // so capacity only sizes the buffer — it cannot deadlock.
        let (collector_tx, collector_rx) =
            channel::bounded::<CollectorMsg>((config.queue_cap * 8).max(256));

        let recognizers = shared.system.recognizers();
        // Partition the machine's cores between the ASR workers: each
        // worker's kernel-plane frame parallelism (`par_rows` inside
        // MFCC/CTC) gets an equal share, so intra-request data
        // parallelism never oversubscribes the worker fleet.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        mvp_dsp::kernel::set_threads((cores / recognizers.len().max(1)).max(1));
        let mut threads = Vec::with_capacity(recognizers.len() + 2);
        let mut worker_txs = Vec::with_capacity(recognizers.len());
        for (i, asr) in recognizers.into_iter().enumerate() {
            // Bounded: a backlogged worker exerts backpressure on the
            // dispatcher (and through the ingress queue, on submitters)
            // instead of buffering without limit.
            let (tx, rx) = channel::bounded::<WorkItem>((config.queue_cap * 4).max(64));
            worker_txs.push(tx);
            let collector_tx = collector_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(asr, i, rx, collector_tx))
                    // mvp-lint: allow(panic-path) -- engine construction, before any request is accepted; failing to spawn means no engine exists to degrade
                    .expect("spawn worker"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-dispatcher".into())
                    .spawn(move || dispatcher_loop(shared, ingress_rx, worker_txs, collector_tx))
                    // mvp-lint: allow(panic-path) -- engine construction, before any request is accepted; failing to spawn means no engine exists to degrade
                    .expect("spawn dispatcher"),
            );
        }
        threads.push(
            std::thread::Builder::new()
                .name("serve-collector".into())
                .spawn(move || collector_loop(shared, collector_rx))
                // mvp-lint: allow(panic-path) -- engine construction, before any request is accepted; failing to spawn means no engine exists to degrade
                .expect("spawn collector"),
        );

        DetectionEngine {
            ingress: Some(ingress_tx),
            threads,
            stats,
            audit: config.audit,
            next_id: AtomicU64::new(0),
        }
    }

    /// File name of the persisted detection system inside
    /// [`EngineConfig::model_dir`].
    pub const SNAPSHOT_FILE: &'static str = "detector.mvpa";

    /// Starts the engine, warm-starting from `config.model_dir` when a
    /// persisted detection system exists there.
    ///
    /// - snapshot present and valid → restore it (no training) and start;
    ///   returns `warm = true`;
    /// - snapshot absent (or no `model_dir`) → call `cold` to build the
    ///   system, persist it for the next process, and start; returns
    ///   `warm = false`;
    /// - snapshot present but unreadable (corrupt, version skew) → return
    ///   the error rather than silently retraining; the caller decides
    ///   whether to delete the artifact or run cold.
    ///
    /// # Panics
    ///
    /// Panics as [`start`](Self::start) does on invalid configs or an
    /// untrained cold system.
    pub fn start_or_warm(
        policy: DegradePolicy,
        config: EngineConfig,
        cold: impl FnOnce() -> DetectionSystem,
    ) -> Result<(DetectionEngine, bool), ArtifactError> {
        let path = config.model_dir.as_ref().map(|dir| dir.join(Self::SNAPSHOT_FILE));
        if let Some(path) = &path {
            match DetectionSystemSnapshot::load_file(path) {
                Ok(snapshot) => {
                    let system = Arc::new(snapshot.restore());
                    return Ok((Self::start(system, policy, config), true));
                }
                Err(err) if err.is_not_found() => {}
                Err(err) => return Err(err),
            }
        }
        let system = Arc::new(cold());
        if let Some(path) = &path {
            DetectionSystemSnapshot::capture(&system).save_file(path)?;
        }
        Ok((Self::start(system, policy, config), false))
    }

    /// Submits a waveform for detection: a stream opened, fed the whole
    /// waveform (shared, not copied) and finished in one message.
    /// Non-blocking: a full ingress queue sheds the request with
    /// [`SubmitError::Overloaded`].
    pub fn submit(&self, wave: impl Into<Arc<Waveform>>) -> Result<PendingVerdict, SubmitError> {
        let tx = self.ingress.as_ref().ok_or(SubmitError::Closed)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let _span = mvp_obs::span!("serve.submit", id);
        let wave = wave.into();
        let key = waveform_key(&wave);
        let (reply, reply_rx) = channel::bounded(1);
        let msg = IngressMsg::Open { id, at: Instant::now(), reply, wave: Some((wave, key)) };
        // Gauge first so it never underflows against the dispatcher's
        // decrement.
        self.stats.queue_depth.inc();
        match tx.try_send(msg) {
            Ok(()) => {
                self.stats.submitted.inc();
                Ok(PendingVerdict { rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.stats.queue_depth.dec();
                self.stats.shed.inc();
                if let Some(audit) = &self.audit {
                    let _ = audit.append(
                        &JsonObj::new()
                            .u64("v", 1)
                            .str("event", "shed")
                            .u64("ts_us", wall_ts_us())
                            .u64("request", id)
                            .finish(),
                    );
                }
                Err(SubmitError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_depth.dec();
                Err(SubmitError::Closed)
            }
        }
    }

    /// Opens a chunked-ingress stream. Chunks pushed through the
    /// returned [`StreamHandle`] feed the same persistent workers as
    /// one-shot requests; the verdict arrives at
    /// [`finish`](StreamHandle::finish), or earlier when the engine's
    /// [`EngineConfig::early_exit`] rule fires.
    ///
    /// The handle borrows the engine, so a stream can never outlive it —
    /// shutdown cannot start while a stream is open, which is what makes
    /// "every accepted stream is answered" a structural guarantee.
    pub fn submit_stream(&self) -> Result<StreamHandle<'_>, SubmitError> {
        let tx = self.ingress.as_ref().ok_or(SubmitError::Closed)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, reply_rx) = channel::bounded(1);
        tx.send(IngressMsg::Open { id, at: Instant::now(), reply, wave: None })
            .map_err(|_| SubmitError::Closed)?;
        self.stats.streams_opened.inc();
        Ok(StreamHandle { engine: self, id, reply: reply_rx, got: None, finished: false })
    }

    /// Current ingress queue depth (the dispatcher's backlog of one-shot
    /// requests). The shard router reads this to decide when to steal.
    pub fn queue_depth(&self) -> u64 {
        self.stats.queue_depth.get()
    }

    /// Convenience: submit and block for the verdict.
    pub fn detect_blocking(&self, wave: impl Into<Arc<Waveform>>) -> Result<Verdict, SubmitError> {
        self.submit(wave).map(PendingVerdict::wait)
    }

    /// A point-in-time copy of the engine metrics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The metrics registry backing [`stats`](Self::stats); hand it to an
    /// [`mvp_obs::SnapshotWriter`] for periodic exposition dumps.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.stats.registry())
    }

    /// Prometheus-style text exposition of every engine metric.
    pub fn metrics_text(&self) -> String {
        self.stats.render_text()
    }

    /// Shuts down explicitly (Drop does the same): stops intake, drains
    /// in-flight requests, joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.ingress.take());
        for t in self.threads.drain(..) {
            if let Err(panic) = t.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // Give the kernel plane its automatic thread count back now
        // that the worker fleet no longer owns the cores.
        mvp_dsp::kernel::set_threads(0);
    }
}

impl Drop for DetectionEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One open chunked-ingress stream on a [`DetectionEngine`].
///
/// Push sample chunks with [`push`](Self::push), poll for an early
/// verdict with [`try_verdict`](Self::try_verdict), and settle with
/// [`finish`](Self::finish). Exactly one verdict is produced per stream
/// — early or final, never both. Dropping the handle without finishing
/// sends a best-effort finish so worker-side stream state is reclaimed.
#[derive(Debug)]
pub struct StreamHandle<'a> {
    engine: &'a DetectionEngine,
    id: u64,
    reply: Receiver<Verdict>,
    /// An early verdict observed by `try_verdict`, held for `finish`.
    got: Option<Verdict>,
    finished: bool,
}

impl StreamHandle<'_> {
    /// The engine-assigned request id (also the `request` field of the
    /// stream's audit record).
    pub fn id(&self) -> u64 {
        self.id
    }

    fn send(&self, msg: IngressMsg) -> Result<(), SubmitError> {
        let tx = self.engine.ingress.as_ref().ok_or(SubmitError::Closed)?;
        tx.send(msg).map_err(|_| SubmitError::Closed)
    }

    /// Feeds the next chunk of samples. Blocks while the ingress queue
    /// is full — streams are flow-controlled, never shed mid-utterance.
    pub fn push(&mut self, samples: &[f32]) -> Result<(), SubmitError> {
        self.push_arc(Arc::new(samples.to_vec()))
    }

    /// [`push`](Self::push) without copying an already-shared buffer.
    pub fn push_arc(&mut self, samples: Arc<Vec<f32>>) -> Result<(), SubmitError> {
        self.engine.stats.stream_chunks.inc();
        self.send(IngressMsg::Chunk { id: self.id, samples })
    }

    /// Returns the early verdict if one has fired. After this returns
    /// `Some`, further pushes still advance the recognisers but the
    /// verdict is settled; [`finish`](Self::finish) returns it.
    pub fn try_verdict(&mut self) -> Option<&Verdict> {
        if self.got.is_none() {
            self.got = self.reply.try_recv().ok();
        }
        self.got.as_ref()
    }

    /// Ends the stream and blocks for its verdict: the early one if the
    /// rule fired, otherwise the full end-of-stream detection (the only
    /// place a stream can be judged `Benign`). The stream's deadlines
    /// start now.
    pub fn finish(mut self) -> Result<Verdict, SubmitError> {
        self.finished = true;
        self.send(IngressMsg::Finish { id: self.id, at: Instant::now() })?;
        if let Some(verdict) = self.got.take() {
            return Ok(verdict);
        }
        self.reply.recv().map_err(|_| SubmitError::Closed)
    }
}

impl Drop for StreamHandle<'_> {
    fn drop(&mut self) {
        if !self.finished {
            if let Some(tx) = self.engine.ingress.as_ref() {
                // Best-effort: a full queue here leaks the stream's state
                // until engine shutdown, which is preferable to a Drop
                // that can block.
                let _ = tx.try_send(IngressMsg::Finish { id: self.id, at: Instant::now() });
            }
        }
    }
}

/// One recogniser's incremental state for one in-flight request.
#[derive(Default)]
struct Live {
    stream: AsrStream,
    /// Chunks pushed so far, counted identically by every worker so the
    /// collector can align running transcripts across recognisers.
    seq: u64,
    busy_us: u64,
}

fn worker_loop(
    asr: Arc<TrainedAsr>,
    asr_index: usize,
    work: Receiver<WorkItem>,
    out: Sender<CollectorMsg>,
) {
    // One `AsrStream` per in-flight request; finished ones go back on the
    // free list, so their buffers keep their capacity and steady-state
    // requests allocate nothing in the pipeline.
    let mut live: HashMap<u64, Live> = HashMap::new();
    let mut free: Vec<AsrStream> = Vec::new();
    for item in work.iter() {
        let msg = match item {
            WorkItem::Chunk { id, samples, report_running } => {
                let _span = mvp_obs::span!("serve.transcribe", id);
                let started = Instant::now();
                let state = live.entry(id).or_insert_with(|| Live {
                    stream: free.pop().unwrap_or_default(),
                    ..Live::default()
                });
                asr.stream_push_f32(&mut state.stream, samples.as_slice());
                state.seq += 1;
                let running = report_running.then(|| CollectorMsg::Running {
                    id,
                    asr_index,
                    seq: state.seq,
                    frames: state.stream.frames_decoded(),
                    text: asr.stream_transcript(&state.stream),
                });
                state.busy_us += micros(started.elapsed());
                match running {
                    Some(msg) => msg,
                    None => continue,
                }
            }
            WorkItem::Finish { id } => {
                let _span = mvp_obs::span!("serve.transcribe", id);
                let started = Instant::now();
                let Live { mut stream, busy_us, .. } = live.remove(&id).unwrap_or_default();
                let text = asr.stream_finish(&mut stream);
                free.push(stream);
                let busy_us = busy_us + micros(started.elapsed());
                CollectorMsg::Final { id, asr_index, text, busy_us }
            }
        };
        if out.send(msg).is_err() {
            return;
        }
    }
}

fn dispatcher_loop(
    shared: Arc<Shared>,
    ingress: Receiver<IngressMsg>,
    workers: Vec<Sender<WorkItem>>,
    collector: Sender<CollectorMsg>,
) {
    let stats = &shared.stats;
    // Work goes only to dispatched recognisers, in ingress order.
    let fan_out = |item: &dyn Fn() -> WorkItem| {
        for (tx, budget) in workers.iter().zip(&shared.budgets) {
            if budget.is_some() {
                let _ = tx.send(item());
            }
        }
    };
    // The collector learns of a request before any worker can answer it.
    let open = |state: RequestState| {
        stats.batches.inc();
        stats.batched_requests.inc();
        collector.send(CollectorMsg::Open(state)).is_ok()
    };
    let report_running = shared.early_exit.is_some();
    for msg in ingress.iter() {
        match msg {
            IngressMsg::Open { id, at, reply, wave } => {
                let whole = wave.as_ref().map(|(wave, key)| (Arc::clone(wave), *key));
                let state = shared.request(id, reply, at, wave);
                let Some((wave, key)) = whole else {
                    if !open(state) {
                        return;
                    }
                    continue;
                };
                stats.queue_depth.dec();
                if let Some(cached) = shared.lookup(key) {
                    let _span = mvp_obs::span!("serve.cache_hit", id);
                    let texts = cached.iter().cloned().map(Some).collect();
                    shared.answer(&state, texts, Source::Cache);
                    continue;
                }
                if !open(state) {
                    return;
                }
                let samples = Samples::Whole(wave);
                fan_out(&|| WorkItem::Chunk {
                    id,
                    samples: samples.clone(),
                    report_running: false,
                });
                fan_out(&|| WorkItem::Finish { id });
            }
            IngressMsg::Chunk { id, samples } => {
                let samples = Samples::Chunk(samples);
                fan_out(&|| WorkItem::Chunk { id, samples: samples.clone(), report_running });
            }
            IngressMsg::Finish { id, at } => {
                if collector.send(CollectorMsg::Finished { id, at }).is_err() {
                    return;
                }
                fan_out(&|| WorkItem::Finish { id });
            }
        }
    }
    // Ingress closed: dropping the worker and collector senders lets
    // them drain what they hold and exit.
}

fn collector_loop(shared: Arc<Shared>, rx: Receiver<CollectorMsg>) {
    let mut requests: HashMap<u64, RequestState> = HashMap::new();
    loop {
        let next_deadline = requests.values().flat_map(|r| r.open_deadlines(&shared)).min();
        let received = match next_deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => rx.recv_timeout(t.saturating_duration_since(Instant::now())),
        };
        match received {
            Ok(CollectorMsg::Open(state)) => {
                requests.insert(state.id, state);
            }
            Ok(CollectorMsg::Finished { id, at }) => {
                if let Some(state) = requests.get_mut(&id) {
                    state.finished = Some(at);
                }
            }
            Ok(CollectorMsg::Running { id, asr_index, seq, frames, text }) => {
                if let Some(state) = requests.get_mut(&id) {
                    state.on_running(&shared, asr_index, seq, frames, text);
                }
            }
            Ok(CollectorMsg::Final { id, asr_index, text, busy_us }) => {
                if let Some(state) = requests.get_mut(&id) {
                    if let Some(slot) = state.finals.get_mut(asr_index) {
                        *slot = Some(text);
                    }
                    if let Some(slot) = state.busy_us.get_mut(asr_index) {
                        *slot = Some(busy_us);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Producers gone and their queue drained: every transcript
            // that will ever arrive has arrived, so answer what remains
            // (missing transcripts count as missed; a stream that never
            // finished fails) rather than waiting out deadlines.
            Err(RecvTimeoutError::Disconnected) => {
                for (_, state) in requests.drain() {
                    shared.retire(state);
                }
                return;
            }
        }
        let now = Instant::now();
        let ready: Vec<u64> =
            requests.iter().filter(|(_, r)| r.is_ready(&shared, now)).map(|(&id, _)| id).collect();
        for id in ready {
            if let Some(state) = requests.remove(&id) {
                shared.retire(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cache_recovers_from_poisoning() {
        let recovered = Counter::new();
        let cache = SharedCache::new(4, recovered.clone());
        cache.with(|c| c.insert(1, Arc::new(vec!["a".into()])));
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies while holding the cache lock");
        })
        .join();
        // The poisoned lock is recovered (and counted), not propagated:
        // the cache keeps answering.
        assert_eq!(cache.with(|c| c.get(&1).cloned()).map(|v| v.len()), Some(1));
        cache.with(|c| c.insert(2, Arc::new(vec!["b".into()])));
        assert!(cache.with(|c| c.get(&2).is_some()));
        assert_eq!(recovered.get(), 1);
    }

    #[test]
    fn verdict_records_parse_and_reconstruct() {
        let verdict = Verdict {
            is_adversarial: Some(true),
            kind: VerdictKind::Degraded(FallbackTier::MeanThreshold),
            from_cache: false,
            scores: vec![Some(0.12), None],
            target_transcription: Some("open the door".into()),
            modalities: vec![
                ModalityReport {
                    kind: ModalityKind::Transform,
                    scored: true,
                    features: vec![0.91, 0.05],
                    elapsed_us: 420,
                },
                ModalityReport {
                    kind: ModalityKind::Distribution,
                    scored: false,
                    features: Vec::new(),
                    elapsed_us: 0,
                },
            ],
            fused: false,
            early_exit: false,
            latency: Duration::from_micros(1500),
        };
        let line = verdict_record(
            7,
            Some(3),
            &verdict,
            &[Some("open door".into()), None],
            Some(0.4),
            250,
            &[Some(900), Some(800), None],
            30,
        );
        let v = mvp_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("verdict"));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("request").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("degraded"));
        assert_eq!(v.get("tier").unwrap().as_str(), Some("mean_threshold"));
        assert_eq!(v.get("adversarial").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("threshold").unwrap().as_f64(), Some(0.4));
        assert_eq!(v.get("fused").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("early").unwrap().as_bool(), Some(false));
        let modalities = v.get("modalities").unwrap().as_arr().unwrap();
        assert_eq!(modalities.len(), 2);
        assert_eq!(modalities[0].get("name").unwrap().as_str(), Some("transform"));
        assert_eq!(modalities[0].get("scored").unwrap().as_bool(), Some(true));
        assert_eq!(modalities[0].get("features").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(modalities[0].get("us").unwrap().as_f64(), Some(420.0));
        assert_eq!(modalities[1].get("scored").unwrap().as_bool(), Some(false));
        let aux = v.get("aux").unwrap().as_arr().unwrap();
        assert_eq!(aux.len(), 2);
        assert_eq!(aux[0].get("score").unwrap().as_f64(), Some(0.12));
        assert!(aux[1].get("text").unwrap().is_null());
        let timing = v.get("timing").unwrap();
        assert_eq!(timing.get("queue_us").unwrap().as_f64(), Some(250.0));
        assert_eq!(timing.get("total_us").unwrap().as_f64(), Some(1500.0));
        assert!(timing.get("transcribe_us").unwrap().as_arr().unwrap()[2].is_null());
    }
}
