//! Service-level instrumentation: throughput counters, queue-depth
//! gauge, cache hit rate, and latency quantiles.
//!
//! Every metric lives in an [`mvp_obs::Registry`], so the same storage
//! cells back the typed [`StatsSnapshot`], the Prometheus-style text
//! exposition, and any periodic snapshot writer — there is no second
//! set of books to drift out of sync.

use std::sync::Arc;

use mvp_obs::metrics::{Counter, Gauge, Histogram, Registry};

/// The serve latency histogram. Retained name from the pre-registry
/// implementation; the type now lives in `mvp_obs`.
pub use mvp_obs::metrics::Histogram as LatencyHistogram;

/// Cumulative engine counters, registry-backed. All handles are
/// thread-safe; counters are monotone, `queue_depth` moves both ways.
#[derive(Debug)]
pub struct ServeStats {
    registry: Arc<Registry>,
    /// Requests accepted into the ingress queue.
    pub submitted: Counter,
    /// Requests rejected by backpressure (queue full).
    pub shed: Counter,
    /// Requests answered (with any verdict).
    pub completed: Counter,
    /// Requests answered in degraded mode (≥ 1 auxiliary dropped).
    pub degraded: Counter,
    /// Requests that failed outright (target ASR missed the deadline).
    pub deadline_failures: Counter,
    /// Cache lookups performed.
    pub cache_lookups: Counter,
    /// Cache lookups that hit.
    pub cache_hits: Counter,
    /// Times a poisoned cache lock was recovered (a worker panicked
    /// while holding it and the engine carried on).
    pub cache_poison_recovered: Counter,
    /// Current ingress queue depth.
    pub queue_depth: Gauge,
    /// Worker dispatches: one per request the workers compute (every
    /// cache miss and every stream).
    pub batches: Counter,
    /// Requests across worker dispatches (for the mean dispatch size).
    pub batched_requests: Counter,
    /// Modality evaluations completed (one per modality per request).
    pub modality_scored: Counter,
    /// Modality evaluations skipped because the per-request budget was
    /// already spent (or the modality was disabled with a zero budget).
    pub modality_budget_missed: Counter,
    /// Requests answered by the fused similarity + modality classifier.
    pub fused_verdicts: Counter,
    /// Chunked-ingress streams opened.
    pub streams_opened: Counter,
    /// Stream chunks pushed across all streams.
    pub stream_chunks: Counter,
    /// Streams answered early by the early-exit rule.
    pub stream_early_exits: Counter,
    /// Streams fully finished (every recogniser flushed), whether the
    /// verdict was early or settled at end-of-stream.
    pub streams_completed: Counter,
    /// End-to-end latency of answered requests.
    pub latency: Histogram,
}

impl ServeStats {
    /// Creates zeroed stats backed by a fresh registry.
    pub fn new() -> ServeStats {
        let registry = Arc::new(Registry::new());
        ServeStats {
            submitted: registry
                .counter("serve_submitted_total", "requests accepted into the ingress queue"),
            shed: registry.counter("serve_shed_total", "requests rejected by backpressure"),
            completed: registry.counter("serve_completed_total", "requests answered"),
            degraded: registry.counter("serve_degraded_total", "requests answered degraded"),
            deadline_failures: registry
                .counter("serve_deadline_failures_total", "requests failed on target deadline"),
            cache_lookups: registry
                .counter("serve_cache_lookups_total", "transcription cache lookups"),
            cache_hits: registry.counter("serve_cache_hits_total", "transcription cache hits"),
            cache_poison_recovered: registry.counter(
                "serve_cache_poison_recovered_total",
                "poisoned cache locks recovered after a worker panic",
            ),
            queue_depth: registry.gauge("serve_queue_depth", "current ingress queue depth"),
            batches: registry.counter("serve_batches_total", "worker dispatches"),
            batched_requests: registry
                .counter("serve_batched_requests_total", "requests across worker dispatches"),
            modality_scored: registry
                .counter("serve_modality_scored_total", "modality evaluations completed"),
            modality_budget_missed: registry.counter(
                "serve_modality_budget_missed_total",
                "modality evaluations skipped on a spent per-request budget",
            ),
            fused_verdicts: registry
                .counter("serve_fused_verdicts_total", "requests answered by the fused classifier"),
            streams_opened: registry
                .counter("serve_streams_opened_total", "chunked-ingress streams opened"),
            stream_chunks: registry.counter("serve_stream_chunks_total", "stream chunks pushed"),
            stream_early_exits: registry.counter(
                "serve_stream_early_exits_total",
                "streams answered early by the early-exit rule",
            ),
            streams_completed: registry
                .counter("serve_streams_completed_total", "streams fully finished"),
            latency: registry
                .histogram("serve_latency_micros", "end-to-end request latency in microseconds"),
            registry,
        }
    }

    /// The registry backing every metric; render it for exposition or
    /// hand it to an [`mvp_obs::SnapshotWriter`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Prometheus-style text exposition of every serve metric.
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }

    /// Takes a point-in-time copy of every metric.
    pub fn snapshot(&self) -> StatsSnapshot {
        let batches = self.batches.get();
        StatsSnapshot {
            submitted: self.submitted.get(),
            shed: self.shed.get(),
            completed: self.completed.get(),
            degraded: self.degraded.get(),
            deadline_failures: self.deadline_failures.get(),
            cache_lookups: self.cache_lookups.get(),
            cache_hits: self.cache_hits.get(),
            cache_poison_recovered: self.cache_poison_recovered.get(),
            queue_depth: self.queue_depth.get(),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                self.batched_requests.get() as f64 / batches as f64
            },
            modality_scored: self.modality_scored.get(),
            modality_budget_missed: self.modality_budget_missed.get(),
            fused_verdicts: self.fused_verdicts.get(),
            streams_opened: self.streams_opened.get(),
            stream_chunks: self.stream_chunks.get(),
            stream_early_exits: self.stream_early_exits.get(),
            streams_completed: self.streams_completed.get(),
            latency_mean_micros: self.latency.mean_micros(),
            latency_p50_micros: self.latency.quantile_micros(0.50),
            latency_p95_micros: self.latency.quantile_micros(0.95),
            latency_p99_micros: self.latency.quantile_micros(0.99),
            latency_max_micros: self.latency.max_micros(),
        }
    }
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

/// A point-in-time copy of the engine metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests accepted into the ingress queue.
    pub submitted: u64,
    /// Requests rejected by backpressure.
    pub shed: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests answered in degraded mode.
    pub degraded: u64,
    /// Requests failed because the target ASR missed the deadline.
    pub deadline_failures: u64,
    /// Cache lookups performed.
    pub cache_lookups: u64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Poisoned cache locks recovered.
    pub cache_poison_recovered: u64,
    /// Ingress queue depth at snapshot time.
    pub queue_depth: u64,
    /// Worker dispatches.
    pub batches: u64,
    /// Mean requests per worker dispatch (1 since every request is its
    /// own stream; 0 before the first dispatch).
    pub mean_batch_size: f64,
    /// Modality evaluations completed.
    pub modality_scored: u64,
    /// Modality evaluations skipped on a spent budget.
    pub modality_budget_missed: u64,
    /// Requests answered by the fused classifier.
    pub fused_verdicts: u64,
    /// Chunked-ingress streams opened.
    pub streams_opened: u64,
    /// Stream chunks pushed.
    pub stream_chunks: u64,
    /// Streams answered early by the early-exit rule.
    pub stream_early_exits: u64,
    /// Streams fully finished.
    pub streams_completed: u64,
    /// Mean end-to-end latency (µs).
    pub latency_mean_micros: f64,
    /// Median end-to-end latency (µs, bucket upper edge).
    pub latency_p50_micros: u64,
    /// 95th-percentile latency (µs, bucket upper edge).
    pub latency_p95_micros: u64,
    /// 99th-percentile latency (µs, bucket upper edge).
    pub latency_p99_micros: u64,
    /// Maximum observed latency (µs).
    pub latency_max_micros: u64,
}

impl StatsSnapshot {
    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Merges per-shard snapshots into one aggregate view. Counters and
    /// gauges sum; `mean_batch_size` and `latency_mean_micros` are
    /// weighted means (by batches and completed requests respectively);
    /// latency quantiles and max take the worst shard — exact histogram
    /// merging would need the raw buckets, and a cross-shard p99 is
    /// upper-bounded by the worst per-shard p99, which is the
    /// conservative number an operator wants anyway.
    pub fn merged(shards: &[StatsSnapshot]) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        let mut batch_requests = 0.0f64;
        let mut latency_sum = 0.0f64;
        for s in shards {
            out.submitted += s.submitted;
            out.shed += s.shed;
            out.completed += s.completed;
            out.degraded += s.degraded;
            out.deadline_failures += s.deadline_failures;
            out.cache_lookups += s.cache_lookups;
            out.cache_hits += s.cache_hits;
            out.cache_poison_recovered += s.cache_poison_recovered;
            out.queue_depth += s.queue_depth;
            out.batches += s.batches;
            batch_requests += s.mean_batch_size * s.batches as f64;
            out.modality_scored += s.modality_scored;
            out.modality_budget_missed += s.modality_budget_missed;
            out.fused_verdicts += s.fused_verdicts;
            out.streams_opened += s.streams_opened;
            out.stream_chunks += s.stream_chunks;
            out.stream_early_exits += s.stream_early_exits;
            out.streams_completed += s.streams_completed;
            latency_sum += s.latency_mean_micros * s.completed as f64;
            out.latency_p50_micros = out.latency_p50_micros.max(s.latency_p50_micros);
            out.latency_p95_micros = out.latency_p95_micros.max(s.latency_p95_micros);
            out.latency_p99_micros = out.latency_p99_micros.max(s.latency_p99_micros);
            out.latency_max_micros = out.latency_max_micros.max(s.latency_max_micros);
        }
        if out.batches > 0 {
            out.mean_batch_size = batch_requests / out.batches as f64;
        }
        if out.completed > 0 {
            out.latency_mean_micros = latency_sum / out.completed as f64;
        }
        out
    }

    /// Renders the snapshot as a JSON object (the repo has no serde; the
    /// field set is flat, so hand-rolling is trivial and dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"submitted\":{},\"shed\":{},\"completed\":{},\"degraded\":{},",
                "\"deadline_failures\":{},\"cache_lookups\":{},\"cache_hits\":{},",
                "\"cache_hit_rate\":{:.4},\"cache_poison_recovered\":{},",
                "\"queue_depth\":{},\"batches\":{},",
                "\"mean_batch_size\":{:.3},\"modality_scored\":{},",
                "\"modality_budget_missed\":{},\"fused_verdicts\":{},",
                "\"streams_opened\":{},\"stream_chunks\":{},",
                "\"stream_early_exits\":{},\"streams_completed\":{},",
                "\"latency_mean_us\":{:.1},",
                "\"latency_p50_us\":{},\"latency_p95_us\":{},\"latency_p99_us\":{},",
                "\"latency_max_us\":{}}}"
            ),
            self.submitted,
            self.shed,
            self.completed,
            self.degraded,
            self.deadline_failures,
            self.cache_lookups,
            self.cache_hits,
            self.cache_hit_rate(),
            self.cache_poison_recovered,
            self.queue_depth,
            self.batches,
            self.mean_batch_size,
            self.modality_scored,
            self.modality_budget_missed,
            self.fused_verdicts,
            self.streams_opened,
            self.stream_chunks,
            self.stream_early_exits,
            self.streams_completed,
            self.latency_mean_micros,
            self.latency_p50_micros,
            self.latency_p95_micros,
            self.latency_p99_micros,
            self.latency_max_micros,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_micros(0.5);
        // True median 5 ms -> bucket upper edge within [5ms, 10ms].
        assert!((5_000..=10_000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_micros(0.99);
        assert!(p99 >= 100_000, "p99 {p99}");
        assert_eq!(h.max_micros(), 100_000);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn quantiles_monotone_in_q() {
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(Duration::from_micros(i * 37 % 5000));
        }
        let (p50, p95, p99) =
            (h.quantile_micros(0.5), h.quantile_micros(0.95), h.quantile_micros(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn snapshot_hit_rate_and_json() {
        let s = ServeStats::new();
        s.submitted.add(10);
        s.cache_lookups.add(8);
        s.cache_hits.add(2);
        s.latency.record(Duration::from_millis(3));
        let snap = s.snapshot();
        assert!((snap.cache_hit_rate() - 0.25).abs() < 1e-12);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"submitted\":10"));
        assert!(json.contains("\"cache_hit_rate\":0.2500"));
        assert!(json.contains("\"cache_poison_recovered\":0"));
    }

    #[test]
    fn snapshot_matches_exposition() {
        // The snapshot and the rendered registry must read the same
        // cells: no dual bookkeeping.
        let s = ServeStats::new();
        s.submitted.add(7);
        s.shed.inc();
        s.queue_depth.set(3);
        s.latency.record(Duration::from_micros(900));
        let snap = s.snapshot();
        let text = s.render_text();
        assert!(text.contains(&format!("serve_submitted_total {}", snap.submitted)));
        assert!(text.contains(&format!("serve_shed_total {}", snap.shed)));
        assert!(text.contains(&format!("serve_queue_depth {}", snap.queue_depth)));
        assert!(text.contains("serve_latency_micros_count 1"));
        assert!(text.contains("serve_latency_micros_sum 900"));
    }

    #[test]
    fn merged_sums_counters_and_takes_worst_tails() {
        let a = ServeStats::new();
        a.submitted.add(4);
        a.completed.add(4);
        a.cache_lookups.add(4);
        a.cache_hits.add(2);
        a.streams_opened.add(1);
        a.latency.record(Duration::from_micros(100));
        let b = ServeStats::new();
        b.submitted.add(6);
        b.completed.add(2);
        b.cache_lookups.add(2);
        b.stream_early_exits.inc();
        b.latency.record(Duration::from_micros(900));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let m = StatsSnapshot::merged(&[sa.clone(), sb.clone()]);
        assert_eq!(m.submitted, 10);
        assert_eq!(m.completed, 6);
        assert_eq!(m.cache_lookups, 6);
        assert_eq!(m.cache_hits, 2);
        assert_eq!(m.streams_opened, 1);
        assert_eq!(m.stream_early_exits, 1);
        assert_eq!(m.latency_max_micros, sa.latency_max_micros.max(sb.latency_max_micros));
        assert!(m.latency_p99_micros >= sa.latency_p99_micros.max(sb.latency_p99_micros));
        // Weighted mean lands between the two shard means.
        assert!(m.latency_mean_micros > sa.latency_mean_micros);
        assert!(m.latency_mean_micros < sb.latency_mean_micros);
        assert_eq!(StatsSnapshot::merged(&[]), StatsSnapshot::default());
    }

    #[test]
    fn registry_names_cover_every_snapshot_field() {
        let s = ServeStats::new();
        let names = s.registry().names();
        for required in [
            "serve_submitted_total",
            "serve_shed_total",
            "serve_completed_total",
            "serve_degraded_total",
            "serve_deadline_failures_total",
            "serve_cache_lookups_total",
            "serve_cache_hits_total",
            "serve_cache_poison_recovered_total",
            "serve_queue_depth",
            "serve_batches_total",
            "serve_batched_requests_total",
            "serve_modality_scored_total",
            "serve_modality_budget_missed_total",
            "serve_fused_verdicts_total",
            "serve_streams_opened_total",
            "serve_stream_chunks_total",
            "serve_stream_early_exits_total",
            "serve_streams_completed_total",
            "serve_latency_micros",
        ] {
            assert!(names.iter().any(|n| n == required), "missing metric {required}");
        }
    }
}
