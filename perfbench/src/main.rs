//! MVP-EARS benchmark: one command, three detection workloads.
//!
//! `oneshot` and `serve-hot` are the workloads `BENCHMARK.json` gates;
//! `serve-open` (the fused engine in an open loop) runs the same way but
//! follows the shared host's speed too closely for a regression bound.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot|serve-open|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up cold twice (reporting the median set-up time),
//! measures one window of `--seconds`, checks every verdict and prints
//! the end-to-end metrics. `--trace 1` sets up once, measures an
//! untraced and a traced half-window, replays every layer on the
//! workload's own inputs and prints the per-layer ledger. The last line
//! of standard output is always one JSON object; the exit code is
//! non-zero on any failed or mismatching verdict.

mod check;
mod ledger;
mod rng;
mod setup;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ledger::{AuditRecord, Ledger};
use setup::{par_map, Fixture};
use workloads::{Outcome, Spec, Window};

/// Cold set-ups per end-to-end run; `setup_s` is their median. Each
/// costs about 7 s on 2 cores, and the benchmark's full protocol makes 48
/// runs of 30 s windows, so two is what its time budget affords.
const SETUPS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Restarts the peak resident set size at the current one (Linux 4.0+;
/// elsewhere the peak keeps counting from process start). Set-up trains
/// four recognisers, and its own peak, which varies with how the two
/// training threads interleave, would otherwise set the metric whenever
/// the workload needs less: on `serve-hot` it read ~128 MiB in most runs
/// and 142-145 MiB in some.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, with `+dirty` when the working tree differs
/// from it; `none` outside a git checkout.
fn git_commit(root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    if !root.join(".git").exists() {
        return "none".into();
    }
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(head), Some(status)) if !status.is_empty() => format!("{head}+dirty"),
        (Some(head), _) => head,
        _ => "none".into(),
    }
}

/// Checks every verdict of a window against `DetectionSystem::detect`,
/// and the audit log's auxiliary transcripts where request ids are known.
/// Returns the errors and `(correctly labelled, labelled)`, counted over
/// the first verdict per pool input: a closed loop that repeats part of
/// the pool before its window ends must not weigh those inputs twice.
fn verify(
    spec: &Spec,
    fix: &Fixture,
    out: &Outcome,
    audit: &[AuditRecord],
) -> (Vec<String>, usize, usize) {
    let pool = &fix.pool;
    let mut errors = Vec::new();
    if spec.name == "oneshot" {
        let right = out.detections.iter().filter(|(i, d)| d.is_adversarial == pool[*i].adversarial);
        return (errors, right.count(), out.detections.len());
    }
    let mut indices: Vec<usize> = out.verdicts.iter().map(|(i, _)| *i).collect();
    indices.extend(out.ids.iter().map(|(_, i)| *i));
    indices.sort_unstable();
    indices.dedup();
    let refs = par_map(&indices, |&i| fix.system.detect(&pool[i].wave));
    let reference = |i: usize| &refs[indices.binary_search(&i).expect("reference computed")];
    let (mut right, mut labelled) = (0, 0);
    let mut counted = vec![false; pool.len()];
    for (idx, v) in &out.verdicts {
        if let Err(e) = check::verdict_matches(v, reference(*idx)) {
            errors.push(format!("input {idx}: {e}"));
        }
        if !std::mem::replace(&mut counted[*idx], true) {
            labelled += 1;
            right += usize::from(v.is_adversarial == Some(pool[*idx].adversarial));
        }
    }
    for rec in audit.iter().filter(|r| !r.early && !r.cache) {
        if let Some((_, idx)) = out.ids.iter().find(|(id, _)| *id == rec.request) {
            if let Err(e) = check::aux_matches(&rec.aux, reference(*idx)) {
                errors.push(format!("audit request {}: {e}", rec.request));
            }
        }
    }
    (errors, right, labelled)
}

fn latency_summary(spec: &Spec, out: &Outcome) -> (f64, Option<stats::Tail>) {
    let mut sorted = out.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    (stats::median_sorted(&sorted), stats::tail(&sorted, spec.tail_cap))
}

/// Verdicts per second: for a closed loop, the median over the window's
/// whole seconds of the rate within each, (completions − 1) over the time
/// from its first completion to its last, so that the few seconds in which
/// the host took the cores away do not set it; for the open loop, whose
/// rate the schedule fixes, completed verdicts over the window.
fn verdicts_per_s(spec: &Spec, out: &Outcome) -> f64 {
    let seconds = out.window_s.floor() as usize;
    if !spec.closed || seconds == 0 {
        return out.completed as f64 / out.window_s;
    }
    // (first, last, count) of the completions in each whole second.
    let mut spans = vec![(f64::INFINITY, f64::NEG_INFINITY, 0u64); seconds];
    for &done in &out.done_s {
        if let Some((first, last, n)) = spans.get_mut(done as usize) {
            (*first, *last, *n) = (first.min(done), last.max(done), *n + 1);
        }
    }
    let rates: Vec<f64> = spans
        .iter()
        .filter(|&&(first, last, n)| n >= 2 && last > first)
        .map(|&(first, last, n)| (n - 1) as f64 / (last - first))
        .collect();
    stats::median(&rates)
}

/// Per-slice sample count and p50 over `k` equal slices of the window.
fn print_slices(out: &Outcome, k: usize) {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); k];
    for (lat, done) in out.latencies_ms.iter().zip(&out.done_s) {
        let i = ((done / out.window_s) * k as f64) as usize;
        slices[i.min(k - 1)].push(*lat);
    }
    let cells: Vec<String> =
        slices.iter().map(|s| format!("{}:{:.3}", s.len(), stats::median(s))).collect();
    println!("  slices (n:p50) {}", cells.join(" "));
}

fn fmt_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(value))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    for (name, value, unit) in metrics {
        println!("  {name:<32} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics.iter().map(|(n, v, u)| fmt_metric(n, *v, u)).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn provenance(args: &Args, requests: u64, setups: usize) {
    println!(
        "provenance: commit={} nproc={} seed={} workload={} seconds={} trace={} setups={} \
         requests={}",
        git_commit(&checkout_root()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
        setups,
        requests,
    );
}

fn report_errors(errors: &[String]) {
    for e in errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    if errors.len() > 20 {
        eprintln!("perfbench: ... and {} more", errors.len() - 20);
    }
}

fn end_to_end(args: &Args, spec: &Spec, process_start: Instant) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for i in 0..SETUPS {
        drop(fixture.take()); // drop the previous set-up before timing the next
        let t = if i == 0 { process_start } else { Instant::now() };
        fixture = Some(setup::setup(spec.plane, spec.pool_len(args.seconds), args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fix = fixture.expect("at least one set-up");
    reset_peak_rss();
    let window =
        Window { seconds: Duration::from_secs(args.seconds), seed: args.seed, audit: None };
    let out = workloads::run(spec, &fix, &window)?;
    // Read before verification, whose reference detections run on extra
    // threads with their own allocator arenas: the metric is the
    // detector's footprint, not the checker's.
    let rss_mb = peak_rss_mb();
    let (verify_errors, right, labelled) = verify(spec, &fix, &out, &[]);
    let (p50, tail) = latency_summary(spec, &out);
    let tail_value = tail.map_or(f64::NAN, |t| t.value);
    println!(
        "workload {} ({} loop), seed {}",
        spec.name,
        if spec.closed { "closed" } else { "open" },
        args.seed
    );
    println!(
        "  samples {}; tail = p{} with {} beyond; setups {:?} s; slo limit {} ms",
        out.latencies_ms.len(),
        tail.map_or(f64::NAN, |t| t.percentile),
        tail.map_or(0, |t| t.beyond),
        setup_s,
        spec.slo_ms
    );
    print_slices(&out, 10);
    provenance(args, out.attempted, SETUPS);
    let mut errors: Vec<String> = out.errors.iter().chain(&verify_errors).cloned().collect();
    if tail.is_none() {
        errors.push(format!("only {} latency samples: no tail percentile", out.latencies_ms.len()));
    }
    report_errors(&errors);
    let metrics = vec![
        ("setup_s".to_string(), stats::median(&setup_s), "s"),
        ("latency_p50_ms".into(), p50, "ms"),
        ("latency_tail_ms".into(), tail_value, "ms"),
        ("verdicts_per_s".into(), verdicts_per_s(spec, &out), "1/s"),
        ("cpu_ms_per_verdict".into(), out.cpu_s * 1e3 / out.completed.max(1) as f64, "ms"),
        ("slo_met_frac".into(), out.slo_met as f64 / out.attempted.max(1) as f64, "frac"),
        ("accuracy".into(), right as f64 / labelled.max(1) as f64, "frac"),
        ("peak_rss_mb".into(), rss_mb, "MiB"),
    ];
    let correct = errors.is_empty();
    emit(correct, out.attempted, out.failed + verify_errors.len() as u64, &metrics);
    Ok(correct)
}

fn traced(args: &Args, spec: &Spec) -> Result<bool, String> {
    let fix = setup::setup(spec.plane, spec.pool_len(args.seconds), args.seed)?;
    let half = Duration::from_secs(args.seconds).max(Duration::from_secs(2)) / 2;
    let plain = Window { seconds: half, seed: args.seed, audit: None };
    let untraced = workloads::run(spec, &fix, &plain)?;

    let tmp = checkout_root().join(".perfbench-tmp");
    let audit_path = tmp.join(format!("audit-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&audit_path);
    let engine = spec.name != "oneshot";
    // Same seed, same inputs, fresh engine: the two halves differ only in
    // tracing, so their p50 difference is the tracing overhead.
    let window = Window { audit: engine.then(|| audit_path.clone()), ..plain.clone() };
    mvp_obs::trace::clear();
    mvp_obs::trace::enable(1 << 18);
    let traced_run = workloads::run(spec, &fix, &window);
    mvp_obs::trace::disable();
    let spans = mvp_obs::trace::drain().len() as u64 + mvp_obs::trace::dropped();
    let traced_out = traced_run?;
    let audit = if engine { ledger::read_audit(&audit_path)? } else { Vec::new() };
    let _ = std::fs::remove_file(&audit_path);
    let _ = std::fs::remove_dir(&tmp);

    let (mut check_errors, _, _) = verify(spec, &fix, &untraced, &[]);
    check_errors.extend(verify(spec, &fix, &traced_out, &audit).0);

    let mut ledger = Ledger::default();
    ledger::replay(&mut ledger, &fix);
    ledger::serve(&mut ledger, &traced_out, &audit);
    let (p50_plain, _) = latency_summary(spec, &untraced);
    let (p50_traced, _) = latency_summary(spec, &traced_out);
    ledger.put("obs.tracing_overhead_ms", p50_traced - p50_plain, "ms");
    ledger.put("obs.spans", spans as f64, "count");
    check_errors.extend(ledger.errors.iter().cloned());

    println!("per-layer ledger: workload {}, seed {}", spec.name, args.seed);
    println!(
        "  untraced window p50 {p50_plain:.3} ms over {} requests; traced window p50 \
         {p50_traced:.3} ms over {} requests ({} audit records, {spans} spans)",
        untraced.latencies_ms.len(),
        traced_out.latencies_ms.len(),
        audit.len()
    );
    if spec.name == "oneshot" {
        let detect_parts = ledger.get("core.transcripts_ms")
            + 3.0 * ledger.get("core.similarity_us") / 1e3
            + ledger.get("ml.classify_us") / 1e3
            + ledger.get("core.unattributed_ms");
        ledger.notes.push(format!(
            "transcripts + similarity + classify + unattributed = {detect_parts:.3} ms against \
             core.detect_ms {:.3} ms on the same replayed inputs, and the untraced end-to-end \
             p50 {p50_plain:.3} ms over the whole pool",
            ledger.get("core.detect_ms")
        ));
    }
    for note in &ledger.notes {
        println!("  note: {note}");
    }
    provenance(args, untraced.attempted + traced_out.attempted, 1);
    let errors: Vec<String> =
        untraced.errors.iter().chain(&traced_out.errors).chain(&check_errors).cloned().collect();
    report_errors(&errors);
    let metrics: Vec<(String, f64, &str)> =
        ledger.entries.iter().map(|e| (e.name.clone(), e.value, e.unit)).collect();
    emit(
        errors.is_empty(),
        untraced.attempted + traced_out.attempted,
        untraced.failed + traced_out.failed + check_errors.len() as u64,
        &metrics,
    );
    Ok(errors.is_empty())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <oneshot|serve-open|serve-hot> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // A model directory or kernel-thread override left in the environment
    // must not change what is measured; the kernel plane is pinned to one
    // thread per caller so runs compare.
    std::env::remove_var(mvp_asr::MODEL_DIR_ENV);
    std::env::remove_var("MVP_EARS_KERNEL_THREADS");
    mvp_dsp::kernel::set_threads(1);
    let result =
        if args.trace { traced(&args, &spec) } else { end_to_end(&args, &spec, process_start) };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
