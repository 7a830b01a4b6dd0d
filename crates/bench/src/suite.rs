//! Suite orchestrator: one-command regeneration of every table and figure.
//!
//! The `suite` binary drives this module. A run proceeds in two phases over
//! the [`crate::artifacts::registry`]:
//!
//! 1. **Prepare** — enumerate every training scenario each selected artifact
//!    will consume, deduplicate them by [`Scenario::cache_key`], and train
//!    each *unique* scenario exactly once (concurrently, on a bounded worker
//!    pool) through the `results/cache/` disk cache.
//! 2. **Generate** — run the artifacts themselves on the same pool. Every
//!    training lookup now hits the cache, which the
//!    `bench/scenario_cache_hits`/`_misses` counter deltas prove; a
//!    generate-phase miss is a gate failure. Artifacts marked
//!    [`crate::artifacts::ArtifactSpec::exclusive`] (the timing-sensitive
//!    `perf` benchmark) run serially after the concurrent batch.
//!
//! Each artifact is isolated: it runs on its own thread, a panic or error
//! marks that artifact failed without aborting the suite, and a per-task
//! timeout marks it timed out (the worker moves on; the detached thread is
//! abandoned). `results/suite.json` is rewritten atomically after every
//! completion, so a killed run leaves a complete record; a re-run resumes
//! from it, re-running only artifacts that did not previously succeed.
//!
//! **Gate mode** (`--gate`) additionally compares the `perf` artifact's
//! fresh `results/BENCH_map.json` against the baseline committed in the
//! repository (read *before* the run overwrites it) with a relative
//! tolerance, and fails on any generate-phase training miss.
//!
//! Every run also writes `results/suite_trace.json`, a Chrome-trace view of
//! the whole run (one lane per pooled task), loadable in `chrome://tracing`
//! or ui.perfetto.dev.

use crate::artifacts::{self, ArtifactCtx, ArtifactOutput, ArtifactSpec};
use crate::report::results_dir;
use crate::scenario::{ExperimentScale, Scenario};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use xbar_obs::json::Json;
use xbar_obs::metrics::counter_value;
use xbar_obs::names;
use xbar_obs::trace::FieldValue;

/// How a suite run is configured.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Experiment scale preset.
    pub scale: ExperimentScale,
    /// Name of the preset (`smoke`, `quick`, `full`).
    pub scale_name: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Fail the run on perf regressions and generate-phase training misses.
    pub gate: bool,
    /// Ignore a previous `suite.json` instead of resuming from it.
    pub fresh: bool,
    /// Run only these artifacts (empty = all).
    pub only: Vec<String>,
    /// Skip these artifacts.
    pub skip: Vec<String>,
    /// Per-task wall-clock budget.
    pub timeout: Duration,
    /// Relative tolerance for the perf-baseline comparison.
    pub tolerance: f64,
    /// Artifacts whose run is replaced by an injected failure (testing the
    /// isolation and gate paths).
    pub fail: Vec<String>,
    /// Worker-pool size.
    pub workers: usize,
    /// Print progress lines to stderr.
    pub progress: bool,
}

impl SuiteConfig {
    /// The default configuration for a scale preset: every artifact, resume
    /// enabled, no gate, pool sized by `xbar_tensor::threads::max_threads`.
    pub fn new(scale: ExperimentScale, scale_name: &'static str) -> Self {
        SuiteConfig {
            scale,
            scale_name,
            seed: 42,
            gate: false,
            fresh: false,
            only: Vec::new(),
            skip: Vec::new(),
            timeout: default_timeout(scale_name),
            tolerance: 0.5,
            fail: Vec::new(),
            workers: xbar_tensor::threads::max_threads(),
            progress: true,
        }
    }
}

/// The per-task timeout for a scale preset: generous multiples of observed
/// worst-case artifact times, meant to catch hangs rather than slowness.
pub fn default_timeout(scale_name: &str) -> Duration {
    Duration::from_secs(match scale_name {
        "smoke" => 1800,
        "quick" => 3600,
        _ => 14400,
    })
}

/// Terminal state of one artifact in a suite run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactStatus {
    /// Regenerated successfully this run.
    Ok,
    /// Succeeded in a previous run; skipped under resume.
    Resumed,
    /// Returned an error or panicked (the message is attached).
    Failed(String),
    /// Exceeded the per-task timeout.
    TimedOut,
}

impl ArtifactStatus {
    /// Machine-readable status string used in `suite.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            ArtifactStatus::Ok => "ok",
            ArtifactStatus::Resumed => "resumed",
            ArtifactStatus::Failed(_) => "failed",
            ArtifactStatus::TimedOut => "timed_out",
        }
    }

    /// Whether the artifact is in a good state (fresh or resumed).
    pub fn is_ok(&self) -> bool {
        matches!(self, ArtifactStatus::Ok | ArtifactStatus::Resumed)
    }
}

/// One artifact's record in the suite report.
#[derive(Debug, Clone)]
pub struct ArtifactOutcome {
    /// Artifact name (see [`artifacts::registry`]).
    pub name: String,
    /// Paper table/figure the artifact reproduces.
    pub paper_ref: String,
    /// Terminal state.
    pub status: ArtifactStatus,
    /// Wall time spent on it this run (0 for resumed artifacts).
    pub wall_s: f64,
    /// Files the artifact wrote.
    pub outputs: Vec<String>,
    /// Key numbers it reported.
    pub key_numbers: Vec<(String, f64)>,
}

/// Scenario-training statistics proving the train-once property.
#[derive(Debug, Clone, Default)]
pub struct ScenarioStats {
    /// Unique scenarios (by cache key) across the selected artifacts.
    pub unique: usize,
    /// Disk-cache hits during the prepare phase.
    pub prepare_hits: u64,
    /// Disk-cache misses (= actual trainings) during the prepare phase.
    pub prepare_misses: u64,
    /// Disk-cache hits during the generate phase.
    pub generate_hits: u64,
    /// Disk-cache misses during the generate phase — always zero in a
    /// correct run, and a gate failure otherwise.
    pub generate_misses: u64,
}

/// Everything a suite run produced; serialised to `results/suite.json`.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Scale preset name.
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Whether gate mode was on.
    pub gate: bool,
    /// Worker-pool size.
    pub workers: usize,
    /// Per-artifact outcomes, in registry order.
    pub artifacts: Vec<ArtifactOutcome>,
    /// Scenario-training statistics.
    pub scenarios: ScenarioStats,
    /// Gate failures (artifact failures, perf regressions, generate-phase
    /// misses). Populated even without `--gate` for artifact failures.
    pub gate_failures: Vec<String>,
    /// Total suite wall time.
    pub wall_s: f64,
}

impl SuiteReport {
    /// Whether the run should exit nonzero.
    pub fn failed(&self) -> bool {
        !self.gate_failures.is_empty()
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> Json {
        let artifacts = self
            .artifacts
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(a.name.clone())),
                    ("paper_ref".to_string(), Json::Str(a.paper_ref.clone())),
                    (
                        "status".to_string(),
                        Json::Str(a.status.as_str().to_string()),
                    ),
                    ("wall_s".to_string(), Json::Num(a.wall_s)),
                ];
                if let ArtifactStatus::Failed(msg) = &a.status {
                    fields.push(("error".to_string(), Json::Str(msg.clone())));
                }
                fields.push((
                    "outputs".to_string(),
                    Json::Arr(a.outputs.iter().cloned().map(Json::Str).collect()),
                ));
                fields.push((
                    "key_numbers".to_string(),
                    Json::Obj(
                        a.key_numbers
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("gate".to_string(), Json::Bool(self.gate)),
            ("workers".to_string(), Json::Num(self.workers as f64)),
            ("wall_s".to_string(), Json::Num(self.wall_s)),
            (
                "scenarios".to_string(),
                Json::Obj(vec![
                    (
                        "unique".to_string(),
                        Json::Num(self.scenarios.unique as f64),
                    ),
                    (
                        "prepare_hits".to_string(),
                        Json::Num(self.scenarios.prepare_hits as f64),
                    ),
                    (
                        "prepare_misses".to_string(),
                        Json::Num(self.scenarios.prepare_misses as f64),
                    ),
                    (
                        "generate_hits".to_string(),
                        Json::Num(self.scenarios.generate_hits as f64),
                    ),
                    (
                        "generate_misses".to_string(),
                        Json::Num(self.scenarios.generate_misses as f64),
                    ),
                ]),
            ),
            ("artifacts".to_string(), Json::Arr(artifacts)),
            (
                "gate_failures".to_string(),
                Json::Arr(self.gate_failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("passed".to_string(), Json::Bool(!self.failed())),
        ])
    }
}

/// Path of the suite report under the active results directory.
pub fn suite_json_path() -> PathBuf {
    results_dir().join("suite.json")
}

/// Path of the suite's Chrome trace under the active results directory.
pub fn suite_trace_path() -> PathBuf {
    results_dir().join("suite_trace.json")
}

/// Writes the run's span buffer as a Chrome trace (`suite_trace.json`),
/// loadable in `chrome://tracing` or ui.perfetto.dev. Each pooled task ran
/// on its own thread, so lanes are named after the depth-0 span that ran
/// there (the artifact name, `train_scenario`, or `suite` for the
/// orchestrator thread itself).
fn write_suite_trace() -> Option<PathBuf> {
    let mut lanes: BTreeMap<u64, String> = BTreeMap::new();
    let mut spans = xbar_obs::trace::all_spans();
    spans.sort_by_key(|s| s.start_us);
    for span in spans.iter().filter(|s| s.depth == 0) {
        lanes.entry(span.thread).or_insert_with(|| match span.name {
            "suite_prepare" | "suite_generate" => "suite".to_string(),
            name => name.to_string(),
        });
    }
    let path = suite_trace_path();
    xbar_obs::chrome::write_chrome_trace(&path, &lanes).ok()?;
    Some(path)
}

fn write_report(report: &SuiteReport) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let text = report.to_json().to_json_pretty() + "\n";
    // Atomic so a kill mid-write cannot corrupt the resume state.
    let _ = xbar_nn::serialize::write_file_atomic::<std::io::Error, _>(suite_json_path(), |f| {
        f.write_all(text.as_bytes())
    });
}

/// The artifact names that succeeded in a previous run, read from an
/// existing `suite.json` (resume state). Only reports from the same scale
/// and seed are trusted.
fn previously_ok(cfg: &SuiteConfig) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(suite_json_path()) else {
        return Vec::new();
    };
    let Ok(json) = Json::parse(&text) else {
        return Vec::new();
    };
    if json.get("scale").and_then(Json::as_str) != Some(cfg.scale_name)
        || json.get("seed").and_then(Json::as_u64) != Some(cfg.seed)
    {
        return Vec::new();
    }
    let Some(artifacts) = json.get("artifacts").and_then(Json::as_arr) else {
        return Vec::new();
    };
    artifacts
        .iter()
        .filter(|a| {
            matches!(
                a.get("status").and_then(Json::as_str),
                Some("ok") | Some("resumed")
            )
        })
        .filter_map(|a| a.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Compares a fresh `BENCH_map.json` against the committed baseline.
/// Returns one message per violated check: relative speedup regressions
/// beyond `tolerance` and lost bit-identity.
pub fn perf_gate_failures(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    bench_gate_failures(
        baseline,
        fresh,
        tolerance,
        "perf",
        "BENCH_map.json",
        &["speedup_cached"],
        &["bit_identical_cached"],
    )
}

/// Compares a fresh `BENCH_solve.json` against the committed baseline:
/// cold tile-solve throughput must stay within `tolerance` of the baseline
/// and batched/scalar bit-identity must hold (a hard failure regardless of
/// tolerance).
pub fn solve_gate_failures(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    bench_gate_failures(
        baseline,
        fresh,
        tolerance,
        "solve",
        "BENCH_solve.json",
        &["tile_solves_per_s", "speedup_batch"],
        &["bit_identical_batch"],
    )
}

/// Below this absolute p99 the serve latency gate stays quiet: at a few
/// milliseconds the bucket-to-bucket scheduler noise of the load fleet
/// dwarfs any real regression, so a purely relative ceiling would flag
/// noise. A genuine event-loop regression (a stall, a lost wakeup, a
/// blocked accept path) lands in the hundreds of milliseconds and clears
/// this slack immediately.
pub const SERVE_P99_SLACK_US: f64 = 50_000.0;

/// Compares a fresh `BENCH_serve.json` against the committed baseline:
/// served throughput must stay within `tolerance` below the baseline,
/// p99 latency within `tolerance` *above* it (latency gates invert, and
/// only above [`SERVE_P99_SLACK_US`]), and replica bit-identity must
/// hold (a hard failure regardless of tolerance).
pub fn serve_gate_failures(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    let mut failures = bench_gate_failures(
        baseline,
        fresh,
        tolerance,
        "serve",
        "BENCH_serve.json",
        &["throughput_rps"],
        &["bit_identical_replicas"],
    );
    let key = "p99_us";
    match (
        baseline.get(key).and_then(Json::as_f64),
        fresh.get(key).and_then(Json::as_f64),
    ) {
        (Some(b), Some(n)) => {
            if n > b * (1.0 + tolerance) && n > SERVE_P99_SLACK_US {
                failures.push(format!(
                    "serve regression: {key} {n:.0} above baseline {b:.0} \
                     (tolerance {:.0}%)",
                    100.0 * tolerance
                ));
            }
        }
        (Some(_), None) => failures.push(format!("serve: fresh BENCH_serve.json lacks {key}")),
        (None, _) => {} // baseline predates the field; nothing to compare
    }
    failures
}

fn bench_gate_failures(
    baseline: &Json,
    fresh: &Json,
    tolerance: f64,
    what: &str,
    file: &str,
    rate_keys: &[&str],
    identity_keys: &[&str],
) -> Vec<String> {
    let mut failures = Vec::new();
    for key in rate_keys {
        let base = baseline.get(key).and_then(Json::as_f64);
        let new = fresh.get(key).and_then(Json::as_f64);
        match (base, new) {
            (Some(b), Some(n)) => {
                if n < b * (1.0 - tolerance) {
                    failures.push(format!(
                        "{what} regression: {key} {n:.2} below baseline {b:.2} \
                         (tolerance {:.0}%)",
                        100.0 * tolerance
                    ));
                }
            }
            (Some(_), None) => failures.push(format!("{what}: fresh {file} lacks {key}")),
            (None, _) => {} // baseline predates the field; nothing to compare
        }
    }
    for key in identity_keys {
        if fresh.get(key).and_then(Json::as_bool) == Some(false) {
            failures.push(format!("{what}: {key} is false"));
        }
    }
    failures
}

/// Result of a pooled task: the payload, or why there is none.
enum TaskStatus<R> {
    Done(Result<R, String>),
    Panicked(String),
    TimedOut,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// Runs `task` over `items` on `workers` threads. Each task executes on its
/// own short-lived thread so a timeout can abandon it (the thread keeps
/// running detached; its result is discarded); panics are caught and
/// reported as task failures. `on_done` fires (serialised) as each item
/// finishes, in completion order.
fn run_pool<I, R>(
    items: &[I],
    workers: usize,
    timeout: Duration,
    task: fn(I) -> Result<R, String>,
    on_done: &mut (dyn FnMut(usize, &TaskStatus<R>, f64) + Send),
) -> Vec<TaskStatus<R>>
where
    I: Copy + Send + Sync + 'static,
    R: Send + 'static,
{
    type Slot<R> = Option<(TaskStatus<R>, f64)>;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Slot<R>>> = {
        let mut v = Vec::with_capacity(items.len());
        v.resize_with(items.len(), || None);
        Mutex::new(v)
    };
    let on_done = Mutex::new(on_done);
    let workers = workers.max(1).min(items.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let item = items[i];
                let start = Instant::now();
                let (tx, rx) = mpsc::channel();
                // A dedicated 'static thread per task so recv_timeout can
                // give up on it without tearing down the pool.
                std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| task(item)));
                    let _ = tx.send(outcome);
                });
                let status = match rx.recv_timeout(timeout) {
                    Ok(Ok(result)) => TaskStatus::Done(result),
                    Ok(Err(payload)) => TaskStatus::Panicked(panic_message(payload)),
                    Err(_) => TaskStatus::TimedOut,
                };
                let wall = start.elapsed().as_secs_f64();
                {
                    let mut cb = on_done.lock().unwrap_or_else(|e| e.into_inner());
                    cb(i, &status, wall);
                }
                let mut res = results.lock().unwrap_or_else(|e| e.into_inner());
                res[i] = Some((status, wall));
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|slot| slot.map(|(s, _)| s).unwrap_or(TaskStatus::TimedOut))
        .collect()
}

fn train_task(sc: Scenario) -> Result<(), String> {
    let _span = xbar_obs::trace::SpanGuard::enter(
        "train_scenario",
        vec![("scenario", FieldValue::Str(sc.cache_key()))],
    );
    let data = sc.dataset();
    sc.train_model_cached(&data);
    Ok(())
}

fn artifact_task(
    (spec, ctx, inject_failure): (ArtifactSpec, ArtifactCtx, bool),
) -> Result<ArtifactOutput, String> {
    if inject_failure {
        return Err("injected failure (--fail)".to_string());
    }
    // `spec.name` is 'static, so the artifact itself is the span name: each
    // task runs on its own thread, which becomes one lane of the suite's
    // Chrome trace (see `write_suite_trace`).
    let _span = xbar_obs::trace::SpanGuard::enter(
        spec.name,
        vec![("paper_ref", FieldValue::Str(spec.paper_ref.to_string()))],
    );
    (spec.run)(&ctx)
}

fn progress(cfg: &SuiteConfig, msg: &str) {
    if cfg.progress {
        eprintln!("[suite] {msg}");
    }
}

/// Selects the artifacts a config asks for, in registry order.
///
/// # Errors
///
/// Returns an error naming any unknown `--only`/`--skip`/`--fail` artifact.
pub fn select_artifacts(cfg: &SuiteConfig) -> Result<Vec<ArtifactSpec>, String> {
    let registry = artifacts::registry();
    for name in cfg.only.iter().chain(&cfg.skip).chain(&cfg.fail) {
        if !registry.iter().any(|spec| spec.name == name) {
            let known: Vec<&str> = registry.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown artifact {name:?}; known: {}",
                known.join(" ")
            ));
        }
    }
    Ok(registry
        .into_iter()
        .filter(|spec| cfg.only.is_empty() || cfg.only.iter().any(|n| n == spec.name))
        .filter(|spec| !cfg.skip.iter().any(|n| n == spec.name))
        .collect())
}

/// Runs the suite: prepare (train unique scenarios once) then generate
/// (run artifacts concurrently, exclusive ones serially), writing
/// `results/suite.json` after every completion.
///
/// # Errors
///
/// Returns an error only for configuration problems (unknown artifact
/// names); artifact failures are recorded in the report instead.
pub fn run_suite(cfg: &SuiteConfig) -> Result<SuiteReport, String> {
    let suite_start = Instant::now();
    let selected = select_artifacts(cfg)?;
    let ctx = ArtifactCtx::new(cfg.scale, cfg.scale_name, cfg.seed).quiet(true);

    let resume_ok = if cfg.fresh {
        Vec::new()
    } else {
        previously_ok(cfg)
    };
    // Read the committed perf/solve baselines before the run overwrites them.
    let perf_baseline = std::fs::read_to_string(results_dir().join("BENCH_map.json"))
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let solve_baseline = std::fs::read_to_string(results_dir().join("BENCH_solve.json"))
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let serve_baseline = std::fs::read_to_string(results_dir().join("BENCH_serve.json"))
        .ok()
        .and_then(|text| Json::parse(&text).ok());

    let mut report = SuiteReport {
        scale: cfg.scale_name.to_string(),
        seed: cfg.seed,
        gate: cfg.gate,
        workers: cfg.workers,
        artifacts: Vec::new(),
        scenarios: ScenarioStats::default(),
        gate_failures: Vec::new(),
        wall_s: 0.0,
    };

    // Partition: resumed / to run (parallel, then exclusive).
    let mut to_run: Vec<(ArtifactSpec, ArtifactCtx, bool)> = Vec::new();
    for spec in &selected {
        let inject = cfg.fail.iter().any(|n| n == spec.name);
        if !inject && resume_ok.iter().any(|n| n == spec.name) {
            report.artifacts.push(ArtifactOutcome {
                name: spec.name.to_string(),
                paper_ref: spec.paper_ref.to_string(),
                status: ArtifactStatus::Resumed,
                wall_s: 0.0,
                outputs: Vec::new(),
                key_numbers: Vec::new(),
            });
        } else {
            to_run.push((*spec, ctx, inject));
        }
    }
    if !report.artifacts.is_empty() {
        progress(
            cfg,
            &format!(
                "resuming: {} artifact(s) already ok in {}",
                report.artifacts.len(),
                suite_json_path().display()
            ),
        );
    }

    // Phase 1: train every unique scenario exactly once.
    let mut unique: BTreeMap<String, Scenario> = BTreeMap::new();
    for (spec, _, inject) in &to_run {
        if *inject {
            continue; // an injected failure never reaches its scenarios
        }
        for sc in (spec.scenarios)(&ctx) {
            unique.entry(sc.cache_key()).or_insert(sc);
        }
    }
    let scenarios: Vec<Scenario> = unique.into_values().collect();
    report.scenarios.unique = scenarios.len();
    let (h0, m0) = (
        counter_value(names::BENCH_SCENARIO_CACHE_HITS),
        counter_value(names::BENCH_SCENARIO_CACHE_MISSES),
    );
    {
        let _span = xbar_obs::span!("suite_prepare");
        progress(
            cfg,
            &format!(
                "prepare: {} unique scenario(s) across {} artifact(s), {} worker(s)",
                scenarios.len(),
                to_run.len(),
                cfg.workers
            ),
        );
        let mut done = 0usize;
        let total = scenarios.len();
        let mut on_done = |i: usize, status: &TaskStatus<()>, wall: f64| {
            done += 1;
            let verdict = match status {
                TaskStatus::Done(Ok(())) => "ready".to_string(),
                TaskStatus::Done(Err(e)) => format!("failed: {e}"),
                TaskStatus::Panicked(p) => format!("failed: {p}"),
                TaskStatus::TimedOut => "timed out".to_string(),
            };
            progress(
                cfg,
                &format!(
                    "prepare [{done}/{total}] {} ({wall:.1}s): {verdict}",
                    scenarios[i].cache_key()
                ),
            );
        };
        run_pool(
            &scenarios,
            cfg.workers,
            cfg.timeout,
            train_task,
            &mut on_done,
        );
        // A failed training is not fatal here: the artifacts that need the
        // scenario will fail (or retrain) individually and be reported.
    }
    let (h1, m1) = (
        counter_value(names::BENCH_SCENARIO_CACHE_HITS),
        counter_value(names::BENCH_SCENARIO_CACHE_MISSES),
    );
    report.scenarios.prepare_hits = h1 - h0;
    report.scenarios.prepare_misses = m1 - m0;
    write_report(&report);

    // Phase 2: generate artifacts — the parallel batch, then exclusives.
    let parallel: Vec<(ArtifactSpec, ArtifactCtx, bool)> = to_run
        .iter()
        .copied()
        .filter(|(spec, _, _)| !spec.exclusive)
        .collect();
    let exclusive: Vec<(ArtifactSpec, ArtifactCtx, bool)> = to_run
        .iter()
        .copied()
        .filter(|(spec, _, _)| spec.exclusive)
        .collect();
    {
        let _span = xbar_obs::span!("suite_generate");
        let mut done = 0usize;
        let total = parallel.len() + exclusive.len();
        for (batch, workers) in [(&parallel, cfg.workers), (&exclusive, 1)] {
            if batch.is_empty() {
                continue;
            }
            // Borrow the report mutably only inside the callback.
            let report_cell = Mutex::new(&mut report);
            let mut on_done = |i: usize, status: &TaskStatus<ArtifactOutput>, wall: f64| {
                let (spec, _, _) = &batch[i];
                let outcome = match status {
                    TaskStatus::Done(Ok(output)) => ArtifactOutcome {
                        name: spec.name.to_string(),
                        paper_ref: spec.paper_ref.to_string(),
                        status: ArtifactStatus::Ok,
                        wall_s: wall,
                        outputs: output
                            .outputs
                            .iter()
                            .map(|p| p.display().to_string())
                            .collect(),
                        key_numbers: output.key_numbers.clone(),
                    },
                    TaskStatus::Done(Err(e)) => ArtifactOutcome {
                        name: spec.name.to_string(),
                        paper_ref: spec.paper_ref.to_string(),
                        status: ArtifactStatus::Failed(e.clone()),
                        wall_s: wall,
                        outputs: Vec::new(),
                        key_numbers: Vec::new(),
                    },
                    TaskStatus::Panicked(p) => ArtifactOutcome {
                        name: spec.name.to_string(),
                        paper_ref: spec.paper_ref.to_string(),
                        status: ArtifactStatus::Failed(p.clone()),
                        wall_s: wall,
                        outputs: Vec::new(),
                        key_numbers: Vec::new(),
                    },
                    TaskStatus::TimedOut => ArtifactOutcome {
                        name: spec.name.to_string(),
                        paper_ref: spec.paper_ref.to_string(),
                        status: ArtifactStatus::TimedOut,
                        wall_s: wall,
                        outputs: Vec::new(),
                        key_numbers: Vec::new(),
                    },
                };
                done += 1;
                progress(
                    cfg,
                    &format!(
                        "generate [{done}/{total}] {}: {} ({wall:.1}s)",
                        outcome.name,
                        outcome.status.as_str()
                    ),
                );
                let mut rep = report_cell.lock().unwrap_or_else(|e| e.into_inner());
                rep.artifacts.push(outcome);
                rep.wall_s = suite_start.elapsed().as_secs_f64();
                write_report(&rep);
            };
            run_pool(batch, workers, cfg.timeout, artifact_task, &mut on_done);
        }
    }
    let (h2, m2) = (
        counter_value(names::BENCH_SCENARIO_CACHE_HITS),
        counter_value(names::BENCH_SCENARIO_CACHE_MISSES),
    );
    report.scenarios.generate_hits = h2 - h1;
    report.scenarios.generate_misses = m2 - m1;

    // Keep the report in registry order regardless of completion order.
    let order: Vec<&'static str> = selected.iter().map(|s| s.name).collect();
    report.artifacts.sort_by_key(|a| {
        order
            .iter()
            .position(|n| *n == a.name)
            .unwrap_or(usize::MAX)
    });

    // Gate evaluation. Artifact failures always count; the perf-baseline and
    // train-once checks are gate-mode extras.
    for a in &report.artifacts {
        match &a.status {
            ArtifactStatus::Failed(e) => report
                .gate_failures
                .push(format!("artifact {} failed: {e}", a.name)),
            ArtifactStatus::TimedOut => report
                .gate_failures
                .push(format!("artifact {} timed out", a.name)),
            _ => {}
        }
    }
    if cfg.gate {
        if report.scenarios.generate_misses > 0 {
            report.gate_failures.push(format!(
                "{} scenario training(s) happened during the generate phase; \
                 every scenario must train exactly once in prepare",
                report.scenarios.generate_misses
            ));
        }
        let perf_ran = report
            .artifacts
            .iter()
            .any(|a| a.name == "perf" && a.status == ArtifactStatus::Ok);
        if perf_ran {
            match (
                &perf_baseline,
                std::fs::read_to_string(results_dir().join("BENCH_map.json"))
                    .ok()
                    .and_then(|text| Json::parse(&text).ok()),
            ) {
                (Some(baseline), Some(fresh)) => {
                    report
                        .gate_failures
                        .extend(perf_gate_failures(baseline, &fresh, cfg.tolerance))
                }
                (None, _) => progress(
                    cfg,
                    "gate: no committed BENCH_map.json baseline; skipping perf comparison",
                ),
                (_, None) => report
                    .gate_failures
                    .push("perf ran but left no readable BENCH_map.json".to_string()),
            }
        }
        let solve_ran = report
            .artifacts
            .iter()
            .any(|a| a.name == "solve" && a.status == ArtifactStatus::Ok);
        if solve_ran {
            match (
                &solve_baseline,
                std::fs::read_to_string(results_dir().join("BENCH_solve.json"))
                    .ok()
                    .and_then(|text| Json::parse(&text).ok()),
            ) {
                (Some(baseline), Some(fresh)) => report.gate_failures.extend(solve_gate_failures(
                    baseline,
                    &fresh,
                    cfg.tolerance,
                )),
                (None, _) => progress(
                    cfg,
                    "gate: no committed BENCH_solve.json baseline; skipping solve comparison",
                ),
                (_, None) => report
                    .gate_failures
                    .push("solve ran but left no readable BENCH_solve.json".to_string()),
            }
        }
        let serve_ran = report
            .artifacts
            .iter()
            .any(|a| a.name == "serve" && a.status == ArtifactStatus::Ok);
        if serve_ran {
            match (
                &serve_baseline,
                std::fs::read_to_string(results_dir().join("BENCH_serve.json"))
                    .ok()
                    .and_then(|text| Json::parse(&text).ok()),
            ) {
                (Some(baseline), Some(fresh)) => report.gate_failures.extend(serve_gate_failures(
                    baseline,
                    &fresh,
                    cfg.tolerance,
                )),
                (None, _) => progress(
                    cfg,
                    "gate: no committed BENCH_serve.json baseline; skipping serve comparison",
                ),
                (_, None) => report
                    .gate_failures
                    .push("serve ran but left no readable BENCH_serve.json".to_string()),
            }
        }
    }
    if let Some(path) = write_suite_trace() {
        progress(
            cfg,
            &format!(
                "trace: {} (load in chrome://tracing or ui.perfetto.dev)",
                path.display()
            ),
        );
    }
    report.wall_s = suite_start.elapsed().as_secs_f64();
    write_report(&report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(speedup_cached: f64, bit_identical: bool) -> Json {
        Json::Obj(vec![
            ("speedup_cached".to_string(), Json::Num(speedup_cached)),
            (
                "bit_identical_cached".to_string(),
                Json::Bool(bit_identical),
            ),
        ])
    }

    #[test]
    fn perf_gate_passes_within_tolerance() {
        let baseline = bench_json(10.0, true);
        let fresh = bench_json(6.0, true);
        assert!(perf_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn perf_gate_flags_regression_and_lost_bit_identity() {
        let baseline = bench_json(10.0, true);
        let fresh = bench_json(4.0, false);
        let failures = perf_gate_failures(&baseline, &fresh, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("speedup_cached")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("bit_identical")),
            "{failures:?}"
        );
    }

    #[test]
    fn perf_gate_tolerates_missing_baseline_fields() {
        let baseline = Json::Obj(vec![]);
        let fresh = bench_json(1.0, true);
        assert!(perf_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    fn solve_json(tile_solves_per_s: f64, speedup_batch: f64, bit_identical: bool) -> Json {
        Json::Obj(vec![
            (
                "tile_solves_per_s".to_string(),
                Json::Num(tile_solves_per_s),
            ),
            ("speedup_batch".to_string(), Json::Num(speedup_batch)),
            ("bit_identical_batch".to_string(), Json::Bool(bit_identical)),
        ])
    }

    #[test]
    fn solve_gate_passes_within_tolerance() {
        let baseline = solve_json(1000.0, 8.0, true);
        let fresh = solve_json(600.0, 5.0, true);
        assert!(solve_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn solve_gate_flags_throughput_regression() {
        let baseline = solve_json(1000.0, 8.0, true);
        let fresh = solve_json(400.0, 8.0, true);
        let failures = solve_gate_failures(&baseline, &fresh, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("tile_solves_per_s")),
            "{failures:?}"
        );
    }

    #[test]
    fn solve_gate_lost_bit_identity_is_a_hard_failure() {
        // Bit-identity is checked on the fresh run alone: even a faster run
        // that broke the oracle contract must fail the gate.
        let baseline = solve_json(1000.0, 8.0, true);
        let fresh = solve_json(2000.0, 16.0, false);
        let failures = solve_gate_failures(&baseline, &fresh, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("bit_identical_batch")),
            "{failures:?}"
        );
    }

    #[test]
    fn solve_gate_tolerates_missing_baseline_fields() {
        let baseline = Json::Obj(vec![]);
        let fresh = solve_json(1.0, 1.0, true);
        assert!(solve_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    fn serve_json(throughput_rps: f64, p99_us: f64, bit_identical: bool) -> Json {
        Json::Obj(vec![
            ("throughput_rps".to_string(), Json::Num(throughput_rps)),
            ("p99_us".to_string(), Json::Num(p99_us)),
            (
                "bit_identical_replicas".to_string(),
                Json::Bool(bit_identical),
            ),
        ])
    }

    #[test]
    fn serve_gate_passes_within_tolerance() {
        let baseline = serve_json(2000.0, 10_000.0, true);
        let fresh = serve_json(1100.0, 14_000.0, true);
        assert!(serve_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn serve_gate_flags_throughput_regression() {
        let baseline = serve_json(2000.0, 10_000.0, true);
        let fresh = serve_json(900.0, 10_000.0, true);
        let failures = serve_gate_failures(&baseline, &fresh, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("throughput_rps")),
            "{failures:?}"
        );
    }

    #[test]
    fn serve_gate_latency_ceiling_inverts() {
        // Throughput gates below the baseline, latency gates above it: a
        // faster-throughput run with a blown p99 tail must still fail.
        let baseline = serve_json(2000.0, 100_000.0, true);
        let fresh = serve_json(3000.0, 160_000.0, true);
        let failures = serve_gate_failures(&baseline, &fresh, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("p99_us")),
            "{failures:?}"
        );
        // And a *better* p99 never fails, however large the improvement.
        let fresh = serve_json(2000.0, 100.0, true);
        assert!(serve_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn serve_gate_p99_noise_below_the_slack_is_not_a_regression() {
        // 4 ms -> 12 ms is a 3x ratio but well under the absolute slack:
        // scheduler noise, not an event-loop regression.
        let baseline = serve_json(2000.0, 4_000.0, true);
        let fresh = serve_json(2000.0, 12_000.0, true);
        assert!(serve_gate_failures(&baseline, &fresh, 0.5).is_empty());
        // The same ratio above the slack is gated.
        let fresh = serve_json(2000.0, 3.0 * SERVE_P99_SLACK_US, true);
        assert!(!serve_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn serve_gate_lost_bit_identity_is_a_hard_failure() {
        let baseline = serve_json(2000.0, 10_000.0, true);
        let fresh = serve_json(4000.0, 5_000.0, false);
        let failures = serve_gate_failures(&baseline, &fresh, 0.5);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("bit_identical_replicas")),
            "{failures:?}"
        );
    }

    #[test]
    fn serve_gate_tolerates_missing_baseline_fields() {
        let baseline = Json::Obj(vec![]);
        let fresh = serve_json(1.0, 1.0, true);
        assert!(serve_gate_failures(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn select_rejects_unknown_names() {
        let mut cfg = SuiteConfig::new(ExperimentScale::smoke(), "smoke");
        cfg.only = vec!["no_such_artifact".to_string()];
        let err = select_artifacts(&cfg).unwrap_err();
        assert!(err.contains("no_such_artifact"), "{err}");
        assert!(err.contains("table1"), "should list known names: {err}");
    }

    #[test]
    fn select_filters_and_keeps_order() {
        let mut cfg = SuiteConfig::new(ExperimentScale::smoke(), "smoke");
        cfg.only = vec!["perf".to_string(), "table1".to_string()];
        let picked = select_artifacts(&cfg).unwrap();
        let names: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(names, ["table1", "perf"], "registry order, not CLI order");
        cfg.only.clear();
        cfg.skip = vec!["perf".to_string()];
        let picked = select_artifacts(&cfg).unwrap();
        assert!(picked.iter().all(|s| s.name != "perf"));
    }

    #[test]
    fn default_timeouts_scale_up() {
        assert!(default_timeout("smoke") < default_timeout("quick"));
        assert!(default_timeout("quick") < default_timeout("full"));
    }

    #[test]
    fn status_strings_and_health() {
        assert_eq!(ArtifactStatus::Ok.as_str(), "ok");
        assert!(ArtifactStatus::Resumed.is_ok());
        assert!(!ArtifactStatus::Failed("x".into()).is_ok());
        assert_eq!(ArtifactStatus::TimedOut.as_str(), "timed_out");
    }
}
