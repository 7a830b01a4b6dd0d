//! Device-drift lifecycle: hot-swappable model slot, online health sweeps,
//! and the re-program → re-map → hot-swap mitigation ladder.
//!
//! The serving process holds its networks in a versioned [`ModelSlot`].
//! Inference workers run [`replica_inference_loop`]: each owns a private
//! [`TierModels`] clone and re-clones from the slot *between* micro-batches
//! whenever the published version moves — an in-flight batch always finishes
//! on the weights it started with, so a swap can never fail a request.
//!
//! A [`DriftController`] models retention drift of the programmed exact-tier
//! conductances (`xbar_core::ModelDriftState`) and periodically re-simulates
//! a small deterministic probe set against the pristine model's answers.
//! When probe agreement drops past configured thresholds the controller
//! climbs the mitigation ladder:
//!
//! | rung | trigger (probe-accuracy drop) | action |
//! |------|-------------------------------|--------|
//! | 1    | ≥ `refresh_drop`              | program-and-verify refresh of drifted cells |
//! | 2    | ≥ `remap_drop`                | spare-column remap of the worst columns, then refresh |
//! | 3    | ≥ `reload_drop`               | full re-map (counts as a reload) |
//!
//! Every sweep republishes the post-mitigation snapshot through the slot, so
//! classify traffic always sees the weights the drift state says the
//! hardware currently reads. `/admin/reload` reuses the same slot to swap in
//! a whole new artifact without dropping in-flight requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use xbar_core::{load_artifact_bundle_mmap, ArtifactMeta, DriftModel, ModelDriftState};
use xbar_nn::{Mode, Sequential};
use xbar_obs::{metrics, names};
use xbar_tensor::Tensor;

use crate::batcher::{run_tier_batches, softmax, BatchQueue};
use crate::tier::{Tier, TierModels};

/// Odd splitmix constant for deriving per-probe seeds.
const PROBE_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of the drift lifecycle. `Default` disables it entirely
/// (no controller, plain static serving).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    /// Interval between background health sweeps; `Duration::ZERO` disables
    /// the sweep thread.
    pub sweep_interval: Duration,
    /// Number of deterministic probe inputs in the health-sweep set.
    pub probe_count: usize,
    /// Fastest per-cell retention time constant (seconds).
    pub tau_fast: f64,
    /// Slowest per-cell retention time constant (seconds).
    pub tau_slow: f64,
    /// Probe-accuracy drop that triggers rung 1 (refresh).
    pub refresh_drop: f64,
    /// Probe-accuracy drop that triggers rung 2 (spare-column remap).
    pub remap_drop: f64,
    /// Probe-accuracy drop that triggers rung 3 (full re-map / reload).
    pub reload_drop: f64,
    /// Per-cell decay fraction above which rung 1 rewrites a cell.
    pub refresh_tolerance: f64,
    /// Per-column mean decay above which rung 2 remaps a column.
    pub remap_column_decay: f64,
    /// Extra seed folded into the artifact's mapping seed for the per-device
    /// retention constants.
    pub seed: u64,
    /// Enables the test-only `POST /admin/advance-time` endpoint that
    /// fast-forwards the drift clock (hidden — 404 — when false).
    pub test_hooks: bool,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self {
            sweep_interval: Duration::ZERO,
            probe_count: 16,
            tau_fast: 3.6e3,
            tau_slow: 1.0e7,
            refresh_drop: 0.02,
            remap_drop: 0.10,
            reload_drop: 0.30,
            refresh_tolerance: 0.01,
            remap_column_decay: 0.25,
            seed: 0,
            test_hooks: false,
        }
    }
}

impl LifecycleConfig {
    /// Whether a [`DriftController`] should exist at all: either background
    /// sweeps are on, or the test hooks want a drift clock to fast-forward.
    pub fn active(&self) -> bool {
        self.sweep_interval > Duration::ZERO || self.test_hooks
    }
}

/// Point-in-time lifecycle summary surfaced on `/healthz` and `/v1/model`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleStatus {
    /// Completed health sweeps.
    pub sweeps: u64,
    /// Unix time (seconds) of the last completed sweep, if any.
    pub last_sweep_unix_s: Option<u64>,
    /// Probe-set agreement with the pristine model at the last measurement.
    pub probe_accuracy: f64,
    /// Mean |score − reference score| over the probe set.
    pub probe_deviation: f64,
    /// Relative deviation of batched probe column currents against pristine
    /// devices — the circuit-level drift signal (0 when pristine).
    pub probe_current_deviation: f64,
    /// Mitigation rung applied by the last sweep (0 = none).
    pub rung: u8,
    /// Seconds of simulated drift since (re)programming.
    pub drift_elapsed_s: f64,
    /// Mean per-cell conductance decay fraction.
    pub mean_decay: f64,
}

impl Default for LifecycleStatus {
    fn default() -> Self {
        Self {
            sweeps: 0,
            last_sweep_unix_s: None,
            probe_accuracy: 1.0,
            probe_deviation: 0.0,
            probe_current_deviation: 0.0,
            rung: 0,
            drift_elapsed_s: 0.0,
            mean_decay: 0.0,
        }
    }
}

/// What one health sweep measured and did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Probe agreement before mitigation.
    pub pre_accuracy: f64,
    /// Probe agreement after mitigation (equals `pre_accuracy` on rung 0).
    pub post_accuracy: f64,
    /// Mean score deviation after mitigation.
    pub post_deviation: f64,
    /// Circuit-level probe current deviation after mitigation.
    pub post_current_deviation: f64,
    /// Ladder rung applied (0 = none).
    pub rung: u8,
    /// Cells rewritten by the refresh pass.
    pub refreshed_cells: usize,
    /// Columns relocated onto spare devices.
    pub remapped_columns: usize,
    /// Seconds of simulated drift at measurement time.
    pub drift_elapsed_s: f64,
    /// Mean per-cell decay fraction after mitigation.
    pub mean_decay: f64,
}

struct SlotInner {
    models: TierModels,
    meta: ArtifactMeta,
}

/// A versioned, hot-swappable holder of the served networks and their
/// metadata. Readers snapshot (clone) under a short lock; publishers bump
/// the version so worker loops know to re-clone between batches.
pub struct ModelSlot {
    version: AtomicU64,
    inner: Mutex<SlotInner>,
}

impl ModelSlot {
    /// Wraps the initial artifact. The version starts at 1.
    pub fn new(models: TierModels, meta: ArtifactMeta) -> Self {
        Self {
            version: AtomicU64::new(1),
            inner: Mutex::new(SlotInner { models, meta }),
        }
    }

    /// Current publish version (cheap atomic load — safe to poll per batch).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Clones the current networks together with the version they belong to.
    pub fn snapshot(&self) -> (u64, TierModels) {
        let inner = self.inner.lock().expect("model slot poisoned");
        (self.version.load(Ordering::SeqCst), inner.models.clone())
    }

    /// Clones the current artifact metadata.
    pub fn meta(&self) -> ArtifactMeta {
        self.inner.lock().expect("model slot poisoned").meta.clone()
    }

    /// Clones the current exact-tier network.
    pub fn exact_model(&self) -> Sequential {
        self.inner
            .lock()
            .expect("model slot poisoned")
            .models
            .exact
            .clone()
    }

    /// Fidelity tiers the current artifact can serve.
    pub fn available(&self) -> Vec<Tier> {
        self.inner
            .lock()
            .expect("model slot poisoned")
            .models
            .available()
    }

    /// Replaces the exact-tier network (drift snapshot or mitigation
    /// result), keeping metadata and the other tiers. Returns the new
    /// version.
    pub fn publish_exact(&self, model: Sequential) -> u64 {
        let mut inner = self.inner.lock().expect("model slot poisoned");
        inner.models.exact = model;
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Swaps in a whole new artifact. The replacement must be
    /// request-compatible with what is being served — same input shape and
    /// class count — so in-flight and queued requests stay valid.
    ///
    /// # Errors
    ///
    /// Returns a description if the shapes are incompatible.
    pub fn publish_bundle(
        &self,
        models: TierModels,
        meta: ArtifactMeta,
    ) -> std::result::Result<u64, String> {
        let mut inner = self.inner.lock().expect("model slot poisoned");
        if meta.input_shape != inner.meta.input_shape {
            return Err(format!(
                "input shape mismatch: serving {:?}, artifact has {:?}",
                inner.meta.input_shape, meta.input_shape
            ));
        }
        if meta.num_classes != inner.meta.num_classes {
            return Err(format!(
                "class count mismatch: serving {}, artifact has {}",
                inner.meta.num_classes, meta.num_classes
            ));
        }
        metrics::gauge_set(
            names::SERVE_DEGRADED,
            if meta.is_degraded() { 1.0 } else { 0.0 },
        );
        metrics::gauge_set(names::SERVE_DEGRADED_TILES, meta.degraded_tiles as f64);
        metrics::gauge_set(names::SERVE_STUCK_CELLS, meta.stuck_cells as f64);
        metrics::gauge_set(names::SERVE_REPAIRED_COLUMNS, meta.repaired_columns as f64);
        metrics::gauge_set(names::SERVE_MAX_FAULT_SCORE, meta.max_fault_score);
        inner.models = models;
        inner.meta = meta;
        Ok(self.version.fetch_add(1, Ordering::SeqCst) + 1)
    }
}

/// Inference worker loop of one replica of the serving pool, with hot-swap
/// support: it re-clones from the [`ModelSlot`] between micro-batches
/// whenever the published version moves. In-flight batches always complete
/// on the clone they started with, which is what makes artifact swaps
/// lossless. Every request it executes is counted on that replica's
/// `serve/replica_requests/<id>` series so replica fairness is observable
/// (and testable) from `/metrics`.
pub fn replica_inference_loop(
    slot: &ModelSlot,
    queue: &BatchQueue,
    max_batch: usize,
    deadline: Duration,
    replica: usize,
) {
    // Reloads are validated shape-compatible, so the input shape is stable
    // for the life of the process.
    let input_shape = slot.meta().input_shape.clone();
    let counter = names::serve_replica_requests(replica);
    let (mut version, mut models) = slot.snapshot();
    while let Some(batch) = queue.next_batch(max_batch, deadline) {
        if slot.version() != version {
            let (v, m) = slot.snapshot();
            version = v;
            models = m;
        }
        metrics::counter_add(&counter, batch.len() as u64);
        run_tier_batches(&mut models, &input_shape, batch);
    }
}

struct ProbeReference {
    classes: Vec<usize>,
    scores: Vec<Vec<f32>>,
}

struct ControllerState {
    drift: ModelDriftState,
    /// Monotone salt so successive rung-2 remaps draw fresh devices.
    remap_salt: u64,
}

/// Owns the drift model of the served exact tier, the probe set, and the
/// mitigation ladder. All methods take `&self`; internal state is locked.
pub struct DriftController {
    cfg: LifecycleConfig,
    slot: Arc<ModelSlot>,
    input_shape: Vec<usize>,
    probes: Vec<Vec<f32>>,
    reference: Mutex<ProbeReference>,
    state: Mutex<ControllerState>,
    status: Mutex<LifecycleStatus>,
}

impl DriftController {
    /// Programs the slot's (pristine) exact model onto drifting devices and
    /// records the pristine probe answers as the health reference.
    ///
    /// # Errors
    ///
    /// Returns a description if the drift model is inconsistent or the probe
    /// forward pass fails.
    pub fn new(cfg: LifecycleConfig, slot: Arc<ModelSlot>) -> std::result::Result<Self, String> {
        let meta = slot.meta();
        let input_shape = meta.input_shape.clone();
        let drift_model = DriftModel::new(cfg.tau_fast, cfg.tau_slow);
        let drift =
            ModelDriftState::with_defaults(&slot.exact_model(), drift_model, cfg.seed ^ meta.seed)?;
        let probes = probe_inputs(cfg.probe_count.max(1), &input_shape, cfg.seed ^ meta.seed);
        let (classes, scores) = probe_forward(slot.exact_model(), &input_shape, &probes)?;
        metrics::gauge_set(names::SERVE_PROBE_ACCURACY, 1.0);
        metrics::gauge_set(names::SERVE_PROBE_DEVIATION, 0.0);
        metrics::gauge_set(names::SERVE_MITIGATION_RUNG, 0.0);
        metrics::gauge_set(names::SERVE_DRIFT_ELAPSED_S, 0.0);
        metrics::gauge_set(names::SERVE_DRIFT_MEAN_DECAY, 0.0);
        Ok(Self {
            cfg,
            slot,
            input_shape,
            probes,
            reference: Mutex::new(ProbeReference { classes, scores }),
            state: Mutex::new(ControllerState {
                drift,
                remap_salt: 0,
            }),
            status: Mutex::new(LifecycleStatus::default()),
        })
    }

    /// The lifecycle configuration in force.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// Snapshot of the lifecycle status for `/healthz` and `/v1/model`.
    pub fn status(&self) -> LifecycleStatus {
        *self.status.lock().expect("lifecycle status poisoned")
    }

    /// Probe agreement and score deviation of `model` against the pristine
    /// reference. The deviation is the mean (over probes) total-variation
    /// distance between softmax rows — the probability mass displaced per
    /// probe, in `[0, 1]` — rather than a mean over individual score
    /// elements, which dilutes the signal by the class count and can sit
    /// below the refresh threshold even at full decay.
    fn probe_eval(&self, model: Sequential) -> std::result::Result<(f64, f64), String> {
        let (classes, scores) = probe_forward(model, &self.input_shape, &self.probes)?;
        let reference = self.reference.lock().expect("probe reference poisoned");
        let agree = classes
            .iter()
            .zip(&reference.classes)
            .filter(|(a, b)| a == b)
            .count();
        let accuracy = agree as f64 / classes.len().max(1) as f64;
        let mut dev_sum = 0.0f64;
        let mut dev_n = 0usize;
        for (row, ref_row) in scores.iter().zip(&reference.scores) {
            let l1: f64 = row
                .iter()
                .zip(ref_row)
                .map(|(s, r)| f64::from((s - r).abs()))
                .sum();
            dev_sum += 0.5 * l1;
            dev_n += 1;
        }
        Ok((accuracy, dev_sum / dev_n.max(1) as f64))
    }

    /// Fast-forwards the simulated drift clock by `dt` seconds and publishes
    /// the decayed snapshot so classify traffic sees it. Returns
    /// `(elapsed, mean_decay)`.
    pub fn advance_time(&self, dt: f64) -> (f64, f64) {
        let mut state = self.state.lock().expect("lifecycle state poisoned");
        state.drift.advance_time(dt);
        let elapsed = state.drift.elapsed();
        let mean_decay = state.drift.mean_decay();
        let model = state.drift.snapshot_model();
        drop(state);
        self.slot.publish_exact(model);
        metrics::gauge_set(names::SERVE_DRIFT_ELAPSED_S, elapsed);
        metrics::gauge_set(names::SERVE_DRIFT_MEAN_DECAY, mean_decay);
        let mut status = self.status.lock().expect("lifecycle status poisoned");
        status.drift_elapsed_s = elapsed;
        status.mean_decay = mean_decay;
        (elapsed, mean_decay)
    }

    /// One health sweep: measure probe agreement of the drifted weights,
    /// climb the mitigation ladder if it has dropped, republish, and
    /// re-measure.
    pub fn sweep(&self) -> SweepReport {
        let start = Instant::now();
        let mut state = self.state.lock().expect("lifecycle state poisoned");
        let (pre_accuracy, pre_deviation) = self
            .probe_eval(state.drift.snapshot_model())
            .unwrap_or((0.0, 1.0));
        // Argmax agreement alone is blind to drift when the probe set is
        // degenerate (a model that answers one class for every probe keeps
        // agreeing with itself at any decay); the score deviation is the
        // current-deviation signal that still moves, so the ladder climbs
        // on whichever is worse.
        let drop_frac = (1.0 - pre_accuracy).max(pre_deviation);
        let rung: u8 = if drop_frac >= self.cfg.reload_drop {
            3
        } else if drop_frac >= self.cfg.remap_drop {
            2
        } else if drop_frac >= self.cfg.refresh_drop {
            1
        } else {
            0
        };
        let mut refreshed = 0usize;
        let mut remapped = 0usize;
        match rung {
            1 => refreshed = state.drift.refresh(self.cfg.refresh_tolerance),
            2 => {
                state.remap_salt += 1;
                let salt = state.remap_salt;
                remapped = state
                    .drift
                    .remap_worst_columns(self.cfg.remap_column_decay, salt);
                refreshed = state.drift.refresh(self.cfg.refresh_tolerance);
            }
            3 => {
                // Full re-map: every device rewritten — the on-device
                // equivalent of reloading the artifact.
                state.drift.reprogram_all();
                metrics::counter_add(names::SERVE_RELOADS, 1);
            }
            _ => {}
        }
        let model = state.drift.snapshot_model();
        let drift_elapsed_s = state.drift.elapsed();
        let mean_decay = state.drift.mean_decay();
        let (post_accuracy, post_deviation) = if rung == 0 {
            (pre_accuracy, pre_deviation)
        } else {
            self.probe_eval(model.clone()).unwrap_or((0.0, 1.0))
        };
        // Hardware-level cross-check: the probe micro-batch read straight
        // off the drifted devices through batched circuit solves. Catches
        // decay the logits hide (saturated softmax, degenerate probe sets).
        let post_current_deviation = state
            .drift
            .circuit_probe_deviation(self.cfg.probe_count.clamp(1, 8), self.cfg.seed)
            .unwrap_or(1.0);
        drop(state);
        self.slot.publish_exact(model);

        metrics::counter_add(names::SERVE_HEALTH_SWEEPS, 1);
        metrics::latency_record_us(names::SERVE_SWEEP_US, start.elapsed().as_micros() as u64);
        metrics::gauge_set(names::SERVE_PROBE_ACCURACY, post_accuracy);
        metrics::gauge_set(names::SERVE_PROBE_DEVIATION, post_deviation);
        metrics::gauge_set(names::SERVE_PROBE_CURRENT_DEVIATION, post_current_deviation);
        metrics::gauge_set(names::SERVE_MITIGATION_RUNG, f64::from(rung));
        metrics::gauge_set(names::SERVE_DRIFT_ELAPSED_S, drift_elapsed_s);
        metrics::gauge_set(names::SERVE_DRIFT_MEAN_DECAY, mean_decay);
        if refreshed > 0 {
            metrics::counter_add(names::SERVE_DRIFT_REFRESHED_CELLS, refreshed as u64);
        }
        if remapped > 0 {
            metrics::counter_add(names::SERVE_DRIFT_REMAPPED_COLUMNS, remapped as u64);
        }

        let mut status = self.status.lock().expect("lifecycle status poisoned");
        status.sweeps += 1;
        status.last_sweep_unix_s = unix_time_s();
        status.probe_accuracy = post_accuracy;
        status.probe_deviation = post_deviation;
        status.probe_current_deviation = post_current_deviation;
        status.rung = rung;
        status.drift_elapsed_s = drift_elapsed_s;
        status.mean_decay = mean_decay;

        SweepReport {
            pre_accuracy,
            post_accuracy,
            post_deviation,
            post_current_deviation,
            rung,
            refreshed_cells: refreshed,
            remapped_columns: remapped,
            drift_elapsed_s,
            mean_decay,
        }
    }

    /// `POST /admin/reload`: with a path, loads that artifact, validates it
    /// is request-compatible, swaps it in, and re-programs the drift state
    /// onto it; without one, re-programs the current artifact in place (a
    /// rung-3 recovery by hand). Returns `(version, label)`.
    ///
    /// # Errors
    ///
    /// Returns a description if the artifact cannot be loaded or is not
    /// compatible with what is being served.
    pub fn reload(&self, artifact: Option<&str>) -> std::result::Result<(u64, String), String> {
        let mut state = self.state.lock().expect("lifecycle state poisoned");
        let (version, label) = match artifact {
            Some(path) => {
                let bundle = load_artifact_bundle_mmap(path)
                    .map_err(|e| format!("cannot load artifact {path}: {e}"))?;
                let (models, meta) = TierModels::from_bundle(bundle);
                let label = meta.label.clone();
                let drift_model = DriftModel::new(self.cfg.tau_fast, self.cfg.tau_slow);
                let drift = ModelDriftState::with_defaults(
                    &models.exact,
                    drift_model,
                    self.cfg.seed ^ meta.seed,
                )?;
                let (classes, scores) =
                    probe_forward(models.exact.clone(), &self.input_shape, &self.probes)?;
                let version = self.slot.publish_bundle(models, meta)?;
                state.drift = drift;
                state.remap_salt = 0;
                let mut reference = self.reference.lock().expect("probe reference poisoned");
                reference.classes = classes;
                reference.scores = scores;
                (version, label)
            }
            None => {
                state.drift.reprogram_all();
                let model = state.drift.snapshot_model();
                let version = self.slot.publish_exact(model);
                (version, self.slot.meta().label)
            }
        };
        let elapsed = state.drift.elapsed();
        drop(state);
        metrics::counter_add(names::SERVE_RELOADS, 1);
        metrics::gauge_set(names::SERVE_DRIFT_ELAPSED_S, elapsed);
        metrics::gauge_set(names::SERVE_DRIFT_MEAN_DECAY, 0.0);
        metrics::gauge_set(names::SERVE_PROBE_ACCURACY, 1.0);
        metrics::gauge_set(names::SERVE_PROBE_DEVIATION, 0.0);
        metrics::gauge_set(names::SERVE_MITIGATION_RUNG, 0.0);
        metrics::gauge_set(names::SERVE_PROBE_CURRENT_DEVIATION, 0.0);
        let mut status = self.status.lock().expect("lifecycle status poisoned");
        status.probe_accuracy = 1.0;
        status.probe_deviation = 0.0;
        status.probe_current_deviation = 0.0;
        status.rung = 0;
        status.drift_elapsed_s = elapsed;
        status.mean_decay = 0.0;
        Ok((version, label))
    }
}

/// Runs periodic health sweeps until `shutdown` is raised. Sleeps in short
/// ticks so shutdown is honored promptly even with long intervals.
pub fn sweep_loop(controller: &DriftController, shutdown: &AtomicBool, interval: Duration) {
    let tick = Duration::from_millis(20).min(interval);
    let mut next = Instant::now() + interval;
    while !shutdown.load(Ordering::SeqCst) {
        if Instant::now() >= next {
            controller.sweep();
            next = Instant::now() + interval;
        }
        std::thread::sleep(tick);
    }
}

fn unix_time_s() -> Option<u64> {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .ok()
        .map(|d| d.as_secs())
}

/// Deterministic pseudo-input probe set: `count` examples of `shape`, each
/// from its own xorshift64* stream, values in `[0, 1)`.
fn probe_inputs(count: usize, shape: &[usize], seed: u64) -> Vec<Vec<f32>> {
    let len: usize = shape.iter().product();
    (0..count)
        .map(|i| {
            let mut x = seed.wrapping_add((i as u64 + 1).wrapping_mul(PROBE_SEED_MIX)) | 1;
            (0..len)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    (bits >> 40) as f32 / (1u64 << 24) as f32
                })
                .collect()
        })
        .collect()
}

/// Runs the probe set through `model`, returning argmax classes and softmax
/// score rows.
fn probe_forward(
    mut model: Sequential,
    input_shape: &[usize],
    probes: &[Vec<f32>],
) -> std::result::Result<(Vec<usize>, Vec<Vec<f32>>), String> {
    let n = probes.len();
    let per_example: usize = input_shape.iter().product();
    let mut stacked = Vec::with_capacity(n * per_example);
    for p in probes {
        stacked.extend_from_slice(p);
    }
    let mut shape = Vec::with_capacity(1 + input_shape.len());
    shape.push(n);
    shape.extend_from_slice(input_shape);
    let logits = Tensor::from_vec(stacked, &shape)
        .and_then(|x| model.forward(&x, Mode::Eval))
        .map_err(|e| format!("probe forward failed: {e}"))?;
    let classes_per_row = logits.shape().last().copied().unwrap_or(0).max(1);
    let mut classes = Vec::with_capacity(n);
    let mut scores = Vec::with_capacity(n);
    for row in logits.as_slice().chunks_exact(classes_per_row) {
        let s = softmax(row);
        let class = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        classes.push(class);
        scores.push(s);
    }
    Ok((classes, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;

    const INPUT_SHAPE: [usize; 3] = [1, 8, 8];
    const CLASSES: usize = 4;

    fn tiny_model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(4 * 4 * 4, CLASSES, seed + 1)),
        ])
    }

    fn meta_for(label: &str) -> ArtifactMeta {
        ArtifactMeta {
            label: label.into(),
            num_classes: CLASSES,
            input_shape: INPUT_SHAPE.to_vec(),
            rows: 16,
            cols: 16,
            method: "None".into(),
            rearrange: None,
            scale: "PerLayerMax".into(),
            solve: "LineRelaxation".into(),
            seed: 11,
            crossbar_count: 1,
            mean_nf: 0.0,
            solver_iterations: 0,
            non_converged: 0,
            software_accuracy: None,
            crossbar_accuracy: None,
            stuck_cells: 0,
            repaired_columns: 0,
            corrected_cells: 0,
            degraded_tiles: 0,
            max_fault_score: 0.0,
        }
    }

    fn slot(seed: u64) -> Arc<ModelSlot> {
        Arc::new(ModelSlot::new(
            TierModels::exact_only(tiny_model(seed)),
            meta_for("lifecycle-test"),
        ))
    }

    fn drifting_cfg() -> LifecycleConfig {
        LifecycleConfig {
            tau_fast: 10.0,
            tau_slow: 1e5,
            test_hooks: true,
            ..LifecycleConfig::default()
        }
    }

    #[test]
    fn publish_exact_bumps_version_and_swaps_weights() {
        let slot = slot(5);
        assert_eq!(slot.version(), 1);
        let replacement = tiny_model(99);
        let v = slot.publish_exact(replacement);
        assert_eq!(v, 2);
        let (v2, _models) = slot.snapshot();
        assert_eq!(v2, 2);
    }

    #[test]
    fn publish_bundle_rejects_incompatible_shapes() {
        let slot = slot(5);
        let mut bad_meta = meta_for("wrong-classes");
        bad_meta.num_classes = CLASSES + 1;
        let err = slot
            .publish_bundle(TierModels::exact_only(tiny_model(6)), bad_meta)
            .unwrap_err();
        assert!(err.contains("class count mismatch"), "{err}");
        let mut bad_shape = meta_for("wrong-shape");
        bad_shape.input_shape = vec![3, 8, 8];
        let err = slot
            .publish_bundle(TierModels::exact_only(tiny_model(6)), bad_shape)
            .unwrap_err();
        assert!(err.contains("input shape mismatch"), "{err}");
        assert_eq!(slot.version(), 1, "failed publishes must not bump");
    }

    #[test]
    fn pristine_sweep_is_rung_zero_and_perfectly_accurate() {
        let slot = slot(7);
        let ctl = DriftController::new(drifting_cfg(), Arc::clone(&slot)).unwrap();
        let report = ctl.sweep();
        assert_eq!(report.rung, 0);
        assert_eq!(report.pre_accuracy, 1.0);
        assert_eq!(report.post_accuracy, 1.0);
        let status = ctl.status();
        assert_eq!(status.sweeps, 1);
        assert!(status.last_sweep_unix_s.is_some());
    }

    #[test]
    fn heavy_drift_triggers_mitigation_and_recovers_probe_accuracy() {
        let slot = slot(7);
        let cfg = drifting_cfg();
        let ctl = DriftController::new(cfg, Arc::clone(&slot)).unwrap();
        // Far past the slowest time constant: conductances have collapsed
        // toward G_off and the probe answers degenerate.
        let (elapsed, mean_decay) = ctl.advance_time(1e7);
        assert_eq!(elapsed, 1e7);
        assert!(mean_decay > 0.5);
        let before = slot.version();
        let report = ctl.sweep();
        assert!(
            report.rung >= 1,
            "decay {mean_decay} must climb the ladder, got rung {}",
            report.rung
        );
        assert!(
            report.post_accuracy >= report.pre_accuracy,
            "mitigation must not lose probe accuracy: {} -> {}",
            report.pre_accuracy,
            report.post_accuracy
        );
        assert_eq!(report.post_accuracy, 1.0, "refresh restores the answers");
        assert!(slot.version() > before, "sweep must republish");
    }

    #[test]
    fn reload_in_place_reprograms_and_resets_status() {
        let slot = slot(3);
        let ctl = DriftController::new(drifting_cfg(), Arc::clone(&slot)).unwrap();
        ctl.advance_time(1e7);
        let (version, label) = ctl.reload(None).unwrap();
        assert!(version > 1);
        assert_eq!(label, "lifecycle-test");
        let status = ctl.status();
        assert_eq!(status.rung, 0);
        assert_eq!(status.mean_decay, 0.0);
        // The drift clock keeps running from `elapsed`; the devices are
        // simply rewritten, so immediately after reload nothing has decayed.
        let report = ctl.sweep();
        assert_eq!(report.pre_accuracy, 1.0);
    }

    #[test]
    fn probe_inputs_are_deterministic_and_in_range() {
        let a = probe_inputs(4, &INPUT_SHAPE, 42);
        let b = probe_inputs(4, &INPUT_SHAPE, 42);
        assert_eq!(a, b);
        let c = probe_inputs(4, &INPUT_SHAPE, 43);
        assert_ne!(a, c);
        for probe in &a {
            assert_eq!(probe.len(), 64);
            assert!(probe.iter().all(|v| (0.0..1.0).contains(v)));
        }
    }
}
