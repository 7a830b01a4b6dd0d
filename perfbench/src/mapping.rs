//! The mapping side of the benchmark: the pruning × crossbar-size
//! configurations, the cold-then-cached map passes, and the traced replay of
//! the mapping pipeline stage by stage.

use crate::spans::{self_time_ns, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;
use xbar_bench::{DatasetKind, ExperimentScale, Scenario};
use xbar_core::partition::{partition, reassemble, Tile};
use xbar_core::pipeline::{map_to_crossbars, MapConfig, MapReport};
use xbar_core::rearrange::{ColumnOrder, Rearrangement};
use xbar_nn::vgg::VggVariant;
use xbar_nn::Sequential;
use xbar_obs::metrics::{counter_value, snapshot};
use xbar_obs::names;
use xbar_prune::compression::model_crossbar_count;
use xbar_prune::transform::transform;
use xbar_prune::unroll::{unrolled_matrices, write_back};
use xbar_prune::PruneMethod;
use xbar_sim::params::CrossbarParams;
use xbar_sim::tile::{simulate_tile, TileOutcome};
use xbar_tensor::Tensor;

/// The paper's pruning setups (Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pruning {
    Unpruned,
    ChannelFilter,
    /// C/F plus the column rearrangement R.
    ChannelFilterR,
    XbarColumn,
    XbarRow,
}

pub const ALL_PRUNINGS: [Pruning; 5] = [
    Pruning::Unpruned,
    Pruning::ChannelFilter,
    Pruning::ChannelFilterR,
    Pruning::XbarColumn,
    Pruning::XbarRow,
];

pub const SWEEP_SIZES: [usize; 3] = [16, 32, 64];

impl Pruning {
    fn method(self) -> PruneMethod {
        match self {
            Pruning::Unpruned => PruneMethod::None,
            Pruning::ChannelFilter | Pruning::ChannelFilterR => PruneMethod::ChannelFilter,
            Pruning::XbarColumn => PruneMethod::XbarColumn,
            Pruning::XbarRow => PruneMethod::XbarRow,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Pruning::Unpruned => "unpruned",
            Pruning::ChannelFilter => "C/F",
            Pruning::ChannelFilterR => "C/F+R",
            Pruning::XbarColumn => "XCS",
            Pruning::XbarRow => "XRS",
        }
    }

    /// The pruned model this setup maps (C/F + R maps the C/F model).
    pub fn model_key(self) -> Pruning {
        match self {
            Pruning::ChannelFilterR => Pruning::ChannelFilter,
            other => other,
        }
    }

    /// The paper's R layout (Fig. 3(f)) for C/F + R; none otherwise.
    fn rearrange(self) -> Option<ColumnOrder> {
        (self == Pruning::ChannelFilterR).then_some(ColumnOrder::CenterOut)
    }
}

/// One mapping configuration: a pruning setup on one crossbar size, with
/// its device-variation seed.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub pruning: Pruning,
    pub size: usize,
    pub cfg: MapConfig,
}

impl Case {
    pub fn new(pruning: Pruning, size: usize, variation_seed: u64) -> Case {
        Case {
            pruning,
            size,
            cfg: MapConfig {
                params: CrossbarParams::with_size(size),
                method: pruning.method(),
                rearrange: pruning.rearrange(),
                seed: variation_seed,
                ..MapConfig::default()
            },
        }
    }

    pub fn label(&self) -> String {
        format!("{} {}x{}", self.pruning.label(), self.size, self.size)
    }
}

/// Quick-scale VGG11 (width 0.25, 32×32×3 input, 10 classes), built and
/// pruned at initialisation from `seed`. C/F + R maps the C/F model.
fn build_model(pruning: Pruning, seed: u64) -> Sequential {
    let method = pruning.method();
    let scenario = Scenario::new(
        VggVariant::Vgg11,
        DatasetKind::Cifar10Like,
        method,
        ExperimentScale::quick(),
    )
    .with_seed(seed);
    scenario.build_model(10).0
}

/// The distinct models a set of cases needs, keyed by the model they map.
pub fn build_models(cases: &[Case], seed: u64) -> Models {
    let mut models = BTreeMap::new();
    for case in cases {
        let key = case.pruning.model_key();
        models.entry(key).or_insert_with(|| build_model(key, seed));
    }
    models
}

/// Built models keyed by [`Pruning::model_key`].
pub type Models = BTreeMap<Pruning, Sequential>;

/// Every synaptic weight of a model, in layer order.
pub fn synaptic_weights(model: &Sequential) -> Vec<f32> {
    let mut model = model.clone();
    model
        .params_mut()
        .into_iter()
        .filter(|p| p.kind.is_synaptic())
        .flat_map(|p| p.value.as_slice().to_vec())
        .collect()
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times of one pass over the cases: each case mapped from a cold solve
/// cache, then re-mapped at once through the cache's hit path.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    pub cold_s: f64,
    pub remap_s: f64,
    pub maps: u64,
}

/// Maps every case cold and then cached, checking that the re-map
/// reproduces the cold map exactly and that the tile count matches the
/// compression accounting. Failed checks are appended to `errors`.
pub fn map_pass(
    cases: &[Case],
    models: &Models,
    errors: &mut Vec<String>,
) -> Result<PassTimes, String> {
    let mut times = PassTimes::default();
    for case in cases {
        let model = &models[&case.pruning.model_key()];
        xbar_sim::clear_solve_cache();
        let start = Instant::now();
        let (cold, cold_report) =
            map_to_crossbars(model, &case.cfg).map_err(|e| format!("{}: {e}", case.label()))?;
        times.cold_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (warm, warm_report) =
            map_to_crossbars(model, &case.cfg).map_err(|e| format!("{}: {e}", case.label()))?;
        times.remap_s += start.elapsed().as_secs_f64();
        times.maps += 2;
        check_remap(
            case,
            model,
            (&cold, &cold_report),
            (&warm, &warm_report),
            errors,
        );
    }
    Ok(times)
}

fn check_remap(
    case: &Case,
    model: &Sequential,
    (cold, cold_report): (&Sequential, &MapReport),
    (warm, warm_report): (&Sequential, &MapReport),
    errors: &mut Vec<String>,
) {
    let label = case.label();
    if !bits_equal(&synaptic_weights(cold), &synaptic_weights(warm)) {
        errors.push(format!(
            "{label}: cached re-map W' differs from the cold map"
        ));
    }
    let cold_stats = (
        cold_report.crossbar_count(),
        cold_report.solver_iterations(),
        cold_report.mean_nf().to_bits(),
    );
    let warm_stats = (
        warm_report.crossbar_count(),
        warm_report.solver_iterations(),
        warm_report.mean_nf().to_bits(),
    );
    if cold_stats != warm_stats {
        errors.push(format!(
            "{label}: re-map (tiles, sweeps, NF bits) {warm_stats:?} != cold {cold_stats:?}"
        ));
    }
    let expected = model_crossbar_count(model, case.cfg.method, case.size, case.size);
    if cold_report.crossbar_count() != expected {
        errors.push(format!(
            "{label}: {} tiles mapped, compression accounting expects {expected}",
            cold_report.crossbar_count()
        ));
    }
}

/// Per-stage totals of a traced replay pass, in milliseconds unless named
/// as counts.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    pub stage_ms: BTreeMap<&'static str, f64>,
    pub wall_s: f64,
    /// Wall time of the cold replays alone, and their `sim.solve` share.
    pub cold_ms: f64,
    pub cold_solve_ms: f64,
    pub tiles: u64,
    pub sweeps: u64,
    pub fallbacks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Replays one cold and one cached map of every case through the
/// pipeline's public stages, each call inside a span, and checks that the
/// replay's `W'` is bit-identical to `map_to_crossbars`.
///
/// The tile phase runs on the pipeline's own worker count; see
/// [`TilePhase`] for how its wall time splits into `sim.prepare` and
/// `sim.solve`. Stage times add up to the replay's wall time.
pub fn replay_pass(
    cases: &[Case],
    models: &Models,
    rec: &mut Recorder,
    errors: &mut Vec<String>,
) -> Result<ReplayStats, String> {
    let mut stats = ReplayStats::default();
    let first_span = rec.spans().len();
    let (mut solve_ms, mut phase_ms) = (0.0f64, 0.0f64);
    for (idx, case) in cases.iter().enumerate() {
        let model = &models[&case.pruning.model_key()];
        xbar_sim::clear_solve_cache();
        let (reference, report) =
            map_to_crossbars(model, &case.cfg).map_err(|e| format!("{}: {e}", case.label()))?;
        // The reference map above filled the cache; replay cold from an
        // empty cache, then replay the cached re-map.
        xbar_sim::clear_solve_cache();
        for pass in 0..2u64 {
            let trace = (idx as u64) * 2 + pass;
            let hits0 = counter_value(names::SIM_SOLVE_CACHE_HITS);
            let misses0 = counter_value(names::SIM_SOLVE_CACHE_MISSES);
            let start = Instant::now();
            let ReplayedMap {
                model: replayed,
                tiles,
                sweeps,
                fallbacks,
                phase,
            } = replay_map(model, &case.cfg, rec, trace)?;
            let map_ms = start.elapsed().as_secs_f64() * 1e3;
            stats.wall_s += map_ms / 1e3;
            stats.cache_hits += counter_value(names::SIM_SOLVE_CACHE_HITS) - hits0;
            stats.cache_misses += counter_value(names::SIM_SOLVE_CACHE_MISSES) - misses0;
            phase_ms += phase.wall_ms;
            solve_ms += phase.solve_ms();
            if pass == 0 {
                stats.cold_ms += map_ms;
                stats.cold_solve_ms += phase.solve_ms();
            }
            stats.tiles += tiles;
            stats.sweeps += sweeps;
            stats.fallbacks += fallbacks;
            if !bits_equal(&synaptic_weights(&reference), &synaptic_weights(&replayed)) {
                errors.push(format!(
                    "{}: traced replay W' differs from map_to_crossbars (the replay \
                     mirrors the pipeline's private tile-seed derivation and phase \
                     order; if those changed on purpose, update perfbench/src/mapping.rs)",
                    case.label()
                ));
            }
            if (tiles as usize, sweeps) != (report.crossbar_count(), report.solver_iterations()) {
                errors.push(format!(
                    "{}: replay (tiles, sweeps) ({tiles}, {sweeps}) != pipeline ({}, {})",
                    case.label(),
                    report.crossbar_count(),
                    report.solver_iterations()
                ));
            }
        }
    }
    let self_ns = self_time_ns(&rec.spans()[first_span..]);
    for (name, ns) in self_ns {
        stats.stage_ms.insert(name, ns as f64 / 1e6);
    }
    // The tile phase's spans hold only the workers' idle tail as self
    // time; its wall time is split by CPU share instead.
    stats.stage_ms.remove("sim.tiles");
    stats.stage_ms.remove("sim.tile");
    stats.stage_ms.insert("sim.solve", solve_ms);
    stats.stage_ms.insert("sim.prepare", phase_ms - solve_ms);
    Ok(stats)
}

/// Wall time of one map's tile phase and how its CPU time split between
/// solving (the simulator's own `sim/tile_solve_us` histogram) and the
/// rest of each tile (programming the conductances, folding `W'`).
struct TilePhase {
    wall_ms: f64,
    cpu_us: f64,
    solve_cpu_us: f64,
}

impl TilePhase {
    fn solve_ms(&self) -> f64 {
        if self.cpu_us > 0.0 {
            self.wall_ms * (self.solve_cpu_us / self.cpu_us).min(1.0)
        } else {
            0.0
        }
    }
}

/// Sum of the simulator's per-tile solve-time histogram, in µs.
fn solve_histogram_us() -> f64 {
    snapshot()
        .histograms
        .get(names::SIM_TILE_SOLVE_US)
        .map_or(0.0, |h| h.sum())
}

/// The per-tile seed the pipeline derives from the mapping seed and the
/// tile's position. A copy of the private `tile_seed_base` in
/// `crates/core/src/pipeline.rs`: change both together, or the replay's
/// bit-identity check fails although the pipeline is right.
fn tile_seed_base(seed: u64, layer_index: usize, panel_idx: usize) -> u64 {
    seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (panel_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

struct PanelPlan {
    rearrangement: Rearrangement,
    rows: usize,
    cols: usize,
    tiles: Vec<Tile>,
    seed_base: u64,
}

/// What one traced map produced.
struct ReplayedMap {
    model: Sequential,
    tiles: u64,
    sweeps: u64,
    fallbacks: u64,
    phase: TilePhase,
}

/// A tile worker's spans and its solved tiles (job index, outcome).
type WorkerResult = (Recorder, Result<Vec<(usize, TileOutcome)>, String>);

/// One traced map: plan (unroll, T, R, partition), solve every tile (on
/// the worker pool, or serially where the pipeline is serial), stitch
/// (reassemble, R⁻¹, T⁻¹, write back). This mirrors the private phase
/// structure of `map_to_crossbars`, which the caller's bit-identity check
/// holds it to.
fn replay_map(
    model: &Sequential,
    cfg: &MapConfig,
    rec: &mut Recorder,
    trace: u64,
) -> Result<ReplayedMap, String> {
    let root = rec.enter("map", trace);
    let cols = cfg.active_cols();
    let rows = cfg.params.rows;
    let mut noisy = model.clone();
    let layers = rec.time("prune.unroll", trace, || unrolled_matrices(model));
    let mut plans = Vec::with_capacity(layers.len());
    for ul in &layers {
        let abs_max = ul.matrix.abs_max();
        let transformed = rec.time("prune.transform", trace, || {
            transform(&ul.matrix, cfg.method, rows, cols)
        });
        let mut panels = Vec::with_capacity(transformed.panels.len());
        for (p, panel) in transformed.panels.iter().enumerate() {
            let (rearrangement, arranged) = rec.time("core.rearrange", trace, || {
                let r = match cfg.rearrange {
                    Some(order) => Rearrangement::compute(&panel.matrix, order, cols),
                    None => Rearrangement::identity(panel.matrix.cols()),
                };
                let arranged = r.apply(&panel.matrix);
                (r, arranged)
            });
            let tiles = rec.time("core.partition", trace, || partition(&arranged, rows, cols));
            panels.push(PanelPlan {
                rearrangement,
                rows: arranged.rows(),
                cols: arranged.cols(),
                tiles,
                seed_base: tile_seed_base(cfg.seed, ul.layer_index, p),
            });
        }
        plans.push((ul.layer_index, abs_max, transformed, panels));
    }

    // Tile phase on the pipeline's worker count, jobs claimed in order.
    let jobs: Vec<(usize, usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(l, plan)| {
            plan.3
                .iter()
                .enumerate()
                .flat_map(move |(p, panel)| (0..panel.tiles.len()).map(move |t| (l, p, t)))
        })
        .collect();
    // The pipeline's own split: serial on the calling thread for fewer
    // than four tiles or a single worker, the pool otherwise.
    let workers = xbar_tensor::threads::max_threads().clamp(1, jobs.len().max(1));
    let serial = workers <= 1 || jobs.len() < 4;
    let solve_us0 = solve_histogram_us();
    let phase_start = Instant::now();
    let phase = rec.enter("sim.tiles", trace);
    let phase_id = rec.current();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let solve_one = |&(l, p, t): &(usize, usize, usize)| -> Result<TileOutcome, String> {
        let plan = &plans[l];
        let panel = &plan.3[p];
        simulate_tile(
            &panel.tiles[t].weights,
            cfg.scale,
            plan.1,
            &cfg.params,
            cfg.solve,
            panel.seed_base.wrapping_add(t as u64),
        )
        .map_err(|e| format!("tile {t} of layer {}: {e}", plan.0))
    };
    let run_worker = |mut wrec: Recorder| -> WorkerResult {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= jobs.len() {
                break (wrec, Ok(done));
            }
            let span = wrec.enter_under("sim.tile", trace, phase_id);
            let outcome = solve_one(&jobs[i]);
            wrec.exit(span);
            match outcome {
                Ok(o) => done.push((i, o)),
                Err(e) => break (wrec, Err(e)),
            }
        }
    };
    let per_worker: Vec<WorkerResult> = if serial {
        vec![run_worker(rec.worker(0))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let wrec = rec.worker(w as u32 + 1);
                    let run_worker = &run_worker;
                    scope.spawn(move || run_worker(wrec))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tile worker panicked"))
                .collect()
        })
    };
    rec.exit(phase);
    let wall_ms = phase_start.elapsed().as_secs_f64() * 1e3;
    let solve_cpu_us = solve_histogram_us() - solve_us0;
    let mut outcomes: Vec<Option<TileOutcome>> = jobs.iter().map(|_| None).collect();
    let mut tile_cpu_us = 0.0;
    for (wrec, result) in per_worker {
        tile_cpu_us += wrec
            .spans()
            .iter()
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum::<f64>();
        rec.absorb(wrec);
        for (i, outcome) in result? {
            outcomes[i] = Some(outcome);
        }
    }

    let mut outcomes = outcomes.into_iter().map(|o| o.expect("every tile solved"));
    let (mut tiles, mut sweeps, mut fallbacks) = (0u64, 0u64, 0u64);
    for (layer_index, _, transformed, panels) in plans {
        let mut noisy_panels: Vec<Tensor> = Vec::with_capacity(panels.len());
        for mut panel in panels {
            for tile in &mut panel.tiles {
                let outcome = outcomes.next().expect("one outcome per tile");
                tiles += 1;
                sweeps += outcome.stats.iterations as u64;
                fallbacks += u64::from(outcome.fallback);
                tile.weights = outcome.weights;
            }
            let arranged = rec.time("core.partition", trace, || {
                reassemble(&panel.tiles, panel.rows, panel.cols)
            });
            noisy_panels.push(rec.time("core.rearrange", trace, || {
                panel.rearrangement.invert(&arranged)
            }));
        }
        rec.time("prune.transform", trace, || {
            let matrix = transformed.invert(&noisy_panels);
            write_back(&mut noisy, layer_index, &matrix);
        });
    }
    rec.exit(root);
    Ok(ReplayedMap {
        model: noisy,
        tiles,
        sweeps,
        fallbacks,
        phase: TilePhase {
            wall_ms,
            cpu_us: tile_cpu_us,
            solve_cpu_us,
        },
    })
}
