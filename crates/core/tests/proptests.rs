//! Property-based tests for fault-tolerant tile mapping and the solve
//! cache.
//!
//! The repair path promises monotonicity by construction: a spare-column
//! remap is only accepted when it reduces the tile's total weight error,
//! and digital correction is applied per cell only where the read-back
//! actually improves. These properties pin that down across random tiles,
//! fault rates, and seeds — repair must never leave a tile *less* accurate
//! than not repairing it.
//!
//! The solve cache promises invisibility: memoising tile circuit solves by
//! content hash may only skip work, never change a single bit of the mapped
//! weights or solver statistics — across variation seeds and circuit
//! parameters.

use proptest::prelude::*;
use xbar_core::pipeline::{map_to_crossbars, MapConfig};
use xbar_core::repair::{map_tile_with_repair, RepairConfig};
use xbar_sim::faults::FaultModel;
use xbar_sim::params::CrossbarParams;
use xbar_sim::solve::SolveMethod;
use xbar_sim::{simulate_tile, MappingScale};
use xbar_tensor::Tensor;

fn weight_tile() -> impl Strategy<Value = Tensor> {
    (3usize..9, 3usize..7).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(-1.2f32..1.2, rows * cols)
            .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("consistent"))
    })
}

fn params_with_faults(rate: f64) -> CrossbarParams {
    let mut p = CrossbarParams::with_size(8).ideal();
    p.faults = FaultModel {
        stuck_at_gmin: rate * 0.6,
        stuck_at_gmax: rate * 0.4,
    };
    p
}

/// Per-column absolute weight error of `mapped` vs the ideal `tile`.
fn column_errors(tile: &Tensor, mapped: &Tensor) -> Vec<f64> {
    (0..tile.cols())
        .map(|c| {
            (0..tile.rows())
                .map(|r| f64::from((tile.at2(r, c) - mapped.at2(r, c)).abs()))
                .sum()
        })
        .collect()
}

/// The same physical layout as repaired mapping but with every repair
/// mechanism disabled: spares exist (so the geometry matches) yet no column
/// ever qualifies for one and no correction runs.
fn no_repair_cfg(cfg: &RepairConfig) -> RepairConfig {
    RepairConfig {
        column_threshold: f64::INFINITY,
        digital_correction: false,
        ..*cfg
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Repair never decreases accuracy versus no-repair, at any fault rate
    /// (including zero): the summed column-level weight error of the
    /// repaired tile is bounded by the unrepaired one, and the reported
    /// fault score never rises.
    #[test]
    fn repair_is_never_worse_than_no_repair(
        tile in weight_tile(),
        // 0 covers the fault-free edge; 6% is past the paper's 5% sweep.
        rate in 0.0f64..0.06,
        seed in 0u64..500,
    ) {
        let params = params_with_faults(rate);
        let cfg = RepairConfig {
            column_threshold: 0.01,
            ..RepairConfig::default()
        };
        let plain = map_tile_with_repair(
            &tile, MappingScale::PerTileMax, 1.0, &params,
            SolveMethod::LineRelaxation, seed, &no_repair_cfg(&cfg),
        ).unwrap();
        let repaired = map_tile_with_repair(
            &tile, MappingScale::PerTileMax, 1.0, &params,
            SolveMethod::LineRelaxation, seed, &cfg,
        ).unwrap();

        let e_plain: f64 = column_errors(&tile, &plain.weights).iter().sum();
        let e_rep: f64 = column_errors(&tile, &repaired.weights).iter().sum();
        prop_assert!(
            e_rep <= e_plain + 1e-9,
            "rate {rate}, seed {seed}: repair worsened weight error {e_rep} vs {e_plain}"
        );

        let r = repaired.repair.as_ref().expect("repair verdict present");
        prop_assert!(
            r.fault_score <= r.pre_fault_score + 1e-12,
            "fault score rose from {} to {}", r.pre_fault_score, r.fault_score
        );
        // With no faults, repair must be a no-op.
        if rate == 0.0 {
            prop_assert!(r.remapped.is_empty());
            prop_assert_eq!(r.corrected_cells, 0);
            prop_assert_eq!(r.fault_score, 0.0);
        }
    }

    /// The repaired tile keeps the logical shape the pipeline reassembles:
    /// repair works in physical (padded) space but must hand back exactly
    /// `rows × active` weights.
    #[test]
    fn repair_preserves_logical_tile_shape(
        tile in weight_tile(),
        rate in 0.0f64..0.06,
        seed in 0u64..500,
    ) {
        let params = params_with_faults(rate);
        let mapped = map_tile_with_repair(
            &tile, MappingScale::PerTileMax, 1.0, &params,
            SolveMethod::LineRelaxation, seed, &RepairConfig::default(),
        ).unwrap();
        prop_assert_eq!(mapped.weights.shape(), tile.shape());
    }

    /// The solve cache must be invisible: simulating random tiles under
    /// differing variation seeds and circuit parameters, with the cache
    /// warm from *other* (seed, params) combinations, is bit-identical —
    /// weights and solver stats — to simulating each from an empty cache.
    /// A mis-keyed cache (one that ignored the conductance content, the
    /// parasitics, or the voltage vector) would hand a tile some other
    /// tile's solution and fail this within a case or two.
    ///
    /// Other tests in this binary share the process-wide cache, but a
    /// neighbour's insert or clear can only turn a hit into an identical
    /// cold solve or vice versa, never change a result.
    #[test]
    fn solve_cache_is_keyed_correctly_across_seeds_and_params(
        tile in weight_tile(),
        seed_a in 0u64..200,
        seed_b in 200u64..400,
        wire_scale in 1u32..4,
    ) {
        let mut params_a = CrossbarParams::with_size(8);
        params_a.sigma_variation = 0.05;
        let mut params_b = params_a;
        params_b.r_wire_row *= f64::from(wire_scale);
        let combos = [
            (seed_a, params_a), (seed_b, params_a),
            (seed_a, params_b), (seed_b, params_b),
        ];
        let sim = |(seed, params): &(u64, CrossbarParams)| {
            let out = simulate_tile(
                &tile, MappingScale::PerTileMax, 1.0, params,
                SolveMethod::LineRelaxation, *seed,
            )
            .unwrap();
            (out.weights, out.stats)
        };
        let cold: Vec<_> = combos
            .iter()
            .map(|combo| {
                xbar_sim::clear_solve_cache();
                sim(combo)
            })
            .collect();
        // Empty cache → populate with every combination → replay: each
        // combination must hit its own entry, not a neighbour's.
        xbar_sim::clear_solve_cache();
        let populate: Vec<_> = combos.iter().map(sim).collect();
        let replay: Vec<_> = combos.iter().map(sim).collect();
        for (k, ((c, p), r)) in cold.iter().zip(&populate).zip(&replay).enumerate() {
            prop_assert_eq!(c, p, "combo {} differed while populating", k);
            prop_assert_eq!(c, r, "combo {} differed on cache replay", k);
        }
        // Different seeds genuinely produce different devices — the cache
        // had real discrimination work to do above.
        prop_assert!(cold[0].0 != cold[1].0, "different seeds must differ");
    }
}

/// Builds a small two-layer model with deterministic pseudo-random weights.
fn tiny_model(seed: u64) -> xbar_nn::Sequential {
    use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;
    xbar_nn::Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 8, 3, 1, 1, seed)),
        Layer::ReLU(ReLU::new()),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(8 * 4 * 4, 4, seed.wrapping_add(1))),
    ])
}

fn layer_weights(model: &xbar_nn::Sequential) -> Vec<&Tensor> {
    let mut out = Vec::new();
    for layer in model.layers() {
        if let Some(conv) = layer.as_conv() {
            out.push(&conv.weight().value);
        }
        if let Some(lin) = layer.as_linear() {
            out.push(&lin.weight().value);
        }
    }
    out
}

/// Whole-model equivalence: mapping from an empty solve cache and then
/// re-mapping through its hit path gives bit-identical mapped weights and
/// an identical per-layer report (solver sweeps, residuals, NF, fallbacks,
/// fault counts).
#[test]
fn mapping_is_bit_identical_on_cache_replay() {
    let model = tiny_model(11);
    let mut params = CrossbarParams::with_size(16);
    params.sigma_variation = 0.05;
    let cfg = MapConfig {
        params,
        seed: 3,
        ..Default::default()
    };
    let run = || map_to_crossbars(&model, &cfg).unwrap();

    xbar_sim::clear_solve_cache();
    let (cold, cold_report) = run();
    let (replay, replay_report) = run();

    let reference = layer_weights(&cold);
    let weights = layer_weights(&replay);
    assert_eq!(weights.len(), reference.len());
    for (i, (a, b)) in reference.iter().zip(&weights).enumerate() {
        assert_eq!(a, b, "layer weight {i} not bit-identical on replay");
    }
    assert!(cold_report.solver_iterations() > 0);
    // `Debug` prints every float in its shortest round-trip form, so equal
    // renderings mean bit-equal reports.
    assert_eq!(format!("{cold_report:?}"), format!("{replay_report:?}"));
}
