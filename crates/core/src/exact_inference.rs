//! True per-input analog MAC: hardware-in-the-loop forward passes.
//!
//! The paper's framework (and [`crate::pipeline`]) folds non-idealities into
//! effective weights `W'` once, then runs software inference. This module
//! provides the ground-truth alternative for a single weight matrix: every
//! input vector is applied to the non-ideal crossbar circuit and the column
//! currents are solved exactly. Signed inputs split into positive/negative
//! phases (two read cycles, as differential-input schemes do in hardware),
//! and the differential weight pair contributes `I_pos − I_neg` per phase —
//! four circuit solves per tile per input.
//!
//! This is orders of magnitude slower than the folded model (a circuit
//! solve per tile *per input*), so it is a validation and research tool,
//! not an inference path: the `folded_model_tracks_exact_inference` test
//! checks the folded model against it. (Ablation A6 measures the same
//! folding error per tile, against `NonIdealSolver::column_currents`.)

use crate::partition::partition;
use crate::pipeline::{MapConfig, MapError};
use xbar_sim::conductance::weights_to_conductances;
use xbar_sim::solve::NonIdealSolver;
use xbar_sim::variation::apply_variation;
use xbar_tensor::{ShapeError, Tensor};

/// Computes `Y = X · W` through exact non-ideal crossbar solves, where `W`
/// is a `fan_in × fan_out` weight matrix and `X` is `[n, fan_in]` with
/// arbitrary-signed activations scaled so that `|x| ≤ 1` maps to the read
/// voltage.
///
/// # Errors
///
/// Returns [`MapError`] on shape mismatch or circuit-solver failure.
pub fn exact_matmul(weights: &Tensor, x: &Tensor, cfg: &MapConfig) -> Result<Tensor, MapError> {
    if weights.ndim() != 2 || x.ndim() != 2 {
        return Err(MapError::Shape(ShapeError::new(
            "exact_matmul expects 2-D weights and inputs",
        )));
    }
    let (fan_in, fan_out) = (weights.rows(), weights.cols());
    if x.cols() != fan_in {
        return Err(MapError::Shape(ShapeError::mismatch(
            "exact_matmul",
            &[x.rows(), fan_in],
            x.shape(),
        )));
    }
    cfg.params
        .validate()
        .map_err(|e| MapError::InvalidConfig(e.to_string()))?;
    let params = cfg.params;
    let solver = NonIdealSolver::new(params, cfg.solve);
    let x_abs_max = x.abs_max().max(f32::MIN_POSITIVE);
    let w_abs_max = weights.abs_max();
    let tiles = partition(weights, params.rows, params.cols);
    let mut out = Tensor::zeros(&[x.rows(), fan_out]);
    for (t_idx, tile) in tiles.iter().enumerate() {
        // Program the differential pair once per tile (with variation).
        let mut pair = weights_to_conductances(&tile.weights, cfg.scale, w_abs_max, &params);
        let g_min = params.g_min();
        apply_variation(
            &mut pair.pos,
            params.sigma_variation,
            g_min,
            cfg.seed.wrapping_add(t_idx as u64),
        );
        apply_variation(
            &mut pair.neg,
            params.sigma_variation,
            g_min,
            cfg.seed.wrapping_add(0x5EED ^ t_idx as u64),
        );
        let span = params.g_max() - g_min;
        // Current → weight-units conversion for this tile.
        let current_scale = (pair.w_ref as f64) * (x_abs_max as f64) / (span * params.v_read);
        // Gather every active input phase of every sample: each phase vector
        // drives both arrays, so one pass collects the whole batch and two
        // batched solves replace 2 × phases single solves against the same
        // programmed pair (bit-identical to the one-at-a-time path).
        let mut phase_vs: Vec<Vec<f64>> = Vec::with_capacity(2 * x.rows());
        let mut phase_of: Vec<(usize, f64)> = Vec::with_capacity(2 * x.rows());
        for sample in 0..x.rows() {
            let mut v_pos = vec![0.0f64; params.rows];
            let mut v_neg = vec![0.0f64; params.rows];
            let mut any_pos = false;
            let mut any_neg = false;
            for (r, (vp, vn)) in v_pos.iter_mut().zip(v_neg.iter_mut()).enumerate() {
                let src = tile.row_start + r;
                if src >= fan_in {
                    break;
                }
                let xv = x.at2(sample, src) / x_abs_max; // in [-1, 1]
                if xv > 0.0 {
                    *vp = xv as f64 * params.v_read;
                    any_pos = true;
                } else if xv < 0.0 {
                    *vn = -xv as f64 * params.v_read;
                    any_neg = true;
                }
            }
            for (v, active, sign) in [(v_pos, any_pos, 1.0f64), (v_neg, any_neg, -1.0)] {
                if active {
                    phase_vs.push(v);
                    phase_of.push((sample, sign));
                }
            }
        }
        let i_pos = xbar_sim::solve_currents_batch(&solver, &pair.pos, &phase_vs)?;
        let i_neg = xbar_sim::solve_currents_batch(&solver, &pair.neg, &phase_vs)?;
        // Per-sample f64 accumulators keep the fold order of the
        // one-solve-at-a-time path: both phases sum in f64, then one f32
        // round-trip per output cell.
        let mut acc = vec![vec![0.0f64; params.cols]; x.rows()];
        for ((&(sample, sign), ip), in_) in phase_of.iter().zip(&i_pos).zip(&i_neg) {
            // Subtract the Gmin baseline both arrays share: with every
            // device at Gmin the differential current is ~0, so the pos
            // and neg array baselines cancel in (i_pos - i_neg).
            for (a, (p, n)) in acc[sample].iter_mut().zip(ip.iter().zip(in_)) {
                *a += sign * (p - n);
            }
        }
        for (sample, row) in acc.iter().enumerate() {
            for (c, &current) in row.iter().enumerate() {
                let dst = tile.col_start + c;
                if dst >= fan_out {
                    break;
                }
                let prev = out.at2(sample, dst);
                out.set2(sample, dst, prev + (current * current_scale) as f32);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_sim::params::CrossbarParams;

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Tensor {
        let mut s = seed | 1;
        Tensor::from_fn(&[r, c], |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 1000.0
        })
    }

    fn ideal_cfg(n: usize) -> MapConfig {
        MapConfig {
            params: CrossbarParams::with_size(n).ideal(),
            ..Default::default()
        }
    }

    #[test]
    fn ideal_circuit_matches_software_matmul() {
        let w = rand_matrix(10, 6, 1);
        let x = rand_matrix(3, 10, 2);
        let cfg = ideal_cfg(8); // forces multi-tile partitioning
        let hw = exact_matmul(&w, &x, &cfg).unwrap();
        let sw = x.matmul(&w).unwrap();
        for (a, b) in hw.as_slice().iter().zip(sw.as_slice()) {
            assert!((a - b).abs() < 2e-3 * sw.abs_max().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn signed_inputs_are_handled_by_two_phases() {
        let w = rand_matrix(4, 4, 3);
        // All-negative inputs exercise the negative phase alone.
        let x = rand_matrix(2, 4, 4).map(|v| -v.abs() - 0.1);
        let cfg = ideal_cfg(4);
        let hw = exact_matmul(&w, &x, &cfg).unwrap();
        let sw = x.matmul(&w).unwrap();
        for (a, b) in hw.as_slice().iter().zip(sw.as_slice()) {
            assert!((a - b).abs() < 2e-3 * sw.abs_max().max(1.0));
        }
    }

    #[test]
    fn non_ideal_circuit_loses_magnitude() {
        let w = rand_matrix(16, 16, 5).map(|v| v.abs()); // positive weights
        let x = Tensor::ones(&[1, 16]);
        let mut cfg = MapConfig {
            params: CrossbarParams::with_size(16),
            ..Default::default()
        };
        cfg.params.sigma_variation = 0.0;
        let hw = exact_matmul(&w, &x, &cfg).unwrap();
        let sw = x.matmul(&w).unwrap();
        for (a, b) in hw.as_slice().iter().zip(sw.as_slice()) {
            assert!(*a < *b, "non-ideal output must be below ideal: {a} vs {b}");
            assert!(*a > 0.7 * b, "loss should be bounded: {a} vs {b}");
        }
    }

    #[test]
    fn folded_model_tracks_exact_inference() {
        // The pipeline's W'-folding should match exact per-input solves to
        // a few percent (model-level version of ablation A6).
        let w = rand_matrix(24, 8, 7);
        let x = rand_matrix(4, 24, 8).map(|v| v.max(0.0)); // ReLU-like inputs
        let mut cfg = MapConfig {
            params: CrossbarParams::with_size(16),
            ..Default::default()
        };
        cfg.params.sigma_variation = 0.0;
        let exact = exact_matmul(&w, &x, &cfg).unwrap();
        // Folded: map a single-linear model and multiply in software.
        use xbar_nn::layers::Linear;
        use xbar_nn::{Layer, Sequential};
        let mut lin = Linear::new(24, 8, 0);
        lin.weight_mut().value = w.transpose();
        lin.bias_mut().value = xbar_tensor::Tensor::zeros(&[8]);
        let model = Sequential::new(vec![Layer::Linear(lin)]);
        let (mut folded, _) = crate::pipeline::map_to_crossbars(&model, &cfg).unwrap();
        let approx = folded.forward(&x, xbar_nn::Mode::Eval).unwrap();
        let scale = exact.abs_max().max(1e-6);
        for (a, b) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!(
                (a - b).abs() < 0.08 * scale,
                "folded vs exact: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn shape_errors() {
        let w = rand_matrix(4, 4, 9);
        let x = rand_matrix(2, 5, 10);
        assert!(exact_matmul(&w, &x, &ideal_cfg(4)).is_err());
    }
}
