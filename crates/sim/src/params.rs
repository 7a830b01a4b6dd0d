//! Crossbar device and circuit parameters.

use crate::drift::DriftModel;
use crate::faults::FaultModel;
use crate::program::ProgramConfig;

/// A descriptive error for a physically inconsistent [`CrossbarParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidParams(pub String);

impl std::fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid crossbar parameters: {}", self.0)
    }
}

impl std::error::Error for InvalidParams {}

/// Device and circuit parameters of a crossbar tile.
///
/// Defaults follow the device-agnostic setup of the paper's framework: a
/// 10× ON/OFF ratio ReRAM-like synapse (`Rmin = 100 kΩ`, `Rmax = 1 MΩ`,
/// the range used by RxNN-family evaluations), per-segment wire resistances
/// of 25 Ω (rows) and 10 Ω (columns), a 300 Ω driver, a 150 Ω sense path
/// and 10 % Gaussian programming variation. These values were calibrated
/// (see "Calibration" in `DESIGN.md`) so that the
/// mean non-ideality factor lands near 0.017 at 16×16 and 0.12 at 64×64 —
/// the regime in which the paper's accuracy-vs-crossbar-size trends
/// reproduce: the unpruned width-scaled VGG11 loses ~26 pp at 64×64
/// (paper: ~21 %) and the C/F-pruned one ~31 pp (paper: ~39 %), with the
/// pruned model worse at every crossbar size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarParams {
    /// Crossbar rows (word lines).
    pub rows: usize,
    /// Crossbar columns (bit lines).
    pub cols: usize,
    /// Minimum synapse resistance (ON state), Ω.
    pub r_min: f64,
    /// Maximum synapse resistance (OFF state), Ω.
    pub r_max: f64,
    /// Input driver resistance, Ω.
    pub r_driver: f64,
    /// Row wire resistance per crosspoint segment, Ω.
    pub r_wire_row: f64,
    /// Column wire resistance per crosspoint segment, Ω.
    pub r_wire_col: f64,
    /// Column sense resistance, Ω.
    pub r_sense: f64,
    /// Relative standard deviation of Gaussian conductance variation.
    pub sigma_variation: f64,
    /// Read voltage applied to every row during effective-conductance
    /// extraction, V.
    pub v_read: f64,
    /// Number of discrete programmable conductance levels between `Gmin`
    /// and `Gmax`; `0` models ideal analog programming (the paper's
    /// framework).
    pub levels: u32,
    /// Stuck-at device fault rates (defaults to fault-free).
    pub faults: FaultModel,
    /// Closed-loop program-and-verify write settings (defaults to open-loop
    /// programming: zero retries).
    pub program: ProgramConfig,
    /// Retention drift toward `G_off` over serving time (defaults to
    /// disabled: programmed conductances hold forever).
    pub drift: DriftModel,
}

impl Default for CrossbarParams {
    fn default() -> Self {
        Self {
            rows: 32,
            cols: 32,
            r_min: 100e3,
            r_max: 1e6,
            r_driver: 300.0,
            r_wire_row: 25.0,
            r_wire_col: 10.0,
            r_sense: 150.0,
            sigma_variation: 0.10,
            v_read: 0.25,
            levels: 0,
            faults: FaultModel::none(),
            program: ProgramConfig::default(),
            drift: DriftModel::disabled(),
        }
    }
}

impl CrossbarParams {
    /// Default parameters for a square `n × n` crossbar.
    pub fn with_size(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            ..Self::default()
        }
    }

    /// Maximum synapse conductance `Gmax = 1/Rmin`, S.
    pub fn g_max(&self) -> f64 {
        1.0 / self.r_min
    }

    /// Minimum synapse conductance `Gmin = 1/Rmax`, S.
    pub fn g_min(&self) -> f64 {
        1.0 / self.r_max
    }

    /// Device ON/OFF ratio `Rmax/Rmin`.
    pub fn on_off_ratio(&self) -> f64 {
        self.r_max / self.r_min
    }

    /// Disables all parasitics and variation — the ideal crossbar, useful
    /// for validating that the solver reduces to the analytic dot product.
    pub fn ideal(mut self) -> Self {
        self.r_driver = 0.0;
        self.r_wire_row = 0.0;
        self.r_wire_col = 0.0;
        self.r_sense = 0.0;
        self.sigma_variation = 0.0;
        self
    }

    /// Validates physical consistency.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`InvalidParams`] if any resistance is
    /// negative, `r_min >= r_max`, dimensions are zero, `v_read` is
    /// non-positive, or the fault / program-and-verify sub-configs are
    /// invalid.
    pub fn validate(&self) -> std::result::Result<(), InvalidParams> {
        if self.rows == 0 || self.cols == 0 {
            return Err(InvalidParams(format!(
                "crossbar must be non-empty, got {}x{}",
                self.rows, self.cols
            )));
        }
        if !(self.r_min > 0.0 && self.r_max > 0.0) {
            return Err(InvalidParams(format!(
                "synapse resistances must be positive, got r_min = {}, r_max = {}",
                self.r_min, self.r_max
            )));
        }
        if self.r_min >= self.r_max {
            return Err(InvalidParams(format!(
                "r_min must be below r_max, got r_min = {} >= r_max = {}",
                self.r_min, self.r_max
            )));
        }
        if self.r_driver < 0.0
            || self.r_wire_row < 0.0
            || self.r_wire_col < 0.0
            || self.r_sense < 0.0
        {
            return Err(InvalidParams(format!(
                "parasitic resistances must be non-negative, got driver = {}, \
                 wire_row = {}, wire_col = {}, sense = {}",
                self.r_driver, self.r_wire_row, self.r_wire_col, self.r_sense
            )));
        }
        if self.sigma_variation < 0.0 {
            return Err(InvalidParams(format!(
                "variation must be non-negative, got {}",
                self.sigma_variation
            )));
        }
        if self.v_read <= 0.0 {
            return Err(InvalidParams(format!(
                "read voltage must be positive, got {}",
                self.v_read
            )));
        }
        self.faults
            .validate()
            .map_err(|e| InvalidParams(e.to_string()))?;
        self.program.validate().map_err(InvalidParams)?;
        self.drift.validate().map_err(InvalidParams)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let p = CrossbarParams::default();
        p.validate().expect("defaults are valid");
        assert_eq!(p.on_off_ratio(), 10.0);
        assert!((p.g_max() - 1e-5).abs() < 1e-12);
        assert!((p.g_min() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn with_size_sets_both_dims() {
        let p = CrossbarParams::with_size(64);
        assert_eq!((p.rows, p.cols), (64, 64));
    }

    #[test]
    fn ideal_zeroes_parasitics() {
        let p = CrossbarParams::with_size(8).ideal();
        assert_eq!(p.r_driver, 0.0);
        assert_eq!(p.r_wire_row, 0.0);
        assert_eq!(p.sigma_variation, 0.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn inverted_resistances_are_rejected() {
        let mut p = CrossbarParams::default();
        p.r_min = p.r_max + 1.0;
        let err = p.validate().unwrap_err();
        assert!(
            err.to_string().contains("r_min must be below r_max"),
            "{err}"
        );
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn zero_rows_are_rejected() {
        let mut p = CrossbarParams::default();
        p.rows = 0;
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn invalid_fault_rates_are_rejected_through_params() {
        let mut p = CrossbarParams::default();
        p.faults.stuck_at_gmin = 1.5;
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("fault rates"), "{err}");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn invalid_drift_model_is_rejected_through_params() {
        let mut p = CrossbarParams::default();
        p.drift = DriftModel::new(100.0, 1.0);
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("tau_fast"), "{err}");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn invalid_program_config_is_rejected_through_params() {
        let mut p = CrossbarParams::default();
        p.program.sigma_backoff = 0.0;
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("backoff"), "{err}");
    }
}
