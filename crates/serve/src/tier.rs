//! Serving fidelity tiers.
//!
//! An `XBARMDL1` bundle carries the exact-solver-mapped `W'` (always
//! present) and, optionally, the pre-mapping software weights of the same
//! network. Serving picks between them per deployment (`--fidelity`,
//! [`crate::ServeConfig`]) and per request (the `"tier"` classify field) —
//! both cost the same to serve, so switching tiers is just switching
//! weight sets: the ideal tier is an A/B control for the non-ideal one.

use xbar_core::{ArtifactBundle, ArtifactMeta};
use xbar_nn::Sequential;

/// Which weight set a classify request runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The exact-solver-mapped `W'` model: every tile priced by a full
    /// circuit solve at mapping time. The fidelity reference.
    Exact,
    /// The pre-mapping software model — no non-ideality at all. The
    /// software-accuracy ceiling, useful as an A/B control.
    Ideal,
}

/// Every tier, in gauge-value order.
pub const ALL_TIERS: [Tier; 2] = [Tier::Exact, Tier::Ideal];

impl Tier {
    /// Stable low-cardinality label (`exact`, `ideal`) used in
    /// request JSON, responses, and metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Ideal => "ideal",
        }
    }

    /// Parses a request/CLI tier name.
    ///
    /// # Errors
    ///
    /// A descriptive message listing the valid tiers.
    pub fn parse(s: &str) -> Result<Tier, String> {
        match s {
            "exact" => Ok(Tier::Exact),
            "ideal" => Ok(Tier::Ideal),
            other => Err(format!(
                "unknown fidelity tier {other:?}; valid tiers are \
                 \"exact\", \"ideal\""
            )),
        }
    }

    /// Encoding for the `serve/fidelity_tier` gauge. `1` is retired, so the
    /// value of `ideal` keeps the meaning it has always had.
    pub fn gauge_value(self) -> f64 {
        match self {
            Tier::Exact => 0.0,
            Tier::Ideal => 2.0,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The weight sets a server instance can classify against, one
/// [`Sequential`] per available tier.
#[derive(Debug, Clone)]
pub struct TierModels {
    /// The `W'` model — every artifact has one.
    pub exact: Sequential,
    /// The pre-mapping software model, when the artifact embeds one.
    pub ideal: Option<Sequential>,
}

impl TierModels {
    /// A server that can only serve the exact tier (legacy artifacts).
    pub fn exact_only(model: Sequential) -> Self {
        TierModels {
            exact: model,
            ideal: None,
        }
    }

    /// Splits a loaded artifact bundle into the servable weight sets and
    /// the metadata.
    pub fn from_bundle(bundle: ArtifactBundle) -> (Self, ArtifactMeta) {
        (
            TierModels {
                exact: bundle.model,
                ideal: bundle.ideal_model,
            },
            bundle.meta,
        )
    }

    /// Whether `tier` can be served.
    pub fn has(&self, tier: Tier) -> bool {
        match tier {
            Tier::Exact => true,
            Tier::Ideal => self.ideal.is_some(),
        }
    }

    /// The servable tiers, in gauge-value order.
    pub fn available(&self) -> Vec<Tier> {
        ALL_TIERS.into_iter().filter(|&t| self.has(t)).collect()
    }

    /// Mutable access to a tier's model, `None` when the artifact does not
    /// carry that tier.
    pub fn model_mut(&mut self, tier: Tier) -> Option<&mut Sequential> {
        match tier {
            Tier::Exact => Some(&mut self.exact),
            Tier::Ideal => self.ideal.as_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_nn::layers::Linear;
    use xbar_nn::Layer;

    fn net(seed: u64) -> Sequential {
        Sequential::new(vec![Layer::Linear(Linear::new(4, 2, seed))])
    }

    #[test]
    fn parse_round_trips_and_rejects_unknown() {
        for tier in ALL_TIERS {
            assert_eq!(Tier::parse(tier.as_str()), Ok(tier));
        }
        let err = Tier::parse("EXACT").unwrap_err();
        assert!(err.contains("valid tiers"), "{err}");
        assert!(err.contains("\"EXACT\""), "{err}");
        assert_eq!(Tier::Ideal.gauge_value(), 2.0, "pinned gauge encoding");
    }

    #[test]
    fn availability_tracks_embedded_models() {
        let mut models = TierModels::exact_only(net(1));
        assert_eq!(models.available(), vec![Tier::Exact]);
        assert!(!models.has(Tier::Ideal));
        assert!(models.model_mut(Tier::Ideal).is_none());

        models.ideal = Some(net(2));
        assert_eq!(models.available(), ALL_TIERS.to_vec());
        assert!(models.model_mut(Tier::Ideal).is_some());
    }
}
