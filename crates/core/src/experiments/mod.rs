//! Experiment drivers: one entry point per table and figure of the paper's
//! evaluation, plus the §4.1 ground-truth validation.
//!
//! Every driver takes a [`Scale`] so the same code runs as a fast test
//! (`Scale::tiny()`), a CI-sized check (`Scale::small()`), or the full
//! reproduction (`Scale::paper()`) used by the `rdns-bench` harness. The
//! simulated populations are scaled-down but structurally faithful;
//! EXPERIMENTS.md records paper-vs-measured values.

pub mod ablation;
pub mod claims;
pub mod datasets;
pub mod harness;
pub mod population;
pub mod section4;
pub mod section5;
pub mod section6;
pub mod section7;

pub use ablation::{lease_ablation, release_ablation, Ablation};
pub use claims::{check_claims, leak_claims, lingering_claim, scale_claims, ClaimCheck, ClaimsReport};
pub use datasets::table1;
pub use harness::{collect_series, run_supplemental, SupplementalRun};
pub use population::{generate_population, PopulationConfig};
pub use section4::{fig1, validation};
pub use section5::{fig2, fig3, fig4, LeakStudy};
pub use section6::{fig6, fig7, table2, table3, table4, table5};
pub use section7::{fig10, fig11, fig8, fig9};

use serde::{Deserialize, Serialize};

/// Knobs controlling experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Master seed.
    pub seed: u64,
    /// Per-subnet population multiplier for the Table 4 networks.
    pub focus_scale: f64,
    /// Number of background organisations for the §4/§5 experiments.
    pub background_orgs: usize,
    /// Days of daily snapshots for the dynamicity window (paper: ~90).
    pub window_days: u32,
    /// Days of supplemental measurement (paper: 40).
    pub supplemental_days: u32,
    /// Minimum unique given names per suffix (paper: 50; scaled down with
    /// population).
    pub min_unique_names: usize,
    /// Step-1 floor of the dynamicity heuristic (paper: 10 addresses;
    /// scaled down with population).
    pub min_daily_addrs: u32,
}

impl Scale {
    /// Sub-second scale for unit tests.
    ///
    /// The seed is calibrated so the scaled-down world still exhibits the
    /// qualitative structures the §5/§7 tests assert (diurnal quiet zone,
    /// academic-heavy leak breakdown); at this scale those signals are
    /// seed-sensitive.
    pub fn tiny() -> Scale {
        Scale {
            seed: 5,
            focus_scale: 0.08,
            background_orgs: 6,
            window_days: 21,
            supplemental_days: 2,
            min_unique_names: 3,
            min_daily_addrs: 2,
        }
    }

    /// A few seconds; used by integration tests.
    pub fn small() -> Scale {
        Scale {
            seed: 5,
            focus_scale: 0.15,
            background_orgs: 20,
            window_days: 35,
            supplemental_days: 5,
            min_unique_names: 6,
            min_daily_addrs: 5,
        }
    }

    /// The full reproduction run of the bench harness.
    pub fn paper() -> Scale {
        Scale {
            seed: 4,
            focus_scale: 0.5,
            background_orgs: 120,
            window_days: 90,
            supplemental_days: 14,
            min_unique_names: 10,
            min_daily_addrs: 10,
        }
    }
}
