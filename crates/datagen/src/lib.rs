//! Synthetic retail-transaction generation.
//!
//! The paper evaluates on synthetic data "generated such that it simulates
//! customer buying pattern in a retail market environment" (§3.1): a random
//! taxonomy with Poisson fan-out, a *nested-logit* model of consumer choice
//! (pick a cluster of categories, then an itemset of concrete brands under
//! it), exponential cluster/itemset weights, and per-itemset corruption.
//! This crate reimplements that generator from the published description:
//!
//! * [`dist`] — the Poisson / exponential / normal samplers the model needs
//!   (implemented here; `rand_distr` is not on the approved dependency
//!   list and these are small),
//! * [`params::GenParams`] — the Table 3 parameter set,
//! * [`taxgen`] — Poisson-fanout taxonomy generation,
//! * [`nested_logit`] — clusters, per-cluster itemsets, and weights,
//! * [`generator`] — transaction synthesis,
//! * [`presets`] — the paper's "Short" (fanout 9) and "Tall" (fanout 3)
//!   datasets (Table 4), plus scaled-down variants for tests.
//!
//! Generation is fully deterministic under [`params::GenParams::seed`].

pub mod dist;
pub mod generator;
pub mod nested_logit;
pub mod params;
pub mod presets;
pub mod sharding;
pub mod taxgen;

pub use generator::{generate, Dataset};
pub use params::GenParams;
