//! The workloads and the inputs each one generates from its seed.
//!
//! Every workload runs the whole pipeline in rounds: one warm mine cycle
//! from NADB bytes on disk to a NARS snapshot on disk, then a window of
//! closed-loop queries over loopback that opens with one hot swap. The
//! workloads differ in the data their mine cycles mine.

use negassoc_datagen::nested_logit::build_model;
use negassoc_datagen::taxgen::generate_taxonomy;
use negassoc_datagen::{generator::generate_transactions, presets, GenParams};
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::TransactionDb;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A dataset and the thresholds it is mined at.
#[derive(Clone, Copy, Debug)]
pub struct Mining {
    /// The paper's Table 4 dataset it draws from.
    pub preset: fn() -> GenParams,
    /// Transactions mined (the NADB file).
    pub transactions: usize,
    /// MinSup, as a fraction of the database.
    pub min_support: f64,
}

/// MinRI: "The minimum RI was set to 0.5 in all cases" (paper §3).
pub const MIN_RI: f64 = 0.5;

/// Minimum confidence of the positive rules in snapshot versions 1 and 2:
/// two exports of one mining outcome with different content.
pub const MIN_CONF: [f64; 2] = [0.6, 0.5];

impl Mining {
    /// The preset's own seed: it reproduces the paper's dataset exactly.
    pub fn default_seed(&self) -> u64 {
        (self.preset)().seed
    }
}

/// Fig. 6 / §3.2 row: 8,964 large itemsets, 11,231 negative candidates.
const TALL: Mining = Mining {
    preset: presets::tall,
    transactions: 50_000,
    min_support: 0.015,
};

/// Fig. 5 / Fig. 7 row: 2,690 large itemsets, 4,488 negative itemsets.
const SHORT: Mining = Mining {
    preset: presets::short,
    transactions: 50_000,
    min_support: 0.0075,
};

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What the warm mine cycles mine.
    pub mined: Mining,
    /// What is mined in set-up and served. Always the Short rules: some
    /// Tall baskets match answers larger than the wire protocol's 1 MiB
    /// frame, which the client refuses.
    pub served: Mining,
    /// Held-out transactions of the served stream that become the query
    /// baskets.
    pub baskets: usize,
}

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
/// Both serve the same Short snapshot with hot swaps beside the queries;
/// they differ in what the mine cycles mine.
pub const WORKLOADS: &[Workload] = &[
    // The only workload where candidate generation, rule export and
    // snapshot encoding are material.
    Workload {
        name: "mine-tall",
        mined: TALL,
        served: SHORT,
        baskets: 10_000,
    },
    // Support counting dominates and the rule set is small, so export,
    // encoding and candidate-generation changes should not move it.
    Workload {
        name: "mine-short",
        mined: SHORT,
        served: SHORT,
        baskets: 10_000,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The seed that reproduces the paper's mined dataset exactly.
    pub fn default_seed(&self) -> u64 {
        self.mined.default_seed()
    }

    /// The same workload shrunk for the self-test: a few thousand
    /// transactions at a support high enough to keep the candidate space
    /// small.
    pub fn tiny(self) -> Workload {
        let shrink = |m: Mining| Mining {
            transactions: 3_000,
            min_support: 0.05,
            ..m
        };
        Workload {
            mined: shrink(self.mined),
            served: shrink(self.served),
            baskets: 200,
            ..self
        }
    }
}

/// What a workload mines and queries.
pub struct Inputs {
    /// The preset's taxonomy.
    pub tax: Taxonomy,
    /// The mined prefix of the transaction stream.
    pub db: TransactionDb,
    /// `held_out` transactions past the prefix, as basket lines
    /// (comma-separated names).
    pub baskets: Vec<String>,
}

/// Generate a dataset's inputs. The taxonomy and the buying-pattern
/// model are always the preset's (its Table 4 dataset); `seed` draws the
/// transaction stream over them. The preset's own seed continues the
/// preset's generator, so it reproduces the paper's dataset byte for
/// byte; any other seed draws a fresh stream of the same shape.
pub fn generate(m: &Mining, seed: u64, held_out: usize) -> Inputs {
    let preset = (m.preset)();
    let mut rng = SmallRng::seed_from_u64(preset.seed);
    let tax = generate_taxonomy(&mut rng, &preset);
    let model = build_model(&mut rng, &tax, &preset);
    if seed != preset.seed {
        rng = SmallRng::seed_from_u64(seed);
    }
    let part = |n: usize| GenParams {
        num_transactions: n,
        ..preset
    };
    // One stream: the held-out tail continues where the prefix stops.
    let db = generate_transactions(&mut rng, &model, &part(m.transactions));
    let tail = generate_transactions(&mut rng, &model, &part(held_out));
    let baskets = tail
        .iter()
        .map(|t| {
            t.items()
                .iter()
                .map(|&i| tax.name(i))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    Inputs { tax, db, baskets }
}
