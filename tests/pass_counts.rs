//! Pins the paper's pass-count claims (§2.2): the naive driver makes two
//! passes per level (`2n` shape) while the improved driver makes one pass
//! per positive level plus a single negative-counting pass (`n + 1`), with
//! extra passes only under the §2.5 memory cap.

use negassoc::config::Driver;
use negassoc::obs::Obs;
use negassoc::{MinerConfig, NegativeMiner};
use negassoc_apriori::MinSupport;
use negassoc_taxonomy::{Taxonomy, TaxonomyBuilder};
use negassoc_txdb::{PassCounter, TransactionDb, TransactionDbBuilder};

/// Three categories of two brands each; one brand-triple dominates, so
/// large itemsets reach size 3 and negative candidates exist at sizes 2
/// and 3.
fn deep_scenario() -> (Taxonomy, TransactionDb) {
    let mut tb = TaxonomyBuilder::new();
    let mut brands = Vec::new();
    for cat in ["drinks", "snacks", "dips"] {
        let c = tb.add_root(cat);
        for brand in ["alpha", "beta"] {
            brands.push(tb.add_child(c, &format!("{cat}-{brand}")).unwrap());
        }
    }
    let tax = tb.build();
    let [da, db_, sa, sb, pa, pb]: [negassoc_taxonomy::ItemId; 6] = brands.try_into().unwrap();

    let mut db = TransactionDbBuilder::new();
    // The dominant triple: alpha everything.
    for _ in 0..40 {
        db.add([da, sa, pa]);
    }
    // Make the beta brands individually large, never with the alphas.
    for _ in 0..25 {
        db.add([db_, sb, pb]);
    }
    for _ in 0..15 {
        db.add([db_]);
    }
    for _ in 0..10 {
        db.add([sb]);
    }
    for _ in 0..10 {
        db.add([pb]);
    }
    (tax, db.build())
}

fn config(driver: Driver) -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(0.15),
        min_ri: 0.2,
        driver,
        ..MinerConfig::default()
    }
}

#[test]
fn improved_beats_naive_on_passes() {
    let (tax, db) = deep_scenario();
    let pc = PassCounter::new(db);

    let improved = NegativeMiner::new(config(Driver::Improved))
        .mine(&pc, &tax)
        .unwrap();
    let improved_passes = pc.passes();
    assert_eq!(improved.report.passes, improved_passes);

    pc.reset();
    let naive = NegativeMiner::new(config(Driver::Naive))
        .mine(&pc, &tax)
        .unwrap();
    let naive_passes = pc.passes();
    assert_eq!(naive.report.passes, naive_passes);

    // Positive mining reaches at least level 3 (the alpha triple and the
    // generalized triples are large), so there are >= 2 negative levels
    // and the naive driver must pay for each one.
    assert!(
        improved.report.levels >= 3,
        "levels {}",
        improved.report.levels
    );
    assert!(
        improved_passes < naive_passes,
        "improved {improved_passes} vs naive {naive_passes}"
    );
    // The exact shapes: improved = positive passes + 1.
    // Naive pays one extra pass per level >= 2 with candidates.
    assert_eq!(improved.negatives.len(), naive.negatives.len());
}

#[test]
fn improved_is_positive_passes_plus_one() {
    let (tax, db) = deep_scenario();
    // Measure pure positive mining passes with the same algorithm.
    let pc = PassCounter::new(db);
    negassoc_apriori::cumulate::cumulate(
        &pc,
        &tax,
        MinSupport::Fraction(0.15),
        Default::default(),
        Default::default(),
        None,
        &Obs::disabled(),
    )
    .unwrap();
    let positive_passes = pc.passes();

    pc.reset();
    let out = NegativeMiner::new(config(Driver::Improved))
        .mine(&pc, &tax)
        .unwrap();
    assert_eq!(pc.passes(), positive_passes + 1);
    assert!(!out.negatives.is_empty());
}

#[test]
fn memory_cap_adds_exactly_ceil_passes() {
    let (tax, db) = deep_scenario();
    let pc = PassCounter::new(db);
    let base = NegativeMiner::new(config(Driver::Improved))
        .mine(&pc, &tax)
        .unwrap();
    let base_passes = pc.passes();
    let total_candidates = base.report.candidates.unique as usize;
    assert!(total_candidates >= 2);

    // Cap at half the candidates: the single counting pass becomes two.
    pc.reset();
    let cap = total_candidates.div_ceil(2);
    let capped = NegativeMiner::new(MinerConfig {
        max_candidates_per_pass: Some(cap),
        ..config(Driver::Improved)
    })
    .mine(&pc, &tax)
    .unwrap();
    assert_eq!(pc.passes(), base_passes + 1);
    assert_eq!(capped.negatives.len(), base.negatives.len());
    assert_eq!(capped.rules.len(), base.rules.len());

    // Cap of one candidate per pass: counting passes equal the number of
    // candidates.
    pc.reset();
    let single = NegativeMiner::new(MinerConfig {
        max_candidates_per_pass: Some(1),
        ..config(Driver::Improved)
    })
    .mine(&pc, &tax)
    .unwrap();
    assert_eq!(pc.passes(), base_passes - 1 + total_candidates as u64);
    assert_eq!(single.negatives.len(), base.negatives.len());
}

#[test]
fn file_backed_source_counts_identically() {
    // The same mining run over a streamed file source must make the same
    // passes and find the same rules as the in-memory database.
    let (tax, db) = deep_scenario();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("negassoc-pass-{}.nadb", std::process::id()));
    negassoc_txdb::binfmt::save(&db, &path).unwrap();
    let file_source = negassoc_txdb::binfmt::FileSource::open(&path).unwrap();

    let mem = NegativeMiner::new(config(Driver::Improved))
        .mine(&db, &tax)
        .unwrap();
    let file = NegativeMiner::new(config(Driver::Improved))
        .mine(&file_source, &tax)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(mem.report.passes, file.report.passes);
    assert_eq!(mem.negatives.len(), file.negatives.len());
    assert_eq!(mem.rules.len(), file.rules.len());
}
