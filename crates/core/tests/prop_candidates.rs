//! Property test: the optimized candidate generator agrees with a direct
//! transliteration of the paper's §2.1.1 definition.
//!
//! The reference implementation below enumerates Cases 1–3 exactly as the
//! paper words them (one case at a time, no shared machinery with the
//! production code) and applies the admission checks in definition order.
//! Agreement on random inputs pins the candidate sets, the
//! max-expectation deduplication and every [`CandidateStats`] counter, for
//! both constructors (per-candidate largeness checks, and a compressed
//! taxonomy) with and without declared substitutes.

use negassoc::candidates::{CandidateGenerator, CandidateSet, CandidateStats};
use negassoc::expected::{approx_ge, candidate_threshold};
use negassoc::substitutes::SubstituteKnowledge;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::{FilteredTaxonomy, ItemId, Taxonomy, TaxonomyBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reference: all candidates derivable from every seed per the paper's
/// cases, with their expected supports (max over derivations), and the
/// counters the generator must report. `retained` is the generator's view
/// of the taxonomy: large items for [`CandidateGenerator::new`], the
/// filtered taxonomy's items for [`CandidateGenerator::with_compressed`].
fn reference_candidates(
    tax: &Taxonomy,
    large: &LargeItemsets,
    min_ri: f64,
    retained: &dyn Fn(ItemId) -> bool,
    subs: Option<&SubstituteKnowledge>,
) -> (FxHashMap<Itemset, f64>, CandidateStats) {
    let threshold = candidate_threshold(large.min_support_count(), min_ri);
    let mut out: FxHashMap<Itemset, f64> = FxHashMap::default();
    let mut stats = CandidateStats::default();
    let sup1 = |i: ItemId| large.support_of(&[i]);

    let mut seeds: Vec<(Itemset, u64)> = Vec::new();
    for k in 2..=large.max_level() {
        for (set, sup) in large.level(k) {
            seeds.push((set.clone(), sup));
        }
    }

    for (seed, seed_sup) in seeds {
        let items = seed.items();
        let k = items.len();
        if !items.iter().all(|&i| retained(i)) {
            continue;
        }
        stats.seeds += 1;
        // Enumerate every assignment: per position either keep the member,
        // replace with one of its (retained) children, or replace with one
        // of its (retained) siblings or declared substitutes — but never mix
        // children and siblings in one candidate, never replace nothing,
        // and never replace everything with siblings.
        #[derive(Clone, Copy, PartialEq)]
        enum Mode {
            Children,
            Siblings,
        }
        for mode in [Mode::Children, Mode::Siblings] {
            for mask in 1u32..(1 << k) {
                if mode == Mode::Siblings && mask == (1 << k) - 1 {
                    continue; // all-sibling candidates are excluded
                }
                // Option lists per masked position.
                let mut option_lists: Vec<Vec<ItemId>> = Vec::new();
                let mut feasible = true;
                for (pos, &member) in items.iter().enumerate() {
                    if mask & (1 << pos) == 0 {
                        continue;
                    }
                    let opts: Vec<ItemId> = match mode {
                        Mode::Children => tax
                            .children(member)
                            .iter()
                            .copied()
                            .filter(|&c| retained(c))
                            .collect(),
                        Mode::Siblings => {
                            let mut kin: BTreeSet<ItemId> = tax.siblings(member).collect();
                            if let Some(subs) = subs {
                                kin.extend(subs.substitutes_of(member));
                            }
                            kin.into_iter()
                                .filter(|&s| s != member && retained(s))
                                .collect()
                        }
                    };
                    if opts.is_empty() {
                        feasible = false;
                        break;
                    }
                    option_lists.push(opts);
                }
                if !feasible {
                    continue;
                }
                // Cartesian product, recursively.
                let positions: Vec<usize> = (0..k).filter(|p| mask & (1 << p) != 0).collect();
                let mut choice = vec![0usize; positions.len()];
                loop {
                    stats.generated += 1;
                    let mut cand_items = items.to_vec();
                    let mut expected = Some(seed_sup as f64);
                    for (slot, &pos) in positions.iter().enumerate() {
                        let repl = option_lists[slot][choice[slot]];
                        cand_items[pos] = repl;
                        expected = match (expected, sup1(repl), sup1(items[pos])) {
                            (Some(e), Some(new), Some(old)) => Some(e * (new as f64 / old as f64)),
                            _ => None,
                        };
                    }
                    let candidate = Itemset::from_unsorted(cand_items);
                    let distinct = candidate.len() == k;
                    let related = candidate.items().iter().enumerate().any(|(i, &a)| {
                        candidate.items()[i + 1..]
                            .iter()
                            .any(|&b| tax.related(a, b))
                    });
                    match expected {
                        None => stats.rejected_small_item += 1,
                        Some(_) if !distinct || related => stats.rejected_related += 1,
                        Some(e) if !approx_ge(e, threshold) => stats.rejected_low_expected += 1,
                        Some(_) if large.contains(&candidate) => stats.rejected_large += 1,
                        Some(e) => match out.get_mut(&candidate) {
                            Some(best) => {
                                stats.merged += 1;
                                *best = best.max(e);
                            }
                            None => {
                                out.insert(candidate, e);
                            }
                        },
                    }
                    // Next combination.
                    let mut slot = positions.len();
                    let done = loop {
                        if slot == 0 {
                            break true;
                        }
                        slot -= 1;
                        choice[slot] += 1;
                        if choice[slot] < option_lists[slot].len() {
                            break false;
                        }
                        choice[slot] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
        }
    }
    stats.unique = out.len() as u64;
    (out, stats)
}

/// Which generator a check drives.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// [`CandidateGenerator::new`]: largeness checked per item.
    Naive,
    /// [`CandidateGenerator::with_compressed`] over a taxonomy filtered to
    /// the large items plus `extra` (retained but small items exercise
    /// `rejected_small_item`).
    Compressed,
}

/// Run `path` over every level and compare candidates, expectations and
/// every counter with the reference.
fn check_against_reference(
    tax: &Taxonomy,
    large: &LargeItemsets,
    min_ri: f64,
    path: Path,
    extra: &[ItemId],
    subs: Option<&SubstituteKnowledge>,
) -> CandidateStats {
    let mut keep: FxHashSet<ItemId> = tax
        .items()
        .filter(|&i| large.support_of(&[i]).is_some())
        .collect();
    keep.extend(extra.iter().copied());
    let filtered = FilteredTaxonomy::new(tax, &keep);
    let is_large = |i: ItemId| large.support_of(&[i]).is_some();
    let is_kept = |i: ItemId| filtered.contains(i);
    let (retained, mut generator): (&dyn Fn(ItemId) -> bool, _) = match path {
        Path::Naive => (&is_large, CandidateGenerator::new(tax, large, min_ri)),
        Path::Compressed => (
            &is_kept,
            CandidateGenerator::with_compressed(&filtered, large, min_ri),
        ),
    };
    if let Some(subs) = subs {
        generator = generator.with_substitutes(subs);
    }
    let (reference, want) = reference_candidates(tax, large, min_ri, retained, subs);

    let mut set = CandidateSet::new();
    for k in 2..=large.max_level() {
        generator.extend_from_level(k, &mut set).unwrap();
    }
    let (got, stats) = set.into_candidates();

    prop_assert_eq!(&stats, &want, "{:?} counters differ", path);
    prop_assert_eq!(
        got.len(),
        reference.len(),
        "candidate sets differ in size: got {:?}, want {:?}",
        got.iter().map(|c| c.itemset.clone()).collect::<Vec<_>>(),
        reference.keys().collect::<Vec<_>>()
    );
    for c in &got {
        let want = reference.get(&c.itemset);
        prop_assert!(want.is_some(), "unexpected candidate {:?}", c.itemset);
        prop_assert!(
            (c.expected - want.unwrap()).abs() < 1e-9,
            "expectation mismatch for {:?}: got {}, want {}",
            c.itemset,
            c.expected,
            want.unwrap()
        );
    }
    stats
}

/// Random world: a 2–3 level taxonomy plus random large itemsets with
/// consistent supports (subset supports >= superset supports).
fn arb_world() -> impl Strategy<Value = (Taxonomy, LargeItemsets)> {
    (
        prop::collection::vec(2usize..4, 2..4), // children per root category
        any::<u64>(),
    )
        .prop_map(|(shape, seed)| {
            let mut b = TaxonomyBuilder::new();
            let mut leaves = Vec::new();
            for (ci, &n) in shape.iter().enumerate() {
                let cat = b.add_root(&format!("c{ci}"));
                for li in 0..n {
                    leaves.push(b.add_child(cat, &format!("l{ci}-{li}")).unwrap());
                }
            }
            let tax = b.build();

            // Deterministic pseudo-random supports from the seed.
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            let mut large = LargeItemsets::new(100_000, 100);
            // Singles: a random large subset of all items (categories get
            // higher supports than leaves for plausibility).
            let mut large_items: Vec<ItemId> = Vec::new();
            for id in tax.items() {
                if next() % 4 != 0 {
                    let base = if tax.is_leaf(id) { 200 } else { 2_000 };
                    large.insert(Itemset::singleton(id), base + next() % 1_000);
                    large_items.push(id);
                }
            }
            // Pairs: random unrelated large pairs.
            for (i, &a) in large_items.iter().enumerate() {
                for &b in &large_items[i + 1..] {
                    if tax.related(a, b) || next() % 3 != 0 {
                        continue;
                    }
                    large.insert(Itemset::from_unsorted(vec![a, b]), 120 + next() % 300);
                }
            }
            (tax, large)
        })
}

/// Substitute groups drawn from `pick`: a few disjoint groups of two or
/// three items, possibly spanning categories or levels.
fn substitutes_from(tax: &Taxonomy, pick: u64) -> SubstituteKnowledge {
    let items: Vec<ItemId> = tax.items().collect();
    let mut subs = SubstituteKnowledge::new();
    let mut state = pick | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..3 {
        let size = 2 + next() % 2;
        let group: Vec<ItemId> = (0..size).map(|_| items[next() % items.len()]).collect();
        subs.add_group(group);
    }
    subs
}

/// Every path and substitute combination over one world.
fn check_all_paths(
    tax: &Taxonomy,
    large: &LargeItemsets,
    min_ri: f64,
    extra: &[ItemId],
    subs: &SubstituteKnowledge,
) -> Vec<CandidateStats> {
    let mut all = Vec::new();
    for path in [Path::Naive, Path::Compressed] {
        for subs in [None, Some(subs)] {
            all.push(check_against_reference(
                tax, large, min_ri, path, extra, subs,
            ));
        }
    }
    all
}

/// Deterministic guard against vacuity: a world where candidates certainly
/// exist and every counter moves, checked through the same reference.
#[test]
fn reference_agrees_on_a_rich_world() {
    let mut b = TaxonomyBuilder::new();
    let c0 = b.add_root("c0");
    let a = b.add_child(c0, "a").unwrap();
    let a2 = b.add_child(c0, "a2").unwrap();
    let a3 = b.add_child(c0, "a3").unwrap();
    let a4 = b.add_child(c0, "a4").unwrap();
    let c1 = b.add_root("c1");
    let x = b.add_child(c1, "x").unwrap();
    let y = b.add_child(c1, "y").unwrap();
    let tax = b.build();

    let mut large = LargeItemsets::new(100_000, 100);
    for (i, s) in [
        (c0, 3000u64),
        (a, 1500),
        (a2, 1200),
        (a4, 110), // scales expectations below the threshold
        (c1, 2800),
        (x, 1400),
        (y, 1100),
    ] {
        large.insert(Itemset::singleton(i), s);
    }
    large.insert(Itemset::from_unsorted(vec![c0, c1]), 900);
    large.insert(Itemset::from_unsorted(vec![a, x]), 500);
    large.insert(Itemset::from_unsorted(vec![a2, x]), 100);
    // Replacing a by its sibling a2 collides with the other member.
    large.insert(Itemset::from_unsorted(vec![a, a2]), 200);
    large.insert(Itemset::from_unsorted(vec![c0, y]), 600);

    let reference = reference_candidates(
        &tax,
        &large,
        0.5,
        &|i| large.support_of(&[i]).is_some(),
        None,
    )
    .0;
    assert!(
        reference.len() >= 5,
        "expected a rich candidate set, got {:?}",
        reference.keys().collect::<Vec<_>>()
    );

    // a3 is small but retained by the compressed view; a and y are
    // declared substitutes across categories, so seed {c0, y} yields the
    // related pair {c0, a}.
    let mut subs = SubstituteKnowledge::new();
    assert!(subs.add_group([a, y]));
    let all = check_all_paths(&tax, &large, 0.5, &[a3], &subs);
    let total = |f: fn(&CandidateStats) -> u64| all.iter().map(f).sum::<u64>();
    assert!(total(|s| s.rejected_related) > 0);
    assert!(total(|s| s.rejected_small_item) > 0);
    assert!(total(|s| s.rejected_low_expected) > 0);
    assert!(total(|s| s.rejected_large) > 0);
    assert!(total(|s| s.merged) > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generator_matches_papers_definition(
        (tax, large) in arb_world(),
        extra_pick in any::<u64>(),
        subs_pick in any::<u64>(),
    ) {
        let extra: Vec<ItemId> = tax
            .items()
            .filter(|i| extra_pick >> (i.0 % 64) & 1 == 1)
            .collect();
        let subs = substitutes_from(&tax, subs_pick);
        check_all_paths(&tax, &large, 0.5, &extra, &subs);
    }
}
