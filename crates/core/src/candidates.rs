//! Candidate negative itemsets (paper §2.1.1).
//!
//! Candidates of size `k` are derived from each generalized large k-itemset
//! `l` by substituting members:
//!
//! * **Case 1** — every member replaced by one of its immediate children,
//! * **Case 2** — a proper nonempty subset of members replaced by children,
//! * **Case 3** — a proper nonempty subset replaced by siblings.
//!
//! Both substitution kinds scale the expectation by
//! `sup(new)/sup(replaced)` per position (see [`crate::expected`]), so the
//! implementation iterates over nonempty position masks and, per mask, over
//! the cartesian products of child options and (for proper masks) sibling
//! options. The excluded shapes (§2.1.1: all-siblings, ancestors, mixed
//! children+siblings) never arise by construction.
//!
//! A candidate is admitted only when (checked in this order):
//!
//! 1. its items are distinct and contain no ancestor/descendant pair,
//! 2. every 1-item is large (pre-guaranteed when generating against a
//!    compressed taxonomy; checked explicitly otherwise),
//! 3. its expected support reaches `MinSup · MinRI`,
//! 4. it is not itself a large itemset (then it is positively, not
//!    negatively, interesting — see the paper's worked example).
//!
//! The same candidate can arise from different large itemsets with
//! different expectations; the **largest** expected support wins (§2.1.1),
//! and a tie keeps the first-seen derivation (seeds are visited in sorted
//! order).
//!
//! # Cost
//!
//! Generation runs once per mine over every product, so its inner loop
//! allocates nothing. Each seed's members have their child and sibling
//! options resolved once, supports attached, into a scratch buffer shared
//! by all of the seed's masks. A product is assembled and sorted in
//! scratch, and every check probes that sorted slice: the large-itemset
//! store and the candidate map are keyed by [`Itemset`], which borrows as
//! `[ItemId]`. An `Itemset` and a cloned seed [`Derivation`] are built
//! only when a candidate is inserted or replaces a smaller expectation.

use crate::error::NegAssocError;
use crate::expected::{candidate_threshold, expected_support, Ratio};
use crate::substitutes::SubstituteKnowledge;
use negassoc_apriori::{Itemset, LargeItemsets};
use negassoc_taxonomy::fxhash::FxHashMap;
use negassoc_taxonomy::{FilteredTaxonomy, ItemId, Taxonomy};
use std::ops::Range;

/// Which of the paper's generation cases produced a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DerivationCase {
    /// Case 1: every member of the seed replaced by a child.
    AllChildren,
    /// Case 2: a proper subset of members replaced by children.
    SomeChildren,
    /// Case 3: a proper subset of members replaced by siblings (or
    /// declared substitutes).
    Siblings,
}

/// Where a candidate's (winning) expected support came from: the large
/// itemset it was derived from and the substitution case used.
#[derive(Clone, Debug, PartialEq)]
pub struct Derivation {
    /// The large itemset that seeded the candidate.
    pub seed: Itemset,
    /// The seed's support.
    pub seed_support: u64,
    /// The substitution case.
    pub case: DerivationCase,
}

/// A candidate negative itemset with its (max) expected support.
#[derive(Clone, Debug, PartialEq)]
pub struct NegativeCandidate {
    /// The itemset.
    pub itemset: Itemset,
    /// Taxonomy-derived expected support (absolute transactions).
    pub expected: f64,
    /// Provenance of the winning expectation (for auditability).
    pub derivation: Derivation,
}

/// A confirmed negative itemset: counted support fell short of the
/// expectation by at least `MinSup · MinRI`.
#[derive(Clone, Debug, PartialEq)]
pub struct NegativeItemset {
    /// The itemset.
    pub itemset: Itemset,
    /// Expected support.
    pub expected: f64,
    /// Actual counted support.
    pub actual: u64,
    /// Provenance of the expectation, when tracked (itemsets built by the
    /// miners always carry it; hand-built ones may not).
    pub derivation: Option<Derivation>,
}

/// Counters describing one candidate-generation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Large itemsets that seeded generation.
    pub seeds: u64,
    /// Raw substitution combinations produced.
    pub generated: u64,
    /// Rejected: duplicate members or ancestor/descendant pair.
    pub rejected_related: u64,
    /// Rejected: some 1-item not large (only possible without taxonomy
    /// compression).
    pub rejected_small_item: u64,
    /// Rejected: expected support below `MinSup · MinRI`.
    pub rejected_low_expected: u64,
    /// Rejected: the candidate is itself a large itemset.
    pub rejected_large: u64,
    /// Duplicates merged into an existing candidate (max expectation kept).
    pub merged: u64,
    /// Final number of distinct candidates.
    pub unique: u64,
}

/// Accumulates candidates across levels with max-expectation deduplication.
pub struct CandidateSet {
    map: FxHashMap<Itemset, (f64, Derivation)>,
    stats: CandidateStats,
}

impl CandidateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            stats: CandidateStats::default(),
        }
    }

    /// Number of distinct candidates so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no candidates have been admitted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Generation counters.
    pub fn stats(&self) -> &CandidateStats {
        &self.stats
    }

    /// Finish: the candidates, in unspecified order.
    pub fn into_candidates(mut self) -> (Vec<NegativeCandidate>, CandidateStats) {
        self.stats.unique = self.map.len() as u64;
        let v = self
            .map
            .into_iter()
            .map(|(itemset, (expected, derivation))| NegativeCandidate {
                itemset,
                expected,
                derivation,
            })
            .collect();
        (v, self.stats)
    }
}

impl Default for CandidateSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Generates negative candidates from large itemsets and a taxonomy.
pub struct CandidateGenerator<'a> {
    tax: &'a Taxonomy,
    /// When present, children/sibling options come pre-filtered to large
    /// items (the improved algorithm compresses the taxonomy, §2.2.2).
    filtered: Option<&'a FilteredTaxonomy<'a>>,
    large: &'a LargeItemsets,
    threshold: f64,
    substitutes: Option<&'a SubstituteKnowledge>,
}

impl<'a> CandidateGenerator<'a> {
    /// A generator that checks 1-item largeness per candidate (the naive
    /// algorithm's behaviour).
    pub fn new(tax: &'a Taxonomy, large: &'a LargeItemsets, min_ri: f64) -> Self {
        Self {
            tax,
            filtered: None,
            large,
            threshold: candidate_threshold(large.min_support_count(), min_ri),
            substitutes: None,
        }
    }

    /// A generator over a compressed taxonomy (every retained item is
    /// large), skipping the per-candidate 1-item check.
    pub fn with_compressed(
        filtered: &'a FilteredTaxonomy<'a>,
        large: &'a LargeItemsets,
        min_ri: f64,
    ) -> Self {
        Self {
            tax: filtered.base(),
            filtered: Some(filtered),
            large,
            threshold: candidate_threshold(large.min_support_count(), min_ri),
            substitutes: None,
        }
    }

    /// Attach explicit substitute-item knowledge (§4.1 extension): members
    /// of a substitute group act as additional "siblings" in Case 3.
    pub fn with_substitutes(mut self, subs: &'a SubstituteKnowledge) -> Self {
        self.substitutes = Some(subs);
        self
    }

    /// `true` when some pair of `items` is in ancestor/descendant relation.
    /// [`Taxonomy::related`] rejects a pair of equal depth, such as two
    /// siblings, from its depth array without walking any ancestors.
    fn has_related_pair(&self, items: &[ItemId]) -> bool {
        items
            .iter()
            .enumerate()
            .any(|(i, &a)| items[i + 1..].iter().any(|&b| self.tax.related(a, b)))
    }

    fn support_1(&self, item: ItemId) -> Option<u64> {
        self.large.support_of(&[item])
    }

    fn is_retained(&self, item: ItemId) -> bool {
        match self.filtered {
            Some(f) => f.contains(item),
            None => self.support_1(item).is_some(),
        }
    }

    /// Large children of `item`.
    fn child_options(&self, item: ItemId, out: &mut Vec<ItemId>) {
        out.clear();
        match self.filtered {
            Some(f) => out.extend_from_slice(f.children(item)),
            None => out.extend(
                self.tax
                    .children(item)
                    .iter()
                    .copied()
                    .filter(|&c| self.is_retained(c)),
            ),
        }
    }

    /// Large siblings of `item`, plus substitute-group members when
    /// configured.
    fn sibling_options(&self, item: ItemId, out: &mut Vec<ItemId>) {
        out.clear();
        match self.filtered {
            Some(f) => out.extend(f.siblings(item)),
            None => out.extend(self.tax.siblings(item).filter(|&s| self.is_retained(s))),
        }
        if let Some(subs) = self.substitutes {
            for s in subs.substitutes_of(item) {
                if s != item && self.is_retained(s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
    }

    /// Generate all candidates seeded by the large k-itemsets into `set`.
    pub fn extend_from_level(&self, k: usize, set: &mut CandidateSet) -> Result<(), NegAssocError> {
        debug_assert!(k >= 2);
        let mut seeds: Vec<(&Itemset, u64)> = self.large.level(k).collect();
        // Deterministic order keeps stats and iteration reproducible.
        seeds.sort_by(|a, b| a.0.cmp(b.0));
        let mut scratch = Scratch::default();
        for (itemset, support) in seeds {
            // A seed whose members are not all retained can still be large;
            // its members ARE large by downward closure, so retention can
            // only fail for out-of-taxonomy items. Skip those seeds.
            if !itemset.items().iter().all(|&i| self.is_retained(i)) {
                continue;
            }
            set.stats.seeds += 1;
            self.extend_seed(itemset, support, &mut scratch, set)?;
        }
        Ok(())
    }

    /// Generate all candidates seeded by one large itemset.
    pub fn extend_from_itemset(
        &self,
        itemset: &Itemset,
        support: u64,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        self.extend_seed(itemset, support, &mut Scratch::default(), set)
    }

    fn extend_seed(
        &self,
        itemset: &Itemset,
        support: u64,
        scratch: &mut Scratch,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        let k = itemset.len();
        debug_assert!(k >= 2, "negative candidates need seeds of size >= 2");
        self.resolve_options(itemset, scratch);
        let full_mask: u32 = (1 << k) - 1;
        for mask in 1..=full_mask {
            // Children substitutions: any nonempty mask (cases 1 & 2).
            let case = if mask == full_mask {
                DerivationCase::AllChildren
            } else {
                DerivationCase::SomeChildren
            };
            self.emit_products(itemset, support, mask, case, scratch, set)?;
            // Sibling substitutions: proper nonempty masks only (case 3).
            if mask != full_mask {
                self.emit_products(
                    itemset,
                    support,
                    mask,
                    DerivationCase::Siblings,
                    scratch,
                    set,
                )?;
            }
        }
        Ok(())
    }

    /// Resolve every seed member's child and sibling options, with their
    /// supports, once for all of the seed's masks.
    fn resolve_options(&self, seed: &Itemset, scratch: &mut Scratch) {
        let Scratch {
            options,
            children,
            siblings,
            member_support,
            found,
            ..
        } = scratch;
        options.clear();
        children.clear();
        siblings.clear();
        member_support.clear();
        let mut push = |found: &[ItemId]| {
            let start = options.len();
            options.extend(found.iter().map(|&i| (i, self.support_1(i))));
            start..options.len()
        };
        for &member in seed.items() {
            member_support.push(self.support_1(member));
            self.child_options(member, found);
            children.push(push(found));
            self.sibling_options(member, found);
            siblings.push(push(found));
        }
    }

    /// Emit every combination of the masked positions' options for `case`
    /// (children for cases 1–2, siblings for case 3). Nothing here
    /// allocates once the scratch buffers have grown.
    fn emit_products(
        &self,
        seed: &Itemset,
        support: u64,
        mask: u32,
        case: DerivationCase,
        scratch: &mut Scratch,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        let Scratch {
            options,
            children,
            siblings,
            member_support,
            slots,
            choice,
            items,
            sorted,
            ratios,
            ..
        } = scratch;
        let per_position = match case {
            DerivationCase::Siblings => siblings,
            DerivationCase::AllChildren | DerivationCase::SomeChildren => children,
        };
        slots.clear();
        for (pos, range) in per_position.iter().enumerate() {
            if mask & (1 << pos) == 0 {
                continue;
            }
            if range.is_empty() {
                return Ok(()); // a masked position without options: no product
            }
            slots.push((pos, range.clone()));
        }
        choice.clear();
        choice.resize(slots.len(), 0);
        loop {
            // Assemble the candidate for the current choice vector.
            items.clear();
            items.extend_from_slice(seed.items());
            ratios.clear();
            let mut valid = true;
            for ((pos, range), &c) in slots.iter().zip(choice.iter()) {
                let (replacement, new_support) = options[range.start + c];
                items[*pos] = replacement;
                // Supports of the replacement and the replaced member; both
                // are large items, so they are known.
                match (new_support, member_support[*pos]) {
                    (Some(new_support), Some(base_support)) => ratios.push(Ratio {
                        new_support,
                        base_support,
                    }),
                    _ => {
                        valid = false;
                        break;
                    }
                }
            }
            set.stats.generated += 1;
            if !valid {
                set.stats.rejected_small_item += 1;
            } else {
                self.admit(items, sorted, seed, support, ratios, case, set)?;
            }
            // Advance the mixed-radix choice counter.
            let mut slot = slots.len();
            loop {
                if slot == 0 {
                    return Ok(());
                }
                slot -= 1;
                choice[slot] += 1;
                if choice[slot] < slots[slot].1.len() {
                    break;
                }
                choice[slot] = 0;
            }
        }
    }

    /// Validate one assembled candidate and insert it (max expectation).
    /// The candidate is sorted into `sorted` and every lookup probes that
    /// slice; an `Itemset` and a `Derivation` are built only when the
    /// candidate is inserted or replaces a smaller expectation.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        items: &[ItemId],
        sorted: &mut Vec<ItemId>,
        seed: &Itemset,
        support: u64,
        ratios: &[Ratio],
        case: DerivationCase,
        set: &mut CandidateSet,
    ) -> Result<(), NegAssocError> {
        sorted.clear();
        sorted.extend_from_slice(items);
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) || self.has_related_pair(sorted) {
            set.stats.rejected_related += 1;
            return Ok(());
        }
        // Ratio bases are supports of large items (positive), so this only
        // errors on a genuine upstream bug — surfaced, not unwrapped.
        let expected = expected_support(support, ratios)?;
        if !crate::expected::approx_ge(expected, self.threshold) {
            set.stats.rejected_low_expected += 1;
            return Ok(());
        }
        if self.large.support_of(sorted).is_some() {
            set.stats.rejected_large += 1;
            return Ok(());
        }
        let derivation = || Derivation {
            seed: seed.clone(),
            seed_support: support,
            case,
        };
        // A tie keeps the first-seen derivation (strict `>`; seeds are
        // visited in sorted order).
        if let Some(entry) = set.map.get_mut(sorted.as_slice()) {
            set.stats.merged += 1;
            if expected > entry.0 {
                *entry = (expected, derivation());
            }
        } else {
            set.map.insert(
                Itemset::from_sorted(sorted.as_slice()),
                (expected, derivation()),
            );
        }
        Ok(())
    }
}

/// Buffers reused across the seeds of one generation run: the current
/// seed's resolved options and the product being assembled.
#[derive(Default)]
struct Scratch {
    /// Every option of the current seed as `(item, support)`. The support
    /// is `None` only for a retained item that is not large, which
    /// [`CandidateStats::rejected_small_item`] counts.
    options: Vec<(ItemId, Option<u64>)>,
    /// Per seed position: its child options, a range of `options`.
    children: Vec<Range<usize>>,
    /// Per seed position: its sibling (and substitute) options.
    siblings: Vec<Range<usize>>,
    /// Per seed position: the member's own support.
    member_support: Vec<Option<u64>>,
    /// Option lists of one mask and case: `(position, range of options)`.
    slots: Vec<(usize, Range<usize>)>,
    /// The mixed-radix choice counter over `slots`.
    choice: Vec<usize>,
    /// The candidate in seed order.
    items: Vec<ItemId>,
    /// The candidate sorted; the key every lookup probes.
    sorted: Vec<ItemId>,
    /// One ratio per slot, in slot order.
    ratios: Vec<Ratio>,
    /// Options of one member before their supports are attached.
    found: Vec<ItemId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc_taxonomy::TaxonomyBuilder;

    /// The paper's Figure 1 taxonomy:
    /// A -> {B, C}, C -> {D, E}; F -> {G, H, I}, G -> {J, K}.
    fn fig1() -> (Taxonomy, FxHashMap<&'static str, ItemId>) {
        let mut b = TaxonomyBuilder::new();
        let a = b.add_root("A");
        let bb = b.add_child(a, "B").unwrap();
        let c = b.add_child(a, "C").unwrap();
        let d = b.add_child(c, "D").unwrap();
        let e = b.add_child(c, "E").unwrap();
        let f = b.add_root("F");
        let g = b.add_child(f, "G").unwrap();
        let h = b.add_child(f, "H").unwrap();
        let i = b.add_child(f, "I").unwrap();
        let j = b.add_child(g, "J").unwrap();
        let kk = b.add_child(g, "K").unwrap();
        let tax = b.build();
        let names: FxHashMap<&'static str, ItemId> = [
            ("A", a),
            ("B", bb),
            ("C", c),
            ("D", d),
            ("E", e),
            ("F", f),
            ("G", g),
            ("H", h),
            ("I", i),
            ("J", j),
            ("K", kk),
        ]
        .into_iter()
        .collect();
        (tax, names)
    }

    /// Large itemsets for the Figure 1 discussion: {C, G} is large, every
    /// single item is large with round supports.
    fn fig1_large(names: &FxHashMap<&'static str, ItemId>) -> LargeItemsets {
        let mut l = LargeItemsets::new(10_000, 100);
        for (name, sup) in [
            ("A", 4000u64),
            ("B", 1500),
            ("C", 2500),
            ("D", 1200),
            ("E", 1300),
            ("F", 5000),
            ("G", 2000),
            ("H", 1600),
            ("I", 1400),
            ("J", 900),
            ("K", 1100),
        ] {
            l.insert(Itemset::singleton(names[name]), sup);
        }
        l.insert(Itemset::from_unsorted(vec![names["C"], names["G"]]), 800);
        l
    }

    fn candidates_of(
        tax: &Taxonomy,
        large: &LargeItemsets,
        min_ri: f64,
    ) -> (Vec<NegativeCandidate>, CandidateStats) {
        let gene = CandidateGenerator::new(tax, large, min_ri);
        let mut set = CandidateSet::new();
        gene.extend_from_level(2, &mut set).unwrap();
        set.into_candidates()
    }

    fn names_of(tax: &Taxonomy, c: &NegativeCandidate) -> Vec<String> {
        let mut v: Vec<String> = c
            .itemset
            .items()
            .iter()
            .map(|&i| tax.name(i).to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn fig1_cases_all_present() {
        let (tax, names) = fig1();
        let large = fig1_large(&names);
        // Tiny threshold admits every structurally valid candidate.
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        let sets: Vec<Vec<String>> = cands.iter().map(|c| names_of(&tax, c)).collect();
        let has = |a: &str, b: &str| {
            let mut want = vec![a.to_string(), b.to_string()];
            want.sort();
            sets.contains(&want)
        };
        // Case 1 (children of both C and G): {D,J},{D,K},{E,J},{E,K}.
        assert!(has("D", "J") && has("D", "K") && has("E", "J") && has("E", "K"));
        // Case 2 (one side's children): {C,J},{C,K},{G,D},{G,E}.
        assert!(has("C", "J") && has("C", "K") && has("G", "D") && has("G", "E"));
        // Case 3 (siblings): {C,H},{C,I},{B,G}.
        assert!(has("C", "H") && has("C", "I") && has("B", "G"));
        // Excluded shapes: all-sibling {B,H}, ancestor {A,G}, child+sibling
        // mixes like {D,H}.
        assert!(!has("B", "H"));
        assert!(!has("A", "G"));
        assert!(!has("D", "H"));
        // Exactly the 11 candidates above.
        assert_eq!(cands.len(), 11);
        assert_eq!(stats.seeds, 1);
        assert_eq!(stats.unique, 11);
        assert_eq!(stats.rejected_small_item, 0);
    }

    #[test]
    fn fig1_expected_support_formulas() {
        let (tax, names) = fig1();
        let large = fig1_large(&names);
        let (cands, _) = candidates_of(&tax, &large, 1e-9);
        let expected_of = |a: &str, b: &str| {
            cands
                .iter()
                .find(|c| {
                    let mut want = vec![a.to_string(), b.to_string()];
                    want.sort();
                    names_of(&tax, c) == want
                })
                .map(|c| c.expected)
                .unwrap()
        };
        // Case 1: E[DJ] = sup(CG)·sup(D)/sup(C)·sup(J)/sup(G)
        //              = 800·(1200/2500)·(900/2000) = 172.8.
        assert!((expected_of("D", "J") - 172.8).abs() < 1e-9);
        // Case 2: E[CJ] = sup(CG)·sup(J)/sup(G) = 800·0.45 = 360.
        assert!((expected_of("C", "J") - 360.0).abs() < 1e-9);
        // Case 3: E[CH] = sup(CG)·sup(H)/sup(G) = 800·0.8 = 640.
        assert!((expected_of("C", "H") - 640.0).abs() < 1e-9);
        // Case 3 other side: E[BG] = 800·sup(B)/sup(C) = 800·0.6 = 480.
        assert!((expected_of("B", "G") - 480.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_prunes_low_expectation_candidates() {
        let (tax, names) = fig1();
        let large = fig1_large(&names);
        // minsup 100 · min_ri 4.0 -> threshold 400: keeps only E >= 400.
        let (cands, stats) = candidates_of(&tax, &large, 4.0);
        for c in &cands {
            assert!(c.expected >= 400.0);
        }
        assert!(stats.rejected_low_expected > 0);
        assert!(cands.len() < 11);
    }

    #[test]
    fn large_candidates_are_rejected() {
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        // Make {C, H} itself large: it must disappear from the candidates.
        large.insert(Itemset::from_unsorted(vec![names["C"], names["H"]]), 700);
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        let sets: Vec<Vec<String>> = cands.iter().map(|c| names_of(&tax, c)).collect();
        let mut ch = vec!["C".to_string(), "H".to_string()];
        ch.sort();
        assert!(!sets.contains(&ch));
        assert!(stats.rejected_large >= 1);
        // {C,H} large also seeds its own candidates (children of H? none;
        // siblings of C -> {B,H}? that's case 3 on seed {C,H}).
        assert!(stats.seeds == 2);
    }

    #[test]
    fn small_items_block_candidates_without_compression() {
        let (tax, names) = fig1();
        let mut large = LargeItemsets::new(10_000, 100);
        // Only C, G, J large among the relevant items; D, E, K, B, H, I small.
        for (name, sup) in [("C", 2500u64), ("G", 2000), ("J", 900)] {
            large.insert(Itemset::singleton(names[name]), sup);
        }
        large.insert(Itemset::from_unsorted(vec![names["C"], names["G"]]), 800);
        let (cands, _) = candidates_of(&tax, &large, 1e-9);
        // Only {C, J} survives: every other option involves a small item.
        assert_eq!(cands.len(), 1);
        assert_eq!(names_of(&tax, &cands[0]), vec!["C", "J"]);
    }

    #[test]
    fn compressed_and_uncompressed_generation_agree() {
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        // Drop two items from large to make compression meaningful.
        let mut pruned = LargeItemsets::new(10_000, 100);
        for (set, sup) in large.iter() {
            let drop = set.contains(names["K"]) || set.contains(names["I"]);
            if !drop {
                pruned.insert(set.clone(), sup);
            }
        }
        large = pruned;

        let (mut a, _) = candidates_of(&tax, &large, 1e-9);

        let keep: negassoc_taxonomy::fxhash::FxHashSet<ItemId> = tax
            .items()
            .filter(|&i| large.support_of(&[i]).is_some())
            .collect();
        let filtered = FilteredTaxonomy::new(&tax, &keep);
        let gene = CandidateGenerator::with_compressed(&filtered, &large, 1e-9);
        let mut set = CandidateSet::new();
        gene.extend_from_level(2, &mut set).unwrap();
        let (mut b, stats_b) = set.into_candidates();
        assert_eq!(stats_b.rejected_small_item, 0);

        let key = |c: &NegativeCandidate| c.itemset.clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.itemset, y.itemset);
            assert!((x.expected - y.expected).abs() < 1e-9);
        }
    }

    #[test]
    fn dedup_keeps_max_expectation() {
        // Two seeds produce the same candidate with different expectations:
        // seed {C,G} yields {C,H} via case 3; seed {A,F} (parents) yields
        // {C,H} via case 1.
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        large.insert(Itemset::from_unsorted(vec![names["A"], names["F"]]), 3000);
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        let ch = cands
            .iter()
            .find(|c| names_of(&tax, c) == vec!["C".to_string(), "H".to_string()])
            .unwrap();
        // Via {C,G}: 800·sup(H)/sup(G) = 640.
        // Via {A,F}: 3000·(sup(C)/sup(A))·(sup(H)/sup(F))
        //          = 3000·0.625·0.32 = 600.
        // Max kept: 640.
        assert!((ch.expected - 640.0).abs() < 1e-9);
        assert!(stats.merged > 0);
    }

    #[test]
    fn equal_expectations_keep_the_first_seen_derivation() {
        // P -> {a, b}, Q -> {x, y}. Seed {P, Q} (case 1) and seed {a, x}
        // (case 3, x -> y) both expect {a, y} at exactly 1000:
        // 4000 · (2000/4000) · (2000/4000) = 1000 · (2000/2000).
        let mut b = TaxonomyBuilder::new();
        let p = b.add_root("P");
        let a = b.add_child(p, "a").unwrap();
        let bb = b.add_child(p, "b").unwrap();
        let q = b.add_root("Q");
        let x = b.add_child(q, "x").unwrap();
        let y = b.add_child(q, "y").unwrap();
        let tax = b.build();
        let mut large = LargeItemsets::new(10_000, 100);
        for (item, sup) in [
            (p, 4000u64),
            (a, 2000),
            (bb, 1000),
            (q, 4000),
            (x, 2000),
            (y, 2000),
        ] {
            large.insert(Itemset::singleton(item), sup);
        }
        let pq = Itemset::from_unsorted(vec![p, q]);
        let ax = Itemset::from_unsorted(vec![a, x]);
        large.insert(pq.clone(), 4000);
        large.insert(ax.clone(), 1000);
        let ay = Itemset::from_unsorted(vec![a, y]);
        let gene = CandidateGenerator::new(&tax, &large, 1e-9);

        for (first, first_case, second) in [
            (&pq, DerivationCase::AllChildren, &ax),
            (&ax, DerivationCase::Siblings, &pq),
        ] {
            let mut set = CandidateSet::new();
            gene.extend_from_itemset(first, large.support_of_set(first).unwrap(), &mut set)
                .unwrap();
            gene.extend_from_itemset(second, large.support_of_set(second).unwrap(), &mut set)
                .unwrap();
            let (cands, stats) = set.into_candidates();
            let c = cands.iter().find(|c| c.itemset == ay).unwrap();
            assert_eq!(c.expected, 1000.0);
            assert_eq!(&c.derivation.seed, first);
            assert_eq!(c.derivation.case, first_case);
            assert!(stats.merged >= 1);
        }

        // Through a level, seeds run in sorted order: {P, Q} sorts first.
        let (cands, _) = candidates_of(&tax, &large, 1e-9);
        let c = cands.iter().find(|c| c.itemset == ay).unwrap();
        assert_eq!(c.derivation.seed, pq);
    }

    #[test]
    fn sibling_replacement_colliding_with_member_is_rejected() {
        // Seed {G, H}: replacing H by its sibling G collides with the other
        // member -> candidate of reduced size must be rejected.
        let (tax, names) = fig1();
        let mut large = fig1_large(&names);
        large.insert(Itemset::from_unsorted(vec![names["G"], names["H"]]), 500);
        let (cands, stats) = candidates_of(&tax, &large, 1e-9);
        for c in &cands {
            assert_eq!(c.itemset.len(), 2);
        }
        assert!(stats.rejected_related > 0);
    }
}
