//! The query engine: basket in, matched rules out.
//!
//! A rule applies to a basket when its antecedent is a subset of the
//! basket's ancestor-expanded item set
//! ([`Taxonomy::expand_with_ancestors`]) — the same closure the paper's
//! extended-transaction counting uses at mine time, so a basket holding
//! `Evian` matches rules written over `bottled water` or `beverages`.
//!
//! Two matchers exist on purpose:
//!
//! * [`Snapshot::match_expanded`] — production path: mark the expanded
//!   items in a bitset over the taxonomy, verify every rule posted in the
//!   antecedent index under one of them with one bit test per antecedent
//!   item, and mark the matches in a bitmap over rule ids. Its set bits,
//!   walked word by word, are the answer in canonical order — no sort and
//!   no merge walk, so a basket that matches thousands of rules costs
//!   about one pass over them.
//! * [`Snapshot::match_expanded_oracle`] — a deliberately naive full
//!   scan of every rule, sharing no candidate logic with the index path.
//!   CI diffs the two byte-for-byte over served query batches; any index
//!   bug shows up as a divergence, not a silently wrong answer.
//!
//! Both return rule ids in ascending canonical order. The production
//! answer concatenates lines the snapshot rendered once at load
//! ([`render_matches`]): the lines sit in id order, so each run of
//! consecutive matched ids is copied as one slice. The oracle formats
//! each matched rule from its fields, so the same diff also checks the
//! rendered lines.

use crate::snapshot::Snapshot;
use negassoc_taxonomy::{ItemId, Taxonomy};
use std::fmt::Write as _;
use std::ops::Range;

/// Rules matched against one basket, as indexes into the snapshot's
/// canonical rule lists (ascending).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Matches {
    /// Indexes into [`Snapshot::positive_stats`] (the positive rule's
    /// combined id).
    pub positive: Vec<u32>,
    /// Indexes into [`Snapshot::negative_stats`] (combined id minus
    /// [`Snapshot::num_positive`]).
    pub negative: Vec<u32>,
}

impl Snapshot {
    /// Match via the antecedent index. The expanded items are marked in a
    /// bitset over the taxonomy; every rule posted under one of them is
    /// verified with one bit test per antecedent item and, if it holds,
    /// marked in a bitmap over rule ids. Walking that bitmap's set bits
    /// yields the matches in ascending canonical order, with no sort.
    ///
    /// `expanded` need not be sorted or duplicate-free; ids beyond the
    /// taxonomy are ignored and match nothing.
    pub fn match_expanded(&self, expanded: &[ItemId]) -> Matches {
        let num_items = self.num_items();
        let mut basket = vec![0u64; num_items.div_ceil(64)];
        for item in expanded.iter().map(|i| i.index()) {
            if item < num_items {
                basket[item / 64] |= 1 << (item % 64);
            }
        }
        // Every antecedent id is below `num_items` (checked at load).
        let in_basket = |item: &ItemId| basket[item.index() / 64] >> (item.index() % 64) & 1 != 0;
        let mut matched = vec![0u64; self.num_rules().div_ceil(64)];
        for &item in expanded {
            for &rid in self.postings(item) {
                if self.antecedent(rid as usize).iter().all(in_basket) {
                    matched[rid as usize / 64] |= 1 << (rid % 64);
                }
            }
        }

        let n_pos = self.num_positive();
        let mut matches = Matches::default();
        for (w, &word) in matched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let rid = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                match rid.checked_sub(n_pos) {
                    None => matches.positive.push(rid as u32),
                    Some(i) => matches.negative.push(i as u32),
                }
            }
        }
        matches
    }

    /// The offline oracle: scan every rule and test its antecedent
    /// directly, no index involved. Must agree with
    /// [`Snapshot::match_expanded`] on every basket.
    pub fn match_expanded_oracle(&self, expanded: &[ItemId]) -> Matches {
        let n_pos = self.num_positive();
        let mut matches = Matches::default();
        for rid in 0..self.num_rules() {
            let (antecedent, _) = self.sides(rid);
            if antecedent.iter().all(|item| expanded.contains(item)) {
                match rid.checked_sub(n_pos) {
                    None => matches.positive.push(rid as u32),
                    Some(i) => matches.negative.push(i as u32),
                }
            }
        }
        matches
    }
}

/// Answer one basket line end to end: parse, resolve, expand, match
/// and render — indexed and by concatenation of the snapshot's rendered
/// lines, or, with `oracle`, by the full scan and a renderer that formats
/// every rule from its fields. The server answers with the first, the
/// offline `match` command with the second, so a diff of the two checks
/// the index and the rendered lines at once.
///
/// A basket line is comma-separated item names (names may contain
/// spaces); unknown names and empty baskets render as `error:` bodies
/// rather than failing the connection, so a batch diff sees them too.
pub fn answer_basket_line(tax: &Taxonomy, snapshot: &Snapshot, line: &str, oracle: bool) -> String {
    let mut items: Vec<ItemId> = Vec::new();
    for name in line.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        match tax.id_of(name) {
            Some(id) => items.push(id),
            None => return format!("error: unknown item {name:?}\n"),
        }
    }
    if items.is_empty() {
        return "error: empty basket\n".to_owned();
    }
    let expanded = tax.expand_with_ancestors(items.iter().copied());
    if oracle {
        let matches = snapshot.match_expanded_oracle(&expanded);
        render_oracle(tax, snapshot, &items, &matches)
    } else {
        let matches = snapshot.match_expanded(&expanded);
        render_matches(tax, snapshot, &items, &matches)
    }
}

/// Render one basket's answer: a header line, then the matched rules'
/// lines as the snapshot rendered them at load. First line names the
/// snapshot version — the hot-swap soak test asserts every body is
/// internally consistent with exactly the version on this line.
pub fn render_matches(
    tax: &Taxonomy,
    snapshot: &Snapshot,
    basket: &[ItemId],
    matches: &Matches,
) -> String {
    let n_pos = snapshot.num_positive();
    // Matched ids ascend and the snapshot keeps its lines in id order, so
    // each run of consecutive ids is one contiguous slice of its text.
    let runs = || {
        let positive = matches.positive.iter().map(|&i| i as usize);
        let negative = matches.negative.iter().map(move |&i| n_pos + i as usize);
        id_runs(positive.chain(negative)).map(|run| snapshot.lines(run))
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "snapshot {} basket [{}] matched {} positive, {} negative",
        snapshot.meta().snapshot_version,
        names(tax, basket),
        matches.positive.len(),
        matches.negative.len()
    );
    out.reserve_exact(runs().map(str::len).sum());
    for lines in runs() {
        out.push_str(lines);
    }
    out
}

/// The maximal runs of consecutive ids in an ascending id sequence.
fn id_runs(mut ids: impl Iterator<Item = usize>) -> impl Iterator<Item = Range<usize>> {
    let mut next = ids.next();
    std::iter::from_fn(move || {
        let start = next?;
        let mut end = start + 1;
        next = ids.next();
        while next == Some(end) {
            end += 1;
            next = ids.next();
        }
        Some(start..end)
    })
}

/// The oracle's renderer: every line formatted from the rule's fields,
/// sharing nothing with the lines a snapshot renders at load.
fn render_oracle(
    tax: &Taxonomy,
    snapshot: &Snapshot,
    basket: &[ItemId],
    matches: &Matches,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "snapshot {} basket [{}] matched {} positive, {} negative",
        snapshot.meta().snapshot_version,
        names(tax, basket),
        matches.positive.len(),
        matches.negative.len()
    );
    for &i in &matches.positive {
        let (antecedent, consequent) = snapshot.sides(i as usize);
        let rule = &snapshot.positive_stats()[i as usize];
        let _ = writeln!(
            out,
            "P {} => {} sup {} conf {:.4}",
            names(tax, antecedent),
            names(tax, consequent),
            rule.support,
            rule.confidence
        );
    }
    for &i in &matches.negative {
        let (antecedent, consequent) = snapshot.sides(snapshot.num_positive() + i as usize);
        let rule = &snapshot.negative_stats()[i as usize];
        let _ = writeln!(
            out,
            "N {} =/=> {} ri {:.4} expected {:.3} actual {}",
            names(tax, antecedent),
            names(tax, consequent),
            rule.ri,
            rule.expected,
            rule.actual
        );
    }
    out
}

fn names(tax: &Taxonomy, items: &[ItemId]) -> String {
    let mut out = String::new();
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(" + ");
        }
        if item.index() < tax.len() {
            out.push_str(tax.name(item));
        } else {
            let _ = write!(out, "#{}", item.0);
        }
    }
    out
}
