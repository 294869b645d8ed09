//! The NARS v2 rule-set snapshot: an immutable, versioned, CRC-32-framed
//! file holding one mine's positive and negative rules.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! magic      b"NARS"                      4 bytes
//! version    u8 = 2
//! section 'H'  self-describing header
//! section 'P'  positive rules
//! section 'N'  negative rules
//! ```
//!
//! Every section is framed like an NADB v2 block: a 13-byte frame header
//! `tag u8 · payload_len u32 · payload_crc u32 · frame_crc u32` (the
//! frame CRC covers the 9 bytes before it), then the payload. A flipped
//! bit anywhere — frame or payload — fails a checksum before any byte is
//! trusted.
//!
//! The 'H' payload pins provenance: snapshot version, the digest of the
//! taxonomy the rule ids were minted under ([`Taxonomy::digest`]), the
//! database size and thresholds, and both rule counts. Loading a
//! snapshot against a taxonomy with a different digest is a typed
//! [`ServeError::SnapshotTaxonomyMismatch`] — never a silent
//! mis-expansion.
//!
//! A rule is `antecedent · consequent · stats`: each side a `u16` length
//! and that many strictly ascending `u32` item ids, then `support u64 ·
//! confidence f64` (positive) or `expected f64 · actual u64 · ri f64`
//! (negative).
//!
//! # Reading v1
//!
//! NARS v1 (version byte 1) is the same file plus a fourth section 'X',
//! a stored copy of the antecedent index. The loader rebuilds the index
//! from the rule sections either way, so it reads a v1 'X' section only
//! far enough to check its frame and payload CRCs, and skips it.
//!
//! # What a load builds
//!
//! Rule sides go into one flat id array with per-rule ends; no rule owns
//! an allocation. The antecedent index posts every rule id (one combined
//! id space, positives first) under the *smallest* item id of its
//! antecedent: a rule can only match a basket whose ancestor-expanded
//! item set contains that anchor, so the index turns "scan every rule"
//! into "union a few posting lists, then verify". And every rule's
//! answer line is rendered once, into one text arena in rule-id order,
//! so a query answer is its header line plus copies of the matched
//! lines — one copy per run of consecutive matched ids.

use crate::error::ServeError;
use crate::render::{push_fixed, push_u64};
use negassoc::RuleSetExport;
use negassoc_apriori::Itemset;
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::crc32::crc32;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

const MAGIC: &[u8; 4] = b"NARS";
/// The version this build writes.
const VERSION: u8 = 2;
/// The oldest version this build reads (it carries the 'X' section).
const VERSION_WITH_INDEX: u8 = 1;
/// Upper bound on any section payload; a length field beyond this is
/// corruption, not a rule set.
const MAX_SECTION: u32 = 256 << 20;
/// Fixed size of the 'H' section payload.
const HEADER_LEN: usize = 56;
/// Size of a section's frame header: tag, payload length, payload CRC,
/// frame CRC.
const FRAME_LEN: usize = 13;
/// Smallest encoded positive / negative rule: two one-item sides plus
/// the stats.
const MIN_POSITIVE_LEN: usize = 2 * (2 + 4) + 16;
const MIN_NEGATIVE_LEN: usize = 2 * (2 + 4) + 24;

/// Provenance carried in the snapshot header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotMeta {
    /// Monotonic rule-set version chosen at export time; the serving
    /// layer reports it with every answer so hot-swaps are observable.
    pub snapshot_version: u64,
    /// [`Taxonomy::digest`] of the hierarchy the rule ids belong to.
    pub taxonomy_digest: u64,
    /// Transactions in the mined database.
    pub num_transactions: u64,
    /// Absolute minimum support count of the mine.
    pub min_support_count: u64,
    /// MinRI threshold the negative rules cleared.
    pub min_ri: f64,
    /// Minimum confidence the positive rules cleared.
    pub min_confidence: f64,
}

/// The numbers of a positive rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositiveStats {
    /// Absolute support count of `antecedent ∪ consequent`.
    pub support: u64,
    /// `support(antecedent ∪ consequent) / support(antecedent)`.
    pub confidence: f64,
}

/// The numbers of a negative rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NegativeStats {
    /// Expected support of `antecedent ∪ consequent`.
    pub expected: f64,
    /// Actual support of `antecedent ∪ consequent`.
    pub actual: u64,
    /// Rule interest.
    pub ri: f64,
}

/// An immutable, loaded rule-set snapshot.
///
/// Rules are addressed by one combined id: positives `0..num_positive`
/// in canonical (export) order, then negatives.
#[derive(Clone, Debug)]
pub struct Snapshot {
    meta: SnapshotMeta,
    /// Every rule's antecedent then consequent ids, rule after rule.
    items: Vec<ItemId>,
    /// Per rule: where its antecedent and its consequent end in `items`.
    ends: Vec<[u32; 2]>,
    positive: Vec<PositiveStats>,
    negative: Vec<NegativeStats>,
    /// Every rule's answer line (newline included), concatenated.
    text: String,
    /// Per rule: where its line ends in `text`.
    line_ends: Vec<u32>,
    /// The antecedent index over item ids: rules anchored at item `i`
    /// are `postings[starts[i]..starts[i + 1]]`, ascending.
    starts: Vec<u32>,
    postings: Vec<u32>,
}

impl Snapshot {
    /// The provenance header.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Stats of the positive rules, in canonical order.
    pub fn positive_stats(&self) -> &[PositiveStats] {
        &self.positive
    }

    /// Stats of the negative rules, in canonical order.
    pub fn negative_stats(&self) -> &[NegativeStats] {
        &self.negative
    }

    /// Positive rules; their combined ids are `0..num_positive()`.
    pub fn num_positive(&self) -> usize {
        self.positive.len()
    }

    /// Total rules across both polarities.
    pub fn num_rules(&self) -> usize {
        self.ends.len()
    }

    /// Antecedent and consequent of rule `rid` (combined id).
    ///
    /// # Panics
    /// Panics if `rid >= num_rules()`.
    pub fn sides(&self, rid: usize) -> (&[ItemId], &[ItemId]) {
        let start = self.rule_start(rid);
        let [mid, end] = self.ends[rid];
        (
            &self.items[start..mid as usize],
            &self.items[mid as usize..end as usize],
        )
    }

    /// Antecedent of rule `rid` (combined id).
    pub(crate) fn antecedent(&self, rid: usize) -> &[ItemId] {
        &self.items[self.rule_start(rid)..self.ends[rid][0] as usize]
    }

    /// The rendered answer lines of rules `rules` (combined ids), as one
    /// slice: the lines are stored in id order.
    pub(crate) fn lines(&self, rules: Range<usize>) -> &str {
        let start = |rid: usize| match rid {
            0 => 0,
            _ => self.line_ends[rid - 1] as usize,
        };
        &self.text[start(rules.start)..start(rules.end)]
    }

    /// Items in the taxonomy the snapshot was loaded against.
    pub(crate) fn num_items(&self) -> usize {
        self.starts.len() - 1
    }

    /// Rule ids posted under `item`.
    pub(crate) fn postings(&self, item: ItemId) -> &[u32] {
        match self.starts.get(item.index()..item.index() + 2) {
            Some(&[from, to]) => &self.postings[from as usize..to as usize],
            _ => &[],
        }
    }

    fn rule_start(&self, rid: usize) -> usize {
        match rid {
            0 => 0,
            _ => self.ends[rid - 1][1] as usize,
        }
    }

    /// Build an in-memory snapshot straight from an export bundle
    /// (bypassing the file round trip; tests and the bench harness use
    /// this, the CLI goes through [`export_snapshot`] + [`Snapshot::load`]).
    /// Same taxonomy pinning and id checks as the file path.
    pub fn from_export(
        export: &RuleSetExport,
        tax: &Taxonomy,
        snapshot_version: u64,
    ) -> Result<Self, ServeError> {
        check_digest(export.taxonomy_digest, tax)?;
        let meta = SnapshotMeta {
            snapshot_version,
            taxonomy_digest: export.taxonomy_digest,
            num_transactions: export.num_transactions,
            min_support_count: export.min_support_count,
            min_ri: export.min_ri,
            min_confidence: export.min_confidence,
        };
        let num_items = export
            .positive
            .iter()
            .map(|r| r.antecedent.len() + r.consequent.len())
            .chain(
                export
                    .negative
                    .iter()
                    .map(|r| r.antecedent.len() + r.consequent.len()),
            )
            .sum();
        let mut rules =
            Rules::with_capacity(export.positive.len(), export.negative.len(), num_items);
        for rule in &export.positive {
            rules.push_sides(ids(&rule.antecedent), ids(&rule.consequent), tax)?;
            rules.positive.push(PositiveStats {
                support: rule.support,
                confidence: rule.confidence,
            });
        }
        for rule in &export.negative {
            rules.push_sides(ids(&rule.antecedent), ids(&rule.consequent), tax)?;
            rules.negative.push(NegativeStats {
                expected: rule.expected,
                actual: rule.actual,
                ri: rule.ri,
            });
        }
        rules.finish(meta, tax)
    }

    /// Load and fully verify a snapshot file against `tax`: magic,
    /// version, every frame and payload CRC, id bounds, canonical
    /// itemset ordering and the taxonomy digest.
    pub fn load<P: AsRef<Path>>(path: P, tax: &Taxonomy) -> Result<Self, ServeError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes, tax)
    }

    /// [`Snapshot::load`] over an in-memory byte buffer (NARS v2, or v1
    /// with its stored index checked and skipped).
    pub fn from_bytes(bytes: &[u8], tax: &Taxonomy) -> Result<Self, ServeError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(ServeError::Format(
                "not a NARS rule-set snapshot (bad magic)".into(),
            ));
        }
        let version = r.u8()?;
        if version != VERSION && version != VERSION_WITH_INDEX {
            return Err(ServeError::Format(format!(
                "unsupported snapshot format version {version} \
                 (this build reads v{VERSION_WITH_INDEX} and v{VERSION})"
            )));
        }

        let header = read_section(&mut r, b'H')?;
        if header.len() != HEADER_LEN {
            return Err(ServeError::Format(format!(
                "header section is {} bytes, want {HEADER_LEN}",
                header.len()
            )));
        }
        let mut h = Reader {
            bytes: header,
            pos: 0,
        };
        let meta = SnapshotMeta {
            snapshot_version: h.u64()?,
            taxonomy_digest: h.u64()?,
            num_transactions: h.u64()?,
            min_support_count: h.u64()?,
            min_ri: f64::from_bits(h.u64()?),
            min_confidence: f64::from_bits(h.u64()?),
        };
        let n_pos = h.u32()? as usize;
        let n_neg = h.u32()? as usize;
        check_digest(meta.taxonomy_digest, tax)?;

        let pos_payload = read_section(&mut r, b'P')?;
        let neg_payload = read_section(&mut r, b'N')?;
        // What well-formed payloads hold, and never more than the bytes
        // can: each rule is its fixed part plus four bytes per item id.
        let n_pos_cap = n_pos.min(pos_payload.len() / MIN_POSITIVE_LEN);
        let n_neg_cap = n_neg.min(neg_payload.len() / MIN_NEGATIVE_LEN);
        let ids = |payload: &[u8], n: usize, min_len: usize| {
            payload.len().saturating_sub(n * (min_len - 8)) / 4
        };
        let mut rules = Rules::with_capacity(
            n_pos_cap,
            n_neg_cap,
            ids(pos_payload, n_pos_cap, MIN_POSITIVE_LEN)
                + ids(neg_payload, n_neg_cap, MIN_NEGATIVE_LEN),
        );
        decode_positive(pos_payload, n_pos, tax, &mut rules)?;
        decode_negative(neg_payload, n_neg, tax, &mut rules)?;
        if version == VERSION_WITH_INDEX {
            read_section(&mut r, b'X')?;
        }
        if r.pos != bytes.len() {
            return Err(ServeError::Format(format!(
                "{} trailing bytes after the rule sections",
                bytes.len() - r.pos
            )));
        }
        rules.finish(meta, tax)
    }
}

/// Rules decoded or copied so far: the flat sides and the stats of a
/// [`Snapshot`] under construction.
struct Rules {
    items: Vec<ItemId>,
    ends: Vec<[u32; 2]>,
    positive: Vec<PositiveStats>,
    negative: Vec<NegativeStats>,
}

impl Rules {
    fn with_capacity(num_positive: usize, num_negative: usize, num_items: usize) -> Self {
        Rules {
            items: Vec::with_capacity(num_items),
            ends: Vec::with_capacity(num_positive + num_negative),
            positive: Vec::with_capacity(num_positive),
            negative: Vec::with_capacity(num_negative),
        }
    }

    /// Append one rule's sides. Each must be nonempty, strictly
    /// ascending and in range for `tax`.
    fn push_sides(
        &mut self,
        antecedent: impl IntoIterator<Item = u32>,
        consequent: impl IntoIterator<Item = u32>,
        tax: &Taxonomy,
    ) -> Result<(), ServeError> {
        let mid = self.push_side(antecedent, tax)?;
        let end = self.push_side(consequent, tax)?;
        self.ends.push([mid, end]);
        Ok(())
    }

    fn push_side(
        &mut self,
        ids: impl IntoIterator<Item = u32>,
        tax: &Taxonomy,
    ) -> Result<u32, ServeError> {
        let start = self.items.len();
        let mut prev: Option<u32> = None;
        for id in ids {
            if id as usize >= tax.len() {
                return Err(ServeError::Format(format!(
                    "item id {id} out of range for a {}-item taxonomy",
                    tax.len()
                )));
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(ServeError::Format("itemset not strictly ascending".into()));
            }
            prev = Some(id);
            self.items.push(ItemId(id));
        }
        if self.items.len() == start {
            return Err(ServeError::Format("rule with an empty itemset side".into()));
        }
        u32::try_from(self.items.len())
            .map_err(|_| ServeError::Format("more than u32::MAX rule items".into()))
    }

    /// Index the rules and render every answer line.
    fn finish(self, meta: SnapshotMeta, tax: &Taxonomy) -> Result<Snapshot, ServeError> {
        let Rules {
            items,
            ends,
            positive,
            negative,
        } = self;
        let num_rules = ends.len();
        // A rule's anchor is the first (smallest) id of its antecedent.
        let anchors = || {
            ends.iter().scan(0, |start, e| {
                let anchor = items[*start];
                *start = e[1] as usize;
                Some(anchor)
            })
        };

        // Counting sort of rule ids by anchor: ids arrive ascending, so
        // every posting list comes out sorted.
        let mut starts = vec![0u32; tax.len() + 1];
        for anchor in anchors() {
            starts[anchor.index() + 1] += 1;
        }
        let mut sum = 0;
        for s in &mut starts {
            sum += *s;
            *s = sum;
        }
        let mut fill = starts.clone();
        let mut postings = vec![0u32; num_rules];
        for (rid, anchor) in anchors().enumerate() {
            let slot = &mut fill[anchor.index()];
            postings[*slot as usize] = rid as u32;
            *slot += 1;
        }

        // Canonical order keeps a rule's antecedent next to its repeats,
        // so the last one's names are kept rendered.
        let mut last_antecedent: &[ItemId] = &[];
        let mut antecedent_names = String::new();
        let mut text = String::new();
        let mut line_ends = Vec::with_capacity(num_rules);
        let mut start = 0;
        for (rid, &[mid, end]) in ends.iter().enumerate() {
            let antecedent = &items[start..mid as usize];
            let consequent = &items[mid as usize..end as usize];
            start = end as usize;
            if antecedent != last_antecedent {
                antecedent_names.clear();
                push_names(&mut antecedent_names, tax, antecedent);
                last_antecedent = antecedent;
            }
            match rid.checked_sub(positive.len()) {
                None => {
                    let s = positive[rid];
                    text.push_str("P ");
                    text.push_str(&antecedent_names);
                    text.push_str(" => ");
                    push_names(&mut text, tax, consequent);
                    text.push_str(" sup ");
                    push_u64(&mut text, s.support);
                    text.push_str(" conf ");
                    push_fixed(&mut text, s.confidence, 4);
                }
                Some(i) => {
                    let s = negative[i];
                    text.push_str("N ");
                    text.push_str(&antecedent_names);
                    text.push_str(" =/=> ");
                    push_names(&mut text, tax, consequent);
                    text.push_str(" ri ");
                    push_fixed(&mut text, s.ri, 4);
                    text.push_str(" expected ");
                    push_fixed(&mut text, s.expected, 3);
                    text.push_str(" actual ");
                    push_u64(&mut text, s.actual);
                }
            }
            text.push('\n');
            line_ends.push(
                u32::try_from(text.len())
                    .map_err(|_| ServeError::Format("answer text over 4 GiB".into()))?,
            );
        }
        text.shrink_to_fit();
        Ok(Snapshot {
            meta,
            items,
            ends,
            positive,
            negative,
            text,
            line_ends,
            starts,
            postings,
        })
    }
}

/// Item names joined by `" + "`; every id is in range (checked when the
/// rule was pushed).
fn push_names(out: &mut String, tax: &Taxonomy, items: &[ItemId]) {
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(" + ");
        }
        out.push_str(tax.name(item));
    }
}

/// Serialize `export` as a NARS v2 snapshot at `path`. Refuses (typed
/// [`ServeError::SnapshotTaxonomyMismatch`]) when the bundle was not
/// mined under `tax`.
pub fn export_snapshot<P: AsRef<Path>>(
    path: P,
    export: &RuleSetExport,
    tax: &Taxonomy,
    snapshot_version: u64,
) -> Result<(), ServeError> {
    check_digest(export.taxonomy_digest, tax)?;
    let bytes = snapshot_bytes(export, snapshot_version)?;
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// The exact bytes [`export_snapshot`] writes.
///
/// The buffer is sized exactly up front and every section is written in
/// place: its frame header is reserved, the payload appended, and the
/// length and both checksums patched in afterwards.
pub fn snapshot_bytes(
    export: &RuleSetExport,
    snapshot_version: u64,
) -> Result<Vec<u8>, ServeError> {
    if export.positive.len() > u32::MAX as usize || export.negative.len() > u32::MAX as usize {
        return Err(ServeError::Format("more than u32::MAX rules".into()));
    }
    let sides = |a: &Itemset, c: &Itemset| 2 + 4 * a.len() + 2 + 4 * c.len();
    let pos_len: usize = export
        .positive
        .iter()
        .map(|r| sides(&r.antecedent, &r.consequent) + 16)
        .sum();
    let neg_len: usize = export
        .negative
        .iter()
        .map(|r| sides(&r.antecedent, &r.consequent) + 24)
        .sum();
    let mut out =
        Vec::with_capacity(MAGIC.len() + 1 + 3 * FRAME_LEN + HEADER_LEN + pos_len + neg_len);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    let at = begin_section(&mut out, b'H');
    put_u64(&mut out, snapshot_version);
    put_u64(&mut out, export.taxonomy_digest);
    put_u64(&mut out, export.num_transactions);
    put_u64(&mut out, export.min_support_count);
    put_u64(&mut out, export.min_ri.to_bits());
    put_u64(&mut out, export.min_confidence.to_bits());
    put_u32(&mut out, export.positive.len() as u32);
    put_u32(&mut out, export.negative.len() as u32);
    end_section(&mut out, at)?;

    let at = begin_section(&mut out, b'P');
    for rule in &export.positive {
        put_itemset(&mut out, &rule.antecedent)?;
        put_itemset(&mut out, &rule.consequent)?;
        put_u64(&mut out, rule.support);
        put_u64(&mut out, rule.confidence.to_bits());
    }
    end_section(&mut out, at)?;

    let at = begin_section(&mut out, b'N');
    for rule in &export.negative {
        put_itemset(&mut out, &rule.antecedent)?;
        put_itemset(&mut out, &rule.consequent)?;
        put_u64(&mut out, rule.expected.to_bits());
        put_u64(&mut out, rule.actual);
        put_u64(&mut out, rule.ri.to_bits());
    }
    end_section(&mut out, at)?;
    Ok(out)
}

fn check_digest(recorded: u64, tax: &Taxonomy) -> Result<(), ServeError> {
    let loaded = tax.digest();
    if recorded != loaded {
        return Err(ServeError::SnapshotTaxonomyMismatch {
            snapshot: recorded,
            taxonomy: loaded,
        });
    }
    Ok(())
}

// ---- framing ----

/// Reserve a frame header for section `tag` at the end of `out`; returns
/// where the frame starts, for [`end_section`].
fn begin_section(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0; FRAME_LEN - 1]);
    start
}

/// Patch the frame reserved at `start` for the payload written after it:
/// the length, the payload CRC, and the CRC of those 9 frame bytes.
fn end_section(out: &mut [u8], start: usize) -> Result<(), ServeError> {
    let (frame, payload) = out[start..].split_at_mut(FRAME_LEN);
    if payload.len() > MAX_SECTION as usize {
        return Err(ServeError::Format(format!(
            "section '{}' exceeds {MAX_SECTION} bytes",
            frame[0] as char
        )));
    }
    frame[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[5..9].copy_from_slice(&crc32(payload).to_le_bytes());
    let frame_crc = crc32(&frame[..9]);
    frame[9..].copy_from_slice(&frame_crc.to_le_bytes());
    Ok(())
}

fn read_section<'a>(r: &mut Reader<'a>, want_tag: u8) -> Result<&'a [u8], ServeError> {
    let frame = r.take(FRAME_LEN)?;
    let framed = &frame[..9];
    let frame_crc = u32::from_le_bytes([frame[9], frame[10], frame[11], frame[12]]);
    if crc32(framed) != frame_crc {
        return Err(ServeError::Format(format!(
            "section '{}' frame checksum mismatch",
            want_tag as char
        )));
    }
    let tag = frame[0];
    if tag != want_tag {
        return Err(ServeError::Format(format!(
            "expected section '{}', found '{}'",
            want_tag as char, tag as char
        )));
    }
    let len = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]);
    if len > MAX_SECTION {
        return Err(ServeError::Format(format!(
            "section '{}' claims {len} bytes (cap {MAX_SECTION})",
            tag as char
        )));
    }
    let payload_crc = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]);
    let payload = r.take(len as usize)?;
    if crc32(payload) != payload_crc {
        return Err(ServeError::Format(format!(
            "section '{}' payload checksum mismatch",
            tag as char
        )));
    }
    Ok(payload)
}

// ---- payload decode ----

fn decode_positive(
    payload: &[u8],
    n: usize,
    tax: &Taxonomy,
    rules: &mut Rules,
) -> Result<(), ServeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    for _ in 0..n {
        take_sides(&mut r, tax, rules)?;
        let support = r.u64()?;
        let confidence = f64::from_bits(r.u64()?);
        rules.positive.push(PositiveStats {
            support,
            confidence,
        });
    }
    expect_drained(&r, 'P')
}

fn decode_negative(
    payload: &[u8],
    n: usize,
    tax: &Taxonomy,
    rules: &mut Rules,
) -> Result<(), ServeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    for _ in 0..n {
        take_sides(&mut r, tax, rules)?;
        let expected = f64::from_bits(r.u64()?);
        let actual = r.u64()?;
        let ri = f64::from_bits(r.u64()?);
        rules.negative.push(NegativeStats {
            expected,
            actual,
            ri,
        });
    }
    expect_drained(&r, 'N')
}

/// Decode one rule's antecedent and consequent into `rules`.
fn take_sides(r: &mut Reader<'_>, tax: &Taxonomy, rules: &mut Rules) -> Result<(), ServeError> {
    let len = r.u16()? as usize;
    let antecedent = r.take(4 * len)?;
    let len = r.u16()? as usize;
    let consequent = r.take(4 * len)?;
    rules.push_sides(le_u32s(antecedent), le_u32s(consequent), tax)
}

fn ids(set: &Itemset) -> impl Iterator<Item = u32> + '_ {
    set.items().iter().map(|i| i.0)
}

fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn expect_drained(r: &Reader<'_>, tag: char) -> Result<(), ServeError> {
    if r.pos != r.bytes.len() {
        return Err(ServeError::Format(format!(
            "section '{tag}' has {} undecoded trailing bytes",
            r.bytes.len() - r.pos
        )));
    }
    Ok(())
}

// ---- primitive encode/decode ----

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_itemset(out: &mut Vec<u8>, set: &Itemset) -> Result<(), ServeError> {
    if set.is_empty() {
        return Err(ServeError::Format("rule with an empty itemset side".into()));
    }
    if set.len() > u16::MAX as usize {
        return Err(ServeError::Format("itemset longer than u16::MAX".into()));
    }
    out.extend_from_slice(&(set.len() as u16).to_le_bytes());
    for &item in set.items() {
        put_u32(out, item.0);
    }
    Ok(())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ServeError::Format("truncated snapshot".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}
