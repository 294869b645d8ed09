//! The NARS v1 rule-set snapshot: an immutable, versioned, CRC-32-framed
//! file holding one mine's positive and negative rules plus the
//! antecedent index the query engine matches with.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! magic      b"NARS"                      4 bytes
//! version    u8 = 1
//! section 'H'  self-describing header
//! section 'P'  positive rules
//! section 'N'  negative rules
//! section 'X'  antecedent index
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
//! The 'X' payload is the antecedent index: for every rule, the rule id
//! (one combined id space, positives first) posted under the *smallest*
//! item id of its antecedent. A rule can only match a basket whose
//! ancestor-expanded item set contains that anchor, so the index turns
//! "scan every rule" into "union a few posting lists, then verify".
//! Posting lists and anchors are sorted; the loader rebuilds the index
//! from the rule sections and requires bit-equality, so a corrupt or
//! hand-rolled index can never serve wrong answers.

use crate::error::ServeError;
use negassoc::rules::NegativeRule;
use negassoc::RuleSetExport;
use negassoc_apriori::rules::Rule;
use negassoc_apriori::Itemset;
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::crc32::crc32;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"NARS";
const VERSION: u8 = 1;
/// Upper bound on any section payload; a length field beyond this is
/// corruption, not a rule set.
const MAX_SECTION: u32 = 256 << 20;
/// Fixed size of the 'H' section payload.
const HEADER_LEN: usize = 56;
/// Size of a section's frame header: tag, payload length, payload CRC,
/// frame CRC.
const FRAME_LEN: usize = 13;

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

/// An immutable, loaded rule-set snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    meta: SnapshotMeta,
    positive: Vec<Rule>,
    negative: Vec<NegativeRule>,
    /// `(anchor, posting list of combined rule ids)`, sorted by anchor.
    index: Vec<(ItemId, Vec<u32>)>,
}

impl Snapshot {
    /// The provenance header.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Positive rules in canonical (export) order.
    pub fn positive(&self) -> &[Rule] {
        &self.positive
    }

    /// Negative rules in canonical (export) order.
    pub fn negative(&self) -> &[NegativeRule] {
        &self.negative
    }

    /// The antecedent index, sorted by anchor item id.
    pub(crate) fn index(&self) -> &[(ItemId, Vec<u32>)] {
        &self.index
    }

    /// Total rules across both polarities.
    pub fn num_rules(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// Build an in-memory snapshot straight from an export bundle
    /// (bypassing the file round trip; tests and the bench harness use
    /// this, the CLI goes through [`export_snapshot`] + [`Snapshot::load`]).
    /// Same taxonomy pinning as the file path.
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
        let index = build_index(&export.positive, &export.negative);
        Ok(Snapshot {
            meta,
            positive: export.positive.clone(),
            negative: export.negative.clone(),
            index,
        })
    }

    /// Load and fully verify a snapshot file against `tax`: magic,
    /// version, every frame and payload CRC, id bounds, canonical
    /// itemset ordering, the taxonomy digest, and the antecedent index
    /// (which must equal the one rebuilt from the rule sections).
    pub fn load<P: AsRef<Path>>(path: P, tax: &Taxonomy) -> Result<Self, ServeError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes, tax)
    }

    /// [`Snapshot::load`] over an in-memory byte buffer.
    pub fn from_bytes(bytes: &[u8], tax: &Taxonomy) -> Result<Self, ServeError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(ServeError::Format(
                "not a NARS rule-set snapshot (bad magic)".into(),
            ));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(ServeError::Format(format!(
                "unsupported snapshot format version {version} (this build reads v{VERSION})"
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
        let positive = decode_positive(pos_payload, n_pos, tax)?;
        let neg_payload = read_section(&mut r, b'N')?;
        let negative = decode_negative(neg_payload, n_neg, tax)?;
        let idx_payload = read_section(&mut r, b'X')?;
        let index = decode_index(idx_payload, n_pos + n_neg)?;
        if r.pos != bytes.len() {
            return Err(ServeError::Format(format!(
                "{} trailing bytes after the index section",
                bytes.len() - r.pos
            )));
        }
        // The index is data *about* the rules; trust only what can be
        // reproduced from them.
        if index != build_index(&positive, &negative) {
            return Err(ServeError::Format(
                "antecedent index does not match the rule sections".into(),
            ));
        }
        Ok(Snapshot {
            meta,
            positive,
            negative,
            index,
        })
    }
}

/// Serialize `export` as a NARS v1 snapshot at `path`. Refuses (typed
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
/// The buffer is sized up front and every section is written in place:
/// its frame header is reserved, the payload appended, and the length and
/// both checksums patched in afterwards. Each rule's antecedent is read
/// once, while its section is encoded, and that pass also records the
/// rule's index anchor.
pub fn snapshot_bytes(
    export: &RuleSetExport,
    snapshot_version: u64,
) -> Result<Vec<u8>, ServeError> {
    if export.positive.len() > u32::MAX as usize || export.negative.len() > u32::MAX as usize {
        return Err(ServeError::Format("more than u32::MAX rules".into()));
    }
    let num_rules = export.positive.len() + export.negative.len();
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
    // The index holds a posting per rule and an entry per distinct
    // anchor; anchors are only known after encoding, so count one per
    // rule. The buffer is never regrown.
    let max_idx_len = 4 + 12 * num_rules;
    let mut out = Vec::with_capacity(
        MAGIC.len() + 1 + 4 * FRAME_LEN + HEADER_LEN + pos_len + neg_len + max_idx_len,
    );
    let mut anchors = Vec::with_capacity(num_rules);
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
        anchors.push(rule.antecedent.items().first().copied());
        put_itemset(&mut out, &rule.antecedent)?;
        put_itemset(&mut out, &rule.consequent)?;
        put_u64(&mut out, rule.support);
        put_u64(&mut out, rule.confidence.to_bits());
    }
    end_section(&mut out, at)?;

    let at = begin_section(&mut out, b'N');
    for rule in &export.negative {
        anchors.push(rule.antecedent.items().first().copied());
        put_itemset(&mut out, &rule.antecedent)?;
        put_itemset(&mut out, &rule.consequent)?;
        put_u64(&mut out, rule.expected.to_bits());
        put_u64(&mut out, rule.actual);
        put_u64(&mut out, rule.ri.to_bits());
    }
    end_section(&mut out, at)?;

    let at = begin_section(&mut out, b'X');
    let index = index_of(anchors);
    put_u32(&mut out, index.len() as u32);
    for (anchor, postings) in &index {
        put_u32(&mut out, anchor.0);
        put_u32(&mut out, postings.len() as u32);
        for &rid in postings {
            put_u32(&mut out, rid);
        }
    }
    end_section(&mut out, at)?;
    Ok(out)
}

/// The antecedent index: combined rule ids (positives first) posted
/// under the smallest antecedent item id, anchors sorted, postings
/// sorted. Deterministic in the canonical rule order, so writer and
/// loader agree bit-for-bit.
fn build_index(positive: &[Rule], negative: &[NegativeRule]) -> Vec<(ItemId, Vec<u32>)> {
    let anchors = positive
        .iter()
        .map(|r| r.antecedent.items().first().copied())
        .chain(
            negative
                .iter()
                .map(|r| r.antecedent.items().first().copied()),
        );
    index_of(anchors)
}

/// The index over each rule's anchor, in combined rule-id order. In
/// canonical order consecutive rules mostly share their anchor, so the
/// previous rule's entry is tried before the binary search.
fn index_of(anchors: impl IntoIterator<Item = Option<ItemId>>) -> Vec<(ItemId, Vec<u32>)> {
    let mut index: Vec<(ItemId, Vec<u32>)> = Vec::new();
    let mut last = 0;
    for (rid, anchor) in anchors.into_iter().enumerate() {
        // Antecedents are nonempty by construction; an empty one would
        // have been rejected at decode/export validation.
        let Some(anchor) = anchor else { continue };
        if index.get(last).is_none_or(|e| e.0 != anchor) {
            last = match index.binary_search_by_key(&anchor, |e| e.0) {
                Ok(i) => i,
                Err(i) => {
                    index.insert(i, (anchor, Vec::new()));
                    i
                }
            };
        }
        index[last].1.push(rid as u32);
    }
    for entry in &mut index {
        entry.1.sort_unstable();
    }
    index
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

fn decode_positive(payload: &[u8], n: usize, tax: &Taxonomy) -> Result<Vec<Rule>, ServeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let antecedent = take_itemset(&mut r, tax)?;
        let consequent = take_itemset(&mut r, tax)?;
        let support = r.u64()?;
        let confidence = f64::from_bits(r.u64()?);
        out.push(Rule {
            antecedent,
            consequent,
            support,
            confidence,
        });
    }
    expect_drained(&r, 'P')?;
    Ok(out)
}

fn decode_negative(
    payload: &[u8],
    n: usize,
    tax: &Taxonomy,
) -> Result<Vec<NegativeRule>, ServeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let antecedent = take_itemset(&mut r, tax)?;
        let consequent = take_itemset(&mut r, tax)?;
        let expected = f64::from_bits(r.u64()?);
        let actual = r.u64()?;
        let ri = f64::from_bits(r.u64()?);
        out.push(NegativeRule {
            antecedent,
            consequent,
            expected,
            actual,
            ri,
            // Derivations are mine-time provenance; the snapshot carries
            // the serving answer only.
            derivation: None,
        });
    }
    expect_drained(&r, 'N')?;
    Ok(out)
}

fn decode_index(payload: &[u8], num_rules: usize) -> Result<Vec<(ItemId, Vec<u32>)>, ServeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let entries = r.u32()? as usize;
    let mut out = Vec::with_capacity(entries.min(1 << 20));
    for _ in 0..entries {
        let anchor = ItemId(r.u32()?);
        let count = r.u32()? as usize;
        let mut postings = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let rid = r.u32()?;
            if rid as usize >= num_rules {
                return Err(ServeError::Format(format!(
                    "index references rule {rid} of {num_rules}"
                )));
            }
            postings.push(rid);
        }
        out.push((anchor, postings));
    }
    expect_drained(&r, 'X')?;
    Ok(out)
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

fn take_itemset(r: &mut Reader<'_>, tax: &Taxonomy) -> Result<Itemset, ServeError> {
    let len = r.u16()? as usize;
    if len == 0 {
        return Err(ServeError::Format("rule with an empty itemset side".into()));
    }
    let mut items = Vec::with_capacity(len);
    let mut prev: Option<u32> = None;
    for _ in 0..len {
        let id = r.u32()?;
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
        items.push(ItemId(id));
    }
    Ok(Itemset::from_sorted(items))
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
