//! The Error Tolerant Index (paper §4.2, extended per §5.1).
//!
//! The ETI is "a standard relation" with schema
//! `[QGram, Coordinate, Column, Frequency, Tid-list]` and a clustered index
//! on `[QGram, Coordinate, Column]`. Each row lists the tids of all
//! reference tuples containing a token (in `Column`) whose min-hash
//! signature has `QGram` as its `Coordinate`-th entry. Under the `Q+T`
//! scheme (§5.1), whole tokens are additionally indexed at coordinate 0.
//!
//! Representation here: entries live in a [`BTree`] keyed by the
//! order-preserving encoding of `(QGram, Coordinate, Column, Chunk)`. Long
//! tid-lists are **chunked** across consecutive keys so every record stays
//! page-sized (DESIGN.md §4.5); one logical lookup is one short range scan.
//! Q-grams whose tid-list would exceed the stop threshold are *stop
//! q-grams*: their row keeps the frequency but a NULL tid-list, exactly as
//! the paper stores them.

pub mod build;

use fm_store::keycode;
use fm_store::{BTree, StoreError};
use fm_text::minhash::MinHasher;

use crate::config::SignatureScheme;
use crate::error::Result;

/// Coordinate index used for whole-token entries under `Q+T` (§5.1: "say,
/// as the 0th coordinate in the signature"). Min-hash q-gram coordinates
/// are 1-based.
pub const TOKEN_COORDINATE: u8 = 0;

/// Maximum tids stored per chunk. With 4-byte tids this keeps every entry
/// well under the B+-tree's entry cap even alongside a long token key.
pub const TIDS_PER_CHUNK: usize = 400;

/// Maximum bytes of a token used as an ETI key component. Whole tokens are
/// indexed at coordinate 0 under `Q+T`, and a pathological kilobyte-long
/// "token" would otherwise overflow the page-sized B+-tree entry cap.
/// Clamping is applied identically at build and query time, so lookups stay
/// consistent; two tokens agreeing on their first 200 bytes are treated as
/// the same index key (they still differ under the exact `fms`
/// verification).
pub const MAX_GRAM_BYTES: usize = 200;

/// Clamp a gram/token to [`MAX_GRAM_BYTES`] on a character boundary.
fn clamp_gram(s: String) -> String {
    if s.len() <= MAX_GRAM_BYTES {
        return s;
    }
    let mut end = MAX_GRAM_BYTES;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let mut s = s;
    s.truncate(end);
    s
}

/// One coordinate of a token's index signature: which ETI rows this token
/// contributes to / probes, and what fraction of the token's weight rides
/// on the coordinate at query time.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureEntry {
    pub coordinate: u8,
    pub gram: String,
    /// Fraction of the token's weight assigned to this coordinate
    /// (`w(t)/|mh(t)|` for plain q-gram signatures; the 50/50 token split
    /// under `Q+T`). Shares always sum to 1 per token.
    pub share: f64,
}

/// The index signature of one token (paper §4.2 + §5.1):
///
/// * `Q_H`: the H min-hash q-grams at coordinates `1..=H`, each with share
///   `1/H`; a token shorter than `q` has the single-coordinate signature
///   `[t]` with share 1.
/// * `Q+T_H`: the token itself at coordinate 0 with share ½ plus the
///   q-gram signature at shares `½/H`. Degenerate cases collapse onto the
///   token coordinate alone (share 1): `H = 0` (tokens-only index) and
///   short tokens, whose "q-gram" signature would just repeat the token.
pub fn token_signature(
    token: &str,
    mh: &MinHasher,
    scheme: SignatureScheme,
) -> Vec<SignatureEntry> {
    let sig = mh.signature(token);
    match scheme {
        SignatureScheme::QGrams => {
            let share = 1.0 / sig.len().max(1) as f64;
            sig.into_iter()
                .enumerate()
                .map(|(i, gram)| SignatureEntry {
                    coordinate: i as u8 + 1,
                    // q-grams are q chars, but a short-token signature is
                    // the token itself and can be arbitrarily... no: short
                    // tokens are < q chars. The clamp guards q > MAX case.
                    gram: clamp_gram(gram),
                    share,
                })
                .collect()
        }
        SignatureScheme::QGramsPlusToken => {
            let degenerate = sig.is_empty() || (sig.len() == 1 && sig[0] == token);
            if degenerate {
                return vec![SignatureEntry {
                    coordinate: TOKEN_COORDINATE,
                    gram: clamp_gram(token.to_string()),
                    share: 1.0,
                }];
            }
            let mut entries = Vec::with_capacity(sig.len() + 1);
            entries.push(SignatureEntry {
                coordinate: TOKEN_COORDINATE,
                gram: clamp_gram(token.to_string()),
                share: 0.5,
            });
            let share = 0.5 / sig.len() as f64;
            entries.extend(sig.into_iter().enumerate().map(|(i, gram)| SignatureEntry {
                coordinate: i as u8 + 1,
                gram,
                share,
            }));
            entries
        }
    }
}

/// A logical ETI row, aggregated over chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidList {
    /// Number of tids in the full tid-list (stored even for stop q-grams).
    pub frequency: u32,
    /// The tids, or `None` for a stop q-gram (NULL tid-list in the paper).
    pub tids: Option<Vec<u32>>,
}

const FLAG_STOP: u8 = 1;

fn encode_value(frequency: u32, stop: bool, tids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(7 + 4 * tids.len());
    out.push(if stop { FLAG_STOP } else { 0 });
    out.extend_from_slice(&frequency.to_le_bytes());
    out.extend_from_slice(&(tids.len() as u16).to_le_bytes());
    for &tid in tids {
        out.extend_from_slice(&tid.to_le_bytes());
    }
    out
}

fn decode_value(bytes: &[u8]) -> Result<(u32, bool, Vec<u32>)> {
    if bytes.len() < 7 {
        return Err(StoreError::Corrupt("eti value too short".into()).into());
    }
    let stop = bytes[0] & FLAG_STOP != 0;
    // lint:allow(unwrap): slice lengths are fixed
    let frequency = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
    let count = u16::from_le_bytes(bytes[5..7].try_into().unwrap()) as usize; // lint:allow(unwrap): fixed-size slice
    if bytes.len() != 7 + 4 * count {
        return Err(StoreError::Corrupt("eti value length mismatch".into()).into());
    }
    let tids = bytes[7..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap())) // lint:allow(unwrap): chunks_exact(4)
        .collect();
    Ok((frequency, stop, tids))
}

/// The ETI: a B+-tree of chunked tid-list rows.
pub struct Eti {
    // BTree is a self-synchronized handle: every descent and mutation runs
    // under the shared structural latch and the pool's shard/frame locks
    // inside fm-store (DESIGN §11) — locks the field-level lockset analysis
    // cannot see from the call site.
    // lint:allow(lockset): BTree handles share one structural latch (DESIGN §11)
    tree: BTree,
    stop_threshold: usize,
}

impl Eti {
    pub fn new(tree: BTree, stop_threshold: usize) -> Eti {
        Eti {
            tree,
            stop_threshold,
        }
    }

    /// The stop q-gram threshold this index was built with.
    pub fn stop_threshold(&self) -> usize {
        self.stop_threshold
    }

    /// Key prefix shared by all chunks of one logical row.
    fn prefix(gram: &str, coordinate: u8, column: u8) -> Vec<u8> {
        Self::row_key(gram, coordinate, column).into_bytes()
    }

    fn chunk_key(gram: &str, coordinate: u8, column: u8, chunk: u32) -> Vec<u8> {
        Self::row_key(gram, coordinate, column)
            .u32(chunk)
            .into_bytes()
    }

    fn row_key(gram: &str, coordinate: u8, column: u8) -> keycode::KeyBuf {
        keycode::KeyBuf::with_capacity(gram.len() + 8)
            .str(gram)
            .u8(coordinate)
            .u8(column)
    }

    /// Look up the tid-list for `(gram, coordinate, column)`. One logical
    /// ETI lookup (the unit counted by the paper's efficiency metrics).
    pub fn lookup(&self, gram: &str, coordinate: u8, column: u8) -> Result<Option<TidList>> {
        Ok(self.lookup_impl(gram, coordinate, column)?.0)
    }

    /// [`Eti::lookup`], also returning the number of physical chunk rows
    /// scanned in the B+-tree. The query processor accounts the counts
    /// into its (stack-local) `LookupTrace`; returning them instead of
    /// taking the trace `&mut` keeps this hot-path function read-only
    /// under the mut-map gate. The plain `lookup` serves maintenance and
    /// diagnostics.
    pub fn lookup_counted(
        &self,
        gram: &str,
        coordinate: u8,
        column: u8,
    ) -> Result<(Option<TidList>, u64)> {
        self.lookup_impl(gram, coordinate, column)
    }

    /// A second handle onto the same index, sharing the underlying tree's
    /// pool and structural latch (see [`BTree::clone_handle`]).
    #[must_use]
    pub fn clone_handle(&self) -> Eti {
        Eti {
            tree: self.tree.clone_handle(),
            stop_threshold: self.stop_threshold,
        }
    }

    fn lookup_impl(
        &self,
        gram: &str,
        coordinate: u8,
        column: u8,
    ) -> Result<(Option<TidList>, u64)> {
        let prefix = Self::prefix(gram, coordinate, column);
        let mut scan = self.tree.scan_prefix(&prefix)?;
        let mut frequency = 0u32;
        let mut stop = false;
        let mut tids: Vec<u32> = Vec::new();
        let mut found = false;
        let mut rows = 0u64;
        while let Some((_, value)) = scan.next_entry()? {
            let (freq, is_stop, chunk_tids) = decode_value(&value)?;
            rows += 1;
            if !found {
                frequency = freq; // chunk 0 is authoritative
                stop = is_stop;
                found = true;
            }
            tids.extend(chunk_tids);
        }
        if !found {
            return Ok((None, rows));
        }
        Ok((
            Some(TidList {
                frequency,
                tids: if stop { None } else { Some(tids) },
            }),
            rows,
        ))
    }

    /// The physical `(key, value)` entries representing one group's
    /// tid-list: one entry per chunk, or a single stop-q-gram entry.
    /// `tids` must be sorted and deduplicated.
    pub(crate) fn group_entries(
        &self,
        gram: &str,
        coordinate: u8,
        column: u8,
        tids: &[u32],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        debug_assert!(
            tids.windows(2).all(|w| w[0] < w[1]),
            "tids must be sorted unique"
        );
        let frequency = tids.len() as u32;
        if tids.len() > self.stop_threshold {
            return vec![(
                Self::chunk_key(gram, coordinate, column, 0),
                encode_value(frequency, true, &[]),
            )];
        }
        tids.chunks(TIDS_PER_CHUNK)
            .enumerate()
            .map(|(i, chunk)| {
                (
                    Self::chunk_key(gram, coordinate, column, i as u32),
                    encode_value(frequency, false, chunk),
                )
            })
            .collect()
    }

    /// Insert the complete tid-list of one group (incremental build path).
    /// `tids` must be sorted and deduplicated. Applies the stop-q-gram rule.
    pub fn insert_group(&self, gram: &str, coordinate: u8, column: u8, tids: &[u32]) -> Result<()> {
        for (key, value) in self.group_entries(gram, coordinate, column, tids) {
            self.tree.insert(&key, &value)?;
        }
        Ok(())
    }

    /// Bulk-load physical entries (ascending key order) into an empty ETI —
    /// the fast path for the initial build (see [`fm_store::BTree::bulk_fill`]).
    pub(crate) fn bulk_fill_entries(
        &self,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<()> {
        self.tree.bulk_fill(entries)?;
        Ok(())
    }

    /// Append one tid to a row (ETI maintenance for a newly inserted
    /// reference tuple). Creates the row if absent; converts to a stop
    /// q-gram if the list outgrows the threshold; idempotent per tid.
    pub fn append_tid(&self, gram: &str, coordinate: u8, column: u8, tid: u32) -> Result<()> {
        // Collect the existing chunks.
        let prefix = Self::prefix(gram, coordinate, column);
        let mut chunks: Vec<(Vec<u8>, u32, bool, Vec<u32>)> = Vec::new();
        {
            let mut scan = self.tree.scan_prefix(&prefix)?;
            while let Some((key, value)) = scan.next_entry()? {
                let (freq, stop, tids) = decode_value(&value)?;
                chunks.push((key, freq, stop, tids));
            }
        }
        if chunks.is_empty() {
            return self.insert_group(gram, coordinate, column, &[tid]);
        }
        let total: u32 = chunks[0].1;
        if chunks[0].2 {
            // Already a stop q-gram: just bump the frequency.
            let key = chunks[0].0.clone();
            self.tree
                .insert(&key, &encode_value(total + 1, true, &[]))?;
            return Ok(());
        }
        if chunks.iter().any(|(_, _, _, tids)| tids.contains(&tid)) {
            return Ok(()); // second token of the same tuple hit this row
        }
        let new_total = total + 1;
        if new_total as usize > self.stop_threshold {
            // Convert to a stop q-gram: rewrite chunk 0, drop the rest.
            for (key, _, _, _) in &chunks[1..] {
                self.tree.delete(key)?;
            }
            self.tree
                .insert(&chunks[0].0, &encode_value(new_total, true, &[]))?;
            return Ok(());
        }
        // Refresh the authoritative frequency in chunk 0.
        let (first_key, _, _, first_tids) = &chunks[0];
        self.tree
            .insert(first_key, &encode_value(new_total, false, first_tids))?;
        // Append to the last chunk or open a new one. New tids are assigned
        // monotonically, so appending keeps chunks sorted.
        let last = chunks.last().unwrap(); // lint:allow(unwrap): chunk 0 always exists here
        if last.3.len() < TIDS_PER_CHUNK {
            let mut tids = last.3.clone();
            tids.push(tid);
            tids.sort_unstable();
            let freq = if chunks.len() == 1 { new_total } else { last.1 };
            self.tree
                .insert(&last.0, &encode_value(freq, false, &tids))?;
        } else {
            let key = Self::chunk_key(gram, coordinate, column, chunks.len() as u32);
            self.tree
                .insert(&key, &encode_value(new_total, false, &[tid]))?;
        }
        Ok(())
    }

    /// Remove one tid from a row (ETI maintenance for a deleted reference
    /// tuple). Idempotent: a tid not present (including in stop-q-gram rows,
    /// whose membership is unknowable) only decrements the frequency when
    /// the row is a stop row — stop-row frequencies are approximate by
    /// construction.
    pub fn remove_tid(&self, gram: &str, coordinate: u8, column: u8, tid: u32) -> Result<()> {
        let prefix = Self::prefix(gram, coordinate, column);
        let mut chunks: Vec<(Vec<u8>, u32, bool, Vec<u32>)> = Vec::new();
        {
            let mut scan = self.tree.scan_prefix(&prefix)?;
            while let Some((key, value)) = scan.next_entry()? {
                let (freq, stop, tids) = decode_value(&value)?;
                chunks.push((key, freq, stop, tids));
            }
        }
        if chunks.is_empty() {
            return Ok(());
        }
        let total = chunks[0].1;
        if chunks[0].2 {
            // Stop row: membership unknown; keep the count roughly in sync.
            self.tree.insert(
                &chunks[0].0,
                &encode_value(total.saturating_sub(1), true, &[]),
            )?;
            return Ok(());
        }
        let Some(pos) = chunks
            .iter()
            .position(|(_, _, _, tids)| tids.contains(&tid))
        else {
            return Ok(()); // not present
        };
        let new_total = total.saturating_sub(1);
        if new_total == 0 {
            // Last tid: drop the whole row.
            for (key, _, _, _) in &chunks {
                self.tree.delete(key)?;
            }
            return Ok(());
        }
        // Remove from its chunk; drop the chunk if (non-zero chunk) empties.
        let (key, _, _, tids) = &chunks[pos];
        let mut tids = tids.clone();
        tids.retain(|&t| t != tid);
        if tids.is_empty() && pos != 0 {
            self.tree.delete(key)?;
        } else {
            let freq = if pos == 0 { new_total } else { chunks[pos].1 };
            self.tree.insert(key, &encode_value(freq, false, &tids))?;
        }
        // Refresh the authoritative frequency in chunk 0 (if we didn't just
        // rewrite it above).
        if pos != 0 {
            let (key0, _, _, tids0) = &chunks[0];
            self.tree
                .insert(key0, &encode_value(new_total, false, tids0))?;
        }
        Ok(())
    }

    /// Number of physical entries (chunks) in the index.
    pub fn entry_count(&self) -> Result<usize> {
        Ok(self.tree.len()?)
    }

    /// Validate the whole index: the underlying B+-tree structure, then a
    /// full scan checking the ETI's own representation invariants —
    ///
    /// * every key decodes as `(gram, coordinate, column, chunk)` with no
    ///   trailing bytes, every value decodes as a tid-list record;
    /// * a logical row's chunks are numbered contiguously from 0;
    /// * chunk 0's frequency equals the total number of stored tids
    ///   (non-stop rows), and tids are globally sorted and deduplicated
    ///   across the row's chunks, at most [`TIDS_PER_CHUNK`] per chunk;
    /// * non-stop rows respect the stop threshold (total ≤ threshold);
    /// * stop rows are a single chunk-0 entry with an empty (NULL) tid-list;
    /// * emptied non-zero chunks were deleted, not left behind.
    ///
    /// (A stop row's frequency may legally sit below the threshold:
    /// [`Eti::remove_tid`] decrements it approximately, and stop rows never
    /// convert back.)
    pub fn check_invariants(&self) -> Result<EtiCheck> {
        self.tree
            .check_invariants()
            .map_err(|e| StoreError::Corrupt(format!("eti tree: {e}")))?;
        struct Group {
            gram: String,
            coordinate: u8,
            column: u8,
            stop: bool,
            frequency: u32,
            next_chunk: u32,
            last_tid: Option<u32>,
            total: usize,
        }
        let bad = |msg: String| crate::error::CoreError::BadState(msg);
        let finish = |g: &Group, check: &mut EtiCheck| -> Result<()> {
            let row = (g.gram.as_str(), g.coordinate, g.column);
            if g.stop {
                check.stop_groups += 1;
            } else {
                if g.frequency as usize != g.total {
                    return Err(bad(format!(
                        "eti row {row:?}: chunk-0 frequency {} disagrees with \
                         {} stored tids",
                        g.frequency, g.total
                    )));
                }
                if g.total > self.stop_threshold {
                    return Err(bad(format!(
                        "eti row {row:?}: {} tids exceed stop threshold {} \
                         without being a stop row",
                        g.total, self.stop_threshold
                    )));
                }
            }
            check.groups += 1;
            check.tids += g.total;
            Ok(())
        };
        let mut check = EtiCheck {
            groups: 0,
            chunks: 0,
            stop_groups: 0,
            tids: 0,
        };
        let mut current: Option<Group> = None;
        for entry in self
            .tree
            .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)?
        {
            let (key, value) = entry?;
            let decoded: std::result::Result<(String, u8, u8, u32), StoreError> = (|| {
                let (gram, rest) = keycode::decode_str(&key)?;
                let (coordinate, rest) = keycode::decode_u8(rest)?;
                let (column, rest) = keycode::decode_u8(rest)?;
                let (chunk, rest) = keycode::decode_u32(rest)?;
                if !rest.is_empty() {
                    return Err(StoreError::Corrupt("trailing bytes".into()));
                }
                Ok((gram, coordinate, column, chunk))
            })();
            let (gram, coordinate, column, chunk) = decoded.map_err(|e| {
                bad(format!(
                    "eti key {key:?} does not decode as (gram, coordinate, \
                     column, chunk): {e}"
                ))
            })?;
            let row = (gram.as_str(), coordinate, column);
            let (frequency, stop, tids) = decode_value(&value)
                .map_err(|e| bad(format!("eti row {row:?} chunk {chunk}: {e}")))?;
            if tids.len() > TIDS_PER_CHUNK {
                return Err(bad(format!(
                    "eti row {row:?} chunk {chunk}: {} tids in one chunk \
                     (cap is {TIDS_PER_CHUNK})",
                    tids.len()
                )));
            }
            if !tids.windows(2).all(|w| w[0] < w[1]) {
                return Err(bad(format!(
                    "eti row {row:?} chunk {chunk}: tid-list is not sorted \
                     and deduplicated"
                )));
            }
            let continues = current
                .as_ref()
                .is_some_and(|g| (g.gram.as_str(), g.coordinate, g.column) == row);
            if continues {
                let g = current.as_mut().unwrap(); // lint:allow(unwrap): `continues` proved Some
                if chunk != g.next_chunk {
                    return Err(bad(format!(
                        "eti row {row:?}: chunks not contiguous (expected \
                         chunk {}, found {chunk})",
                        g.next_chunk
                    )));
                }
                if g.stop || stop {
                    return Err(bad(format!(
                        "eti row {row:?}: stop row must be a single chunk-0 \
                         entry, found chunk {chunk}"
                    )));
                }
                if tids.is_empty() {
                    return Err(bad(format!(
                        "eti row {row:?}: empty non-zero chunk {chunk} should \
                         have been deleted"
                    )));
                }
                if let (Some(last), Some(&first)) = (g.last_tid, tids.first()) {
                    if first <= last {
                        return Err(bad(format!(
                            "eti row {row:?}: tids not globally sorted across \
                             chunks (chunk {chunk} starts at {first} after {last})"
                        )));
                    }
                }
                g.total += tids.len();
                g.last_tid = tids.last().copied().or(g.last_tid);
                g.next_chunk += 1;
            } else {
                if let Some(g) = current.take() {
                    finish(&g, &mut check)?;
                }
                if chunk != 0 {
                    return Err(bad(format!(
                        "eti row {row:?}: first chunk is {chunk}, expected 0"
                    )));
                }
                if stop && !tids.is_empty() {
                    return Err(bad(format!(
                        "eti row {row:?}: stop row carries {} tids, must have \
                         a NULL tid-list",
                        tids.len()
                    )));
                }
                current = Some(Group {
                    gram,
                    coordinate,
                    column,
                    stop,
                    frequency,
                    next_chunk: 1,
                    last_tid: tids.last().copied(),
                    total: tids.len(),
                });
            }
            check.chunks += 1;
        }
        if let Some(g) = current.take() {
            finish(&g, &mut check)?;
        }
        Ok(check)
    }
}

/// Report from [`Eti::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtiCheck {
    /// Logical rows (distinct `(gram, coordinate, column)` groups).
    pub groups: usize,
    /// Physical B+-tree entries (chunks).
    pub chunks: usize,
    /// Rows stored as stop q-grams (NULL tid-list).
    pub stop_groups: usize,
    /// Total tids stored across all non-stop rows.
    pub tids: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_store::{BufferPool, MemPager};
    use std::sync::Arc;

    fn eti(stop: usize) -> Eti {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        Eti::new(BTree::create(pool).unwrap(), stop)
    }

    #[test]
    fn value_codec_round_trip() {
        for (freq, stop, tids) in [
            (0u32, false, vec![]),
            (3, false, vec![1, 2, 3]),
            (50_000, true, vec![]),
            (1, false, vec![u32::MAX]),
        ] {
            let enc = encode_value(freq, stop, &tids);
            assert_eq!(decode_value(&enc).unwrap(), (freq, stop, tids));
        }
        assert!(decode_value(&[1, 2]).is_err());
        assert!(decode_value(&encode_value(1, false, &[7])[..8]).is_err());
    }

    #[test]
    fn insert_group_and_lookup() {
        let e = eti(10_000);
        e.insert_group("ing", 2, 0, &[1, 5, 9]).unwrap();
        let list = e.lookup("ing", 2, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 3);
        assert_eq!(list.tids, Some(vec![1, 5, 9]));
        assert!(e.lookup("ing", 1, 0).unwrap().is_none());
        assert!(e.lookup("ing", 2, 1).unwrap().is_none());
        assert!(e.lookup("xyz", 2, 0).unwrap().is_none());
    }

    #[test]
    fn coordinate_and_column_are_part_of_the_key() {
        // Paper Table 3: 'sea' at coordinate 1 of column 2 is distinct from
        // any other (coordinate, column) combination.
        let e = eti(10_000);
        e.insert_group("sea", 1, 1, &[1, 2, 3]).unwrap();
        e.insert_group("sea", 2, 1, &[4]).unwrap();
        e.insert_group("sea", 1, 0, &[9]).unwrap();
        assert_eq!(
            e.lookup("sea", 1, 1).unwrap().unwrap().tids,
            Some(vec![1, 2, 3])
        );
        assert_eq!(e.lookup("sea", 2, 1).unwrap().unwrap().tids, Some(vec![4]));
        assert_eq!(e.lookup("sea", 1, 0).unwrap().unwrap().tids, Some(vec![9]));
    }

    #[test]
    fn chunking_across_many_tids() {
        let e = eti(10_000);
        let tids: Vec<u32> = (0..1500).collect();
        e.insert_group("com", 1, 0, &tids).unwrap();
        // 1500 tids / 400 per chunk = 4 physical entries.
        assert_eq!(e.entry_count().unwrap(), 4);
        let list = e.lookup("com", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 1500);
        assert_eq!(list.tids, Some(tids));
    }

    #[test]
    fn stop_qgram_rule() {
        let e = eti(10);
        let tids: Vec<u32> = (0..11).collect();
        e.insert_group("sto", 1, 0, &tids).unwrap();
        let list = e.lookup("sto", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 11);
        assert_eq!(list.tids, None, "stop q-gram has NULL tid-list");
        assert_eq!(e.entry_count().unwrap(), 1);
    }

    #[test]
    fn append_tid_creates_and_extends() {
        let e = eti(10_000);
        e.append_tid("boe", 1, 0, 7).unwrap();
        assert_eq!(e.lookup("boe", 1, 0).unwrap().unwrap().tids, Some(vec![7]));
        e.append_tid("boe", 1, 0, 9).unwrap();
        let list = e.lookup("boe", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 2);
        assert_eq!(list.tids, Some(vec![7, 9]));
        // Idempotent for the same tid (two tokens of one tuple can share a
        // coordinate).
        e.append_tid("boe", 1, 0, 9).unwrap();
        assert_eq!(e.lookup("boe", 1, 0).unwrap().unwrap().frequency, 2);
    }

    #[test]
    fn append_tid_spills_into_new_chunk() {
        let e = eti(10_000);
        let initial: Vec<u32> = (0..TIDS_PER_CHUNK as u32).collect();
        e.insert_group("ful", 1, 0, &initial).unwrap();
        assert_eq!(e.entry_count().unwrap(), 1);
        e.append_tid("ful", 1, 0, 5000).unwrap();
        assert_eq!(e.entry_count().unwrap(), 2);
        let list = e.lookup("ful", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, TIDS_PER_CHUNK as u32 + 1);
        assert_eq!(list.tids.unwrap().last(), Some(&5000));
    }

    #[test]
    fn append_tid_converts_to_stop() {
        let e = eti(5);
        e.insert_group("pop", 1, 0, &[1, 2, 3, 4, 5]).unwrap();
        e.append_tid("pop", 1, 0, 6).unwrap();
        let list = e.lookup("pop", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 6);
        assert_eq!(list.tids, None);
        // Further appends keep counting.
        e.append_tid("pop", 1, 0, 7).unwrap();
        assert_eq!(e.lookup("pop", 1, 0).unwrap().unwrap().frequency, 7);
    }

    #[test]
    fn remove_tid_from_middle_and_to_empty() {
        let e = eti(10_000);
        e.insert_group("rem", 1, 0, &[1, 2, 3]).unwrap();
        e.remove_tid("rem", 1, 0, 2).unwrap();
        let list = e.lookup("rem", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 2);
        assert_eq!(list.tids, Some(vec![1, 3]));
        // Removing a tid that is not there is a no-op.
        e.remove_tid("rem", 1, 0, 99).unwrap();
        assert_eq!(e.lookup("rem", 1, 0).unwrap().unwrap().frequency, 2);
        // Removing the rest drops the row entirely.
        e.remove_tid("rem", 1, 0, 1).unwrap();
        e.remove_tid("rem", 1, 0, 3).unwrap();
        assert!(e.lookup("rem", 1, 0).unwrap().is_none());
        // Removing from an absent row is a no-op.
        e.remove_tid("rem", 1, 0, 3).unwrap();
    }

    #[test]
    fn remove_tid_across_chunks() {
        let e = eti(10_000);
        let tids: Vec<u32> = (0..(TIDS_PER_CHUNK as u32 * 2 + 5)).collect();
        e.insert_group("chu", 1, 0, &tids).unwrap();
        // Remove one from the second chunk.
        let victim = TIDS_PER_CHUNK as u32 + 7;
        e.remove_tid("chu", 1, 0, victim).unwrap();
        let list = e.lookup("chu", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, tids.len() as u32 - 1);
        let got = list.tids.unwrap();
        assert!(!got.contains(&victim));
        assert_eq!(got.len(), tids.len() - 1);
        // Empty out the last (5-element) chunk: its entry disappears.
        let before = e.entry_count().unwrap();
        for t in (TIDS_PER_CHUNK as u32 * 2)..(TIDS_PER_CHUNK as u32 * 2 + 5) {
            e.remove_tid("chu", 1, 0, t).unwrap();
        }
        assert_eq!(e.entry_count().unwrap(), before - 1);
    }

    #[test]
    fn remove_tid_on_stop_row_decrements_frequency() {
        let e = eti(3);
        e.insert_group("stp", 1, 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(e.lookup("stp", 1, 0).unwrap().unwrap().tids, None);
        e.remove_tid("stp", 1, 0, 2).unwrap();
        let list = e.lookup("stp", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 3);
        assert_eq!(list.tids, None, "stop rows stay stop rows");
    }

    #[test]
    fn check_invariants_accepts_healthy_index() {
        let e = eti(10);
        e.insert_group("ing", 2, 0, &[1, 5, 9]).unwrap();
        e.insert_group("sea", 1, 1, &[4]).unwrap();
        e.insert_group("pop", 1, 0, &(0..11).collect::<Vec<u32>>())
            .unwrap(); // stop
        let check = e.check_invariants().unwrap();
        assert_eq!(
            check,
            EtiCheck {
                groups: 3,
                chunks: 3,
                stop_groups: 1,
                tids: 4
            }
        );
        // Chunked rows and maintenance churn stay valid too.
        let e = eti(10_000);
        let tids: Vec<u32> = (0..(TIDS_PER_CHUNK as u32 * 2 + 5)).collect();
        e.insert_group("chu", 1, 0, &tids).unwrap();
        e.append_tid("chu", 1, 0, 5000).unwrap();
        e.remove_tid("chu", 1, 0, 7).unwrap();
        let check = e.check_invariants().unwrap();
        assert_eq!(check.groups, 1);
        assert_eq!(check.chunks, 3);
        assert_eq!(check.tids, tids.len() + 1 - 1);
    }

    #[test]
    fn check_invariants_detects_unsorted_tid_list() {
        let e = eti(10_000);
        e.tree
            .insert(
                &Eti::chunk_key("bad", 1, 0, 0),
                &encode_value(3, false, &[5, 2, 9]),
            )
            .unwrap();
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("\"bad\"") && err.contains("sorted"),
            "got: {err}"
        );
    }

    #[test]
    fn check_invariants_detects_wrong_frequency() {
        let e = eti(10_000);
        e.insert_group("oka", 1, 0, &[1, 2, 3]).unwrap();
        // Rewrite chunk 0 claiming 7 tids while storing 3.
        e.tree
            .insert(
                &Eti::chunk_key("oka", 1, 0, 0),
                &encode_value(7, false, &[1, 2, 3]),
            )
            .unwrap();
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("\"oka\"") && err.contains("frequency 7") && err.contains("3 stored tids"),
            "got: {err}"
        );
    }

    #[test]
    fn check_invariants_detects_missing_chunk_zero() {
        let e = eti(10_000);
        e.tree
            .insert(
                &Eti::chunk_key("gap", 1, 0, 2),
                &encode_value(1, false, &[8]),
            )
            .unwrap();
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("expected 0"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_stop_row_with_tids() {
        let e = eti(2);
        e.tree
            .insert(
                &Eti::chunk_key("stp", 1, 0, 0),
                &encode_value(9, true, &[1, 2]),
            )
            .unwrap();
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("NULL tid-list"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_threshold_violation() {
        let e = eti(3);
        // 5 tids in a non-stop row, over the threshold of 3.
        e.tree
            .insert(
                &Eti::chunk_key("ovr", 1, 0, 0),
                &encode_value(5, false, &[1, 2, 3, 4, 5]),
            )
            .unwrap();
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("stop threshold"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_undecodable_key() {
        let e = eti(10_000);
        // A raw key that is not (gram, coordinate, column, chunk).
        e.tree
            .insert(b"\x07garbage", &encode_value(1, false, &[1]))
            .unwrap();
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("does not decode"), "got: {err}");
    }

    #[test]
    fn q_scheme_signature_shares() {
        let mh = MinHasher::new(3, 4, 42);
        let sig = token_signature("corporation", &mh, SignatureScheme::QGrams);
        assert_eq!(sig.len(), 3);
        for (i, entry) in sig.iter().enumerate() {
            assert_eq!(entry.coordinate, i as u8 + 1);
            assert!((entry.share - 1.0 / 3.0).abs() < 1e-12);
        }
        let total: f64 = sig.iter().map(|e| e.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn q_scheme_short_token() {
        // |t| < q → signature is the token itself at coordinate 1, share 1.
        let mh = MinHasher::new(3, 4, 42);
        let sig = token_signature("wa", &mh, SignatureScheme::QGrams);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].gram, "wa");
        assert_eq!(sig[0].share, 1.0);
    }

    #[test]
    fn qt_scheme_splits_half_half() {
        let mh = MinHasher::new(2, 4, 42);
        let sig = token_signature("corporation", &mh, SignatureScheme::QGramsPlusToken);
        assert_eq!(sig.len(), 3);
        assert_eq!(sig[0].coordinate, TOKEN_COORDINATE);
        assert_eq!(sig[0].gram, "corporation");
        assert!((sig[0].share - 0.5).abs() < 1e-12);
        assert!((sig[1].share - 0.25).abs() < 1e-12);
        let total: f64 = sig.iter().map(|e| e.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qt_scheme_degenerate_cases_collapse_to_token() {
        // Tokens-only index (H = 0).
        let mh0 = MinHasher::new(0, 4, 42);
        let sig = token_signature("corporation", &mh0, SignatureScheme::QGramsPlusToken);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].coordinate, TOKEN_COORDINATE);
        assert_eq!(sig[0].share, 1.0);
        // Short token under Q+T.
        let mh = MinHasher::new(3, 4, 42);
        let sig = token_signature("wa", &mh, SignatureScheme::QGramsPlusToken);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].coordinate, TOKEN_COORDINATE);
        assert_eq!(sig[0].share, 1.0);
    }
}
