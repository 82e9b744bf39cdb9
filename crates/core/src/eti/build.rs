//! ETI construction (paper §4.2).
//!
//! The paper builds the ETI through a temporary **pre-ETI** relation with
//! schema `[QGram, Coordinate, Column, Tid]` — one row per signature
//! coordinate of every token of every reference tuple — because "the
//! combined size of all tid-lists is usually larger than the amount of
//! available main memory". The pre-ETI is then sorted ("the ETI-query …
//! ORDER BY QGram, Coordinate, Column, Tid") and the sorted stream is
//! grouped into ETI rows.
//!
//! Here the pre-ETI rows are pushed straight into an
//! [`fm_store::ExternalSorter`] (row bytes = order-preserving key encoding
//! of `(gram, coordinate, column)` followed by the big-endian tid, so
//! lexicographic record order *is* the ETI-query's ORDER BY), and
//! [`EtiBuilder::finish`] streams the merge output into the ETI B+-tree one
//! group at a time.

use fm_store::keycode;
use fm_store::{ExternalSorter, StoreError};
use fm_text::minhash::MinHasher;

use crate::config::SignatureScheme;
use crate::error::Result;
use crate::eti::{token_signature, Eti};
use crate::record::TokenizedRecord;

/// Build-phase counters (reported by the Figure-7 experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Reference tuples scanned.
    pub reference_tuples: u64,
    /// Pre-ETI rows written (signature coordinates emitted).
    pub pre_eti_records: u64,
    /// Sort runs spilled to disk.
    pub spilled_runs: usize,
    /// Logical ETI rows (distinct `(gram, coordinate, column)` groups).
    pub eti_groups: u64,
    /// Groups classified as stop q-grams.
    pub stop_qgrams: u64,
}

/// Encode one pre-ETI row.
fn pre_eti_record(gram: &str, coordinate: u8, column: u8, tid: u32) -> Vec<u8> {
    keycode::KeyBuf::with_capacity(gram.len() + 10)
        .str(gram)
        .u8(coordinate)
        .u8(column)
        .u32(tid) // big-endian: ties ordered by tid
        .into_bytes()
}

/// Decode a pre-ETI row.
fn parse_pre_eti_record(rec: &[u8]) -> Result<(String, u8, u8, u32)> {
    let (gram, rest) = keycode::decode_str(rec)?;
    let (coordinate, rest) = keycode::decode_u8(rest)?;
    let (column, rest) = keycode::decode_u8(rest)?;
    let (tid, rest) = keycode::decode_u32(rest)?;
    if !rest.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in pre-ETI record".into()).into());
    }
    Ok((gram, coordinate, column, tid))
}

/// Incremental ETI builder: feed tokenized reference tuples, then
/// [`EtiBuilder::finish`] into the target index.
pub struct EtiBuilder {
    sorter: ExternalSorter,
    minhasher: MinHasher,
    scheme: SignatureScheme,
    stats: BuildStats,
}

impl EtiBuilder {
    /// A builder with the given signature parameters and sort memory
    /// budget in bytes.
    pub fn new(
        minhasher: MinHasher,
        scheme: SignatureScheme,
        sort_budget: usize,
    ) -> Result<EtiBuilder> {
        Ok(EtiBuilder {
            sorter: ExternalSorter::with_budget(sort_budget)?,
            minhasher,
            scheme,
            stats: BuildStats::default(),
        })
    }

    /// Emit the pre-ETI rows of one reference tuple.
    pub fn observe(&mut self, tid: u32, tuple: &TokenizedRecord) -> Result<()> {
        self.stats.reference_tuples += 1;
        for (col, token) in tuple.iter_tokens() {
            for entry in token_signature(token, &self.minhasher, self.scheme) {
                self.sorter.push(&pre_eti_record(
                    &entry.gram,
                    entry.coordinate,
                    col as u8,
                    tid,
                ))?;
                self.stats.pre_eti_records += 1;
            }
        }
        Ok(())
    }

    /// Sort, group, and bulk-load every ETI row into `eti`.
    ///
    /// The merge output arrives in exactly the clustered-index key order
    /// (gram, coordinate, column, tid), so the physical entries can be
    /// streamed straight into [`fm_store::BTree::bulk_fill`] — leaves packed
    /// to the fill factor, internal levels built bottom-up — without ever
    /// materializing the index in memory.
    pub fn finish(mut self, eti: &Eti) -> Result<BuildStats> {
        self.stats.spilled_runs = self.sorter.spilled_runs();
        let sorted = self.sorter.finish()?;
        let _span = crate::tracing::span("group_fill");
        let mut error: Option<crate::error::CoreError> = None;
        let mut stats = self.stats;
        let stream = EntryStream {
            sorted,
            eti,
            stats: &mut stats,
            error: &mut error,
            current: None,
            tids: Vec::new(),
            queue: std::collections::VecDeque::new(),
            done: false,
        };
        eti.bulk_fill_entries(stream)?;
        if let Some(e) = error {
            return Err(e);
        }
        Ok(stats)
    }
}

/// Streaming adapter: sorted pre-ETI records → physical ETI entries, one
/// group at a time. Errors are smuggled out through `error` (the stream
/// simply ends early; the caller checks and propagates).
struct EntryStream<'a> {
    sorted: fm_store::extsort::SortedRun,
    eti: &'a Eti,
    stats: &'a mut BuildStats,
    error: &'a mut Option<crate::error::CoreError>,
    current: Option<(String, u8, u8)>,
    tids: Vec<u32>,
    queue: std::collections::VecDeque<(Vec<u8>, Vec<u8>)>,
    done: bool,
}

impl EntryStream<'_> {
    fn flush_group(&mut self) {
        if let Some((gram, coordinate, column)) = self.current.take() {
            self.stats.eti_groups += 1;
            if self.tids.len() > self.eti.stop_threshold() {
                self.stats.stop_qgrams += 1;
            }
            self.queue.extend(
                self.eti
                    .group_entries(&gram, coordinate, column, &self.tids),
            );
            self.tids.clear();
        }
    }
}

impl Iterator for EntryStream<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.queue.pop_front() {
                return Some(entry);
            }
            if self.done {
                return None;
            }
            match self.sorted.next_record() {
                Err(e) => {
                    *self.error = Some(e.into());
                    self.done = true;
                }
                Ok(None) => {
                    self.flush_group();
                    self.done = true;
                }
                Ok(Some(rec)) => match parse_pre_eti_record(&rec) {
                    Err(e) => {
                        *self.error = Some(e);
                        self.done = true;
                    }
                    Ok((gram, coordinate, column, tid)) => {
                        let key = (gram, coordinate, column);
                        if self.current.as_ref() == Some(&key) {
                            // Dedupe: two tokens of one tuple can share a
                            // coordinate value; the tid-list is a tuple set.
                            if self.tids.last() != Some(&tid) {
                                self.tids.push(tid);
                            }
                        } else {
                            self.flush_group();
                            self.current = Some(key);
                            self.tids.push(tid);
                        }
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use fm_store::{BTree, BufferPool, MemPager};
    use fm_text::Tokenizer;
    use std::sync::Arc;

    fn make_eti(stop: usize) -> Eti {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        Eti::new(BTree::create(pool).unwrap(), stop)
    }

    fn tok(values: &[&str]) -> TokenizedRecord {
        Record::new(values).tokenize(&Tokenizer::new())
    }

    #[test]
    fn pre_eti_record_round_trip() {
        let rec = pre_eti_record("oei", 1, 0, 42);
        assert_eq!(
            parse_pre_eti_record(&rec).unwrap(),
            ("oei".into(), 1, 0, 42)
        );
    }

    #[test]
    fn pre_eti_record_sort_order_matches_eti_query() {
        // ORDER BY QGram, Coordinate, Column, Tid.
        let records = [
            pre_eti_record("com", 1, 0, 3),
            pre_eti_record("com", 1, 0, 10),
            pre_eti_record("com", 1, 1, 1),
            pre_eti_record("com", 2, 0, 1),
            pre_eti_record("ing", 1, 0, 1),
        ];
        for w in records.windows(2) {
            assert!(w[0] < w[1], "sort order violated");
        }
    }

    #[test]
    fn builds_paper_table_3_structure() {
        // Table 1's reference relation with q=3, H=2 (Q scheme) must produce
        // an ETI where (i) every token's signature coordinates appear with
        // the right tid-lists and (ii) shared tokens accumulate all tids.
        let mh = MinHasher::new(2, 3, 7);
        let mut builder = EtiBuilder::new(mh.clone(), SignatureScheme::QGrams, 1 << 20).unwrap();
        let rows = [
            tok(&["Boeing Company", "Seattle", "WA", "98004"]),
            tok(&["Bon Corporation", "Seattle", "WA", "98014"]),
            tok(&["Companions", "Seattle", "WA", "98024"]),
        ];
        for (i, row) in rows.iter().enumerate() {
            builder.observe(i as u32 + 1, row).unwrap();
        }
        let eti = make_eti(10_000);
        let stats = builder.finish(&eti).unwrap();
        assert_eq!(stats.reference_tuples, 3);
        assert_eq!(stats.stop_qgrams, 0);
        assert!(stats.eti_groups > 0);

        // 'seattle' is in all three tuples (column 1): both of its
        // coordinates list {1, 2, 3}.
        let sig = mh.signature("seattle");
        for (i, gram) in sig.iter().enumerate() {
            let list = eti.lookup(gram, i as u8 + 1, 1).unwrap().unwrap();
            assert_eq!(list.tids, Some(vec![1, 2, 3]), "gram {gram}");
            assert_eq!(list.frequency, 3);
        }
        // 'wa' is short: its signature is itself at coordinate 1.
        let list = eti.lookup("wa", 1, 2).unwrap().unwrap();
        assert_eq!(list.tids, Some(vec![1, 2, 3]));
        // 'boeing' is only in tuple 1 (column 0).
        for (i, gram) in mh.signature("boeing").iter().enumerate() {
            let list = eti.lookup(gram, i as u8 + 1, 0).unwrap().unwrap();
            assert!(list.tids.as_ref().unwrap().contains(&1), "gram {gram}");
        }
    }

    #[test]
    fn qt_scheme_also_indexes_whole_tokens() {
        let mh = MinHasher::new(2, 3, 7);
        let mut builder = EtiBuilder::new(mh, SignatureScheme::QGramsPlusToken, 1 << 20).unwrap();
        builder
            .observe(1, &tok(&["Boeing Company", "Seattle", "WA", "98004"]))
            .unwrap();
        let eti = make_eti(10_000);
        builder.finish(&eti).unwrap();
        // Token rows at coordinate 0.
        let list = eti
            .lookup("boeing", super::super::TOKEN_COORDINATE, 0)
            .unwrap()
            .unwrap();
        assert_eq!(list.tids, Some(vec![1]));
        let list = eti
            .lookup("98004", super::super::TOKEN_COORDINATE, 3)
            .unwrap()
            .unwrap();
        assert_eq!(list.tids, Some(vec![1]));
    }

    #[test]
    fn spilled_build_equals_in_memory_build() {
        // Force spilling with a tiny sort budget; resulting lookups must
        // match the in-memory build exactly.
        let rows: Vec<TokenizedRecord> = (0..200)
            .map(|i| {
                tok(&[
                    &format!("customer number{} common", i % 37),
                    "city",
                    "st",
                    "12345",
                ])
            })
            .collect();
        let build = |budget: usize| -> Eti {
            let mh = MinHasher::new(2, 3, 7);
            let mut b = EtiBuilder::new(mh, SignatureScheme::QGrams, budget).unwrap();
            for (i, row) in rows.iter().enumerate() {
                b.observe(i as u32 + 1, row).unwrap();
            }
            let eti = make_eti(10_000);
            b.finish(&eti).unwrap();
            eti
        };
        let spilled = build(256);
        let memory = build(64 << 20);
        let mh = MinHasher::new(2, 3, 7);
        for token in ["common", "number3", "city", "st", "12345"] {
            for (i, gram) in mh.signature(token).iter().enumerate() {
                for col in 0..4u8 {
                    assert_eq!(
                        spilled.lookup(gram, i as u8 + 1, col).unwrap(),
                        memory.lookup(gram, i as u8 + 1, col).unwrap(),
                        "mismatch at {token}/{gram}/{col}"
                    );
                }
            }
        }
    }

    #[test]
    fn stop_threshold_applied_during_build() {
        let mh = MinHasher::new(1, 3, 7);
        let mut builder = EtiBuilder::new(mh.clone(), SignatureScheme::QGrams, 1 << 20).unwrap();
        // 'common' appears in 20 tuples; threshold 10 → stop q-gram.
        for tid in 1..=20 {
            builder.observe(tid, &tok(&["common"])).unwrap();
        }
        let eti = make_eti(10);
        let stats = builder.finish(&eti).unwrap();
        assert_eq!(stats.stop_qgrams, 1);
        let gram = &mh.signature("common")[0];
        let list = eti.lookup(gram, 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 20);
        assert_eq!(list.tids, None);
    }

    #[test]
    fn duplicate_tuple_tokens_dedupe_in_tid_list() {
        // Two distinct tokens of one tuple can share a min-hash coordinate
        // value; the tid must appear once.
        let mh = MinHasher::new(1, 3, 7);
        let mut builder = EtiBuilder::new(mh, SignatureScheme::QGramsPlusToken, 1 << 20).unwrap();
        // Same token in two *columns* is fine (distinct rows), but we also
        // check a tuple observed once never double-lists its tid.
        builder.observe(5, &tok(&["aaa aaa-x"])).unwrap();
        let eti = make_eti(10_000);
        builder.finish(&eti).unwrap();
        let list = eti
            .lookup("aaa", super::super::TOKEN_COORDINATE, 0)
            .unwrap()
            .unwrap();
        assert_eq!(list.tids, Some(vec![5]));
    }
}
