//! The per-layer ledger: counters summed over every operation of a traced
//! run, plus the replay of each lookup's layer calls under spans.

use fm_core::eti::token_signature;
use fm_core::{Config, FuzzyMatcher, LookupTrace, MetricsSnapshot, Record, SignatureScheme};
use fm_store::StoreStats;
use fm_text::{MinHasher, Tokenizer};

use crate::spans::{Recorder, SpanTotals};
use crate::stats::quartiles;
use crate::Metric;

/// Sums of [`LookupTrace`] counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceSums {
    pub lookups: u64,
    pub qgrams_probed: u64,
    pub stop_qgrams: u64,
    pub eti_rows: u64,
    pub tid_list_entries: u64,
    pub tids_processed: u64,
    pub candidates: u64,
    pub apx_pruned: u64,
    pub candidates_fetched: u64,
    pub fms_evals: u64,
    pub osc_successes: u64,
}

impl TraceSums {
    pub fn add(&mut self, t: &LookupTrace) {
        self.lookups += 1;
        self.qgrams_probed += t.qgrams_probed;
        self.stop_qgrams += t.stop_qgrams;
        self.eti_rows += t.eti_rows;
        self.tid_list_entries += t.tid_list_entries;
        self.tids_processed += t.tids_processed;
        self.candidates += t.candidates;
        self.apx_pruned += t.apx_pruned;
        self.candidates_fetched += t.candidates_fetched;
        self.fms_evals += t.fms_evals;
        self.osc_successes += u64::from(t.osc_succeeded());
    }

    pub fn merge(&mut self, o: &TraceSums) {
        self.lookups += o.lookups;
        self.qgrams_probed += o.qgrams_probed;
        self.stop_qgrams += o.stop_qgrams;
        self.eti_rows += o.eti_rows;
        self.tid_list_entries += o.tid_list_entries;
        self.tids_processed += o.tids_processed;
        self.candidates += o.candidates;
        self.apx_pruned += o.apx_pruned;
        self.candidates_fetched += o.candidates_fetched;
        self.fms_evals += o.fms_evals;
        self.osc_successes += o.osc_successes;
    }

    /// The registry's totals between two snapshots: the sum of every
    /// lookup's trace in between (the registry records each one).
    pub fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> TraceSums {
        TraceSums {
            lookups: b.lookups - a.lookups,
            qgrams_probed: b.qgrams_probed - a.qgrams_probed,
            stop_qgrams: b.stop_qgrams - a.stop_qgrams,
            eti_rows: b.eti_rows - a.eti_rows,
            tid_list_entries: b.tid_list_entries - a.tid_list_entries,
            tids_processed: b.tids_processed - a.tids_processed,
            candidates: b.candidates - a.candidates,
            apx_pruned: b.apx_pruned - a.apx_pruned,
            candidates_fetched: b.candidates_fetched - a.candidates_fetched,
            fms_evals: b.fms_evals - a.fms_evals,
            osc_successes: b.osc_short_circuits - a.osc_short_circuits,
        }
    }
}

/// `b - a` for cumulative store counters.
pub fn store_delta(a: &StoreStats, b: &StoreStats) -> StoreStats {
    StoreStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        evictions: b.evictions - a.evictions,
        pages_read: b.pages_read - a.pages_read,
        pages_written: b.pages_written - a.pages_written,
        wal_bytes: b.wal_bytes - a.wal_bytes,
    }
}

pub fn store_add(a: &mut StoreStats, d: &StoreStats) {
    a.hits += d.hits;
    a.misses += d.misses;
    a.evictions += d.evictions;
    a.pages_read += d.pages_read;
    a.pages_written += d.pages_written;
    a.wal_bytes += d.wal_bytes;
}

/// Serving-layer sums (deltas of the `stats` verb plus client-side times).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerSums {
    pub replies: u64,
    /// Σ server receive→reply time over answered requests, µs.
    pub reply_latency_us: u64,
    /// Σ client round trip minus the reply's `latency_us`, µs. The fields
    /// above are client-side sums; those below come from `stats`.
    pub wire_us: f64,
    pub queue_wait_us: u64,
    pub queue_waits: u64,
    pub batched_lookups: u64,
    pub lookups_served: u64,
    pub max_queue_depth: u64,
    pub rejected: u64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub trace: TraceSums,
    /// Matches returned over all lookups.
    pub answers: u64,
    /// Σ matcher-side lookup time, µs, and how many lookups it covers.
    pub lookup_us: f64,
    pub lookups_timed: u64,
    /// Store traffic during lookups and during writes (incl. flushes).
    pub store_lookups: StoreStats,
    pub store_writes: StoreStats,
    pub writes: u64,
    pub flushes: u64,
    pub server: ServerSums,
    /// Open-loop p50 and p99 from due time, ms (serve-5k only).
    pub open_loop_ms: [f64; 2],
    pub generator_late_ms: f64,
    /// Traced/untraced time ratios of paired blocks.
    pub overhead_ratios: Vec<f64>,
}

impl Ledger {
    pub fn merge(&mut self, o: &Ledger) {
        self.trace.merge(&o.trace);
        self.answers += o.answers;
        self.lookup_us += o.lookup_us;
        self.lookups_timed += o.lookups_timed;
        store_add(&mut self.store_lookups, &o.store_lookups);
        store_add(&mut self.store_writes, &o.store_writes);
        self.writes += o.writes;
        self.flushes += o.flushes;
        self.server.replies += o.server.replies;
        self.server.reply_latency_us += o.server.reply_latency_us;
        self.server.wire_us += o.server.wire_us;
        self.overhead_ratios.extend(&o.overhead_ratios);
    }

    /// The per-layer metrics, from these sums and the traced run's spans.
    pub fn metrics(&self, spans: &SpanTotals) -> Vec<Metric> {
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let self_us = |name: &str| {
            spans.get(name).map_or(0.0, |&(n, _, self_ns)| {
                per(self_ns as f64 / 1000.0, n as f64)
            })
        };
        let t = &self.trace;
        let lookups = t.lookups as f64;
        let ops = lookups + (self.writes + self.flushes) as f64;
        let probes = per(t.qgrams_probed as f64, lookups);
        let fetched = per(t.candidates_fetched as f64, lookups);
        let fms_per = per(t.fms_evals as f64, lookups);
        let (tokenize, signature, probe, fetch, fms) = (
            self_us("tokenize"),
            self_us("signature"),
            self_us("eti_probe"),
            self_us("fetch"),
            self_us("fms"),
        );
        let residual = per(self.lookup_us, self.lookups_timed as f64)
            - (tokenize + signature + probe * probes + fetch * fetched + fms * fms_per);
        let sl = &self.store_lookups;
        let sw = &self.store_writes;
        let requests = (sl.hits + sl.misses + sw.hits + sw.misses) as f64;
        let s = &self.server;
        let mean_queue_us = per(s.queue_wait_us as f64, s.queue_waits as f64);
        let (q1, overhead, q3) = quartiles(&self.overhead_ratios);
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("text.tokenize_us", tokenize, "us"),
            m("text.signature_us", signature, "us"),
            m("core.eti.probe_us", probe, "us"),
            m("core.eti.probes_per_lookup", probes, "count"),
            m(
                "core.eti.stop_share",
                per(t.stop_qgrams as f64, t.qgrams_probed as f64),
                "share",
            ),
            m(
                "core.eti.rows_per_lookup",
                per(t.eti_rows as f64, lookups),
                "count",
            ),
            m(
                "core.eti.tid_entries_per_lookup",
                per(t.tid_list_entries as f64, lookups),
                "count",
            ),
            m(
                "core.query.tids_per_lookup",
                per(t.tids_processed as f64, lookups),
                "count",
            ),
            m(
                "core.query.candidates_per_lookup",
                per(t.candidates as f64, lookups),
                "count",
            ),
            m("core.query.fetched_per_lookup", fetched, "count"),
            m(
                "core.query.fetch_yield",
                per(self.answers as f64, t.candidates_fetched as f64),
                "share",
            ),
            m(
                "core.query.osc_success_share",
                per(t.osc_successes as f64, lookups),
                "share",
            ),
            m(
                "core.query.apx_pruned_per_lookup",
                per(t.apx_pruned as f64, lookups),
                "count",
            ),
            m("core.query.residual_us", residual, "us"),
            m("core.sim.fms_us", fms, "us"),
            m("core.sim.fms_per_lookup", fms_per, "count"),
            m("core.matcher.fetch_us", fetch, "us"),
            m(
                "store.buffer.hit_rate",
                per((sl.hits + sw.hits) as f64, requests),
                "share",
            ),
            m(
                "store.buffer.requests_per_lookup",
                per((sl.hits + sl.misses) as f64, lookups),
                "count",
            ),
            m(
                "store.buffer.misses_per_op",
                per((sl.misses + sw.misses) as f64, ops),
                "count",
            ),
            m(
                "store.buffer.evictions_per_op",
                per((sl.evictions + sw.evictions) as f64, ops),
                "count",
            ),
            m(
                "store.pager.pages_read_per_op",
                per((sl.pages_read + sw.pages_read) as f64, ops),
                "count",
            ),
            m(
                "store.pager.pages_written_per_write",
                per(sw.pages_written as f64, self.writes as f64),
                "count",
            ),
            m(
                "store.wal.bytes_per_write",
                per(sw.wal_bytes as f64, self.writes as f64),
                "B",
            ),
            m("store.flush_us", self_us("flush"), "us"),
            m("server.queue_wait_us", mean_queue_us, "us"),
            m(
                "server.service_us",
                per(s.reply_latency_us as f64, s.replies as f64) - mean_queue_us,
                "us",
            ),
            m("server.wire_us", per(s.wire_us, s.replies as f64), "us"),
            m(
                "server.batched_share",
                per(s.batched_lookups as f64, s.lookups_served as f64),
                "share",
            ),
            m("server.max_queue_depth", s.max_queue_depth as f64, "count"),
            m("server.rejected", s.rejected as f64, "count"),
            m("bench.open_loop_p50_ms", self.open_loop_ms[0], "ms"),
            m("bench.open_loop_p99_ms", self.open_loop_ms[1], "ms"),
            m("bench.generator_late_ms", self.generator_late_ms, "ms"),
            m("bench.trace_overhead_pct", (overhead - 1.0) * 100.0, "%"),
            m("bench.trace_overhead_iqr_pct", (q3 - q1) * 100.0, "%"),
        ]
    }
}

/// Times one block of work traced and once untraced, in the given order,
/// and returns the traced/untraced ratio (order alternates between pairs
/// so that warm caches favour neither side).
pub fn paired_ratio(traced_first: bool, mut time: impl FnMut(bool) -> u64) -> f64 {
    let (traced, untraced) = if traced_first {
        let t = time(true);
        (t, time(false))
    } else {
        let u = time(false);
        (time(true), u)
    };
    traced as f64 / untraced.max(1) as f64
}

/// Replays one lookup's layer calls through the public APIs, each under a
/// span: tokenize, signatures, one `eti_lookup` per signature key, then
/// `fetch_reference` and `fms` for each match.
pub struct Replay {
    tokenizer: Tokenizer,
    minhasher: MinHasher,
    scheme: SignatureScheme,
}

impl Replay {
    pub fn new(config: &Config) -> Replay {
        Replay {
            tokenizer: Tokenizer::new(),
            minhasher: MinHasher::new(config.h, config.q, config.seed),
            scheme: config.scheme,
        }
    }

    pub fn run(
        &self,
        rec: &mut Recorder,
        op: u64,
        parent: u64,
        matcher: &FuzzyMatcher,
        input: &Record,
        tids: &[u32],
    ) -> fm_core::Result<()> {
        let root = rec.id();
        let begun = rec.begin();
        let (tokens, _) = rec.time("tokenize", op, root, || input.tokenize(&self.tokenizer));
        let (keys, _) = rec.time("signature", op, root, || {
            let mut keys = Vec::new();
            for (col, token) in tokens.iter_tokens() {
                for e in token_signature(token, &self.minhasher, self.scheme) {
                    keys.push((e.gram, e.coordinate, col as u8));
                }
            }
            keys
        });
        for (gram, coordinate, column) in &keys {
            rec.time("eti_probe", op, root, || {
                matcher.eti_lookup(gram, *coordinate, *column)
            })
            .0?;
        }
        for &tid in tids {
            let (record, _) = rec.time("fetch", op, root, || matcher.fetch_reference(tid));
            let record = record?;
            rec.time("fms", op, root, || matcher.fms(input, &record));
        }
        rec.end(begun, root, "replay", op, parent);
        Ok(())
    }
}
