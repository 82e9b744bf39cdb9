//! `churn-50k`: one thread mixing lookups and reference maintenance over a
//! durable file database whose buffer pool is smaller than the data.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use fm_core::FuzzyMatcher;
use fm_store::{Database, StoreStats};

use crate::batch::{build, Looker, PREFIX};
use crate::check::check_naive;
use crate::data::{fresh_tuples, record_bytes, Corpus};
use crate::layers::{store_add, store_delta, Replay};
use crate::spans::Recorder;
use crate::stats::{samples_for, Latencies};
use crate::{
    more_setups, ms, peak_rss_mb, space_amp, time_setup, Args, Report, ACCURACY_INPUTS, C, K,
    PAIR_BLOCK,
};

const REFERENCE: usize = 50_000;
const INPUTS: usize = 2_000;
const SETUPS: usize = 5;
/// 4 MiB of buffer pool against about 15 MiB of data.
const POOL_FRAMES: usize = 512;
/// A cycle is one lookup, one insert and (after the first `LAG` cycles)
/// one delete of the insert `LAG` cycles back; every `FLUSH_EVERY`th cycle
/// ends with a flush.
const LAG: usize = 32;
const FLUSH_EVERY: usize = 64;
const FRESH: usize = 20_000;
/// Inputs whose top-1 must survive the churn and a reopen bitwise.
const PROBES: usize = 50;

/// A probe's top-1 tid and similarity.
type Probe = Option<(u32, f64)>;

fn probe(matcher: &FuzzyMatcher, corpus: &Corpus) -> Result<Vec<Probe>, String> {
    corpus.inputs[..PROBES]
        .iter()
        .map(|input| {
            let result = matcher
                .lookup(input, K, C)
                .map_err(|e| format!("probe lookup: {e}"))?;
            Ok(result.matches.first().map(|m| (m.tid, m.similarity)))
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let corpus = Corpus::new(REFERENCE, INPUTS, args.seed);
    let mut report = Report::default();
    std::fs::create_dir_all(&args.tmp).map_err(|e| format!("{}: {e}", args.tmp.display()))?;
    let path = |i: usize| args.tmp.join(format!("churn-{i}.db"));
    let setup = |i: usize| {
        let db =
            Database::open_file_durable(&path(i), POOL_FRAMES).map_err(|e| format!("open: {e}"))?;
        let matcher = build(&db, &corpus)?;
        Ok((db, matcher))
    };
    let (db, matcher) = time_setup(&mut report.e2e, || setup(0))?;
    db.flush().map_err(|e| format!("flush: {e}"))?;
    let probes_before = probe(&matcher, &corpus)?;

    let fresh = fresh_tuples(FRESH, args.seed);
    let replay = Replay::new(matcher.config());
    let mut looker = Looker::new(
        &matcher,
        &corpus,
        &replay,
        Recorder::new(args.trace, Instant::now(), 1),
    );
    let mut live: VecDeque<(u32, usize)> = VecDeque::new();
    let mut user_bytes = 0;
    let min_cycles = ACCURACY_INPUTS.max(samples_for(99.0));
    let before = db.stats();
    let started = Instant::now();
    let mut cycle = 0;
    let mut writes = Latencies::default();
    let mut block_ns = [0u64; 2];
    while cycle < min_cycles || started.elapsed().as_secs_f64() < args.seconds {
        // In a traced run, blocks of cycles alternate traced and untraced;
        // which comes first alternates from pair to pair. Flushes fall in
        // one block of a pair, so only lookups and writes are compared.
        let block = cycle / PAIR_BLOCK;
        let traced = args.trace && (block % 2 == 0) == ((block / 2) % 2 == 0);
        let mut op_ns = 0;
        let store = |ledger_store: &mut StoreStats, before: StoreStats| {
            store_add(ledger_store, &store_delta(&before, &db.stats()));
        };

        let s0 = db.stats();
        let dur = looker.lookup(cycle % corpus.inputs.len(), traced);
        store(&mut looker.ledger.store_lookups, s0);
        looker.latencies.push(ms(dur));
        op_ns += dur;
        if let Some(e) = looker.error.take() {
            return Err(e);
        }

        let rec = &mut looker.rec;
        let j = cycle % FRESH;
        let s0 = db.stats();
        let op = rec.id();
        let (tid, dur) = rec.time("insert", op, 0, || matcher.insert_reference(&fresh[j]));
        store(&mut looker.ledger.store_writes, s0);
        writes.push(ms(dur));
        op_ns += dur;
        looker.tally.record(tid.is_ok());
        live.push_back((tid.map_err(|e| format!("insert_reference: {e}"))?, j));
        user_bytes += record_bytes(&fresh[j]);

        if live.len() > LAG {
            let (tid, j) = live.pop_front().expect("more than LAG live inserts");
            let s0 = db.stats();
            let op = rec.id();
            let (removed, dur) = rec.time("delete", op, 0, || matcher.delete_reference(tid));
            store(&mut looker.ledger.store_writes, s0);
            writes.push(ms(dur));
            op_ns += dur;
            looker.tally.record(removed.is_ok());
            removed.map_err(|e| format!("delete_reference({tid}): {e}"))?;
            user_bytes += record_bytes(&fresh[j]);
        }

        if (cycle + 1) % FLUSH_EVERY == 0 {
            let s0 = db.stats();
            let op = rec.id();
            let (flushed, dur) = rec.time("flush", op, 0, || db.flush());
            store(&mut looker.ledger.store_writes, s0);
            report.e2e.flushes_ms.push(ms(dur));
            looker.ledger.flushes += 1;
            flushed.map_err(|e| format!("flush: {e}"))?;
        }

        block_ns[usize::from(traced)] += op_ns;
        cycle += 1;
        if args.trace && cycle % (2 * PAIR_BLOCK) == 0 {
            looker
                .ledger
                .overhead_ratios
                .push(block_ns[1] as f64 / block_ns[0].max(1) as f64);
            block_ns = [0, 0];
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let written = store_delta(&before, &db.stats());
    report.e2e.write_amp = (written.wal_bytes + written.pages_written * fm_store::PAGE_SIZE as u64)
        as f64
        / user_bytes as f64;
    // Lookups per second of the mixed loop, writes and flushes included.
    report.e2e.lookup_qps = vec![looker.ledger.trace.lookups as f64 / elapsed];
    looker.ledger.writes = writes.len() as u64;
    report.e2e.writes = vec![writes];
    report.e2e.lookups = vec![std::mem::take(&mut looker.latencies)];
    report.e2e.accuracy = looker.answers.accuracy(&corpus)?;
    report.problems.append(&mut looker.problems);
    report.ledger = std::mem::take(&mut looker.ledger);
    report.tally = looker.tally;
    report.spans = std::mem::take(&mut looker.rec.spans);
    report.e2e.peak_rss_mb = peak_rss_mb();
    drop(looker);

    // Undo the churn, checkpoint, and check the relation is as built.
    for (tid, _) in live.drain(..) {
        let removed = matcher.delete_reference(tid);
        report.tally.record(removed.is_ok());
        removed.map_err(|e| format!("delete_reference({tid}): {e}"))?;
    }
    db.flush().map_err(|e| format!("flush: {e}"))?;
    report.e2e.space_amp = space_amp(&db, corpus.reference_bytes());
    check_naive(&matcher, &corpus, &mut report.problems);
    drop(matcher);
    drop(db);
    durability(&path(0), &corpus, &probes_before, &mut report.problems)?;
    more_setups(&mut report.e2e, SETUPS, setup)?;
    Ok(report)
}

/// Reopen the file on a fresh database: every invariant must hold and the
/// probes must answer bitwise as before the churn.
fn durability(
    path: &Path,
    corpus: &Corpus,
    before: &[Probe],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let db = Database::open_file_durable(path, POOL_FRAMES).map_err(|e| format!("reopen: {e}"))?;
    let matcher = FuzzyMatcher::open(&db, PREFIX).map_err(|e| format!("reopen matcher: {e}"))?;
    if let Err(e) = db.check_invariants() {
        problems.push(format!("reopened database invariants: {e}"));
    }
    if let Err(e) = matcher.check_invariants() {
        problems.push(format!("reopened matcher invariants: {e}"));
    }
    let after = probe(&matcher, corpus)?;
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        let same = match (b, a) {
            (Some((bt, bs)), Some((at, as_))) => bt == at && bs.to_bits() == as_.to_bits(),
            (None, None) => true,
            _ => false,
        };
        if !same {
            problems.push(format!(
                "probe {i}: top-1 before churn {b:?}, after reopen {a:?}"
            ));
        }
    }
    Ok(())
}
