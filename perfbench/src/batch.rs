//! `batch-50k`: closed-loop in-process lookups over a 50k in-memory relation.

use std::time::Instant;

use fm_core::{Config, FuzzyMatcher};
use fm_datagen::CUSTOMER_COLUMNS;
use fm_store::Database;

use crate::check::{check_matches, check_naive, Answers};
use crate::data::{fresh_tuples, Corpus};
use crate::layers::{paired_ratio, store_add, store_delta, Ledger, Replay};
use crate::spans::Recorder;
use crate::stats::{samples_for, Latencies, Tally};
use crate::{
    more_setups, ms, peak_rss_mb, space_amp, time_setup, Args, Report, Writer, ACCURACY_INPUTS, C,
    K, PAIR_BLOCK,
};

const REFERENCE: usize = 50_000;
const INPUTS: usize = 12_000;
const SETUPS: usize = 5;
/// Lookup rounds, each followed by a maintenance burst of `BURST` inserts
/// and as many deletes.
const ROUNDS: usize = 20;
const BURST: usize = 200;
/// Lookup threads. On a two-core virtual machine, two busy threads made
/// every timing spread 13–18% from run to run, one thread 5–11%.
const THREADS: usize = 1;

pub const PREFIX: &str = "customer";

pub fn config() -> Config {
    Config::default().with_columns(&CUSTOMER_COLUMNS)
}

/// Build a matcher over `corpus` and answer the first input.
pub fn build(db: &Database, corpus: &Corpus) -> Result<FuzzyMatcher, String> {
    let matcher = FuzzyMatcher::build(db, PREFIX, corpus.reference.iter().cloned(), config())
        .map_err(|e| format!("build: {e}"))?;
    matcher
        .lookup(&corpus.inputs[0], K, C)
        .map_err(|e| format!("first lookup: {e}"))?;
    Ok(matcher)
}

/// One thread's lookups, timed, counted, checked and (when traced)
/// replayed. Each answer is checked against `fms` right after its lookup,
/// untimed, because the reference may change between lookups.
pub struct Looker<'a> {
    pub matcher: &'a FuzzyMatcher,
    pub corpus: &'a Corpus,
    pub replay: &'a Replay,
    pub rec: Recorder,
    pub ledger: Ledger,
    pub latencies: Latencies,
    pub tally: Tally,
    pub answers: Answers,
    pub problems: Vec<String>,
    pub error: Option<String>,
}

impl<'a> Looker<'a> {
    pub fn new(
        matcher: &'a FuzzyMatcher,
        corpus: &'a Corpus,
        replay: &'a Replay,
        rec: Recorder,
    ) -> Looker<'a> {
        Looker {
            matcher,
            corpus,
            replay,
            rec,
            ledger: Ledger::default(),
            latencies: Latencies::default(),
            tally: Tally::default(),
            answers: Answers::new(corpus.inputs.len()),
            problems: Vec::new(),
            error: None,
        }
    }

    /// Look up input `i`, under a span and replayed when `traced`; returns
    /// the lookup's duration in ns.
    pub fn lookup(&mut self, i: usize, traced: bool) -> u64 {
        let input = &self.corpus.inputs[i];
        let (op, span) = (self.rec.id(), self.rec.id());
        self.rec.set_on(traced);
        let begun = self.rec.begin();
        let result = self.matcher.lookup(input, K, C);
        let dur = self.rec.end(begun, span, "lookup", op, 0);
        self.tally.record(result.is_ok());
        match result {
            Ok(result) => {
                self.ledger.trace.add(&result.trace);
                self.ledger.answers += result.matches.len() as u64;
                self.ledger.lookup_us += dur as f64 / 1000.0;
                self.ledger.lookups_timed += 1;
                self.answers.record(i, &result.matches);
                if let Err(e) = check_matches(self.matcher, input, &result.matches) {
                    self.problems.push(e);
                }
                if traced {
                    let tids: Vec<u32> = result.matches.iter().map(|m| m.tid).collect();
                    if let Err(e) =
                        self.replay
                            .run(&mut self.rec, op, span, self.matcher, input, &tids)
                    {
                        self.error.get_or_insert(format!("replay: {e}"));
                    }
                }
            }
            Err(e) => {
                self.error.get_or_insert(format!("lookup: {e}"));
            }
        }
        dur
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let corpus = Corpus::new(REFERENCE, INPUTS, args.seed);
    let mut report = Report::default();
    let setup = || {
        let db = Database::in_memory().map_err(|e| format!("database: {e}"))?;
        let matcher = build(&db, &corpus)?;
        Ok((db, matcher))
    };
    let (db, matcher) = time_setup(&mut report.e2e, setup)?;
    report.e2e.space_amp = space_amp(&db, corpus.reference_bytes());

    let threads = THREADS;
    let replay = Replay::new(matcher.config());
    let epoch = Instant::now();
    let fresh = fresh_tuples(ROUNDS * BURST, args.seed);
    let mut writer = Writer::new(&matcher, &db, &fresh, Recorder::new(args.trace, epoch, 0))?;
    let mut lookers: Vec<Looker> = (0..threads)
        .map(|t| {
            Looker::new(
                &matcher,
                &corpus,
                &replay,
                Recorder::new(args.trace, epoch, t as u64 + 1),
            )
        })
        .collect();
    // Round 0 runs until the accuracy inputs are answered, before any
    // maintenance, and at least long enough for one p99.
    let cover = ACCURACY_INPUTS.max(samples_for(99.0)).div_ceil(threads);
    let slice = args.seconds / ROUNDS as f64;
    let mut next = vec![0usize; threads];
    for round in 0..ROUNDS {
        let before = db.stats();
        let done: u64 = lookers.iter().map(|l| l.ledger.trace.lookups).sum();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (t, (looker, k)) in lookers.iter_mut().zip(next.iter_mut()).enumerate() {
                let corpus = &corpus;
                scope.spawn(move || {
                    let index = |k: usize| (t + k * threads) % corpus.inputs.len();
                    while (started.elapsed().as_secs_f64() < slice || (round == 0 && *k < cover))
                        && looker.error.is_none()
                    {
                        if args.trace {
                            let block: Vec<usize> = (*k..*k + PAIR_BLOCK).map(index).collect();
                            let ratio = paired_ratio((*k / PAIR_BLOCK) % 2 == 0, |traced| {
                                block.iter().map(|&i| looker.lookup(i, traced)).sum()
                            });
                            looker.ledger.overhead_ratios.push(ratio);
                            *k += PAIR_BLOCK;
                        } else {
                            let dur = looker.lookup(index(*k), false);
                            looker.latencies.push(ms(dur));
                            *k += 1;
                        }
                    }
                });
            }
        });
        let secs = started.elapsed().as_secs_f64();
        let mut round_latencies = Latencies::default();
        for looker in &mut lookers {
            round_latencies.extend(std::mem::take(&mut looker.latencies));
        }
        report.e2e.lookups.push(round_latencies);
        let now: u64 = lookers.iter().map(|l| l.ledger.trace.lookups).sum();
        report.e2e.lookup_qps.push((now - done) as f64 / secs);
        store_add(
            &mut report.ledger.store_lookups,
            &store_delta(&before, &db.stats()),
        );
        if let Some(e) = lookers.iter_mut().find_map(|l| l.error.take()) {
            return Err(e);
        }
        writer.burst(BURST, &mut report)?;
    }
    writer.finish(&mut report);
    report.e2e.peak_rss_mb = peak_rss_mb();

    let mut answers = Answers::new(corpus.inputs.len());
    for looker in lookers {
        report.ledger.merge(&looker.ledger);
        report.tally.add(looker.tally);
        report.spans.extend(looker.rec.spans);
        report.problems.extend(looker.problems);
        answers.merge(looker.answers);
    }
    report.e2e.accuracy = answers.accuracy(&corpus)?;
    check_naive(&matcher, &corpus, &mut report.problems);
    drop(matcher);
    drop(db);
    more_setups(&mut report.e2e, SETUPS, |_| setup())?;
    Ok(report)
}
