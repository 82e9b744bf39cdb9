//! `serve-5k`: the 5k quick corpus behind an in-process server on loopback.
//!
//! The end-to-end latency percentiles come from the closed-loop phase,
//! where each request is due when the previous reply arrives. The open
//! loop's percentiles from due time, and how late the generator ran, are
//! per-layer numbers: on a small virtual machine their tail mostly
//! measures how fast idle cores wake, and it spread too widely from run to
//! run to bound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_core::{FuzzyMatcher, Match, Record};
use fm_server::{Client, ClientError, Json, LookupReply, Server, ServerConfig};
use fm_store::Database;

use crate::batch::build;
use crate::check::{check_matches, check_naive, Answers};
use crate::data::{fresh_tuples, Corpus};
use crate::layers::{paired_ratio, store_add, store_delta, Ledger, Replay, ServerSums, TraceSums};
use crate::spans::Recorder;
use crate::stats::{percentile, reply_answered, samples_for, Latencies, Tally};
use crate::{
    more_setups, ms, nproc, peak_rss_mb, space_amp, time_setup, Args, Report, Writer,
    ACCURACY_INPUTS, C, K, PAIR_BLOCK,
};

const REFERENCE: usize = 5_000;
const INPUTS: usize = 8_000;
const SETUPS: usize = 15;
/// Open-loop request rate over all connections, per second: about a fifth
/// of what two cores serve, so the queue stays short.
const OPEN_RATE: f64 = 400.0;
/// Rounds of open loop, saturation and a maintenance burst of `BURST`
/// inserts and as many deletes. Each round's saturation phase gathers
/// enough samples for its own p99.
const ROUNDS: usize = 8;
const BURST: usize = 500;
/// Share of a round spent in the open loop.
const OPEN_SHARE: f64 = 0.25;

/// A running server over its own matcher; stopped (drained) on drop.
struct Served {
    db: Arc<Database>,
    matcher: Arc<FuzzyMatcher>,
    server: Option<Server>,
    addr: String,
}

impl Served {
    fn start(corpus: &Corpus) -> Result<Served, String> {
        let db = Arc::new(Database::in_memory().map_err(|e| format!("database: {e}"))?);
        let matcher = Arc::new(build(&db, corpus)?);
        let config = ServerConfig {
            workers: nproc(),
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", Arc::clone(&matcher), Arc::clone(&db), config)
            .map_err(|e| format!("server start: {e}"))?;
        let served = Served {
            db,
            matcher,
            addr: server.local_addr().to_string(),
            server: Some(server),
        };
        let reply = served.connect()?.lookup(&corpus.inputs[0], K, C);
        if !reply_answered(&reply) {
            return Err(format!("first request failed: {reply:?}"));
        }
        Ok(served)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Drain the server; returns whether every request frame got a reply.
    fn stop(&mut self) -> bool {
        self.server.take().map_or(true, |server| {
            server.shutdown();
            server.wait().counters.ledger_balanced()
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

fn to_matches(reply: &LookupReply) -> Vec<Match> {
    reply
        .matches
        .iter()
        .map(|m| Match {
            tid: m.tid,
            similarity: m.similarity,
            record: Record::from_options(m.record.clone()),
        })
        .collect()
}

/// One connection's requests.
struct Conn<'a> {
    client: Client,
    corpus: &'a Corpus,
    matcher: &'a FuzzyMatcher,
    replay: &'a Replay,
    rec: Recorder,
    ledger: Ledger,
    answers: Answers,
    /// Inputs this connection saw answered for the first time this round.
    first_seen: Vec<usize>,
    /// Closed-loop round trips of this round.
    latencies: Latencies,
    saturation_answered: u64,
    /// Open-loop latencies from due time, and how late each send was.
    open_latencies: Latencies,
    late_ms: Vec<f64>,
    problems: Vec<String>,
    tally: Tally,
    error: Option<String>,
}

impl Conn<'_> {
    /// The input connection `c` of `conns` sends as its `k`th request.
    fn index(&self, c: usize, k: usize, conns: usize) -> usize {
        (c + k * conns) % self.corpus.inputs.len()
    }

    /// Send a lookup of input `i`; returns (answered, round trip ns).
    fn request(&mut self, i: usize, traced: bool) -> (bool, u64) {
        let input = &self.corpus.inputs[i];
        let (op, span) = (self.rec.id(), self.rec.id());
        self.rec.set_on(traced);
        let begun = self.rec.begin();
        let reply = self.client.lookup(input, K, C);
        let dur = self.rec.end(begun, span, "request", op, 0);
        let answered = reply_answered(&reply);
        self.tally.record(answered);
        match reply {
            Ok(reply) if answered => {
                let s = &mut self.ledger.server;
                s.replies += 1;
                s.reply_latency_us += reply.latency_us;
                s.wire_us += dur as f64 / 1000.0 - reply.latency_us as f64;
                self.ledger.lookup_us += reply.lookup_us as f64;
                self.ledger.lookups_timed += 1;
                self.ledger.answers += reply.matches.len() as u64;
                let matches = to_matches(&reply);
                if let Err(e) = check_matches(self.matcher, input, &matches) {
                    self.problems.push(e);
                }
                if !self.answers.has(i) {
                    self.first_seen.push(i);
                }
                self.answers.record(i, &matches);
                if traced {
                    let tids: Vec<u32> = matches.iter().map(|m| m.tid).collect();
                    if let Err(e) =
                        self.replay
                            .run(&mut self.rec, op, span, self.matcher, input, &tids)
                    {
                        self.error.get_or_insert(format!("replay: {e}"));
                    }
                }
            }
            Ok(_) => {}
            Err(ClientError::Disconnected) => {
                self.error
                    .get_or_insert("server closed the connection".into());
            }
            Err(_) => {}
        }
        (answered, dur)
    }
}

fn counter(stats: &Json, section: &str, name: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let corpus = Corpus::new(REFERENCE, INPUTS, args.seed);
    let mut report = Report::default();
    let setup = || Served::start(&corpus);
    let mut served = time_setup(&mut report.e2e, setup)?;
    report.e2e.space_amp = space_amp(&served.db, corpus.reference_bytes());

    let conns = nproc();
    let replay = Replay::new(served.matcher.config());
    let epoch = Instant::now();
    let fresh = fresh_tuples(ROUNDS * BURST, args.seed);
    let mut writer = Writer::new(
        &served.matcher,
        &served.db,
        &fresh,
        Recorder::new(args.trace, epoch, 0),
    )?;
    let mut conn_list = Vec::with_capacity(conns);
    for c in 0..conns {
        conn_list.push(Conn {
            client: served.connect()?,
            corpus: &corpus,
            matcher: &served.matcher,
            replay: &replay,
            rec: Recorder::new(args.trace, epoch, c as u64 + 1),
            ledger: Ledger::default(),
            answers: Answers::new(corpus.inputs.len()),
            first_seen: Vec::new(),
            latencies: Latencies::default(),
            saturation_answered: 0,
            open_latencies: Latencies::default(),
            late_ms: Vec::new(),
            problems: Vec::new(),
            tally: Tally::default(),
            error: None,
        });
    }
    let stats_before = conn_list[0]
        .client
        .stats()
        .map_err(|e| format!("stats: {e}"))?;

    // Each round: an open loop at OPEN_RATE timed from each request's due
    // time, a closed-loop saturation phase, then a maintenance burst. Every
    // saturation phase sends enough requests for its own p99, and round 0
    // saturates until the accuracy inputs are answered.
    let round_secs = args.seconds / ROUNDS as f64;
    let open_slice = round_secs * OPEN_SHARE;
    let open_min = samples_for(99.0).div_ceil(conns * ROUNDS);
    let saturation_min = samples_for(99.0).div_ceil(conns);
    let cover = ACCURACY_INPUTS.div_ceil(conns);
    let period = Duration::from_secs_f64(conns as f64 / OPEN_RATE);
    let mut next = vec![0usize; conns];
    let mut open_latencies = Latencies::default();
    let mut answers = Answers::new(corpus.inputs.len());
    for round in 0..ROUNDS {
        let metrics_before = served.matcher.metrics_snapshot();
        let store_before = served.db.stats();
        let open_start = Instant::now();
        std::thread::scope(|scope| {
            for (c, (conn, k)) in conn_list.iter_mut().zip(next.iter_mut()).enumerate() {
                scope.spawn(move || {
                    let first_due = open_start + Duration::from_secs_f64(c as f64 / OPEN_RATE);
                    let mut j = 0;
                    while (j < open_min || open_start.elapsed().as_secs_f64() < open_slice)
                        && conn.error.is_none()
                    {
                        let due = first_due + period * j as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        conn.late_ms
                            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                        let i = conn.index(c, *k, conns);
                        if conn.request(i, args.trace).0 {
                            conn.open_latencies.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                        j += 1;
                        *k += 1;
                    }
                });
            }
        });
        let answered_before: u64 = conn_list.iter().map(|c| c.saturation_answered).sum();
        let saturation_start = Instant::now();
        let saturation_slice = round_secs - open_slice;
        std::thread::scope(|scope| {
            for (c, (conn, k)) in conn_list.iter_mut().zip(next.iter_mut()).enumerate() {
                scope.spawn(move || {
                    let first = *k;
                    while (saturation_start.elapsed().as_secs_f64() < saturation_slice
                        || *k - first < saturation_min
                        || (round == 0 && *k < cover))
                        && conn.error.is_none()
                    {
                        if args.trace {
                            let block: Vec<usize> = (*k..*k + PAIR_BLOCK)
                                .map(|k| conn.index(c, k, conns))
                                .collect();
                            let ratio = paired_ratio((*k / PAIR_BLOCK) % 2 == 0, |traced| {
                                block.iter().map(|&i| conn.request(i, traced).1).sum()
                            });
                            conn.ledger.overhead_ratios.push(ratio);
                            *k += PAIR_BLOCK;
                        } else {
                            let i = conn.index(c, *k, conns);
                            let (answered, dur) = conn.request(i, false);
                            if answered {
                                conn.saturation_answered += 1;
                                conn.latencies.push(ms(dur));
                            }
                            *k += 1;
                        }
                    }
                });
            }
        });
        let answered: u64 = conn_list.iter().map(|c| c.saturation_answered).sum();
        report
            .e2e
            .lookup_qps
            .push((answered - answered_before) as f64 / saturation_start.elapsed().as_secs_f64());
        let mut round_latencies = Latencies::default();
        for conn in &mut conn_list {
            round_latencies.extend(std::mem::take(&mut conn.latencies));
            open_latencies.extend(std::mem::take(&mut conn.open_latencies));
        }
        report.e2e.lookups.push(round_latencies);
        report.ledger.trace.merge(&TraceSums::between(
            &metrics_before,
            &served.matcher.metrics_snapshot(),
        ));
        store_add(
            &mut report.ledger.store_lookups,
            &store_delta(&store_before, &served.db.stats()),
        );
        if let Some(e) = conn_list.iter_mut().find_map(|c| c.error.take()) {
            return Err(e);
        }
        // The first reply to each input must equal the in-process answer.
        for conn in &mut conn_list {
            for i in conn.first_seen.drain(..) {
                let Some(top) = conn.answers.get(i) else {
                    continue;
                };
                if answers.has(i) {
                    continue;
                }
                answers.record(i, top.cloned().as_slice());
                let local = served
                    .matcher
                    .lookup(&corpus.inputs[i], K, C)
                    .map_err(|e| format!("lookup: {e}"))?;
                let local_top = local.matches.first();
                if !same_match(top, local_top) {
                    report.problems.push(format!(
                        "input {i}: server replied {top:?}, in-process {local_top:?}"
                    ));
                }
            }
        }
        writer.burst(BURST, &mut report)?;
    }
    writer.finish(&mut report);
    report.e2e.peak_rss_mb = peak_rss_mb();

    let mut client = None;
    let mut late_ms = Vec::new();
    for conn in conn_list {
        report.ledger.merge(&conn.ledger);
        report.tally.add(conn.tally);
        report.spans.extend(conn.rec.spans);
        report.problems.extend(conn.problems);
        late_ms.extend(conn.late_ms);
        client.get_or_insert(conn.client);
    }
    let mut client = client.ok_or("no connections")?;
    let stats_after = client.stats().map_err(|e| format!("stats: {e}"))?;
    let delta =
        |name: &str| counter(&stats_after, "server", name) - counter(&stats_before, "server", name);
    report.ledger.server = ServerSums {
        queue_wait_us: delta("queue_wait_us"),
        queue_waits: delta("queue_waits"),
        batched_lookups: delta("batched_lookups"),
        lookups_served: report.ledger.trace.lookups,
        max_queue_depth: counter(&stats_after, "server", "max_queue_depth"),
        rejected: delta("rejected_overload")
            + delta("deadline_expired")
            + delta("rejected_shutdown"),
        ..report.ledger.server
    };
    late_ms.sort_by(f64::total_cmp);
    let (open_p50, open_p99) = open_latencies.p50_p99("open-loop requests")?;
    report.ledger.open_loop_ms = [open_p50, open_p99];
    report.ledger.generator_late_ms =
        percentile(&late_ms, 99.0).unwrap_or_else(|| late_ms.last().copied().unwrap_or(0.0));
    report.e2e.accuracy = answers.accuracy(&corpus)?;
    check_naive(&served.matcher, &corpus, &mut report.problems);
    drop(client);
    if !served.stop() {
        report
            .problems
            .push("server drain: request frames and replies do not balance".into());
    }
    drop(served);
    more_setups(&mut report.e2e, SETUPS, |_| setup())?;
    Ok(report)
}

fn same_match(a: Option<&Match>, b: Option<&Match>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.tid == b.tid
                && a.similarity.to_bits() == b.similarity.to_bits()
                && a.record == b.record
        }
        _ => false,
    }
}
