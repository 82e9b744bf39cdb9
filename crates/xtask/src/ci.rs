//! `cargo xtask ci` — the full pre-PR gate, in dependency order:
//!
//! 1. `cargo fmt --all -- --check`
//! 2. `cargo clippy --workspace --all-targets -- -D warnings`
//! 3. `cargo xtask lint` (in-process)
//! 4. `cargo xtask analyze` (in-process)
//! 5. `cargo xtask racecheck` (in-process), plus a smoke that its
//!    `--json` document re-parses with [`crate::jsonv`]
//! 6. the mut-map budget gate: render `analyze --mut-map` to JSON,
//!    re-parse it with [`crate::jsonv`], and assert the lookup path's
//!    mutation-site count against the committed `xtask-mutmap.budget`
//! 7. `cargo xtask deepcheck` (in-process)
//! 8. an in-process tracing smoke test: build a small matcher, run traced
//!    lookups, export Chrome trace JSON, and re-parse it with
//!    [`crate::jsonv`] — proving the observability surface end to end
//! 9. an in-process serving smoke test: start `fm-server` on an
//!    ephemeral port, run a traced lookup round-trip (the flight
//!    recorder must see it through the `trace_slowest` verb), scrape
//!    the `metrics` verb (the Prometheus exposition must validate and
//!    agree exactly with `stats` in the same quiesced state), round-trip
//!    the `timeseries` verb through [`crate::jsonv`], provoke an
//!    explicit overload reply, then drain and assert the lossless
//!    shutdown ledger (every decoded frame answered)
//! 10. the committed `BENCH_PR10.json` replica-scaling and
//!     telemetry-overhead records, judged by
//!     [`crate::bench::scaling_gate`] / [`crate::bench::telemetry_gate`]
//! 11. `cargo test --workspace -q`
//!
//! Everything runs offline. `scripts/ci.sh` wraps this for shell callers
//! and adds the CLI-level `fuzzymatch trace export --chrome` smoke.

use std::process::Command;

use crate::jsonv::{self, Json};

pub fn run() -> i32 {
    let steps: &[(&str, &[&str])] = &[
        ("fmt", &["fmt", "--all", "--", "--check"]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
    ];
    for (name, args) in steps {
        if let Some(code) = run_cargo(name, args) {
            return code;
        }
    }

    println!("ci: lint");
    let code = crate::lint::run(false);
    if code != 0 {
        return code;
    }
    println!("ci: analyze");
    let code = crate::analyze::run(&[]);
    if code != 0 {
        return code;
    }
    println!("ci: racecheck");
    if let Err(e) = racecheck_gate() {
        eprintln!("ci: racecheck failed: {e}");
        return 1;
    }
    println!("ci: mut-map budget");
    if let Err(e) = mutmap_gate() {
        eprintln!("ci: mut-map gate failed: {e}");
        return 1;
    }
    println!("ci: deepcheck");
    let code = crate::deepcheck::run();
    if code != 0 {
        return code;
    }
    println!("ci: trace smoke");
    if let Err(e) = trace_smoke() {
        eprintln!("ci: trace smoke failed: {e}");
        return 1;
    }
    println!("ci: server smoke");
    if let Err(e) = server_smoke() {
        eprintln!("ci: server smoke failed: {e}");
        return 1;
    }
    println!("ci: bench scaling record");
    if let Err(e) = scaling_record_gate() {
        eprintln!("ci: bench scaling record failed: {e}");
        return 1;
    }

    if let Some(code) = run_cargo("test", &["test", "--workspace", "-q"]) {
        return code;
    }
    println!("ci: all checks passed");
    0
}

/// Gate the static race rules: `racecheck` must pass against its
/// baseline (expected empty — a nonzero baseline is a known data race,
/// not debt), and its `--json` document must re-parse with
/// [`crate::jsonv`], keeping the machine-readable surface honest.
pub fn racecheck_gate() -> Result<(), String> {
    let code = crate::analyze::racecheck::run(&[]);
    if code != 0 {
        return Err("new race findings — run `cargo xtask racecheck`".into());
    }
    let doc = jsonv::parse(&crate::analyze::racecheck::json_report())
        .map_err(|e| format!("racecheck JSON does not re-parse: {e}"))?;
    let n = doc
        .as_arr()
        .ok_or("racecheck JSON is not an array of findings")?
        .len();
    println!("ci: racecheck json ok ({n} findings, all baselined)");
    Ok(())
}

/// Gate the lookup hot path's shared-mutability footprint: render the
/// mut-map report to JSON, re-parse it with [`crate::jsonv`] (exercising
/// the machine-readable surface, not the in-memory struct), and assert
/// the mutation-site count against the committed budget in
/// `xtask-mutmap.budget`. The count can only go *down* without editing
/// the budget file — an explicit, reviewed decision.
pub fn mutmap_gate() -> Result<(), String> {
    let report = crate::analyze::mutmap_report();
    if !report.missing_roots.is_empty() {
        return Err(format!(
            "mut-map roots not found: {} — fix analyze::project_config",
            report.missing_roots.join(", ")
        ));
    }
    let doc = jsonv::parse(&crate::analyze::mutmap::to_json(&report))
        .map_err(|e| format!("mut-map JSON does not re-parse: {e}"))?;
    let count = doc
        .get("mutation_sites")
        .and_then(Json::as_f64)
        .ok_or("mut-map JSON has no mutation_sites count")? as usize;
    let budget_path = crate::workspace_root().join("xtask-mutmap.budget");
    let budget: usize = std::fs::read_to_string(&budget_path)
        .map_err(|e| format!("cannot read xtask-mutmap.budget: {e}"))?
        .lines()
        .find(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .ok_or("xtask-mutmap.budget has no budget line")?
        .trim()
        .parse()
        .map_err(|e| format!("xtask-mutmap.budget is not a number: {e}"))?;
    if count > budget {
        return Err(format!(
            "{count} mutation sites reachable from the lookup path exceed the \
             budget of {budget}; run `cargo xtask analyze --mut-map` to see \
             them, and either stage the mutation off the hot path or raise \
             xtask-mutmap.budget with justification"
        ));
    }
    println!(
        "ci: mut-map ok ({count} mutation sites within budget {budget}, \
         {} reachable fns)",
        report.reachable
    );
    Ok(())
}

/// Gate the *committed* `BENCH_PR10.json` record: the recorded
/// 1→4-worker speedup must satisfy the floor for the `host_parallelism`
/// the report itself recorded (≥2.5x on 4+ cores, down to a
/// no-serialization-regression check on 1), and the recorded telemetry
/// overhead must be under the 5% limit. Fresh numbers are produced and
/// gated by `cargo xtask bench`, which `scripts/ci.sh` runs; this
/// in-process step keeps the committed record honest without re-running
/// the release bench.
pub fn scaling_record_gate() -> Result<(), String> {
    let path = crate::workspace_root().join("BENCH_PR10.json");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {}: {e} — run `cargo xtask bench`",
            path.display()
        )
    })?;
    let report = jsonv::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if crate::bench::scaling_gate(&report) != 0 {
        return Err("committed BENCH_PR10.json fails the replica-scaling floor".into());
    }
    if crate::bench::telemetry_gate(&report) != 0 {
        return Err("committed BENCH_PR10.json fails the telemetry-overhead gate".into());
    }
    Ok(())
}

/// Build a tiny matcher, run traced lookups, export Chrome trace JSON and
/// re-parse it: the whole observability pipeline in one in-process check.
pub fn trace_smoke() -> Result<(), String> {
    use fm_core::{Config, FuzzyMatcher, Record};

    if !fm_core::tracing::COMPILED {
        return Err("fm-core built without the `trace` feature".into());
    }
    let recorder = std::sync::Arc::new(fm_core::tracing::FlightRecorder::with_capacity(64, 32));
    let json = fm_core::tracing::with_recorder(std::sync::Arc::clone(&recorder), || {
        let db = fm_store::Database::in_memory().map_err(|e| e.to_string())?;
        let columns = ["name", "city", "state", "zip"];
        let rows = [
            Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
            Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
            Record::new(&["Companions", "Seattle", "WA", "98024"]),
        ];
        let matcher = FuzzyMatcher::build(
            &db,
            "ci_smoke",
            rows.into_iter(),
            Config::default().with_columns(&columns),
        )
        .map_err(|e| e.to_string())?;
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        matcher.lookup(&input, 2, 0.0).map_err(|e| e.to_string())?;
        Ok::<String, String>(fm_core::tracing::chrome_trace_json(&recorder.all()))
    })?;

    let doc = jsonv::parse(&json).map_err(|e| format!("export is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("export has no traceEvents array")?;
    let mut query_phases: Vec<&str> = Vec::new();
    let mut build_phases: Vec<&str> = Vec::new();
    for ev in events {
        let (Some(name), Some(cat)) = (
            ev.get("name").and_then(Json::as_str),
            ev.get("cat").and_then(Json::as_str),
        ) else {
            return Err("trace event missing name/cat".into());
        };
        let bucket = match cat {
            "query" => &mut query_phases,
            "build" => &mut build_phases,
            other => return Err(format!("unexpected event category {other}")),
        };
        if !bucket.contains(&name) {
            bucket.push(name);
        }
    }
    if query_phases.len() < 6 {
        return Err(format!(
            "only {} distinct query phases in the export: {query_phases:?}",
            query_phases.len()
        ));
    }
    for expected in ["build", "pre_eti", "group_fill"] {
        if !build_phases.contains(&expected) {
            return Err(format!(
                "ETI-build span {expected} missing from the export: {build_phases:?}"
            ));
        }
    }
    println!(
        "ci: trace smoke ok ({} events, {} query phases, {} build phases)",
        events.len(),
        query_phases.len(),
        build_phases.len()
    );
    Ok(())
}

/// Start `fm-server` on an ephemeral port against an in-memory matcher,
/// then exercise the serving contract end to end: a lookup round-trip
/// that the flight recorder must surface through `trace_slowest`, an
/// explicit overload rejection, and a drain whose ledger proves no
/// decoded frame went unanswered.
pub fn server_smoke() -> Result<(), String> {
    use fm_core::{Config, FuzzyMatcher, Record};
    use fm_server::{Client, Server, ServerConfig};
    use std::sync::Arc;

    let db = Arc::new(fm_store::Database::in_memory().map_err(|e| e.to_string())?);
    let columns = ["name", "city", "state", "zip"];
    let rows = [
        Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
        Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
        Record::new(&["Companions", "Seattle", "WA", "98024"]),
    ];
    let matcher = Arc::new(
        FuzzyMatcher::build(
            &db,
            "ci_server_smoke",
            rows.into_iter(),
            Config::default().with_columns(&columns),
        )
        .map_err(|e| e.to_string())?,
    );
    // One worker, inflight cap of one: while the sleeper below holds the
    // worker, any other lookup must be rejected with an explicit 503
    // rather than silently queued.
    let server = Server::start(
        "127.0.0.1:0",
        matcher,
        db,
        ServerConfig {
            workers: 1,
            max_inflight: 1,
            allow_sleep: true,
            // Fast sampler windows so the smoke can observe published
            // time-series state without waiting out the 1 s default.
            telemetry_window_ms: 20,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr().to_string();

    // 1. Traced lookup round-trip.
    let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let reply = client
        .lookup(&input, 1, 0.0)
        .map_err(|e| format!("lookup failed: {e}"))?;
    if !reply.ok || reply.matches.is_empty() {
        return Err(format!("lookup round-trip returned no match: {reply:?}"));
    }
    let traces = client
        .trace_slowest(4)
        .map_err(|e| format!("trace_slowest failed: {e}"))?;
    let query_traces = traces
        .get("traces")
        .and_then(fm_server::Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter(|t| t.get("kind").and_then(fm_server::Json::as_str) == Some("query"))
                .count()
        })
        .unwrap_or(0);
    if query_traces == 0 {
        return Err(format!(
            "flight recorder saw no query trace from server traffic: {traces}"
        ));
    }

    // 1b. Telemetry: the Prometheus scrape must validate (bucket
    // monotonicity, +Inf/_count agreement) and, in this quiesced moment
    // (one client, every reply received), agree exactly with `stats`.
    let exposition = client
        .metrics_text()
        .map_err(|e| format!("metrics verb failed: {e}"))?;
    let summary = fm_core::telemetry::validate_exposition(&exposition)
        .map_err(|e| format!("invalid exposition: {e}"))?;
    let stats = client
        .stats()
        .map_err(|e| format!("stats verb failed: {e}"))?;
    let latency = stats
        .get("metrics")
        .and_then(|m| m.get("latency"))
        .ok_or("stats reply has no metrics.latency")?;
    let stat_u64 = |field: &str| latency.get(field).and_then(fm_server::Json::as_u64);
    let prom_u64 = |name: &str| -> Option<u64> {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
            .map(|v| v as u64)
    };
    if prom_u64("fm_lookup_latency_us_count") != stat_u64("count")
        || prom_u64("fm_lookup_latency_us_sum") != stat_u64("sum_us")
    {
        return Err(format!(
            "exposition disagrees with stats: count {:?} vs {:?}, sum {:?} vs {:?}",
            prom_u64("fm_lookup_latency_us_count"),
            stat_u64("count"),
            prom_u64("fm_lookup_latency_us_sum"),
            stat_u64("sum_us")
        ));
    }
    // The timeseries verb's reply must survive a round-trip through the
    // independent jsonv parser, and the sampler must have published.
    std::thread::sleep(std::time::Duration::from_millis(60));
    let ts = client
        .timeseries(8)
        .map_err(|e| format!("timeseries verb failed: {e}"))?;
    let ts_doc = jsonv::parse(&ts.encode())
        .map_err(|e| format!("timeseries JSON does not re-parse: {e}"))?;
    let windows = ts_doc
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or("timeseries reply has no windows array")?;
    if windows.is_empty() {
        return Err("sampler published no windows after 60 ms at 20 ms/window".into());
    }

    // 2. Overload probe: a sleeper occupies the only inflight slot...
    let sleeper_addr = addr.clone();
    let sleeper_input = input.clone();
    let sleeper = std::thread::spawn(move || -> Result<(), String> {
        let mut c = Client::connect(&sleeper_addr).map_err(|e| e.to_string())?;
        let reply = c
            .lookup_with(&sleeper_input, 1, 0.0, None, 300)
            .map_err(|e| e.to_string())?;
        if reply.ok {
            Ok(())
        } else {
            Err(format!("sleeper was rejected: {reply:?}"))
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    // ...so a concurrent lookup must bounce with 503, not queue behind it.
    let reply = client
        .lookup(&input, 1, 0.0)
        .map_err(|e| format!("overload probe failed: {e}"))?;
    if reply.ok || reply.code != 503 {
        return Err(format!("expected a 503 overload reply, got {reply:?}"));
    }
    sleeper
        .join()
        .map_err(|_| "sleeper thread panicked".to_string())??;

    // 3. Graceful drain with a balanced response ledger.
    client
        .shutdown()
        .map_err(|e| format!("shutdown verb failed: {e}"))?;
    let report = server.wait();
    let c = &report.counters;
    // The replica-safe drain ledger: every decoded frame produced exactly
    // one reply attempt (a peer vanishing mid-reply counts as attempted).
    if !c.ledger_balanced() {
        return Err(format!(
            "drain lost responses: {} frames vs {} responses + {} write failures",
            c.frames, c.responses, c.write_failures
        ));
    }
    println!(
        "ci: server smoke ok ({} frames answered, {} query traces, {} overload \
         rejections, {} exposition samples, {} telemetry windows)",
        c.responses,
        query_traces,
        c.rejected_overload,
        summary.samples,
        windows.len()
    );
    Ok(())
}

/// Run a cargo subcommand from the workspace root; `Some(code)` on failure.
fn run_cargo(name: &str, args: &[&str]) -> Option<i32> {
    println!("ci: cargo {}", args.join(" "));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(args)
        .current_dir(crate::workspace_root())
        .status();
    match status {
        Ok(status) if status.success() => None,
        Ok(status) => {
            eprintln!("ci: `cargo {name}` failed with {status}");
            Some(status.code().unwrap_or(1))
        }
        Err(e) => {
            eprintln!("ci: cannot spawn cargo for `{name}`: {e}");
            Some(1)
        }
    }
}
