//! `cargo xtask bench` — the performance regression gate.
//!
//! Runs the `bench_gate` binary (`crates/bench/src/bin/bench_gate.rs`) in
//! release mode, which writes `BENCH_PR10.json`, then:
//!
//! 1. checks the structured-tracing overhead on `lookup_batch`
//!    (enabled vs runtime-disabled, same binary) is under 5%, and the
//!    server-telemetry overhead (sampler at 25 ms windows vs off) is
//!    under 5% as well;
//! 2. compares every **deterministic** per-strategy counter against the
//!    committed `BENCH_baseline.json` and fails on >20% relative drift —
//!    these counters are exact functions of the seed, so drift means an
//!    algorithm change that must be acknowledged with `--rebaseline`;
//! 3. checks the replica-scaling speedup (`scaling` section: 1 vs 4
//!    worker/replica pairs) against a floor chosen from the measuring
//!    host's `host_parallelism` — ≥2.5x with 4+ cores, ≥1.3x with 2–3,
//!    and ≥0.7x on a single core, where real parallel speedup is
//!    physically impossible and the gate only rejects a serialization
//!    regression (replicas contending so hard that 4 workers run
//!    *slower* than 1);
//! 4. reports (but does not gate on) other wall-clock drift, which
//!    tracks the machine more than the code.
//!
//! `--rebaseline` copies the fresh report over the baseline.
//!
//! `--trend` skips the gate entirely and prints a trajectory table
//! instead: every committed `BENCH_*.json` (baseline first, then name
//! order) becomes one column, and any counter that moved monotonically
//! in its bad direction (accuracy down, everything else up) across the
//! last three reports is flagged. The flags are informational, but the
//! command exits 1 when fewer than [`TREND_WINDOW`] reports exist —
//! "insufficient history" is a real answer, not a silent pass.

use std::process::Command;

use crate::jsonv::{self, Json};

/// Deterministic per-strategy counters: exact given the seed.
const GATED_COUNTERS: &[&str] = &[
    "accuracy",
    "avg_fetches",
    "avg_tids",
    "avg_eti_lookups",
    "avg_eti_rows",
    "avg_fms_evals",
    "avg_apx_pruned",
];

/// Wall-clock fields: reported, never gated.
const TIMING_FIELDS: &[&str] = &["batch_ms", "throughput_per_s"];

const MAX_COUNTER_DRIFT: f64 = 0.20;
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// Replica-scaling floors by the measuring host's core count. On 4+
/// cores the 4-worker pool must actually scale; with 2–3 cores partial
/// scaling is all the hardware allows; on 1 core no speedup is possible
/// and the floor only catches a serialization regression (4 contending
/// workers running markedly slower than 1).
const MIN_SPEEDUP_4CORE: f64 = 2.5;
const MIN_SPEEDUP_2CORE: f64 = 1.3;
const MIN_SPEEDUP_1CORE: f64 = 0.7;

pub fn run(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--trend") {
        return run_trend();
    }
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    let skip_run = args.iter().any(|a| a == "--skip-run");
    let root = crate::workspace_root();
    let report_path = root.join("BENCH_PR10.json");
    let baseline_path = root.join("BENCH_baseline.json");

    if !skip_run {
        println!("bench: cargo run --release -p fm-bench --bin bench_gate -- --quick");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args([
                "run",
                "--release",
                "-p",
                "fm-bench",
                "--bin",
                "bench_gate",
                "--",
                "--quick",
                "--out",
            ])
            .arg(&report_path)
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bench: bench_gate failed with {s}");
                return s.code().unwrap_or(1);
            }
            Err(e) => {
                eprintln!("bench: cannot spawn cargo: {e}");
                return 1;
            }
        }
    }

    let report = match read_report(&report_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench: {}: {e}", report_path.display());
            return 1;
        }
    };

    let mut failures = 0usize;

    // 1. Tracing overhead gate.
    match report
        .get("overhead")
        .and_then(|o| o.get("overhead_pct"))
        .and_then(Json::as_f64)
    {
        Some(pct) if pct <= MAX_OVERHEAD_PCT => {
            println!("bench: tracing overhead {pct:.2}% (limit {MAX_OVERHEAD_PCT}%)");
        }
        Some(pct) => {
            eprintln!("bench: FAIL tracing overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}%");
            failures += 1;
        }
        None => {
            eprintln!("bench: FAIL report has no overhead.overhead_pct");
            failures += 1;
        }
    }

    // 1b. Server-telemetry overhead gate (same limit as tracing).
    failures += telemetry_gate(&report);

    // 2. Replica-scaling gate (floor depends on the measuring host).
    failures += scaling_gate(&report);

    // 3+4. Baseline comparison.
    if rebaseline {
        if let Err(e) = std::fs::copy(&report_path, &baseline_path) {
            eprintln!("bench: cannot write {}: {e}", baseline_path.display());
            return 1;
        }
        println!("bench: baseline rewritten from {}", report_path.display());
    } else if baseline_path.exists() {
        match read_report(&baseline_path) {
            Ok(baseline) => failures += compare(&baseline, &report),
            Err(e) => {
                eprintln!("bench: {}: {e}", baseline_path.display());
                return 1;
            }
        }
    } else {
        eprintln!(
            "bench: no {} — run `cargo xtask bench --rebaseline` once to commit one",
            baseline_path.display()
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("bench: {failures} failure(s)");
        1
    } else {
        println!("bench: ok");
        0
    }
}

/// Gate the report's `telemetry` section (sampler-on vs sampler-off
/// served qps); returns the failure count. Reports predating the
/// telemetry subsystem lack the section, so absence fails — the gate
/// must not silently stop measuring.
pub fn telemetry_gate(report: &Json) -> usize {
    match report
        .get("telemetry")
        .and_then(|t| t.get("overhead_pct"))
        .and_then(Json::as_f64)
    {
        Some(pct) if pct <= MAX_OVERHEAD_PCT => {
            println!("bench: telemetry overhead {pct:.2}% (limit {MAX_OVERHEAD_PCT}%)");
            0
        }
        Some(pct) => {
            eprintln!("bench: FAIL telemetry overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}%");
            1
        }
        None => {
            eprintln!("bench: FAIL report has no telemetry.overhead_pct");
            1
        }
    }
}

/// Pick the speedup floor for a host with `cores` logical CPUs.
pub fn speedup_floor(cores: u64) -> f64 {
    if cores >= 4 {
        MIN_SPEEDUP_4CORE
    } else if cores >= 2 {
        MIN_SPEEDUP_2CORE
    } else {
        MIN_SPEEDUP_1CORE
    }
}

/// Gate the report's `scaling` section; returns the failure count. The
/// floor is chosen from the `host_parallelism` the *report* recorded, so
/// `--skip-run` judges the numbers against the machine that produced
/// them, not the machine running the gate.
pub fn scaling_gate(report: &Json) -> usize {
    let Some(scaling) = report.get("scaling") else {
        eprintln!("bench: FAIL report has no scaling section");
        return 1;
    };
    let field = |key: &str| scaling.get(key).and_then(Json::as_f64);
    let (Some(qps1), Some(qps4), Some(speedup), Some(cores)) = (
        field("workers_1_qps"),
        field("workers_4_qps"),
        field("speedup"),
        field("host_parallelism"),
    ) else {
        eprintln!("bench: FAIL scaling section is missing fields");
        return 1;
    };
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let floor = speedup_floor(cores.max(1.0) as u64);
    if speedup < floor {
        eprintln!(
            "bench: FAIL replica scaling {speedup:.2}x (1 worker {qps1:.0} qps -> \
             4 workers {qps4:.0} qps) below the {floor:.1}x floor for \
             {cores:.0} core(s)"
        );
        1
    } else {
        println!(
            "bench: replica scaling {speedup:.2}x on {cores:.0} core(s) \
             (floor {floor:.1}x)"
        );
        0
    }
}

fn read_report(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    jsonv::parse(&text)
}

fn strategy_rows(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("strategies")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("strategy").and_then(Json::as_str).map(|s| (s, r)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compare a fresh report against the baseline; returns the failure count.
pub fn compare(baseline: &Json, report: &Json) -> usize {
    let mut failures = 0usize;
    let base_rows = strategy_rows(baseline);
    let new_rows = strategy_rows(report);
    if base_rows.is_empty() {
        eprintln!("bench: FAIL baseline has no strategy rows");
        return 1;
    }
    for (name, base) in &base_rows {
        let Some((_, fresh)) = new_rows.iter().find(|(n, _)| n == name) else {
            eprintln!("bench: FAIL strategy {name} missing from fresh report");
            failures += 1;
            continue;
        };
        for key in GATED_COUNTERS {
            let (Some(b), Some(f)) = (
                base.get(key).and_then(Json::as_f64),
                fresh.get(key).and_then(Json::as_f64),
            ) else {
                eprintln!("bench: FAIL {name}.{key} missing on one side");
                failures += 1;
                continue;
            };
            let drift = relative_drift(b, f);
            if drift > MAX_COUNTER_DRIFT {
                eprintln!(
                    "bench: FAIL {name}.{key}: {b:.4} -> {f:.4} ({:+.1}%, limit ±{:.0}%)",
                    drift * 100.0,
                    MAX_COUNTER_DRIFT * 100.0
                );
                failures += 1;
            }
        }
        for key in TIMING_FIELDS {
            if let (Some(b), Some(f)) = (
                base.get(key).and_then(Json::as_f64),
                fresh.get(key).and_then(Json::as_f64),
            ) {
                let drift = relative_drift(b, f);
                if drift > MAX_COUNTER_DRIFT {
                    println!(
                        "bench: note {name}.{key}: {b:.1} -> {f:.1} \
                         (wall-clock, not gated)"
                    );
                }
            }
        }
    }
    failures
}

/// `cargo xtask bench --trend`: per-counter trajectories over every
/// committed report. Never gates — the 20% drift gate already decides
/// pass/fail; this surfaces the slow creep the gate is blind to.
fn run_trend() -> i32 {
    let root = crate::workspace_root();
    let mut names: Vec<String> = match std::fs::read_dir(&root) {
        Ok(dir) => dir
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("bench: cannot list {}: {e}", root.display());
            return 1;
        }
    };
    // Chronology proxy: the committed baseline is the oldest snapshot,
    // later reports are named in PR order. The PR number must compare
    // numerically — lexicographic order would slot PR10 before PR4.
    names.sort_by_key(|n| trend_order_key(n));
    let mut entries: Vec<(String, Json)> = Vec::new();
    for name in names {
        match read_report(&root.join(&name)) {
            Ok(doc) => entries.push((name, doc)),
            Err(e) => {
                eprintln!("bench: skipping {name}: {e}");
            }
        }
    }
    if entries.is_empty() {
        eprintln!(
            "bench: no readable BENCH_*.json reports at {}",
            root.display()
        );
        return 1;
    }
    for line in trend_lines(&entries) {
        println!("{line}");
    }
    if entries.len() < TREND_WINDOW {
        eprintln!(
            "bench trend: FAIL insufficient history ({} < {TREND_WINDOW} reports) — \
             the window cannot flag anything yet; commit more BENCH_*.json snapshots",
            entries.len()
        );
        return 1;
    }
    0
}

/// Chronology key for a committed report name: the baseline sorts first,
/// `BENCH_PR<n>.json` sorts by its PR number, anything else sorts last by
/// name so unexpected files still get a stable position.
pub fn trend_order_key(name: &str) -> (u64, String) {
    if name == "BENCH_baseline.json" {
        return (0, String::new());
    }
    if let Some(num) = name
        .strip_prefix("BENCH_PR")
        .and_then(|rest| rest.strip_suffix(".json"))
        .and_then(|digits| digits.parse::<u64>().ok())
    {
        return (num, String::new());
    }
    (u64::MAX, name.to_string())
}

/// `true` when the counter only moved in its bad direction across every
/// step of the last [`TREND_WINDOW`] values.
pub fn regressing(values: &[f64], higher_is_better: bool) -> bool {
    if values.len() < TREND_WINDOW {
        return false;
    }
    values[values.len() - TREND_WINDOW..].windows(2).all(|w| {
        if higher_is_better {
            w[1] < w[0]
        } else {
            w[1] > w[0]
        }
    })
}

/// Reports a counter must creep across, step by step, to be flagged.
pub const TREND_WINDOW: usize = 3;

/// Render the trajectory table for ordered `(name, report)` pairs — a
/// pure function so the fixtures in the unit tests can drive it.
pub fn trend_lines(entries: &[(String, Json)]) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!(
        "bench trend: {} report(s): {}",
        entries.len(),
        entries
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    ));
    if entries.len() < TREND_WINDOW {
        out.push(format!(
            "bench trend: insufficient history ({} of {TREND_WINDOW} reports) — \
             trajectories only, no regression flags",
            entries.len()
        ));
    }
    // Strategy names in first-seen order across all reports.
    let mut strategies: Vec<String> = Vec::new();
    for (_, doc) in entries {
        for (name, _) in strategy_rows(doc) {
            if !strategies.iter().any(|s| s == name) {
                strategies.push(name.to_string());
            }
        }
    }
    let mut flagged = 0usize;
    for strategy in &strategies {
        out.push(format!("  {strategy}:"));
        for key in GATED_COUNTERS.iter().chain(TIMING_FIELDS) {
            let values: Vec<Option<f64>> = entries
                .iter()
                .map(|(_, doc)| {
                    strategy_rows(doc)
                        .iter()
                        .find(|(n, _)| n == strategy)
                        .and_then(|(_, row)| row.get(key).and_then(Json::as_f64))
                })
                .collect();
            let cells: Vec<String> = values
                .iter()
                .map(|v| match v {
                    Some(v) => format!("{v:.3}"),
                    None => "-".to_string(),
                })
                .collect();
            // A gap in the tail (report missing the counter) breaks the
            // streak rather than guessing across it.
            let tail: Vec<f64> = values
                .iter()
                .rev()
                .take(TREND_WINDOW)
                .copied()
                .collect::<Option<Vec<f64>>>()
                .map(|mut v| {
                    v.reverse();
                    v
                })
                .unwrap_or_default();
            let higher_is_better = *key == "accuracy" || *key == "throughput_per_s";
            let flag = if values.len() >= TREND_WINDOW && regressing(&tail, higher_is_better) {
                flagged += 1;
                "  << regressing"
            } else {
                ""
            };
            out.push(format!("    {key:<18} {}{flag}", cells.join(" -> ")));
        }
    }
    out.push(if flagged == 0 {
        "bench trend: no counter regressing monotonically".to_string()
    } else {
        format!(
            "bench trend: {flagged} counter(s) regressing monotonically over the last {TREND_WINDOW} reports (informational)"
        )
    });
    out
}

fn relative_drift(base: f64, fresh: f64) -> f64 {
    if base == 0.0 {
        if fresh == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (fresh - base).abs() / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fetches: f64, batch_ms: f64) -> Json {
        jsonv::parse(&format!(
            r#"{{"strategies": [{{"strategy": "Q+T_3", "accuracy": 0.9,
                "avg_fetches": {fetches}, "avg_tids": 100.0,
                "avg_eti_lookups": 10.0, "avg_eti_rows": 9.0,
                "avg_fms_evals": {fetches}, "avg_apx_pruned": 5.0,
                "batch_ms": {batch_ms}, "throughput_per_s": 1000.0}}]}}"#
        ))
        .unwrap()
    }

    fn scaling_report(speedup: f64, cores: u64) -> Json {
        jsonv::parse(&format!(
            r#"{{"scaling": {{"workers_1_qps": 100.0, "workers_4_qps": {},
                "speedup": {speedup}, "host_parallelism": {cores}}}}}"#,
            100.0 * speedup
        ))
        .unwrap()
    }

    #[test]
    fn speedup_floor_tracks_core_count() {
        assert_eq!(speedup_floor(16), MIN_SPEEDUP_4CORE);
        assert_eq!(speedup_floor(4), MIN_SPEEDUP_4CORE);
        assert_eq!(speedup_floor(2), MIN_SPEEDUP_2CORE);
        assert_eq!(speedup_floor(1), MIN_SPEEDUP_1CORE);
    }

    #[test]
    fn scaling_gate_arms_at_2_5x_on_four_cores() {
        assert_eq!(scaling_gate(&scaling_report(3.1, 4)), 0);
        assert_eq!(scaling_gate(&scaling_report(1.8, 4)), 1);
    }

    #[test]
    fn scaling_gate_on_one_core_only_rejects_serialization_regressions() {
        // ~1x on 1 core is the physical best case: pass.
        assert_eq!(scaling_gate(&scaling_report(0.95, 1)), 0);
        // 4 workers running at half the 1-worker rate means the replicas
        // are contending on something: fail even though no speedup was
        // ever possible.
        assert_eq!(scaling_gate(&scaling_report(0.5, 1)), 1);
    }

    #[test]
    fn telemetry_gate_arms_at_5pct() {
        let ok = jsonv::parse(r#"{"telemetry": {"overhead_pct": 2.4}}"#).unwrap();
        assert_eq!(telemetry_gate(&ok), 0);
        let slow = jsonv::parse(r#"{"telemetry": {"overhead_pct": 7.1}}"#).unwrap();
        assert_eq!(telemetry_gate(&slow), 1);
        let missing = jsonv::parse(r#"{"strategies": []}"#).unwrap();
        assert_eq!(telemetry_gate(&missing), 1);
    }

    #[test]
    fn scaling_gate_fails_on_missing_section() {
        let no_scaling = jsonv::parse(r#"{"strategies": []}"#).unwrap();
        assert_eq!(scaling_gate(&no_scaling), 1);
        let partial = jsonv::parse(r#"{"scaling": {"speedup": 3.0}}"#).unwrap();
        assert_eq!(scaling_gate(&partial), 1);
    }

    #[test]
    fn identical_reports_pass() {
        assert_eq!(compare(&report(40.0, 100.0), &report(40.0, 100.0)), 0);
    }

    #[test]
    fn counter_drift_over_20pct_fails() {
        // avg_fetches and avg_fms_evals both drift by 50% -> 2 failures.
        assert_eq!(compare(&report(40.0, 100.0), &report(60.0, 100.0)), 2);
    }

    #[test]
    fn wall_clock_drift_is_not_gated() {
        assert_eq!(compare(&report(40.0, 100.0), &report(40.0, 500.0)), 0);
    }

    #[test]
    fn missing_strategy_fails() {
        let empty = jsonv::parse(r#"{"strategies": []}"#).unwrap();
        assert_eq!(compare(&report(40.0, 100.0), &empty), 1);
    }

    #[test]
    fn regressing_needs_a_full_monotone_window() {
        // Lower-is-better counter creeping up every step: flagged.
        assert!(regressing(&[40.0, 41.0, 45.0], false));
        // A dip inside the window breaks the streak.
        assert!(!regressing(&[40.0, 39.0, 45.0], false));
        // Higher-is-better counter decaying every step: flagged.
        assert!(regressing(&[0.95, 0.94, 0.90], true));
        // Too few points: never flagged.
        assert!(!regressing(&[40.0, 45.0], false));
        // Only the last TREND_WINDOW points matter.
        assert!(regressing(&[10.0, 40.0, 41.0, 45.0], false));
    }

    #[test]
    fn trend_flags_monotone_creep_and_skips_recovered_counters() {
        let entries = vec![
            ("BENCH_baseline.json".to_string(), report(40.0, 100.0)),
            ("BENCH_PR4.json".to_string(), report(42.0, 90.0)),
            ("BENCH_PR5.json".to_string(), report(45.0, 80.0)),
        ];
        let lines = trend_lines(&entries);
        let fetches = lines
            .iter()
            .find(|l| l.contains("avg_fetches"))
            .expect("avg_fetches row");
        assert!(
            fetches.contains("<< regressing"),
            "40 -> 42 -> 45 should be flagged: {fetches}"
        );
        // batch_ms fell across the window: improving, not regressing.
        let batch = lines
            .iter()
            .find(|l| l.contains("batch_ms"))
            .expect("batch_ms row");
        assert!(!batch.contains("<< regressing"), "improving: {batch}");
        // avg_fms_evals mirrors avg_fetches in the fixture -> 2 flags.
        assert!(
            lines.last().expect("summary").contains("2 counter(s)"),
            "got {lines:?}"
        );
    }

    #[test]
    fn trend_order_is_baseline_then_numeric_pr_order() {
        let mut names = vec![
            "BENCH_PR4.json".to_string(),
            "BENCH_PR10.json".to_string(),
            "BENCH_baseline.json".to_string(),
            "BENCH_PR9.json".to_string(),
            "BENCH_custom.json".to_string(),
        ];
        names.sort_by_key(|n| trend_order_key(n));
        assert_eq!(
            names,
            vec![
                "BENCH_baseline.json",
                "BENCH_PR4.json",
                "BENCH_PR9.json",
                "BENCH_PR10.json",
                "BENCH_custom.json",
            ],
            "PR10 must sort after PR9, not between PR1 and PR4"
        );
    }

    #[test]
    fn trend_with_two_reports_prints_trajectories_without_flags() {
        let entries = vec![
            ("BENCH_baseline.json".to_string(), report(40.0, 100.0)),
            ("BENCH_PR4.json".to_string(), report(60.0, 100.0)),
        ];
        let lines = trend_lines(&entries);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("insufficient history (2 of 3 reports)")),
            "short history must be called out: {lines:?}"
        );
        assert!(
            lines.iter().all(|l| !l.contains("<< regressing")),
            "no flags with fewer than {TREND_WINDOW} reports: {lines:?}"
        );
    }

    #[test]
    fn trend_breaks_streaks_across_missing_counters() {
        let gap = jsonv::parse(r#"{"strategies": [{"strategy": "Q+T_3"}]}"#).unwrap();
        let entries = vec![
            ("BENCH_baseline.json".to_string(), report(40.0, 100.0)),
            ("BENCH_PR4.json".to_string(), gap),
            ("BENCH_PR5.json".to_string(), report(45.0, 80.0)),
        ];
        let lines = trend_lines(&entries);
        assert!(
            lines.iter().any(|l| l.contains("40.000 -> - -> 45.000")),
            "gaps render as '-': {lines:?}"
        );
        assert!(
            lines.iter().all(|l| !l.contains("<< regressing")),
            "a gap inside the window must not be flagged: {lines:?}"
        );
    }
}
