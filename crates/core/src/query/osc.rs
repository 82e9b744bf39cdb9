//! Optimistic short circuiting (paper §4.3.2, Figure 4).
//!
//! Token weights vary a lot (that is the whole point of IDF weighting), so
//! the heaviest few q-grams often determine the winner. OSC therefore
//! processes signature coordinates in **decreasing weight order** and,
//! after each tid-list, runs a two-stage gate:
//!
//! * **fetching test** — linearly extrapolate the current K-th best score
//!   over the weight still to come; if even the extrapolation beats the
//!   (K+1)-th candidate's *best possible* final score, optimistically fetch
//!   the current top K reference tuples;
//! * **stopping test** — compute their exact `fms`; if every one of them is
//!   at least the best possible final (normalized) score of any other
//!   tuple, the answer is provably final (w.h.p.) and the remaining — by
//!   construction lighter and higher-frequency, hence more expensive —
//!   q-grams are never looked up.
//!
//! A failed stopping test costs only the (cached) fms evaluations; the
//! algorithm keeps processing q-grams and falls back to the basic
//! verification phase after the last one.

use std::collections::HashMap;

use crate::error::Result;
use crate::eti::TidList;
use crate::metrics::LookupTrace;
use crate::query::{
    insert_match, plan_query, verify_candidates, QueryContext, ReferenceFetch, ScoreTable,
    ScoredMatch,
};
use crate::record::TokenizedRecord;
use crate::sim::Similarity;
use crate::weights::WeightProvider;

/// Answer a K-fuzzy-match query with optimistic short circuiting.
pub fn osc_lookup<W, F>(
    ctx: &QueryContext<'_, W, F>,
    input: &TokenizedRecord,
    k: usize,
    c: f64,
) -> Result<(Vec<ScoredMatch>, LookupTrace)>
where
    W: WeightProvider + ?Sized,
    F: ReferenceFetch + ?Sized,
{
    let mut trace = LookupTrace::default();
    if k == 0 {
        return Ok((Vec::new(), trace));
    }
    let plan_span = crate::tracing::span("plan");
    let mut plan = plan_query(input, ctx.config, ctx.weights, ctx.minhasher);
    if plan.wu == 0.0 {
        return Ok((Vec::new(), trace));
    }
    // Step 3.1: decreasing weight order; ties broken deterministically.
    plan.grams.sort_by(|a, b| {
        b.weight.total_cmp(&a.weight).then_with(|| {
            (a.column, a.coordinate, a.gram.as_str()).cmp(&(
                b.column,
                b.coordinate,
                b.gram.as_str(),
            ))
        })
    });
    drop(plan_span);

    let threshold = c * plan.wu;
    let total: f64 = plan.grams.iter().map(|g| g.weight).sum();
    let mut remaining = total; // w(Q_p) − w(Q_i)
    let mut processed_scored = 0.0; // weight of non-stop grams processed
    let mut stop_credit = 0.0;
    let mut table = ScoreTable::default();
    let mut sim = Similarity::new(ctx.weights, ctx.config);
    let mut fms_cache: HashMap<u32, f64> = HashMap::new();

    let n_grams = plan.grams.len();
    let probe_span = crate::tracing::span("probe");
    for (i, gram) in plan.grams.iter().enumerate() {
        trace.qgrams_probed += 1;
        let (list, rows) = ctx
            .eti
            .lookup_counted(&gram.gram, gram.coordinate, gram.column)?;
        trace.eti_rows += rows;
        match list {
            None => {}
            Some(TidList { tids: None, .. }) => {
                trace.stop_qgrams += 1;
                stop_credit += gram.weight;
            }
            Some(TidList {
                tids: Some(tids), ..
            }) => {
                trace.tid_list_entries += tids.len() as u64;
                trace.tid_list_max = trace.tid_list_max.max(tids.len() as u64);
                let admit_new =
                    !ctx.config.insert_pruning || remaining + plan.adjustment >= threshold;
                table.absorb(&tids, gram.weight, admit_new, &mut trace);
                processed_scored += gram.weight;
            }
        }
        remaining -= gram.weight;

        // Step 8.1: the short-circuit procedure — pointless after the last
        // gram (the fallback handles that) or before anything scored.
        if i + 1 == n_grams || processed_scored <= 0.0 || table.len() == 0 {
            continue;
        }
        // Raw scores, with stop-q-gram weight credited (those lists were
        // never scored, so a candidate may own them in full).
        let tops = table.top_scores(k + 1, 0.0);
        let ss_k = tops[k - 1].1 + stop_credit;
        let ss_k1 = tops[k].1 + stop_credit;
        if tops[k - 1].0.is_none() {
            continue; // fewer than K candidates so far
        }
        // Fetching test: extrapolated K-th score vs best possible (K+1)-th.
        // (processed_scored + stop_credit + remaining == total.)
        // When every current top-K candidate has already been fetched (a
        // failed earlier attempt), re-running the stopping test is free —
        // the fetching test only gates *new* reference fetches.
        let estimated = ss_k / (processed_scored + stop_credit) * total;
        let best_next = ss_k1 + remaining;
        let all_cached = tops[..k]
            .iter()
            .all(|(tid, _)| tid.map(|t| fms_cache.contains_key(&t)).unwrap_or(false));
        if estimated <= best_next && !all_cached {
            continue;
        }
        trace.osc_attempts += 1;
        let _attempt_span = crate::tracing::span("osc_round");
        // Stopping-test bound: the best possible *final score* of any tuple
        // outside the current top K is `ss_k1 + remaining`, turned into an
        // fms bound per the configured flavor (see
        // [`crate::config::OscStopping`] for why two exist).
        let bound = match ctx.config.osc_stopping {
            crate::config::OscStopping::Sound => {
                crate::query::score_bound(ss_k1 + remaining, plan.wu, plan.adjustment, ctx.config.q)
            }
            crate::config::OscStopping::PaperExample => ((ss_k1 + remaining) / plan.wu).min(1.0),
        };
        let mut verified: Vec<ScoredMatch> = Vec::with_capacity(k);
        let mut all_pass = true;
        for &(tid, _) in tops[..k].iter() {
            // lint:allow(expect): tops[..k] was filtered to Some just above
            let tid = tid.expect("checked above");
            let similarity = match fms_cache.get(&tid) {
                Some(&f) => f,
                None => {
                    let tuple = {
                        let _span = crate::tracing::span("fetch");
                        ctx.reference.fetch(tid)?
                    };
                    trace.candidates_fetched += 1;
                    trace.fms_evals += 1;
                    let _span = crate::tracing::span("fms");
                    let f = sim.fms(input, &tuple);
                    fms_cache.insert(tid, f);
                    f
                }
            };
            if similarity < bound {
                all_pass = false;
                break;
            }
            verified = insert_match(verified, ScoredMatch { tid, similarity }, k);
        }
        // Stopping test: every fetched tuple dominates anything unfetched.
        if all_pass {
            trace.osc_round = Some(i as u32);
            verified.retain(|m| m.similarity >= c);
            return Ok((verified, trace));
        }
    }

    drop(probe_span);

    // Fall back to the ordered verification phase; fms evaluations done
    // during failed short circuits are reused through the cache.
    let adjustment = plan.adjustment + stop_credit;
    let ranked = {
        let _span = crate::tracing::span("rank");
        table.ranked()
    };
    let matches = verify_candidates(
        ctx,
        &mut sim,
        input,
        &ranked,
        k,
        c,
        plan.wu,
        adjustment,
        &mut fms_cache,
        &mut trace,
    )?;
    Ok((matches, trace))
}
