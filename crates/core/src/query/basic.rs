//! The basic query processing algorithm (paper §4.3.1, Figure 3).

use std::collections::HashMap;

use crate::error::Result;
use crate::eti::TidList;
use crate::metrics::LookupTrace;
use crate::query::{
    plan_query, verify_candidates, QueryContext, ReferenceFetch, ScoreTable, ScoredMatch,
};
use crate::record::TokenizedRecord;
use crate::sim::Similarity;
use crate::weights::WeightProvider;

/// Answer a K-fuzzy-match query with the basic algorithm.
///
/// Looks up **every** signature coordinate of every input token against the
/// ETI, scores tids, then fetches and verifies candidates in decreasing
/// score order.
pub fn basic_lookup<W, F>(
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
    let plan = {
        let _span = crate::tracing::span("plan");
        plan_query(input, ctx.config, ctx.weights, ctx.minhasher)
    };
    if plan.wu == 0.0 {
        return Ok((Vec::new(), trace));
    }

    // Step 4: the admission threshold for new tids.
    let threshold = c * plan.wu;
    let mut remaining: f64 = plan.grams.iter().map(|g| g.weight).sum();
    let mut table = ScoreTable::default();
    // Weight of stop q-grams we could not score: candidates must not be
    // penalized for them, so it joins the adjustment term in every bound.
    let mut stop_credit = 0.0;

    let probe_span = crate::tracing::span("probe");
    for gram in &plan.grams {
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
                // Step 9b: a new tid's best possible final score is the
                // weight not yet consumed (this gram included) — plus
                // the adjustment term, exactly as step 11's filter
                // subtracts it: a low score does not bound fms without
                // the d_q slack.
                let admit_new =
                    !ctx.config.insert_pruning || remaining + plan.adjustment >= threshold;
                table.absorb(&tids, gram.weight, admit_new, &mut trace);
            }
        }
        remaining -= gram.weight;
    }

    drop(probe_span);

    let adjustment = plan.adjustment + stop_credit;
    let ranked = {
        let _span = crate::tracing::span("rank");
        table.ranked()
    };
    let mut sim = Similarity::new(ctx.weights, ctx.config);
    let mut fms_cache: HashMap<u32, f64> = HashMap::new();
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
