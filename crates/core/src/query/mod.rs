//! Fuzzy match query processing (paper §4.3).
//!
//! Both algorithms share the same skeleton:
//!
//! 1. **Plan**: tokenize the input, weight every token (IDF × column
//!    factor), expand tokens into signature coordinates with per-coordinate
//!    weight shares, and pre-compute the adjustment term
//!    `Σ_t w(t)·(1 − 1/q)` that corrects for estimating edit distance with
//!    q-gram commonality (Figure 3, step 7).
//! 2. **Score**: look up each coordinate's tid-list in the ETI and
//!    accumulate per-tid scores in a hash table (Figure 3, steps 5–10).
//!    New tids are admitted only while the weight still to be processed
//!    could lift them past the threshold (step 9b).
//! 3. **Verify**: fetch candidate reference tuples in decreasing score
//!    order and compute the exact `fms`, stopping as soon as the current
//!    K-th best verified similarity dominates the score-derived upper bound
//!    `(score + adjustment)/w(u)` of every unfetched candidate (step 11–13;
//!    see DESIGN.md on why the fetch must be ordered).
//!
//! [`basic`] runs the phases in sequence; [`osc`] interleaves phase 3 into
//! phase 2 (optimistic short circuiting, §4.3.2).

pub mod basic;
pub mod osc;

use std::collections::HashMap;

use fm_text::minhash::MinHasher;

use crate::config::Config;
use crate::error::Result;
use crate::eti::{token_signature, Eti};
use crate::metrics::LookupTrace;
use crate::record::TokenizedRecord;
use crate::sim::Similarity;
use crate::weights::WeightProvider;

pub use basic::basic_lookup;
pub use osc::osc_lookup;

/// Which query algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Figure 3's basic algorithm.
    Basic,
    /// Basic + optimistic short circuiting (§4.3.2). The default — it is
    /// what the paper evaluates and ships.
    #[default]
    Osc,
}

/// Per-query counters. These are the quantities behind the paper's Figures
/// 8–10.
///
/// `QueryStats` predates [`LookupTrace`] and is derived from it (every
/// field is a projection); it survives as the compact summary the older
/// call sites and experiment binaries consume.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Logical ETI lookups issued (one per signature coordinate probed).
    pub eti_lookups: u64,
    /// Tid-list entries processed (score increments + insertions) — the
    /// paper's "#tids processed per input tuple" (Figure 9).
    pub tids_processed: u64,
    /// Distinct tids that entered the score table.
    pub distinct_tids: u64,
    /// Reference tuples fetched and verified with `fms` — the paper's
    /// "candidate set size" (Figure 8).
    pub candidates_fetched: u64,
    /// Exact `fms` evaluations (≤ `candidates_fetched`; OSC may re-check a
    /// cached candidate without re-fetching).
    pub fms_evaluations: u64,
    /// Stop q-grams encountered.
    pub stop_qgrams: u64,
    /// Times the OSC fetching test fired.
    pub osc_attempts: u64,
    /// Whether the query was answered by a successful short circuit.
    pub osc_succeeded: bool,
}

impl From<&LookupTrace> for QueryStats {
    fn from(trace: &LookupTrace) -> QueryStats {
        QueryStats {
            eti_lookups: trace.qgrams_probed,
            tids_processed: trace.tids_processed,
            distinct_tids: trace.candidates,
            candidates_fetched: trace.candidates_fetched,
            fms_evaluations: trace.fms_evals,
            stop_qgrams: trace.stop_qgrams,
            osc_attempts: trace.osc_attempts,
            osc_succeeded: trace.osc_round.is_some(),
        }
    }
}

/// A match produced by the query processor: reference tid + exact `fms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredMatch {
    pub tid: u32,
    pub similarity: f64,
}

/// Provides reference tuples by tid for the verification phase.
pub trait ReferenceFetch {
    fn fetch(&self, tid: u32) -> Result<TokenizedRecord>;
}

/// Everything a query needs, borrowed from the matcher.
pub struct QueryContext<'a, W: WeightProvider + ?Sized, F: ReferenceFetch + ?Sized> {
    pub config: &'a Config,
    pub weights: &'a W,
    pub minhasher: &'a MinHasher,
    pub eti: &'a Eti,
    pub reference: &'a F,
}

/// One signature coordinate scheduled for an ETI lookup.
#[derive(Debug, Clone)]
pub(crate) struct PlannedGram {
    pub column: u8,
    pub coordinate: u8,
    pub gram: String,
    /// Absolute weight of this coordinate: `w(t) × share`.
    pub weight: f64,
}

/// The query plan for one input tuple.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pub grams: Vec<PlannedGram>,
    /// `w(u)`: total weight of the input token set.
    pub wu: f64,
    /// `Σ_t w(t)·(1 − 1/q)`: the full adjustment term.
    pub adjustment: f64,
}

/// Build the query plan (Figure 3, steps 2–4 and 7 precomputed).
pub(crate) fn plan_query<W: WeightProvider + ?Sized>(
    input: &TokenizedRecord,
    config: &Config,
    weights: &W,
    minhasher: &MinHasher,
) -> QueryPlan {
    let dq = 1.0 - 1.0 / config.q as f64;
    let mut grams = Vec::new();
    let mut wu = 0.0;
    let mut adjustment = 0.0;
    for (col, token) in input.iter_tokens() {
        let w = config.column_factor(col) * weights.weight(col, token);
        wu += w;
        adjustment += w * dq;
        for entry in token_signature(token, minhasher, config.scheme) {
            grams.push(PlannedGram {
                column: col as u8,
                coordinate: entry.coordinate,
                gram: entry.gram,
                weight: w * entry.share,
            });
        }
    }
    QueryPlan {
        grams,
        wu,
        adjustment,
    }
}

/// The scoring hash table (Figure 3's `TidScores`).
#[derive(Debug, Default)]
pub(crate) struct ScoreTable {
    scores: HashMap<u32, f64>,
}

impl ScoreTable {
    /// Process one fetched tid-list: bump existing tids; admit new ones only
    /// if `admit_new` (the step-9b pruning decision made by the caller).
    pub fn absorb(&mut self, tids: &[u32], weight: f64, admit_new: bool, trace: &mut LookupTrace) {
        for &tid in tids {
            match self.scores.get_mut(&tid) {
                Some(s) => {
                    *s += weight;
                    trace.tids_processed += 1;
                }
                None if admit_new => {
                    self.scores.insert(tid, weight);
                    trace.tids_processed += 1;
                    trace.candidates += 1;
                }
                None => {}
            }
        }
    }

    /// Scored tids in decreasing `(score, tid asc)` order (deterministic).
    pub fn ranked(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self.scores.iter().map(|(&t, &s)| (t, s)).collect();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The `n` highest scores, padded with `floor` when fewer tids are
    /// scored. Used by the OSC fetching test.
    pub fn top_scores(&self, n: usize, floor: f64) -> Vec<(Option<u32>, f64)> {
        let ranked = self.ranked();
        (0..n)
            .map(|i| match ranked.get(i) {
                Some(&(tid, s)) => (Some(tid), s),
                None => (None, floor),
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.scores.len()
    }
}

/// The sound aggregate upper bound on a candidate's `fms` given its hash
/// table score `s` (see DESIGN.md §4.2 for the derivation):
///
/// `fms ≤ fms_apx ≤ (Σ_t w(t)·d_q + (2/q)·s) / w(u)`, capped at 1.
///
/// It follows from the per-token cap: each token contributes at most
/// `min(w(t), (2/q)·s_t + d_q·w(t))`, and the worst allocation of the
/// aggregate score saturates tokens one by one. The additive `d_q` floor is
/// irreducible — min-hash agreement genuinely cannot distinguish similarity
/// below `d_q` — which is why [`crate::config::Config::max_candidates`]
/// exists as a work cap for very dirty inputs.
#[inline]
pub(crate) fn score_bound(score: f64, wu: f64, adjustment: f64, q: usize) -> f64 {
    ((adjustment + (2.0 / q as f64) * score) / wu).min(1.0)
}

/// Verification phase (Figure 3 steps 11–13): fetch candidates in
/// decreasing score order, evaluate exact `fms`, early-stop on the upper
/// bound, return the top K at or above `c`.
///
/// The loop terminates when any of these holds for the next candidate:
///
/// * its [`score_bound`] is below `c` (nothing later can clear the
///   threshold; this is Figure 3's step 11 filter);
/// * the K-th verified `fms` already matches or beats its [`score_bound`]
///   (the K best are final, up to ties and min-hash failure probability);
/// * the fetch cap `max_candidates` is reached.
///
/// Candidates skipped by the first two exits are counted as
/// [`LookupTrace::apx_pruned`]: their `fms_apx`-style score bound — not an
/// exact evaluation — ruled them out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidates<W, F>(
    ctx: &QueryContext<'_, W, F>,
    sim: &mut Similarity<'_, W>,
    input: &TokenizedRecord,
    ranked: &[(u32, f64)],
    k: usize,
    c: f64,
    wu: f64,
    adjustment: f64,
    fms_cache: &mut HashMap<u32, f64>,
    trace: &mut LookupTrace,
) -> Result<Vec<ScoredMatch>>
where
    W: WeightProvider + ?Sized,
    F: ReferenceFetch + ?Sized,
{
    let _verify_span = crate::tracing::span("verify");
    let mut top: Vec<ScoredMatch> = Vec::with_capacity(k + 1);
    let cap = ctx.config.max_candidates;
    let mut fetched = 0usize;
    for (idx, &(tid, score)) in ranked.iter().enumerate() {
        let bound = score_bound(score, wu, adjustment, ctx.config.q);
        if bound < c {
            // Cannot clear the threshold; neither can anything later.
            trace.apx_pruned += (ranked.len() - idx) as u64;
            crate::tracing::instant("apx_prune");
            break;
        }
        if top.len() == k && top[k - 1].similarity >= bound {
            // The K-th verified match dominates everything unfetched.
            trace.apx_pruned += (ranked.len() - idx) as u64;
            crate::tracing::instant("apx_prune");
            break;
        }
        if cap != 0 && fetched >= cap {
            break; // work cap
        }
        let similarity = match fms_cache.get(&tid) {
            Some(&f) => f,
            None => {
                let tuple = {
                    let _span = crate::tracing::span("fetch");
                    ctx.reference.fetch(tid)?
                };
                trace.candidates_fetched += 1;
                trace.fms_evals += 1;
                fetched += 1;
                let _span = crate::tracing::span("fms");
                let f = sim.fms(input, &tuple);
                fms_cache.insert(tid, f);
                f
            }
        };
        if similarity >= c {
            top = insert_match(top, ScoredMatch { tid, similarity }, k);
        }
    }
    Ok(top)
}

/// Insert into a K-bounded list kept sorted by (similarity desc, tid asc),
/// returning the list.
pub(crate) fn insert_match(
    mut top: Vec<ScoredMatch>,
    m: ScoredMatch,
    k: usize,
) -> Vec<ScoredMatch> {
    let pos = top
        .iter()
        .position(|x| {
            m.similarity > x.similarity || (m.similarity == x.similarity && m.tid < x.tid)
        })
        .unwrap_or(top.len());
    top.insert(pos, m);
    top.truncate(k);
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::weights::UnitWeights;
    use fm_text::Tokenizer;

    fn tok(values: &[&str]) -> TokenizedRecord {
        Record::new(values).tokenize(&Tokenizer::new())
    }

    #[test]
    fn plan_weights_and_adjustment() {
        let cfg = Config::default()
            .with_columns(&["name", "city"])
            .with_q(4)
            .with_signature(crate::config::SignatureScheme::QGrams, 2);
        let mh = MinHasher::new(2, 4, 7);
        let input = tok(&["boeing company", "seattle"]);
        let plan = plan_query(&input, &cfg, &UnitWeights, &mh);
        // 3 unit-weight tokens.
        assert!((plan.wu - 3.0).abs() < 1e-12);
        assert!((plan.adjustment - 3.0 * 0.75).abs() < 1e-12);
        // Gram weights sum back to w(u) (shares sum to 1 per token).
        let wg: f64 = plan.grams.iter().map(|g| g.weight).sum();
        assert!((wg - plan.wu).abs() < 1e-9);
        // Every long token contributes H grams; all are 4-grams of their
        // token or whole short tokens.
        assert_eq!(plan.grams.len(), 6);
    }

    #[test]
    fn plan_empty_input() {
        let cfg = Config::default().with_columns(&["name"]);
        let mh = MinHasher::new(2, 4, 7);
        let input = Record::from_options(vec![None]).tokenize(&Tokenizer::new());
        let plan = plan_query(&input, &cfg, &UnitWeights, &mh);
        assert_eq!(plan.wu, 0.0);
        assert!(plan.grams.is_empty());
    }

    #[test]
    fn score_table_absorb_and_rank() {
        let mut trace = LookupTrace::default();
        let mut table = ScoreTable::default();
        table.absorb(&[1, 2, 3], 1.0, true, &mut trace);
        table.absorb(&[2, 3], 0.5, true, &mut trace);
        table.absorb(&[3, 4], 0.25, false, &mut trace); // 4 not admitted
        let ranked = table.ranked();
        assert_eq!(ranked[0], (3, 1.75));
        assert_eq!(ranked[1], (2, 1.5));
        assert_eq!(ranked[2], (1, 1.0));
        assert_eq!(table.len(), 3);
        assert_eq!(trace.candidates, 3);
        assert_eq!(trace.tids_processed, 6); // 3 inserts + 2 bumps + 1 bump
                                             // The legacy summary projects straight out of the trace.
        let stats = QueryStats::from(&trace);
        assert_eq!(stats.distinct_tids, 3);
        assert_eq!(stats.tids_processed, 6);
        assert!(!stats.osc_succeeded);
    }

    #[test]
    fn score_table_rank_breaks_ties_by_tid() {
        let mut trace = LookupTrace::default();
        let mut table = ScoreTable::default();
        table.absorb(&[9, 4, 7], 1.0, true, &mut trace);
        let ranked = table.ranked();
        assert_eq!(ranked, vec![(4, 1.0), (7, 1.0), (9, 1.0)]);
    }

    #[test]
    fn top_scores_pads_with_floor() {
        let mut trace = LookupTrace::default();
        let mut table = ScoreTable::default();
        table.absorb(&[1], 2.0, true, &mut trace);
        let top = table.top_scores(3, 0.5);
        assert_eq!(top[0], (Some(1), 2.0));
        assert_eq!(top[1], (None, 0.5));
        assert_eq!(top[2], (None, 0.5));
    }

    #[test]
    fn insert_match_keeps_k_best_sorted() {
        let mut top = Vec::new();
        for (tid, s) in [(1, 0.5), (2, 0.9), (3, 0.7), (4, 0.9), (5, 0.2)] {
            top = insert_match(top, ScoredMatch { tid, similarity: s }, 3);
        }
        let tids: Vec<u32> = top.iter().map(|m| m.tid).collect();
        // 0.9 (tid 2), 0.9 (tid 4), 0.7 (tid 3); tie broken by tid.
        assert_eq!(tids, vec![2, 4, 3]);
    }
}
