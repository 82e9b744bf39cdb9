//! Answer checks.

use fm_core::naive::NaiveMatcher;
use fm_core::{FuzzyMatcher, Match, Record};

use crate::data::Corpus;
use crate::{ACCURACY_INPUTS, C};

/// Inputs checked against the full-scan oracle, and the K they ask for.
const NAIVE_SAMPLE: usize = 8;
const NAIVE_K: usize = 5;

/// Matches must come best first (ties by tid) and each similarity must be
/// bitwise `FuzzyMatcher::fms(input, record)`.
pub fn check_matches(
    matcher: &FuzzyMatcher,
    input: &Record,
    matches: &[Match],
) -> Result<(), String> {
    for pair in matches.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.similarity < b.similarity || (a.similarity == b.similarity && a.tid > b.tid) {
            return Err(format!(
                "matches out of order for {input:?}: tid {} before tid {}",
                a.tid, b.tid
            ));
        }
    }
    for m in matches {
        let fms = matcher.fms(input, &m.record);
        if fms.to_bits() != m.similarity.to_bits() {
            return Err(format!(
                "tid {} similarity {} but fms gives {fms} for {input:?}",
                m.tid, m.similarity
            ));
        }
    }
    Ok(())
}

/// The top-1 answer of each input, kept the first time it is answered.
#[derive(Debug, Clone)]
pub struct Answers {
    top: Vec<Option<Option<Match>>>,
}

impl Answers {
    pub fn new(inputs: usize) -> Answers {
        Answers {
            top: vec![None; inputs],
        }
    }

    pub fn has(&self, i: usize) -> bool {
        self.top[i].is_some()
    }

    /// The kept top-1 of input `i`, if it was answered.
    pub fn get(&self, i: usize) -> Option<Option<&Match>> {
        self.top[i].as_ref().map(Option::as_ref)
    }

    pub fn record(&mut self, i: usize, matches: &[Match]) {
        if self.top[i].is_none() {
            self.top[i] = Some(matches.first().cloned());
        }
    }

    pub fn merge(&mut self, other: Answers) {
        for (i, top) in other.top.into_iter().enumerate() {
            if let Some(top) = top {
                self.record(i, top.as_slice());
            }
        }
    }

    /// Share of the first [`ACCURACY_INPUTS`] inputs whose top-1 is their
    /// seed tuple.
    pub fn accuracy(&self, corpus: &Corpus) -> Result<f64, String> {
        let n = ACCURACY_INPUTS.min(corpus.inputs.len());
        let mut hits = 0;
        for i in 0..n {
            match &self.top[i] {
                None => return Err(format!("input {i} was never answered")),
                Some(top) => {
                    hits += usize::from(top.as_ref().is_some_and(|m| m.tid == corpus.target_tid(i)))
                }
            }
        }
        Ok(hits as f64 / n as f64)
    }
}

/// On the first [`NAIVE_SAMPLE`] inputs, ask for the top 5, check them,
/// and check that none beats the full scan's best.
pub fn check_naive(matcher: &FuzzyMatcher, corpus: &Corpus, problems: &mut Vec<String>) {
    let naive = match NaiveMatcher::from_matcher(matcher) {
        Ok(naive) => naive,
        Err(e) => return problems.push(format!("naive oracle: {e}")),
    };
    for input in corpus.inputs.iter().take(NAIVE_SAMPLE) {
        let result = match matcher.lookup(input, NAIVE_K, C) {
            Ok(result) => result,
            Err(e) => return problems.push(format!("lookup: {e}")),
        };
        if let Err(e) = check_matches(matcher, input, &result.matches) {
            problems.push(e);
        }
        let best = naive
            .lookup(input, 1, C)
            .first()
            .map_or(f64::NEG_INFINITY, |m| m.similarity);
        if let Some(m) = result.matches.iter().find(|m| m.similarity > best) {
            problems.push(format!(
                "tid {} scores {} above the full scan's best {best} for {input:?}",
                m.tid, m.similarity
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::Config;
    use fm_store::Database;

    #[test]
    fn check_matches_rejects_wrong_similarity_and_order() {
        let db = Database::in_memory().unwrap();
        let config = Config::default().with_columns(&["name", "city"]);
        let reference = vec![
            Record::new(&["Boeing Company", "Seattle"]),
            Record::new(&["Bon Corporation", "Seattle"]),
            Record::new(&["Companions", "Seattle"]),
        ];
        let matcher = FuzzyMatcher::build(&db, "t", reference.into_iter(), config).unwrap();
        let input = Record::new(&["Beoing Company", "Seattle"]);
        let mut matches = matcher.lookup(&input, 3, 0.0).unwrap().matches;
        assert!(matches.len() >= 2);
        assert_eq!(check_matches(&matcher, &input, &matches), Ok(()));

        matches.swap(0, 1);
        assert!(check_matches(&matcher, &input, &matches).is_err());
        matches.swap(0, 1);
        matches[0].similarity = f64::from_bits(matches[0].similarity.to_bits() - 1);
        assert!(check_matches(&matcher, &input, &matches).is_err());
    }
}
