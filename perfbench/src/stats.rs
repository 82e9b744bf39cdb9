//! Order statistics and the failure tally.

use fm_server::{ClientError, LookupReply};

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Samples needed before percentile `p` can be reported.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).is_some())
        .unwrap_or(usize::MAX)
}

/// Median of unsorted samples (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` with linear interpolation between closest ranks.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Pooled p50 and the median of group p99s of time-ordered sample sets.
///
/// Consecutive sets are merged into groups until each holds enough samples
/// for its own p99 (a short tail joins the last group), so a slow stretch
/// of the run moves one group's p99 rather than the reported one.
pub fn p50_median_p99(sets: &[Latencies], what: &str) -> Result<(f64, f64), String> {
    let mut groups: Vec<Latencies> = Vec::new();
    let mut open = Latencies::default();
    let mut all = Latencies::default();
    for set in sets {
        all.extend(set.clone());
        open.extend(set.clone());
        if open.len() >= samples_for(99.0) {
            groups.push(std::mem::take(&mut open));
        }
    }
    match groups.last_mut() {
        Some(last) => last.extend(open),
        None => groups.push(open),
    }
    let p50 = all.p50_p99(what)?.0;
    let p99s = groups
        .iter()
        .map(|g| g.p50_p99(what).map(|(_, p99)| p99))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((p50, median(&p99s)))
}

/// Latency samples in milliseconds, summarised as median and p99.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(p50, p99)`; errors when the samples cannot resolve the p99.
    pub fn p50_p99(&self, what: &str) -> Result<(f64, f64), String> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match (percentile(&v, 50.0), percentile(&v, 99.0)) {
            (Some(p50), Some(p99)) => Ok((p50, p99)),
            _ => Err(format!(
                "{what}: {} samples cannot resolve a p99 (need {})",
                v.len(),
                samples_for(99.0)
            )),
        }
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Whether a server reply is an answer. Error replies (503 overload,
/// 408 deadline, anything else) and replies that never arrived
/// (disconnects, IO and protocol errors) are failures.
pub fn reply_answered(reply: &Result<LookupReply, ClientError>) -> bool {
    matches!(reply, Ok(r) if r.ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(samples_for(50.0), 20);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0; 19], 50.0), None);
    }

    #[test]
    fn latencies_refuse_unresolved_p99() {
        let mut l = Latencies::default();
        for i in 0..500 {
            l.push(f64::from(i));
        }
        assert!(l.p50_p99("lookup").is_err());
        for i in 500..1000 {
            l.push(f64::from(i));
        }
        assert_eq!(l.p50_p99("lookup"), Ok((499.0, 989.0)));
    }

    #[test]
    fn grouped_p99_is_the_median_of_groups() {
        let set = |base: f64, n: usize| {
            let mut l = Latencies::default();
            for i in 0..n {
                l.push(base + i as f64);
            }
            l
        };
        // Three groups (the 400-sample tail joins the last one, whose p99
        // is then 985); the slow middle group does not set the p99.
        let sets = [
            set(0.0, 1000),
            set(1e6, 1000),
            set(0.0, 1000),
            set(0.0, 400),
        ];
        let (_, p99) = p50_median_p99(&sets, "lookups").unwrap();
        assert_eq!(p99, 989.0);
        assert!(p50_median_p99(&[set(0.0, 999)], "lookups").is_err());
        assert_eq!(
            p50_median_p99(&[set(0.0, 1000)], "lookups"),
            set(0.0, 1000).p50_p99("lookups")
        );
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[-3.0]), -3.0);
    }

    fn reply(ok: bool, code: u16) -> LookupReply {
        LookupReply {
            ok,
            code,
            error: String::new(),
            latency_us: 1,
            lookup_us: 1,
            matches: Vec::new(),
        }
    }

    #[test]
    fn tally_counts_refusals_and_dropped_replies_as_failures() {
        let outcomes = [
            Ok(reply(true, 0)),
            Ok(reply(false, 503)),
            Ok(reply(false, 408)),
            Err(ClientError::Disconnected),
            Err(ClientError::Io(std::io::ErrorKind::ConnectionReset.into())),
            Err(ClientError::Protocol("truncated".into())),
        ];
        let mut tally = Tally::default();
        for outcome in &outcomes {
            tally.record(reply_answered(outcome));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 5
            }
        );
    }
}
