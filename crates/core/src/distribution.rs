//! Distribution of `nmin` values (the paper's Figure 2).

use crate::worst_case::WorstCaseAnalysis;
use std::collections::BTreeMap;

/// The distribution of finite `nmin(g)` values at or above a floor — the
/// content of the paper's Figure 2 (which plots `#faults` against
/// `nmin` for `nmin ≥ 100` on circuit `dvram`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NminDistribution {
    floor: u32,
    counts: BTreeMap<u32, usize>,
    num_unbounded: usize,
}

impl NminDistribution {
    /// Collects the distribution of `nmin(g) ≥ floor` (finite values
    /// only; faults with no bound at all are counted separately).
    #[must_use]
    pub fn collect(analysis: &WorstCaseAnalysis, floor: u32) -> Self {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        let mut num_unbounded = 0;
        for v in analysis.nmin_values() {
            match v {
                Some(m) if *m >= floor => *counts.entry(*m).or_insert(0) += 1,
                Some(_) => {}
                None => num_unbounded += 1,
            }
        }
        NminDistribution {
            floor,
            counts,
            num_unbounded,
        }
    }

    /// `(nmin, count)` pairs in ascending `nmin` order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Returns `true` if no fault reaches the floor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total faults at or above the floor (finite `nmin` only).
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Faults with no finite `nmin` at all (`F(g) = ∅`): never
    /// guaranteed to be detected, whatever `n`.
    #[must_use]
    pub fn num_unbounded(&self) -> usize {
        self.num_unbounded
    }

    /// Renders an ASCII bar chart in the spirit of the paper's Figure 2
    /// (`nmin` on one axis, fault counts on the other), aggregating into
    /// at most `max_rows` buckets.
    #[must_use]
    pub fn render_ascii(&self, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.counts.is_empty() {
            let _ = writeln!(out, "(no faults with nmin >= {})", self.floor);
            return out;
        }
        let entries: Vec<(u32, usize)> = self.entries().collect();
        let buckets = bucketize(&entries, max_rows.max(1));
        let max_count = buckets.iter().map(|b| b.2).max().unwrap_or(1).max(1);
        for (lo, hi, count) in buckets {
            let bar_len = (count * 50).div_ceil(max_count);
            let label = if lo == hi {
                format!("{lo:>6}")
            } else {
                format!("{lo:>6}-{hi}")
            };
            let _ = writeln!(
                out,
                "{label:>13} | {:<50} {count}",
                "#".repeat(bar_len.min(50))
            );
        }
        if self.num_unbounded > 0 {
            let _ = writeln!(
                out,
                "{:>13} | (never guaranteed)  {}",
                "inf", self.num_unbounded
            );
        }
        out
    }
}

fn bucketize(entries: &[(u32, usize)], max_rows: usize) -> Vec<(u32, u32, usize)> {
    if entries.len() <= max_rows {
        return entries.iter().map(|&(v, c)| (v, v, c)).collect();
    }
    let lo = entries.first().expect("non-empty").0;
    let hi = entries.last().expect("non-empty").0;
    let width = (u64::from(hi) - u64::from(lo) + 1).div_ceil(max_rows as u64) as u32;
    let mut buckets: Vec<(u32, u32, usize)> = Vec::new();
    for &(v, c) in entries {
        let b_lo = lo + ((v - lo) / width) * width;
        let b_hi = b_lo + width - 1;
        match buckets.last_mut() {
            Some(last) if last.0 == b_lo => last.2 += c,
            _ => buckets.push((b_lo, b_hi, c)),
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::figure1;
    use ndetect_faults::FaultUniverse;

    #[test]
    fn figure1_distribution() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        let all = NminDistribution::collect(&wc, 1);
        assert_eq!(all.total() + all.num_unbounded(), u.bridges().len());
        // nmin(g0)=3 and nmin(g6)=4 must appear.
        let map: std::collections::BTreeMap<u32, usize> = all.entries().collect();
        assert!(map.contains_key(&3));
        assert!(map.contains_key(&4));
        let tail = NminDistribution::collect(&wc, 100);
        assert!(tail.is_empty());
    }

    #[test]
    fn ascii_rendering_contains_bars() {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        let d = NminDistribution::collect(&wc, 1);
        let text = d.render_ascii(10);
        assert!(text.contains('#'));
        assert!(text.contains('|'));
    }

    #[test]
    fn bucketize_respects_max_rows() {
        let entries: Vec<(u32, usize)> = (100..200).map(|v| (v, 1)).collect();
        let buckets = bucketize(&entries, 10);
        assert!(buckets.len() <= 10);
        let total: usize = buckets.iter().map(|b| b.2).sum();
        assert_eq!(total, 100);
    }
}
