//! Row structures and plain-text rendering for the paper's tables.
//!
//! Each function mirrors one table of the paper and produces the same
//! rows/columns (with the paper's blank-suppression conventions), so the
//! benchmark binaries can print output directly comparable to the
//! published tables. Table 1 has rows only: `ndetect-bench` renders
//! them with the paper's line labels of the Figure-1 circuit.

use crate::average_case::DetectionProbabilities;
use crate::worst_case::{overlapping_targets, WorstCaseAnalysis};
use ndetect_faults::FaultUniverse;
use std::fmt::Write as _;

/// Thresholds of the paper's Table 2 columns (`nmin(gj) ≤ n`).
pub const TABLE2_THRESHOLDS: [u32; 6] = [1, 2, 3, 4, 5, 10];

/// Thresholds of the paper's Table 3 columns (`nmin(gj) ≥ n`).
pub const TABLE3_THRESHOLDS: [u32; 3] = [100, 20, 11];

/// One row of Table 2: worst-case coverage percentages for small `n`.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// Circuit name.
    pub circuit: String,
    /// Number of untargeted faults `|G|`.
    pub num_faults: usize,
    /// `% of G with nmin ≤ n` for each entry of
    /// [`TABLE2_THRESHOLDS`]; `None` where the paper leaves the cell
    /// blank (an earlier column already reached 100%).
    pub coverage: Vec<Option<f64>>,
}

/// Builds a Table 2 row from a worst-case analysis.
#[must_use]
pub fn table2_row(circuit: &str, analysis: &WorstCaseAnalysis) -> Table2Row {
    let mut coverage = Vec::with_capacity(TABLE2_THRESHOLDS.len());
    let mut done = false;
    for &n in &TABLE2_THRESHOLDS {
        if done {
            coverage.push(None);
            continue;
        }
        let pct = analysis.coverage_percent(n);
        coverage.push(Some(pct));
        if pct >= 100.0 - 1e-9 {
            done = true;
        }
    }
    Table2Row {
        circuit: circuit.to_string(),
        num_faults: analysis.len(),
        coverage,
    }
}

/// One row of Table 3: worst-case tail counts for large `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table3Row {
    /// Circuit name.
    pub circuit: String,
    /// Number of untargeted faults `|G|`.
    pub num_faults: usize,
    /// `(count, percent*100 as integer-ish)` of faults with
    /// `nmin ≥ n` for each entry of [`TABLE3_THRESHOLDS`].
    pub tail: Vec<usize>,
}

/// Builds a Table 3 row.
#[must_use]
pub fn table3_row(circuit: &str, analysis: &WorstCaseAnalysis) -> Table3Row {
    Table3Row {
        circuit: circuit.to_string(),
        num_faults: analysis.len(),
        tail: TABLE3_THRESHOLDS
            .iter()
            .map(|&n| analysis.tail_count(n))
            .collect(),
    }
}

/// Renders Table 2 rows as aligned text.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "circuit", "faults", "n<=1", "n<=2", "n<=3", "n<=4", "n<=5", "n<=10"
    );
    for row in rows {
        let _ = write!(out, "{:<10} {:>8} |", row.circuit, row.num_faults);
        for cell in &row.coverage {
            match cell {
                Some(pct) => {
                    let _ = write!(out, " {pct:>7.2}");
                }
                None => {
                    let _ = write!(out, " {:>7}", "");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Table 3 rows as aligned text.
#[must_use]
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} | {:>16} {:>16} {:>16}",
        "circuit", "faults", "nmin>=100", "nmin>=20", "nmin>=11"
    );
    for row in rows {
        let _ = write!(out, "{:<10} {:>8} |", row.circuit, row.num_faults);
        for &count in &row.tail {
            let pct = 100.0 * count as f64 / row.num_faults.max(1) as f64;
            let cell = format!("{count} ({pct:.2})");
            let _ = write!(out, " {cell:>16}");
        }
        let _ = writeln!(out);
    }
    out
}

/// One row of the paper's Table 1: a target fault overlapping `T(g)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// The paper's fault index `i` (position in the collapsed list).
    pub index: usize,
    /// `T(f_i)` as vector indices.
    pub t_set: Vec<usize>,
    /// `nmin(g, f_i)`.
    pub nmin: u32,
}

/// Builds the paper's Table 1 for one untargeted fault: every target
/// with overlapping detections, its `T(f)`, and `nmin(g, f)`.
#[must_use]
pub fn table1(universe: &FaultUniverse, bridge: usize) -> Vec<Table1Row> {
    overlapping_targets(universe, bridge)
        .into_iter()
        .map(|(fi, nmin)| Table1Row {
            index: fi,
            t_set: universe.target_set(fi).to_vec(),
            nmin,
        })
        .collect()
}

/// One row of Table 5 (or half of a Table 6 row): the histogram of
/// detection probabilities at `n = nmax`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table5Row {
    /// Circuit name.
    pub circuit: String,
    /// Number of tracked faults (those with `nmin ≥ 11`).
    pub num_faults: usize,
    /// Counts of faults with `p ≥ 1.0, 0.9, …, 0.1, 0.0`; trailing
    /// columns after the count first reaches `num_faults` are `None`
    /// (the paper leaves them blank).
    pub counts: Vec<Option<usize>>,
}

/// Builds a Table 5 row from estimated probabilities (at stage
/// `n = probs.nmax()`).
#[must_use]
pub fn table5_row(circuit: &str, probs: &DetectionProbabilities) -> Table5Row {
    let raw = probs.histogram_row(probs.nmax());
    let total = probs.tracked().len();
    let mut counts = Vec::with_capacity(raw.len());
    let mut saturated = false;
    for c in raw {
        if saturated {
            counts.push(None);
        } else {
            counts.push(Some(c));
            if c >= total {
                saturated = true;
            }
        }
    }
    Table5Row {
        circuit: circuit.to_string(),
        num_faults: total,
        counts,
    }
}

/// Renders Table 5 rows as aligned text.
#[must_use]
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<10} {:>7} |", "circuit", "faults");
    for i in 0..=10 {
        let _ = write!(out, " {:>5.1}", 1.0 - 0.1 * f64::from(i));
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<10} {:>7} |", row.circuit, row.num_faults);
        for cell in &row.counts {
            match cell {
                Some(c) => {
                    let _ = write!(out, " {c:>5}");
                }
                None => {
                    let _ = write!(out, " {:>5}", "");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// One circuit of Table 6: the Table-5 histogram under Definition 1 and
/// Definition 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table6Row {
    /// Circuit name.
    pub circuit: String,
    /// Number of tracked faults.
    pub num_faults: usize,
    /// Histogram under Definition 1.
    pub def1: Vec<Option<usize>>,
    /// Histogram under Definition 2.
    pub def2: Vec<Option<usize>>,
}

/// Builds a Table 6 row from two probability estimates (Definition 1
/// and Definition 2 on the same tracked faults).
#[must_use]
pub fn table6_row(
    circuit: &str,
    def1: &DetectionProbabilities,
    def2: &DetectionProbabilities,
) -> Table6Row {
    let r1 = table5_row(circuit, def1);
    let r2 = table5_row(circuit, def2);
    Table6Row {
        circuit: circuit.to_string(),
        num_faults: r1.num_faults,
        def1: r1.counts,
        def2: r2.counts,
    }
}

/// Renders Table 6 rows as aligned text (two lines per circuit, like
/// the paper).
#[must_use]
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<10} {:>7} def |", "circuit", "faults");
    for i in 0..=10 {
        let _ = write!(out, " {:>5.1}", 1.0 - 0.1 * f64::from(i));
    }
    let _ = writeln!(out);
    for row in rows {
        for (def, counts) in [(1, &row.def1), (2, &row.def2)] {
            if def == 1 {
                let _ = write!(out, "{:<10} {:>7}   {def} |", row.circuit, row.num_faults);
            } else {
                let _ = write!(out, "{:<10} {:>7}   {def} |", "", "");
            }
            for cell in counts {
                match cell {
                    Some(c) => {
                        let _ = write!(out, " {c:>5}");
                    }
                    None => {
                        let _ = write!(out, " {:>5}", "");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average_case::{estimate_detection_probabilities, Procedure1Config};
    use ndetect_circuits::figure1;

    fn setup() -> (FaultUniverse, WorstCaseAnalysis) {
        let u = FaultUniverse::build(&figure1::netlist()).unwrap();
        let wc = WorstCaseAnalysis::compute(&u);
        (u, wc)
    }

    #[test]
    fn table1_matches_paper_for_g0() {
        let (u, _) = setup();
        let g0 = u.find_bridge("9", false, "10", true).unwrap();
        let rows = table1(&u, g0);
        let indices: Vec<usize> = rows.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 3, 9, 11, 12, 14]);
        let nmins: Vec<u32> = rows.iter().map(|r| r.nmin).collect();
        assert_eq!(nmins, vec![3, 5, 5, 4, 11, 3, 11]);
    }

    #[test]
    fn table2_blanks_after_full_coverage() {
        let (_, wc) = setup();
        let row = table2_row("figure1", &wc);
        // figure1 reaches 100% at some small n; later cells are blank.
        let full_at = row
            .coverage
            .iter()
            .position(|c| c.is_some_and(|p| p >= 100.0 - 1e-9));
        assert!(full_at.is_some());
        for c in &row.coverage[full_at.unwrap() + 1..] {
            assert!(c.is_none());
        }
        let text = render_table2(&[row]);
        assert!(text.contains("figure1"));
    }

    #[test]
    fn table3_counts_are_monotone_in_threshold() {
        let (_, wc) = setup();
        let row = table3_row("figure1", &wc);
        // thresholds are [100, 20, 11]: counts must be nondecreasing.
        assert!(row.tail[0] <= row.tail[1]);
        assert!(row.tail[1] <= row.tail[2]);
        let text = render_table3(&[row]);
        assert!(text.contains("nmin>=100"));
    }

    #[test]
    fn table5_and_6_render() {
        let (u, wc) = setup();
        let tracked = wc.tail_indices(4); // small circuit: use nmin >= 4
        let config = Procedure1Config {
            nmax: 3,
            num_test_sets: 50,
            ..Default::default()
        };
        let p1 = estimate_detection_probabilities(&u, &tracked, &config).unwrap();
        let p2 = estimate_detection_probabilities(
            &u,
            &tracked,
            &Procedure1Config {
                definition: crate::DetectionDefinition::SufficientlyDifferent,
                ..config
            },
        )
        .unwrap();
        let row5 = table5_row("figure1", &p1);
        assert_eq!(row5.num_faults, tracked.len());
        let text = render_table5(&[row5]);
        assert!(text.contains("figure1"));
        let row6 = table6_row("figure1", &p1, &p2);
        let text = render_table6(&[row6]);
        assert!(text.lines().count() >= 3);
    }
}
