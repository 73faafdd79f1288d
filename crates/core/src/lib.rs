//! Worst-case and average-case analysis of n-detection test sets.
//!
//! A from-scratch implementation of Pomeranz & Reddy, *Worst-Case and
//! Average-Case Analysis of n-Detection Test Sets* (DATE 2005), on top of
//! the exhaustive fault-simulation substrate of `ndetect-faults`.
//!
//! # The two analyses
//!
//! **Worst case** ([`WorstCaseAnalysis`]): for an untargeted fault `g`
//! and a target fault `f` whose detection sets overlap,
//! `nmin(g,f) = N(f) − M(g,f) + 1` is the smallest number of detections
//! of `f` that *forces* any test set to pick a vector from `T(g)`;
//! `nmin(g)` is the minimum over all targets. Any n-detection test set
//! with `n ≥ nmin(g)` is **guaranteed** to detect `g`, no matter how
//! adversarially it was generated.
//!
//! **Average case** ([`estimate_detection_probabilities`]): the paper's
//! Procedure 1 builds `K` random n-detection test sets and estimates
//! `p(n,g)` — the probability that an arbitrary n-detection test set
//! detects `g` — as the fraction of the `K` sets that detect it.
//!
//! **Definition 2** ([`DetectionDefinition::SufficientlyDifferent`]):
//! the stricter counting rule from the paper's Section 4 — two tests
//! count as different detections of `f` only if the vector of their
//! common bits does not already detect `f` under three-valued
//! simulation. Using it inside Procedure 1 yields more diverse test
//! sets and measurably higher `p(n,g)` (the paper's Table 6).
//!
//! # Quickstart
//!
//! ```
//! use ndetect_circuits::figure1;
//! use ndetect_core::WorstCaseAnalysis;
//! use ndetect_faults::FaultUniverse;
//!
//! let universe = FaultUniverse::build(&figure1::netlist()).unwrap();
//! let wc = WorstCaseAnalysis::compute(&universe);
//! let g0 = universe.find_bridge("9", false, "10", true).unwrap();
//! assert_eq!(wc.nmin(g0), Some(3)); // the paper's nmin(g0)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod average_case;
mod definition;
mod distribution;
mod error;
pub mod partition;
pub mod report;
mod test_set;
mod worst_case;

pub use average_case::{
    construct_test_set_series, estimate_detection_probabilities,
    estimate_detection_probabilities_stored, procedure1_key, DetectionProbabilities,
    Procedure1Config, TestSetSeries, KIND_PROCEDURE1,
};
pub use definition::DetectionDefinition;
pub use distribution::NminDistribution;
pub use error::CoreError;
pub use test_set::{bridge_coverage, bridges_detected, TestSet};
pub use worst_case::{nmin_pair, overlapping_targets, WorstCaseAnalysis, KIND_WORST_CASE};
