//! Benchmark circuit suite for the n-detection analysis.
//!
//! * [`figure1`] — the paper's Figure 1 example circuit, reconstructed
//!   **exactly** (verified against every entry of the paper's Table 1).
//! * [`suite`] / [`CircuitSpec`] — stand-ins for the 35 MCNC FSM
//!   benchmark circuits of the paper's Tables 2–6. The original MCNC
//!   state tables are not distributable, so each circuit is substituted
//!   by a deterministic machine with the same (inputs, outputs, states)
//!   signature: structured counters/trackers where the benchmark's
//!   behaviour is well known, seeded random machines otherwise (see
//!   `DESIGN.md` §3 for why this preserves the analysis behaviour).
//! * [`generators`] — the structured FSM families (up/down counters,
//!   cycle trackers, modulo counters).
//! * [`extra`] — small combinational circuits (c17 and ripple-carry
//!   adders) used by the registry, tests and examples.
//! * [`sequential`] — bundled sequential circuits for time-frame
//!   expansion: ISCAS-89 `s27` plus shift-register and counter
//!   generators.
//!
//! # Example
//!
//! ```
//! // Every suite circuit synthesizes to combinational logic whose
//! // exhaustive input space is small enough for the paper's analysis.
//! for spec in ndetect_circuits::suite() {
//!     assert!(spec.total_input_bits() <= 14, "{}", spec.name());
//! }
//! let lion = ndetect_circuits::build("lion").unwrap();
//! assert_eq!(lion.num_inputs(), 2 + 2); // 2 PIs + 2 state bits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extra;
pub mod figure1;
pub mod generators;
mod registry;
pub mod sequential;

pub use registry::{build, spec, suite, CircuitSource, CircuitSpec};
pub use sequential::{build_seq, seq_suite};
