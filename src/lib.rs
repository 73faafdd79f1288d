//! Umbrella crate for the `ndetect` workspace — a from-scratch Rust
//! reproduction of Pomeranz & Reddy, *Worst-Case and Average-Case Analysis
//! of n-Detection Test Sets* (DATE 2005).
//!
//! This crate re-exports every sub-crate under a stable set of module
//! names so a downstream user only needs a single dependency:
//!
//! | module | contents |
//! |--------|----------|
//! | [`netlist`] | gate-level circuits, `.bench` I/O, structural analysis |
//! | [`sim`] | bit-parallel exhaustive simulation and the row data plane |
//! | [`faults`] | stuck-at + four-way bridging fault models, fault simulation |
//! | [`seq`] | sequential circuits: FF-boundary extraction, two-frame time-frame expansion, transition faults |
//! | [`fsm`] | KISS2 parsing, state encoding, two-level synthesis |
//! | [`circuits`] | the paper's Figure-1 example and the benchmark suite |
//! | [`analysis`] | worst-case `nmin` and average-case (Procedure 1) analyses |
//! | [`gen`] | greedy set-cover n-detection test-set generation + compaction |
//! | [`store`] | content-addressed on-disk artifact cache (universes, nmin vectors, generated sets) |
//! | [`serve`] | persistent analysis service: TCP line protocol, one keyed map per artifact family (hot LRU + in-flight dedup) |
//! | [`chaos`] | deterministic fault-injection failpoints (`NDETECT_FAILPOINTS`) |
//!
//! # Quickstart
//!
//! Compute the minimum `n` guaranteeing detection of the paper's example
//! bridging fault `g0 = (9,0,10,1)`:
//!
//! ```
//! use ndetect::circuits::figure1;
//! use ndetect::analysis::WorstCaseAnalysis;
//! use ndetect::faults::FaultUniverse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = figure1::netlist();
//! let universe = FaultUniverse::build(&circuit)?;
//! let wc = WorstCaseAnalysis::compute(&universe);
//! let g0 = figure1::paper_bridge_index(&universe, "9", false, "10", true).unwrap();
//! assert_eq!(wc.nmin(g0), Some(3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ndetect_chaos as chaos;
pub use ndetect_circuits as circuits;
pub use ndetect_core as analysis;
pub use ndetect_faults as faults;
pub use ndetect_fsm as fsm;
pub use ndetect_gen as gen;
pub use ndetect_netlist as netlist;
pub use ndetect_seq as seq;
pub use ndetect_serve as serve;
pub use ndetect_sim as sim;
pub use ndetect_store as store;
