//! Fault models and exhaustive fault simulation for n-detection analysis.
//!
//! This crate implements the two fault populations of Pomeranz & Reddy
//! (DATE 2005):
//!
//! * **Target faults `F`** — single stuck-at faults on every line (stems
//!   and fanout branches), reduced by structural equivalence collapsing
//!   ([`collapse`]); the class representative is the most downstream
//!   member, and the collapsed list is ordered by (line id, stuck value),
//!   reproducing the fault indices of the paper's Table 1.
//! * **Untargeted faults `G`** — detectable, non-feedback **four-way
//!   bridging faults** between outputs of multi-input gates
//!   ([`BridgingFault`]): for stems `x`,`y` the four faults are
//!   `(x,0,y,1)`, `(x,1,y,0)`, `(y,0,x,1)`, `(y,1,x,0)`; fault
//!   `(l1,a1,l2,a2)` is activated on vectors where the fault-free circuit
//!   has `l1 = a1` and `l2 = a2`, and its effect is to flip `l1`.
//!
//! Detection sets `T(h) ⊆ U` are computed for every fault by injection
//! into an event-driven bit-parallel exhaustive simulation
//! ([`FaultSimulator`]): only nodes whose faulty 64-vector word actually
//! differs from the fault-free word are re-evaluated, and a block
//! terminates as soon as the difference frontier goes empty. The sets
//! are bundled into a [`FaultUniverse`] — the input to the analyses in
//! `ndetect-core`.
//!
//! The paper's Definition 2 asks whether the common bits of two tests
//! already detect a target under three-valued simulation. [`TijKernel`]
//! answers that for 64 test pairs per machine word.
//!
//! Every kernel here is checked against oracles that live outside the
//! production crates, in `ndetect-testutil`: `DetectionOracle` computes
//! `T(f)` and `T(g)` from the fault definitions, and
//! `threeval::detects_stuck` is the scalar three-valued check.
//!
//! # Example
//!
//! ```
//! use ndetect_netlist::NetlistBuilder;
//! use ndetect_faults::FaultUniverse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("and2");
//! let a = b.input("a");
//! let c = b.input("c");
//! let g = b.and("g", &[a, c])?;
//! b.output(g);
//! let universe = FaultUniverse::build(&b.build()?)?;
//! // AND2 collapses to 4 target faults: a/1, c/1, g/0, g/1.
//! assert_eq!(universe.targets().len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod bridging;
pub mod collapse;
mod error;
mod sim;
mod stuck_at;
mod tij;
mod universe;

pub use artifact::{explicit_universe_key, universe_key, KIND_UNIVERSE};
pub use bridging::{
    enumerate_bridges, enumerate_bridges_among, enumerate_four_way, BridgeModel, BridgingFault,
};
pub use collapse::CollapsedFaults;
pub use error::FaultError;
pub use sim::FaultSimulator;
pub use stuck_at::{all_stuck_at_faults, input_line_of_pin, StuckAtFault};
pub use tij::TijKernel;
pub use universe::{BridgeSets, BridgeSetsIter, ExplicitTargets, FaultUniverse, UniverseOptions};
