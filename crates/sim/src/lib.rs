//! Bit-parallel logic simulation over exhaustive input spaces.
//!
//! The n-detection analysis of Pomeranz & Reddy (DATE 2005) is defined over
//! `U`, the set of **all** input vectors of a circuit. This crate provides
//! the machinery to work with `U` efficiently:
//!
//! * [`PatternSpace`] — the exhaustive space of `2^I` input vectors of an
//!   `I`-input circuit, organised as 64-vector blocks for bit-parallel
//!   simulation. Vector `v`'s value on input `i` is bit `I-1-i` of `v`
//!   (input 0 is the most significant bit, matching the paper's decimal
//!   vector notation).
//! * [`VectorSet`] — a dense bitset over the vectors of a space; the
//!   representation of the detection sets `T(f)` and of test sets.
//! * [`GoodValues`] — fault-free values of every node on every vector,
//!   computed once by levelized bit-parallel simulation and reused by all
//!   fault injections.
//! * [`SimScratch`] — reusable per-worker buffers (faulty words, epoch
//!   stamps, level-indexed frontier queues) for the event-driven fault
//!   kernel in `ndetect-faults`, so hot simulation loops perform zero
//!   heap allocations.
//! * [`rows`] — the row data plane: [`RowMatrix`] row storage and the
//!   chunked SIMD word kernels (and/or/xor/popcount/diff)
//!   every hot loop in the workspace — simulation, universe build, gain
//!   pass, analysis — runs on. The popcounts use the CPU's POPCNT
//!   instruction when it has one, chosen at run time.
//! * [`parallel`] — a scoped-thread worker pool shared by every
//!   data-parallel loop in the workspace (fault-tile and pattern-block
//!   sharding, Procedure-1 test-set construction), with one `0 = auto`
//!   thread-count convention (`NDETECT_THREADS`, then the machine).
//!
//! # Example
//!
//! ```
//! use ndetect_netlist::NetlistBuilder;
//! use ndetect_sim::{GoodValues, PatternSpace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("and2");
//! let a = b.input("a");
//! let c = b.input("c");
//! let g = b.and("g", &[a, c])?;
//! b.output(g);
//! let n = b.build()?;
//!
//! let space = PatternSpace::new(n.num_inputs())?;
//! let good = GoodValues::compute(&n, &space);
//! // Vector 3 = binary 11 -> AND output is 1.
//! assert!(good.node_value(&space, g, 3));
//! # Ok(())
//! # }
//! ```

// Deny, not forbid: the runtime popcount dispatch in `rows` is the one
// module that allows `unsafe` (calls into its POPCNT copies).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod good;
pub mod parallel;
pub mod rows;
mod scratch;
mod set;
mod space;
mod twoval;

pub use error::SimError;
pub use good::GoodValues;
pub use rows::RowMatrix;
pub use scratch::SimScratch;
pub use set::VectorSet;
pub use space::{PatternSpace, MAX_EXHAUSTIVE_INPUTS};
pub use twoval::eval_gate_word;
