//! n-detection test-set **generation**: the constructive counterpart of
//! the workspace's worst-/average-case analyses.
//!
//! The paper analyzes properties of n-detection test sets; this crate
//! *produces* them. [`generate`] runs a deterministic greedy set-cover
//! construction over a [`ndetect_faults::FaultUniverse`]: each round it
//! picks the input vector that advances the most still-deficient
//! targets. Both it and [`compact`] read the universe's vector→target
//! index ([`ndetect_faults::FaultUniverse::target_index`], built once
//! per universe): a vector's first gain is the popcount of its row, a
//! round walks the chosen vector's row, and a target that reaches its
//! goal takes one unit of gain from each unchosen vector of its
//! detection set. Optional [`compact`] passes then eliminate redundant
//! vectors in reverse insertion order without ever breaking the
//! n-detection property.
//!
//! The result is a [`GeneratedSet`] — vectors in insertion order plus
//! per-target detection counts and the options that produced it — which
//! round-trips through the `ndetect-store` artifact cache
//! ([`generate_stored`], [`KIND_GENERATED_SET`]) so warm re-generation
//! is a disk hit instead of a rebuild.
//!
//! ```
//! use ndetect_circuits::figure1;
//! use ndetect_faults::FaultUniverse;
//! use ndetect_gen::{generate, GenOptions};
//!
//! let universe = FaultUniverse::build(&figure1::netlist()).unwrap();
//! let set = generate(&universe, &GenOptions { n: 3, compact: true, ..GenOptions::default() });
//! // Every detectable target is detected min(3, |T(f)|) times.
//! for (i, t_f) in universe.target_sets().iter().enumerate() {
//!     assert!(set.target_count(i) as usize >= t_f.len().min(3));
//! }
//! assert!(set.len() < universe.space().num_patterns());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod compact;
mod generate;

pub use artifact::{generated_key, KIND_GENERATED_SET};
pub use compact::compact;
pub use generate::{generate, generate_stored, GenOptions, GeneratedSet};
