//! Reusable per-worker scratch buffers for frontier-pruned fault
//! propagation.
//!
//! The event-driven kernel in `ndetect-faults` re-simulates only the
//! nodes whose faulty values actually differ from the fault-free values:
//! it walks the fault site's precomputed CSR cone in topological order,
//! evaluates a gate only when some fanin joined the difference frontier,
//! and processes a gate's 64-vector blocks as one contiguous node-major
//! row (so the inner loops run on the chunked SIMD kernels of
//! [`crate::rows`]). All the mutable state that needs — faulty rows, a
//! row accumulator, the detection row, and per-node frontier epoch
//! stamps — lives here, so a worker allocates it **once** and then
//! simulates any number of faults with zero further heap allocations.
//! Rows span every block of the space; the fault-free tables the kernel
//! reads are the simulator's, shared by every worker.
//!
//! Epoch stamping replaces clearing: instead of zeroing `num_nodes`
//! stamps between faults, [`SimScratch::begin_fault`] bumps a 64-bit
//! epoch and a row is considered part of the frontier only when its
//! stamp equals the current epoch.

// Hot module: every word buffer comes from the `rows` data plane.
#![deny(clippy::disallowed_methods)]

use crate::rows::{zeroed_words, RowMatrix};

/// Per-worker mutable state for the event-driven fault-propagation
/// kernel: node-major faulty rows, the gate-evaluation accumulator, the
/// detection row and frontier epoch stamps.
///
/// The fields are public because the kernel that drives them lives in
/// `ndetect-faults`; the invariants are simple and local:
///
/// * `rows.row(i)` holds node `i`'s faulty words **only** when
///   `frontier[i] == epoch`; otherwise the fault-free words apply;
/// * `acc` and `det` are per-fault working rows of `num_blocks` words (the
///   kernel overwrites/zeroes the ranges it uses);
/// * `det_lo..det_hi` are the blocks `det` is valid for.
#[derive(Clone, Debug)]
pub struct SimScratch {
    /// Node-major faulty rows (`num_nodes × num_blocks`), row `i` valid only
    /// while `frontier[i] == epoch`.
    pub rows: RowMatrix,
    /// Gate-evaluation accumulator row (`num_blocks` words).
    pub acc: Vec<u64>,
    /// Detection row: per block column, the OR of faulty-vs-good
    /// differences over all observed nodes (`num_blocks` words).
    pub det: Vec<u64>,
    /// Epoch stamp marking node `i`'s row as part of the current
    /// fault's difference frontier.
    pub frontier: Vec<u64>,
    /// The current fault's epoch. Starts at 0 (matching the stamp
    /// array, so nothing is on the frontier before the first
    /// [`Self::begin_fault`]).
    pub epoch: u64,
    /// Start of the block range `det` is valid for in the current fault
    /// (blocks outside `det_lo..det_hi` were never touched and read as
    /// zero).
    pub det_lo: usize,
    /// End of the valid `det` block range (exclusive).
    pub det_hi: usize,
}

impl SimScratch {
    /// Creates scratch state for a circuit with `num_nodes` nodes
    /// simulated over `num_blocks` 64-vector blocks.
    #[must_use]
    pub fn new(num_nodes: usize, num_blocks: usize) -> Self {
        SimScratch {
            rows: RowMatrix::zeroed(num_nodes, num_blocks),
            acc: zeroed_words(num_blocks),
            det: zeroed_words(num_blocks),
            frontier: zeroed_words(num_nodes),
            epoch: 0,
            det_lo: 0,
            det_hi: 0,
        }
    }

    /// Starts a new fault: advances the epoch so every frontier stamp
    /// from previous faults becomes stale at once, without touching the
    /// arrays.
    pub fn begin_fault(&mut self) {
        // A u64 epoch cannot realistically wrap (2^64 faults).
        self.epoch += 1;
    }

    /// Whether this scratch matches a circuit's dimensions (used by
    /// debug assertions in the kernel).
    #[must_use]
    pub fn fits(&self, num_nodes: usize, num_blocks: usize) -> bool {
        self.frontier.len() == num_nodes
            && self.rows.num_rows() == num_nodes
            && self.rows.width() == num_blocks
            && self.acc.len() == num_blocks
            && self.det.len() == num_blocks
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may use raw vec! freely
mod tests {
    use super::*;

    #[test]
    fn fresh_scratch_has_empty_frontier() {
        let mut s = SimScratch::new(4, 3);
        assert!(s.fits(4, 3));
        assert!(!s.fits(5, 3));
        // Before the first begin_fault nothing can match the epoch...
        s.begin_fault();
        // ...and after it, stale stamps (all zero) still don't.
        assert!(s.frontier.iter().all(|&v| v != s.epoch));
    }

    #[test]
    fn begin_fault_invalidates_previous_stamps() {
        let mut s = SimScratch::new(2, 1);
        s.begin_fault();
        s.frontier[0] = s.epoch;
        assert_eq!(s.frontier[0], s.epoch);
        s.begin_fault();
        assert_ne!(s.frontier[0], s.epoch);
    }
}
