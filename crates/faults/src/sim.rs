//! Fault injection over bit-parallel exhaustive simulation.
//!
//! The kernel is **event-driven**: instead of re-evaluating the entire
//! fanout cone of the fault site on every block, it walks the site's
//! precomputed CSR cone once per fault, evaluates a gate only when some
//! fanin joined the **difference frontier** (its faulty words actually
//! differ from the fault-free words), processes a gate's blocks as one
//! contiguous node-major [`RowMatrix`] row (running the chunked SIMD
//! kernels of [`ndetect_sim::rows`]), and restricts every row operation
//! to the sub-range of blocks on which the fault is active at all. Its
//! differential-testing oracle is `ndetect_testutil::DetectionOracle`,
//! an independent simulation written from the fault definitions.

// Hot module: every word buffer comes from the `rows` data plane.
#![deny(clippy::disallowed_methods)]

use crate::bridging::BridgingFault;
use crate::stuck_at::StuckAtFault;
use ndetect_netlist::{GateKind, LineKind, Netlist, NodeId, ReachabilityMatrix, Sink};
use ndetect_obs::trace;
use ndetect_sim::rows as rowops;
use ndetect_sim::rows::{zeroed_words, RowMatrix};
use ndetect_sim::{GoodValues, PatternSpace, SimScratch, VectorSet};

fn stuck_word(value: bool) -> u64 {
    if value {
        u64::MAX
    } else {
        0
    }
}

/// Evaluates one gate over a contiguous window of blocks: operand rows
/// are read through `op` (called with the pin index and the fanin node)
/// and the result row is written to `out`. The inner loops are plain
/// slice folds, so they vectorize.
fn eval_gate_rows<'a>(
    kind: GateKind,
    fanins: &[NodeId],
    op: impl Fn(usize, NodeId) -> &'a [u64],
    out: &mut [u64],
) {
    match kind {
        GateKind::And | GateKind::Nand => {
            out.fill(u64::MAX);
            for (i, &f) in fanins.iter().enumerate() {
                for (o, &w) in out.iter_mut().zip(op(i, f)) {
                    *o &= w;
                }
            }
            if kind == GateKind::Nand {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Or | GateKind::Nor => {
            out.fill(0);
            for (i, &f) in fanins.iter().enumerate() {
                for (o, &w) in out.iter_mut().zip(op(i, f)) {
                    *o |= w;
                }
            }
            if kind == GateKind::Nor {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            out.fill(0);
            for (i, &f) in fanins.iter().enumerate() {
                for (o, &w) in out.iter_mut().zip(op(i, f)) {
                    *o ^= w;
                }
            }
            if kind == GateKind::Xnor {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Buf => out.copy_from_slice(op(0, fanins[0])),
        GateKind::Not => {
            for (o, &w) in out.iter_mut().zip(op(0, fanins[0])) {
                *o = !w;
            }
        }
        GateKind::Const0 => out.fill(0),
        GateKind::Const1 => out.fill(u64::MAX),
        GateKind::Input => unreachable!("inputs are never re-evaluated"),
    }
}

/// The fold identity of an associative gate family (`AND`-likes fold
/// from all-ones, the rest from zero).
fn fold_identity(kind: GateKind) -> u64 {
    match kind {
        GateKind::And | GateKind::Nand => u64::MAX,
        _ => 0,
    }
}

/// One row-wide fold step of an associative gate family, `dst = dst ∘
/// src` (inversion for the negated kinds is applied at the end, not
/// here).
fn fold_rows(kind: GateKind, dst: &mut [u64], src: &[u64]) {
    match kind {
        GateKind::And | GateKind::Nand => rowops::and_into(dst, src),
        GateKind::Or | GateKind::Nor => rowops::or_into(dst, src),
        GateKind::Xor | GateKind::Xnor => rowops::xor_into(dst, src),
        _ => unreachable!("not an associative gate"),
    }
}

/// Whether the single-changed-fanin fast path has a precomputed
/// "all other fanins" row for this kind.
fn has_others_rows(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

/// Builds the per-edge "all other fanins" rows of every associative
/// gate from the node-major good values: one suffix and one prefix
/// sweep per gate (the standard exclusive-scan trick, O(fanins) row
/// passes). `good_rows` and `others` must share a width.
fn fill_others(
    netlist: &Netlist,
    good_rows: &RowMatrix,
    others: &mut RowMatrix,
    edge_offsets: &[u32],
) {
    let w = others.width();
    debug_assert_eq!(good_rows.width(), w);
    let mut run = zeroed_words(w);
    for (i, &offset) in edge_offsets.iter().enumerate().take(netlist.num_nodes()) {
        let node = netlist.node(NodeId::new(i));
        let kind = node.kind();
        let fanins = node.fanins();
        let m = fanins.len();
        if !has_others_rows(kind) || m == 0 {
            continue;
        }
        let base = offset as usize;
        let ident = fold_identity(kind);
        // Suffix sweep: row `pin` = fold of good fanins pin+1..m (the
        // last row is the fold identity).
        others.row_mut(base + m - 1).fill(ident);
        for pin in (0..m - 1).rev() {
            let (src, dst) = others.row_window_pair(base + pin + 1, base + pin, 0..w);
            dst.copy_from_slice(src);
            fold_rows(
                kind,
                others.row_mut(base + pin),
                good_rows.row(fanins[pin + 1].index()),
            );
        }
        // Prefix sweep folds in good fanins 0..pin.
        run.fill(ident);
        for (pin, fanin) in fanins.iter().enumerate() {
            fold_rows(kind, others.row_mut(base + pin), &run);
            fold_rows(kind, &mut run, good_rows.row(fanin.index()));
        }
    }
}

/// Computes detection sets `T(h)` by injecting one fault at a time into
/// an event-driven bit-parallel exhaustive simulation.
///
/// Construction precomputes, once per circuit:
///
/// * the fault-free value of every node on every vector ([`GoodValues`]),
///   kept in **both** block-major and node-major (transposed) layouts —
///   block-major as stored with a universe, node-major so the
///   event-driven kernel streams a node's words contiguously;
/// * a flattened CSR cone arena (contiguous offset + index tables): for
///   every node, its strictly-downstream gates in topological order;
/// * which nodes are observed on a primary-output slot.
///
/// Per fault, only the gates whose fanins joined the **difference
/// frontier** are re-evaluated, over only the sub-range of blocks on
/// which the fault site differs at all; detection bits accumulate from
/// observed nodes as the frontier crosses them, and propagation ends
/// the moment the frontier dies. All mutable state lives in a reusable
/// [`SimScratch`], so the hot loop performs zero heap allocations.
/// A bridging fault propagates nothing of its own: its detection set is
/// its victim stem fault's, masked by the aggressor's fault-free row.
///
/// # Memory
///
/// The row-oriented kernel trades memory for streaming speed: the
/// node-major transpose and the per-edge "other fanins" rows, shared by
/// every worker, and each per-worker [`SimScratch`] cost
/// `O(num_nodes × num_blocks)` words (the `others` table scales with
/// total fanin instead of node count). That is a few copies of the
/// [`GoodValues`] table, trivial at the circuit widths the paper's
/// analysis targets (`I ≤ 14`, see [`crate::FaultUniverse`]'s memory
/// note) but gigabytes per table near
/// [`ndetect_sim::MAX_EXHAUSTIVE_INPUTS`]; wider circuits are analysed
/// per output cone instead.
///
/// ```
/// use ndetect_netlist::NetlistBuilder;
/// use ndetect_faults::{FaultSimulator, StuckAtFault};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.and("g", &[a, c])?;
/// b.output(g);
/// let n = b.build()?;
/// let sim = FaultSimulator::new(&n)?;
/// // g stuck-at-0 is detected only when both inputs are 1 (vector 3).
/// let stem_g = n.lines().stem(g);
/// let t = sim.detection_set_stuck(&n, StuckAtFault::new(stem_g, false));
/// assert_eq!(t.to_vec(), vec![3]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultSimulator {
    space: PatternSpace,
    good: GoodValues,
    reach: ReachabilityMatrix,
    num_nodes: usize,
    num_blocks: usize,
    /// Node-major transpose of the good values (row `i` = node `i`'s
    /// words for blocks `0..num_blocks`).
    good_nm: RowMatrix,
    /// CSR offsets into [`Self::cone_gates`]: node `i`'s
    /// strictly-downstream gates (topological order) are
    /// `cone_gates[cone_offsets[i]..cone_offsets[i+1]]`.
    cone_offsets: Vec<u32>,
    /// Flattened cone arena, indexed through [`Self::cone_offsets`].
    cone_gates: Vec<NodeId>,
    /// Per associative gate and fanin pin, the fault-free fold of **all
    /// other** fanins (row `edge_offsets[g] + pin`): when exactly one
    /// fanin of a gate changes, the gate re-evaluates in a single fused
    /// pass `op(others, changed)` instead of folding every operand.
    others: RowMatrix,
    /// Per node: first `others` row index of its fanin pins (nodes
    /// without tabulated rows span zero rows).
    edge_offsets: Vec<u32>,
    /// Per node: observed on at least one primary-output slot.
    observed: Vec<bool>,
}

impl FaultSimulator {
    /// Prepares a simulator for `netlist` over its exhaustive input space.
    ///
    /// # Errors
    ///
    /// Returns [`ndetect_sim::SimError`] if the circuit has too many inputs
    /// for exhaustive simulation.
    pub fn new(netlist: &Netlist) -> Result<Self, ndetect_sim::SimError> {
        Self::with_threads(netlist, 1)
    }

    /// Prepares a simulator, computing the fault-free values with up to
    /// `num_threads` workers (the blocks of [`GoodValues`] are sharded;
    /// the result is identical for every thread count).
    ///
    /// # Errors
    ///
    /// Returns [`ndetect_sim::SimError`] if the circuit has too many inputs
    /// for exhaustive simulation.
    pub fn with_threads(
        netlist: &Netlist,
        num_threads: usize,
    ) -> Result<Self, ndetect_sim::SimError> {
        let space = PatternSpace::new(netlist.num_inputs())?;
        let good = {
            let mut span = trace::span("sim.good_values");
            span.field("blocks", space.num_blocks());
            GoodValues::compute_with(netlist, &space, num_threads)
        };
        Ok(Self::assemble(netlist, space, good))
    }

    /// Prepares a simulator around **precomputed** fault-free values
    /// (e.g. deserialized from the on-disk artifact store), skipping the
    /// good-value simulation pass. Only the cheap structural tables
    /// (reachability, the transpose, the cone arena) are recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`ndetect_sim::SimError`] if the circuit has too many
    /// inputs for exhaustive simulation.
    ///
    /// # Panics
    ///
    /// Panics if `good`'s dimensions do not match the netlist and its
    /// pattern space — callers deserializing untrusted bytes must
    /// validate the shape first.
    pub fn with_good_values(
        netlist: &Netlist,
        good: GoodValues,
    ) -> Result<Self, ndetect_sim::SimError> {
        let space = PatternSpace::new(netlist.num_inputs())?;
        assert_eq!(good.num_nodes(), netlist.num_nodes(), "good-value shape");
        assert_eq!(good.num_blocks(), space.num_blocks(), "good-value shape");
        Ok(Self::assemble(netlist, space, good))
    }

    fn assemble(netlist: &Netlist, space: PatternSpace, good: GoodValues) -> Self {
        // Cone arena + transpose + others-table setup: the structural
        // (non-simulating) half of simulator construction.
        let mut span = trace::span("sim.assemble");
        let reach = ReachabilityMatrix::compute(netlist);
        let n = netlist.num_nodes();
        let nb = space.num_blocks();

        // Flatten the per-node downstream cones into one contiguous CSR
        // arena (topological order within each row).
        let mut cone_offsets = Vec::with_capacity(n + 1);
        let mut cone_gates: Vec<NodeId> = Vec::new();
        cone_offsets.push(0u32);
        for i in 0..n {
            let d = NodeId::new(i);
            cone_gates.extend(
                netlist
                    .topo_order()
                    .iter()
                    .copied()
                    .filter(|&g| netlist.node(g).kind() != GateKind::Input && reach.reaches(d, g)),
            );
            cone_offsets.push(cone_gates.len() as u32);
        }

        // Row layout of the per-edge "all other fanins" table (one row
        // per fanin pin of every associative gate).
        let mut edge_offsets = Vec::with_capacity(n + 1);
        edge_offsets.push(0u32);
        let mut num_other_rows = 0usize;
        for i in 0..n {
            let node = netlist.node(NodeId::new(i));
            if has_others_rows(node.kind()) {
                num_other_rows += node.fanins().len();
            }
            edge_offsets.push(num_other_rows as u32);
        }

        span.field("nodes", n);
        span.field("blocks", nb);

        // The node-major transpose (the event kernel streams one node's
        // words across all blocks, so give it a contiguous row) and the
        // others table, built once and shared by every worker.
        let mut good_nm = RowMatrix::zeroed(n, nb);
        for b in 0..nb {
            let block = good.block(b);
            let words = good_nm.words_mut();
            for (i, &w) in block.iter().enumerate() {
                words[i * nb + b] = w;
            }
        }
        let mut others = RowMatrix::zeroed(num_other_rows, nb);
        fill_others(netlist, &good_nm, &mut others, &edge_offsets);

        // Cold per-circuit setup; a bool flag table is not a word buffer.
        #[allow(clippy::disallowed_methods)]
        let mut observed = vec![false; n];
        for &po in netlist.outputs() {
            observed[po.index()] = true;
        }

        FaultSimulator {
            space,
            good,
            reach,
            num_nodes: n,
            num_blocks: nb,
            good_nm,
            cone_offsets,
            cone_gates,
            others,
            edge_offsets,
            observed,
        }
    }

    /// The exhaustive pattern space this simulator runs over.
    #[must_use]
    pub fn space(&self) -> &PatternSpace {
        &self.space
    }

    /// The precomputed fault-free values.
    #[must_use]
    pub fn good_values(&self) -> &GoodValues {
        &self.good
    }

    /// The structural reachability matrix (shared with bridging-fault
    /// enumeration).
    #[must_use]
    pub fn reachability(&self) -> &ReachabilityMatrix {
        &self.reach
    }

    /// Allocates scratch buffers sized for this simulator's circuit. One
    /// scratch serves any number of faults; workers should create one
    /// and reuse it (see [`FaultSimulator::detection_set_stuck_with`]).
    #[must_use]
    pub fn new_scratch(&self) -> SimScratch {
        SimScratch::new(self.num_nodes, self.num_blocks)
    }

    /// The kernel's data-plane bytes over every block of the space: a
    /// worker's faulty rows, accumulator and detection row, plus the
    /// good-value transpose and `others` table every worker shares.
    #[must_use]
    pub fn data_plane_bytes(&self) -> u64 {
        let words_per_block = 2 * self.num_nodes + self.others.num_rows() + 2;
        8 * words_per_block as u64 * self.num_blocks as u64
    }

    /// Node `i`'s strictly-downstream gates in topological order (CSR
    /// row of the cone arena).
    #[inline]
    pub(crate) fn cone(&self, node: NodeId) -> &[NodeId] {
        let lo = self.cone_offsets[node.index()] as usize;
        let hi = self.cone_offsets[node.index() + 1] as usize;
        &self.cone_gates[lo..hi]
    }

    /// Whether `node` is observed on at least one primary-output slot.
    #[inline]
    pub(crate) fn is_observed(&self, node: NodeId) -> bool {
        self.observed[node.index()]
    }

    /// The event-driven kernel: propagates the difference between the
    /// root's faulty row (already written to `scratch.rows` by the
    /// caller) and its fault-free row through the root's cone,
    /// accumulating per-block detection words into the scratch
    /// detection row.
    ///
    /// Gates are evaluated only while some fanin is on the difference
    /// frontier, over only the sub-range of blocks on which the root
    /// differs at all; the walk degenerates to cheap frontier checks as
    /// soon as the frontier dies. Zero heap allocations.
    fn propagate(&self, netlist: &Netlist, root: NodeId, scratch: &mut SimScratch) {
        debug_assert!(
            scratch.fits(self.num_nodes, self.num_blocks),
            "scratch shape"
        );
        scratch.begin_fault();
        let epoch = scratch.epoch;
        let SimScratch {
            rows,
            acc,
            det,
            frontier,
            det_lo,
            det_hi,
            ..
        } = scratch;
        let good_rows = &self.good_nm;

        // Tighten to the sub-range of blocks on which the root actually
        // changed: no node anywhere can differ outside it.
        let mut lo = usize::MAX;
        let mut hi = 0;
        {
            let faulty = rows.row(root.index());
            let good = good_rows.row(root.index());
            for (k, (&a, &b)) in faulty.iter().zip(good).enumerate() {
                if a ^ b != 0 {
                    if lo == usize::MAX {
                        lo = k;
                    }
                    hi = k + 1;
                }
            }
        }
        if lo == usize::MAX {
            // Fault inactive on every block: empty detection range.
            *det_lo = 0;
            *det_hi = 0;
            return;
        }
        *det_lo = lo;
        *det_hi = hi;
        let w = hi - lo;
        det[lo..hi].fill(0);

        frontier[root.index()] = epoch;
        if self.observed[root.index()] {
            rowops::or_diff_into(
                &mut det[lo..hi],
                &rows.row(root.index())[lo..hi],
                &good_rows.row(root.index())[lo..hi],
            );
        }

        for &g in self.cone(root) {
            let node = netlist.node(g);
            let fanins = node.fanins();
            // Frontier pruning: a gate none of whose fanins changed is
            // bit-identical to its fault-free self. (Once the frontier
            // dies, the rest of the cone walk is just these checks.)
            let mut changed_pin = usize::MAX;
            let mut num_changed = 0usize;
            for (pin, f) in fanins.iter().enumerate() {
                if frontier[f.index()] == epoch {
                    changed_pin = pin;
                    num_changed += 1;
                }
            }
            if num_changed == 0 {
                continue;
            }
            let kind = node.kind();
            let any = if num_changed == 1 && (has_others_rows(kind) || fanins.len() == 1) {
                // Fast path: exactly one fanin changed — one fused pass
                // combining the precomputed "all other fanins" row with
                // the changed row (for 1-fanin gates the row is the
                // changed fanin itself).
                let (changed, dst) =
                    rows.row_window_pair(fanins[changed_pin].index(), g.index(), lo..hi);
                let others = if has_others_rows(kind) {
                    let row = self.edge_offsets[g.index()] as usize + changed_pin;
                    &self.others.row(row)[lo..hi]
                } else {
                    changed
                };
                let good_g = &good_rows.row(g.index())[lo..hi];
                let det_g = self.observed[g.index()].then_some(&mut det[lo..hi]);
                use rowops::fused_gate_update as fused;
                match kind {
                    GateKind::And => fused(others, changed, good_g, dst, det_g, |e, v| e & v),
                    GateKind::Nand => fused(others, changed, good_g, dst, det_g, |e, v| !(e & v)),
                    GateKind::Or => fused(others, changed, good_g, dst, det_g, |e, v| e | v),
                    GateKind::Nor => fused(others, changed, good_g, dst, det_g, |e, v| !(e | v)),
                    GateKind::Xor => fused(others, changed, good_g, dst, det_g, |e, v| e ^ v),
                    GateKind::Xnor => fused(others, changed, good_g, dst, det_g, |e, v| !(e ^ v)),
                    GateKind::Buf => fused(others, changed, good_g, dst, det_g, |_, v| v),
                    GateKind::Not => fused(others, changed, good_g, dst, det_g, |_, v| !v),
                    GateKind::Const0 | GateKind::Const1 | GateKind::Input => {
                        unreachable!("no fanins, so never on the frontier")
                    }
                }
            } else {
                // General path: several fanins changed — fold every
                // operand into the accumulator, then diff.
                {
                    let rows_r: &RowMatrix = rows;
                    let frontier_r: &[u64] = frontier;
                    let op = |_pin: usize, f: NodeId| -> &[u64] {
                        if frontier_r[f.index()] == epoch {
                            &rows_r.row(f.index())[lo..hi]
                        } else {
                            &good_rows.row(f.index())[lo..hi]
                        }
                    };
                    eval_gate_rows(kind, fanins, op, &mut acc[..w]);
                }
                let good_g = &good_rows.row(g.index())[lo..hi];
                let any = rowops::diff_any(&acc[..w], good_g);
                if any != 0 {
                    rows.row_mut(g.index())[lo..hi].copy_from_slice(&acc[..w]);
                    if self.observed[g.index()] {
                        rowops::or_diff_into(&mut det[lo..hi], &acc[..w], good_g);
                    }
                }
                any
            };
            // A gate that matches its good row stays off the frontier
            // (downstream operand reads fall back to the identical good
            // row) — the early exit that kills dead frontiers.
            if any != 0 {
                frontier[g.index()] = epoch;
            }
        }
    }

    /// Detection words of a stuck-at fault over every block.
    fn stuck_words(
        &self,
        netlist: &Netlist,
        fault: StuckAtFault,
        scratch: &mut SimScratch,
    ) -> Vec<u64> {
        let blocks = 0..self.num_blocks;
        let vword = stuck_word(fault.value);
        let line = netlist.lines().line(fault.line);
        // The kernel's root: the stem's node forced to the stuck value,
        // or a pin fault's sink gate evaluated with the overridden
        // operand (a constant row), all other operands fault-free.
        let root = match *line.kind() {
            LineKind::Stem { node } => {
                scratch.rows.row_mut(node.index()).fill(vword);
                node
            }
            LineKind::Branch {
                sink: Sink::GatePin { gate, pin },
                ..
            } => {
                let gnode = netlist.node(gate);
                let SimScratch { rows, acc, .. } = scratch;
                acc.fill(vword);
                let acc_r: &[u64] = acc;
                let op = |i: usize, f: NodeId| -> &[u64] {
                    if i == pin {
                        acc_r
                    } else {
                        self.good_nm.row(f.index())
                    }
                };
                eval_gate_rows(gnode.kind(), gnode.fanins(), op, rows.row_mut(gate.index()));
                gate
            }
            // Output-slot branch faults never touch the kernel at all:
            // detected exactly where the good driver differs from the
            // stuck value (only that output observation is faulty).
            LineKind::Branch {
                node,
                sink: Sink::OutputSlot { .. },
            } => {
                return blocks
                    .map(|b| (self.good.node_word(b, node) ^ vword) & self.space.block_mask(b))
                    .collect();
            }
        };
        self.propagate(netlist, root, scratch);
        // The detection row as per-block words, masked to the space;
        // blocks outside the fault's active range read as zero.
        blocks
            .map(|b| {
                if (scratch.det_lo..scratch.det_hi).contains(&b) {
                    scratch.det[b] & self.space.block_mask(b)
                } else {
                    0
                }
            })
            .collect()
    }

    /// Node `node`'s fault-free words over every block of the space.
    pub(crate) fn good_row(&self, node: NodeId) -> Vec<u64> {
        (0..self.num_blocks)
            .map(|b| self.good.node_word(b, node))
            .collect()
    }

    /// `T(g)` from the detection set of its victim fault
    /// ([`BridgingFault::victim_fault`]) and the aggressor's good row.
    fn bridge_set_of_victim(
        &self,
        netlist: &Netlist,
        fault: &BridgingFault,
        victim: &VectorSet,
    ) -> VectorSet {
        let aggressor = self.good_row(netlist.lines().line(fault.aggressor).driver());
        let mut words = zeroed_words(self.num_blocks);
        intersect_activation(
            victim.words(),
            &aggressor,
            fault.aggressor_value,
            &mut words,
        );
        VectorSet::from_block_words(self.space.num_patterns(), words)
    }

    /// Computes `T(f)` for a stuck-at fault (stem or branch).
    ///
    /// # Panics
    ///
    /// Panics if the fault's line does not belong to `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_stuck(&self, netlist: &Netlist, fault: StuckAtFault) -> VectorSet {
        self.detection_set_stuck_with(netlist, fault, &mut self.new_scratch())
    }

    /// Computes `T(f)` reusing a caller-owned [`SimScratch`] — the
    /// zero-allocation path for loops over many faults (allocate the
    /// scratch once with [`FaultSimulator::new_scratch`], then simulate
    /// every fault through it).
    ///
    /// # Panics
    ///
    /// Panics if the fault's line does not belong to `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_stuck_with(
        &self,
        netlist: &Netlist,
        fault: StuckAtFault,
        scratch: &mut SimScratch,
    ) -> VectorSet {
        assert_eq!(netlist.num_nodes(), self.num_nodes, "wrong netlist");
        let words = self.stuck_words(netlist, fault, scratch);
        VectorSet::from_block_words(self.space.num_patterns(), words)
    }

    /// Computes `T(g)` for a four-way bridging fault: the detection set
    /// of the victim stem stuck at `ā1`, restricted to the vectors on
    /// which the fault-free aggressor is `a2`.
    ///
    /// # Panics
    ///
    /// Panics if the fault's lines are not stems of `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_bridge(&self, netlist: &Netlist, fault: &BridgingFault) -> VectorSet {
        self.detection_set_bridge_with(netlist, fault, &mut self.new_scratch())
    }

    /// Computes `T(g)` reusing a caller-owned [`SimScratch`] (see
    /// [`FaultSimulator::detection_set_stuck_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the fault's lines are not stems of `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_bridge_with(
        &self,
        netlist: &Netlist,
        fault: &BridgingFault,
        scratch: &mut SimScratch,
    ) -> VectorSet {
        debug_assert_stems(netlist, fault);
        let victim = self.detection_set_stuck_with(netlist, fault.victim_fault(), scratch);
        self.bridge_set_of_victim(netlist, fault, &victim)
    }
}

fn debug_assert_stems(netlist: &Netlist, fault: &BridgingFault) {
    debug_assert!(
        netlist.lines().line(fault.victim).kind().is_stem()
            && netlist.lines().line(fault.aggressor).kind().is_stem(),
        "bridging faults live on stems"
    );
}

/// Writes a bridge's detection words to `out` and returns whether any
/// bit is set: `victim`, the words of its victim fault's detection set
/// ([`BridgingFault::victim_fault`]), masked by `aggressor`, the
/// aggressor's fault-free words, complemented when `a2` is 0. `victim`
/// carries the space's tail mask, so `out` does too.
pub(crate) fn intersect_activation(
    victim: &[u64],
    aggressor: &[u64],
    aggressor_value: bool,
    out: &mut [u64],
) -> bool {
    let flip = if aggressor_value { 0 } else { u64::MAX };
    let mut any = 0;
    for ((o, &v), &a) in out.iter_mut().zip(victim).zip(aggressor) {
        *o = v & (a ^ flip);
        any |= *o;
    }
    any != 0
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::stuck_at::all_stuck_at_faults;
    use ndetect_circuits::figure1::netlist as figure1;
    use ndetect_netlist::NetlistBuilder;
    use ndetect_testutil::threeval::{detects_stuck, PartialVector};
    use ndetect_testutil::DetectionOracle;

    #[test]
    fn stuck_detection_sets_match_oracle_on_figure1() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let oracle = DetectionOracle::new(&n);
        for fault in all_stuck_at_faults(&n) {
            let fast = sim.detection_set_stuck(&n, fault).to_vec();
            let slow = oracle.stuck_set(fault.line, fault.value);
            assert_eq!(fast, slow, "fault {}", fault.name(&n));
        }
    }

    /// The event-driven kernel through one shared scratch against the
    /// oracle (the full-cone kernel this test was named after is gone).
    #[test]
    fn event_driven_equals_full_cone_on_figure1() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let oracle = DetectionOracle::new(&n);
        let mut scratch = sim.new_scratch();
        for fault in all_stuck_at_faults(&n) {
            let event = sim.detection_set_stuck_with(&n, fault, &mut scratch);
            let expected = oracle.stuck_set(fault.line, fault.value);
            assert_eq!(event.to_vec(), expected, "fault {}", fault.name(&n));
        }
    }

    #[test]
    fn scratch_reuse_across_faults_is_clean() {
        // Interleave faults through one scratch and compare against
        // fresh-scratch runs: stale state must never leak.
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = all_stuck_at_faults(&n);
        let mut shared = sim.new_scratch();
        for _round in 0..3 {
            for &fault in &faults {
                let with_shared = sim.detection_set_stuck_with(&n, fault, &mut shared);
                let mut fresh = sim.new_scratch();
                let with_fresh = sim.detection_set_stuck_with(&n, fault, &mut fresh);
                assert_eq!(with_shared, with_fresh, "fault {}", fault.name(&n));
            }
        }
    }

    #[test]
    fn paper_table1_detection_sets() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let by_paper = |paper_line: usize, v: bool| -> Vec<usize> {
            let line = ndetect_netlist::LineId::new(paper_line - 1);
            sim.detection_set_stuck(&n, StuckAtFault::new(line, v))
                .to_vec()
        };
        assert_eq!(by_paper(1, true), vec![4, 5, 6, 7]); // f0 = 1/1
        assert_eq!(by_paper(2, false), vec![6, 7, 12, 13, 14, 15]); // f1 = 2/0
        assert_eq!(by_paper(3, false), vec![2, 6, 7, 10, 14, 15]); // f3 = 3/0
        assert_eq!(by_paper(8, false), vec![2, 6, 10, 14]); // f9 = 8/0
        assert_eq!(by_paper(9, true), (0..12).collect::<Vec<_>>()); // f11 = 9/1
        assert_eq!(by_paper(10, false), vec![6, 7, 14, 15]); // f12 = 10/0
        assert_eq!(
            by_paper(11, false),
            vec![1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15]
        ); // f14 = 11/0
    }

    #[test]
    fn paper_bridging_detection_sets() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let stem = |name: &str| n.lines().stem(n.node_by_name(name).unwrap());
        // g0 = (9,0,10,1): T = {6,7}.
        let g0 = BridgingFault::new(stem("9"), false, stem("10"), true);
        assert_eq!(sim.detection_set_bridge(&n, &g0).to_vec(), vec![6, 7]);
        // g6 = (11,0,9,1): T = {12}.
        let g6 = BridgingFault::new(stem("11"), false, stem("9"), true);
        assert_eq!(sim.detection_set_bridge(&n, &g6).to_vec(), vec![12]);
    }

    #[test]
    fn bridge_oracle_cross_check() {
        // The bridge identity against the oracle's definition (flip the
        // victim where victim = a1 and aggressor = a2) on a multi-level
        // circuit.
        let mut b = NetlistBuilder::new("ml");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let e = b.input("e");
        let g1 = b.and("g1", &[a, c]).unwrap();
        let g2 = b.or("g2", &[d, e]).unwrap();
        let g3 = b.nand("g3", &[g1, d]).unwrap();
        b.output(g3);
        b.output(g2);
        let n = b.build().unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let oracle = DetectionOracle::new(&n);
        // Bridge between g1 (victim) and g2 (aggressor): non-feedback.
        for (a1, a2) in [(false, true), (true, false)] {
            let fault = BridgingFault::new(n.lines().stem(g1), a1, n.lines().stem(g2), a2);
            let fast = sim.detection_set_bridge(&n, &fault).to_vec();
            let slow = oracle.bridge_set(fault.victim, a1, fault.aggressor, a2);
            assert_eq!(fast, slow, "bridge ({a1},{a2})");
        }
    }

    #[test]
    fn threeval_detection_is_conservative_wrt_completions() {
        // If tij detects under 3-valued logic, every completion detects
        // under 2-valued logic.
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        for fault in all_stuck_at_faults(&n) {
            let t = sim.detection_set_stuck(&n, fault);
            for ti in 0..16 {
                for tj in 0..16 {
                    let tij = PartialVector::common_bits(4, ti, tj);
                    if detects_stuck(&n, fault.line, fault.value, &tij) {
                        for v in 0..16 {
                            if tij.is_completion(v) {
                                assert!(
                                    t.contains(v),
                                    "fault {} tij={tij} completion {v}",
                                    fault.name(&n)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn threeval_on_full_vector_equals_two_valued_detection() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        for fault in all_stuck_at_faults(&n) {
            let t = sim.detection_set_stuck(&n, fault);
            for v in 0..16 {
                let pv = PartialVector::from_vector(4, v);
                assert_eq!(
                    detects_stuck(&n, fault.line, fault.value, &pv),
                    t.contains(v),
                    "fault {} v={v}",
                    fault.name(&n)
                );
            }
        }
    }
}
