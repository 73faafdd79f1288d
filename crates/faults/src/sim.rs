//! Fault injection over bit-parallel exhaustive simulation, serial or
//! sharded over 64-vector pattern blocks.
//!
//! The default kernel is **event-driven**: instead of re-evaluating the
//! entire fanout cone of the fault site on every block, it walks the
//! site's precomputed CSR cone once per fault, evaluates a gate only
//! when some fanin joined the **difference frontier** (its faulty words
//! actually differ from the fault-free words), processes a gate's
//! blocks as one contiguous node-major [`RowMatrix`] row (running the
//! chunked SIMD kernels of [`ndetect_sim::rows`]), and restricts every
//! row operation to the sub-range of blocks on which the fault is
//! active at all.
//!
//! Under a bounded [`MemoryBudget`] the kernel runs **tiled**: the
//! node-major good-value transpose and the per-edge `others` table are
//! not materialized at full width; instead each worker streams the
//! pattern space in tiles of `tile_width` blocks, gathering its private
//! tile of both tables on demand (cached per scratch, so a worker
//! sweeping many faults over one tile pays the gather once). Results
//! are bit-identical to the full-width kernel — tiles partition the
//! block axis and blocks are independent. The pre-existing full-cone
//! kernel survives as
//! [`FaultSimulator::detection_set_stuck_full_cone`] /
//! [`FaultSimulator::detection_set_bridge_full_cone`] — the
//! differential-testing oracle and benchmark baseline.

// Hot module: every word buffer comes from the `rows` data plane.
#![deny(clippy::disallowed_methods)]

use crate::bridging::BridgingFault;
use crate::stuck_at::StuckAtFault;
use ndetect_netlist::{GateKind, LineKind, Netlist, NodeId, ReachabilityMatrix, Sink};
use ndetect_obs::trace;
use ndetect_sim::rows as rowops;
use ndetect_sim::rows::{zeroed_words, RowMatrix};
use ndetect_sim::{
    eval_gate_trit, eval_gate_word_pin_override, eval_trits_all, parallel, GoodValues,
    MemoryBudget, PartialVector, PatternSpace, SimScratch, Trit, VectorSet,
};
use std::ops::Range;

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

/// Rebuilds the per-edge "all other fanins" rows of every associative
/// gate over one node-major tile of good values: one suffix and one
/// prefix sweep per gate (the standard exclusive-scan trick, O(fanins)
/// row passes). `good_rows` and `others` must share a width, and `run`
/// is a caller-provided scratch row of that width. Used both by full
/// mode at assembly (width = all blocks) and per tile by the tiled
/// kernel.
fn fill_others(
    netlist: &Netlist,
    good_rows: &RowMatrix,
    others: &mut RowMatrix,
    edge_offsets: &[u32],
    run: &mut [u64],
) {
    let w = others.width();
    debug_assert_eq!(good_rows.width(), w);
    debug_assert_eq!(run.len(), w);
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
            fold_rows(kind, others.row_mut(base + pin), run);
            fold_rows(kind, run, good_rows.row(fanin.index()));
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
///   block-major for the full-cone oracle, node-major so the
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
/// node-major transpose, the per-edge "other fanins" rows, and every
/// per-worker [`SimScratch`] each cost `O(num_nodes × tile_width)`
/// words (the `others` table scales with total fanin instead of node
/// count). With an unbounded [`MemoryBudget`] (the default)
/// `tile_width` is the full block count — a few copies of the
/// [`GoodValues`] table, trivial at the circuit widths the paper's
/// analysis targets (`I ≤ 14`, see [`crate::FaultUniverse`]'s memory
/// note) but gigabytes per table near
/// [`ndetect_sim::MAX_EXHAUSTIVE_INPUTS`]. A bounded budget caps the
/// per-worker working set instead: `tile_width` is the largest block
/// count whose transpose + others + scratch rows fit the budget, and
/// workers stream the space tile by tile with bit-identical results.
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
    /// The memory budget this simulator was built under.
    budget: MemoryBudget,
    /// Tile width in blocks: `num_blocks` in full (unbounded) mode,
    /// smaller when the budget constrains the working set.
    tile_width: usize,
    /// Total rows of the per-edge `others` table (tiled scratches size
    /// their private tile from this).
    num_other_rows: usize,
    /// Full mode only: node-major transpose of the good values (row `i`
    /// = node `i`'s words for blocks `0..num_blocks`). Empty in tiled
    /// mode — each worker gathers its tile into
    /// [`SimScratch::tile_good`] instead.
    good_nm: RowMatrix,
    /// CSR offsets into [`Self::cone_gates`]: node `i`'s
    /// strictly-downstream gates (topological order) are
    /// `cone_gates[cone_offsets[i]..cone_offsets[i+1]]`.
    cone_offsets: Vec<u32>,
    /// Flattened cone arena, indexed through [`Self::cone_offsets`].
    cone_gates: Vec<NodeId>,
    /// Full mode only: per associative gate and fanin pin, the
    /// fault-free fold of **all other** fanins (row `edge_offsets[g] +
    /// pin`): when exactly one fanin of a gate changes, the gate
    /// re-evaluates in a single fused pass `op(others, changed)`
    /// instead of folding every operand. Empty in tiled mode (see
    /// [`SimScratch::tile_others`]).
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
        Self::with_budget(netlist, num_threads, MemoryBudget::Auto)
    }

    /// Prepares a simulator under an explicit [`MemoryBudget`]: a
    /// bounded budget caps each worker's kernel working set (transpose
    /// tile + others tile + scratch rows) and the kernel streams the
    /// pattern space in tiles. Results are bit-identical for every
    /// budget; only peak memory (and streaming order) change.
    ///
    /// # Errors
    ///
    /// Returns [`ndetect_sim::SimError`] if the circuit has too many
    /// inputs for exhaustive simulation.
    pub fn with_budget(
        netlist: &Netlist,
        num_threads: usize,
        budget: MemoryBudget,
    ) -> Result<Self, ndetect_sim::SimError> {
        let space = PatternSpace::new(netlist.num_inputs())?;
        let good = {
            let mut span = trace::span("sim.good_values");
            span.field("blocks", space.num_blocks());
            GoodValues::compute_with(netlist, &space, num_threads)
        };
        Self::assemble(netlist, space, good, budget)
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
        Self::with_good_values_budget(netlist, good, MemoryBudget::Auto)
    }

    /// [`Self::with_good_values`] under an explicit [`MemoryBudget`]
    /// (see [`Self::with_budget`]).
    ///
    /// # Errors
    ///
    /// Returns [`ndetect_sim::SimError`] if the circuit has too many
    /// inputs for exhaustive simulation.
    ///
    /// # Panics
    ///
    /// Panics if `good`'s dimensions do not match the netlist and its
    /// pattern space.
    pub fn with_good_values_budget(
        netlist: &Netlist,
        good: GoodValues,
        budget: MemoryBudget,
    ) -> Result<Self, ndetect_sim::SimError> {
        let space = PatternSpace::new(netlist.num_inputs())?;
        assert_eq!(good.num_nodes(), netlist.num_nodes(), "good-value shape");
        assert_eq!(good.num_blocks(), space.num_blocks(), "good-value shape");
        Self::assemble(netlist, space, good, budget)
    }

    fn assemble(
        netlist: &Netlist,
        space: PatternSpace,
        good: GoodValues,
        budget: MemoryBudget,
    ) -> Result<Self, ndetect_sim::SimError> {
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

        // Per-worker kernel working set per block, in words: faulty
        // rows + good tile + others tile + acc + det. The budget picks
        // the widest tile that fits; the full block count means the
        // zero-overhead full-width mode.
        let words_per_block = 2 * n + num_other_rows + 2;
        let tile_width = budget.tile_width(words_per_block, nb);
        let kernel = if tile_width == nb { "full" } else { "tiled" };
        span.field("kernel", kernel);
        span.field("nodes", n);
        span.field("blocks", nb);
        // Library-level metric: which kernel the budget selected, across
        // every simulator built in this process.
        ndetect_obs::global()
            .counter(&format!("kernel_{kernel}_selected_total"))
            .inc();

        let (good_nm, others) = if tile_width == nb {
            // Full mode: materialize the node-major transpose (the
            // event kernel streams one node's words across all blocks,
            // so give it a contiguous row) and the others table once,
            // shared by every worker.
            let mut good_nm = RowMatrix::zeroed(n, nb);
            for b in 0..nb {
                let block = good.block(b);
                let words = good_nm.words_mut();
                for (i, &w) in block.iter().enumerate() {
                    words[i * nb + b] = w;
                }
            }
            let mut others = RowMatrix::zeroed(num_other_rows, nb);
            let mut run = zeroed_words(nb);
            fill_others(netlist, &good_nm, &mut others, &edge_offsets, &mut run);
            (good_nm, others)
        } else {
            // Tiled mode: no shared full-width tables — each worker
            // gathers per-tile slices into its scratch on demand.
            (RowMatrix::empty(), RowMatrix::empty())
        };

        // Cold per-circuit setup; a bool flag table is not a word buffer.
        #[allow(clippy::disallowed_methods)]
        let mut observed = vec![false; n];
        for &po in netlist.outputs() {
            observed[po.index()] = true;
        }

        Ok(FaultSimulator {
            space,
            good,
            reach,
            num_nodes: n,
            num_blocks: nb,
            budget,
            tile_width,
            num_other_rows,
            good_nm,
            cone_offsets,
            cone_gates,
            others,
            edge_offsets,
            observed,
        })
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

    /// Allocates scratch buffers sized for this simulator's circuit and
    /// kernel mode (full-width or tiled). One scratch serves any number
    /// of faults; workers should create one and reuse it (see
    /// [`FaultSimulator::detection_set_stuck_with`]).
    #[must_use]
    pub fn new_scratch(&self) -> SimScratch {
        if self.tile_width == self.num_blocks {
            SimScratch::new(self.num_nodes, self.num_blocks)
        } else {
            SimScratch::new_tiled(self.num_nodes, self.tile_width, self.num_other_rows)
        }
    }

    /// The memory budget this simulator was built under.
    #[must_use]
    pub fn mem_budget(&self) -> MemoryBudget {
        self.budget
    }

    /// The tile width in 64-vector blocks (equals the space's block
    /// count in full-width mode).
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Which kernel the budget selected: `"full"` (full-width shared
    /// tables, the unbounded fast path) or `"tiled"` (per-worker
    /// streamed tiles).
    #[must_use]
    pub fn kernel_mode(&self) -> &'static str {
        if self.tile_width == self.num_blocks {
            "full"
        } else {
            "tiled"
        }
    }

    /// Estimated per-worker data-plane bytes: faulty rows + good tile +
    /// others tile + accumulator + detection row, at the selected tile
    /// width. This is the quantity the [`MemoryBudget`] bounds.
    #[must_use]
    pub fn data_plane_bytes(&self) -> u64 {
        8 * (2 * self.num_nodes + self.num_other_rows + 2) as u64 * self.tile_width as u64
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

    /// The base block of the tile `scratch` currently addresses (0 in
    /// full-width mode, where rows span the whole space).
    #[inline]
    fn scratch_base(scratch: &SimScratch) -> usize {
        if scratch.is_tiled() {
            scratch.tile_start
        } else {
            0
        }
    }

    /// Loads the tile starting at block `tile_base` into a tiled
    /// scratch's private good/others tables (no-op in full-width mode
    /// or when that tile is already loaded — a worker sweeping many
    /// faults over one tile pays the gather once).
    fn prepare_tile(&self, netlist: &Netlist, tile_base: usize, scratch: &mut SimScratch) {
        if !scratch.is_tiled() || scratch.tile_start == tile_base {
            return;
        }
        let w = self.tile_width.min(self.num_blocks - tile_base);
        // Gather the node-major transpose of this tile from the
        // block-major good values. Stray columns of a narrow final tile
        // keep stale words; no column ≥ `w` is ever read.
        {
            let tw = scratch.tile_good.width();
            let tg = scratch.tile_good.words_mut();
            for c in 0..w {
                let block = self.good.block(tile_base + c);
                for (i, &word) in block.iter().enumerate() {
                    tg[i * tw + c] = word;
                }
            }
        }
        fill_others(
            netlist,
            &scratch.tile_good,
            &mut scratch.tile_others,
            &self.edge_offsets,
            &mut scratch.acc,
        );
        scratch.tile_start = tile_base;
    }

    /// The event-driven kernel: propagates the difference between the
    /// root's faulty row (already written to `scratch.rows` over
    /// `blocks` by the caller) and its fault-free row through the
    /// root's cone, accumulating per-block detection words into the
    /// scratch detection row.
    ///
    /// `blocks` are **global** block coordinates and must lie inside
    /// the tile `scratch` currently addresses (the whole space in
    /// full-width mode). Gates are evaluated only while some fanin is
    /// on the difference frontier, over only the block sub-range on
    /// which the root differs at all; the walk degenerates to cheap
    /// frontier checks as soon as the frontier dies. Zero heap
    /// allocations.
    fn propagate(
        &self,
        netlist: &Netlist,
        root: NodeId,
        blocks: Range<usize>,
        scratch: &mut SimScratch,
    ) {
        debug_assert!(
            scratch.fits(self.num_nodes, self.tile_width),
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
            tile_good,
            tile_others,
            tile_start,
            ..
        } = scratch;
        // One data plane, two sources: full mode reads the simulator's
        // shared full-width tables, tiled mode this worker's private
        // tile (both node-major RowMatrix — the kernel below cannot
        // tell them apart).
        let (good_rows, others_rows, base): (&RowMatrix, &RowMatrix, usize) =
            if tile_good.is_empty() {
                (&self.good_nm, &self.others, 0)
            } else {
                debug_assert!(*tile_start < self.num_blocks, "tile not prepared");
                (tile_good, tile_others, *tile_start)
            };
        debug_assert!(blocks.start >= base && blocks.end <= base + rows.width());

        // Tighten to the sub-range of columns on which the root
        // actually changed: no node anywhere can differ outside it.
        // (lo..hi are tile-local columns; det_lo/det_hi stay global.)
        let cols = blocks.start - base..blocks.end - base;
        let mut lo = usize::MAX;
        let mut hi = cols.start;
        {
            let faulty = &rows.row(root.index())[cols.clone()];
            let good = &good_rows.row(root.index())[cols.clone()];
            for (k, (&a, &b)) in faulty.iter().zip(good).enumerate() {
                if a ^ b != 0 {
                    if lo == usize::MAX {
                        lo = cols.start + k;
                    }
                    hi = cols.start + k + 1;
                }
            }
        }
        if lo == usize::MAX {
            // Fault inactive on this whole range: empty detection range.
            *det_lo = blocks.start;
            *det_hi = blocks.start;
            return;
        }
        *det_lo = base + lo;
        *det_hi = base + hi;
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
                    &others_rows.row(row)[lo..hi]
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

    /// Appends the detection row back out as per-block words (masked to
    /// the space; blocks outside the fault's active range read as zero).
    fn collect_det_into(&self, blocks: Range<usize>, scratch: &SimScratch, out: &mut Vec<u64>) {
        let base = Self::scratch_base(scratch);
        out.extend(blocks.map(|b| {
            if b >= scratch.det_lo && b < scratch.det_hi {
                scratch.det[b - base] & self.space.block_mask(b)
            } else {
                0
            }
        }));
    }

    /// Splits a block range at tile boundaries and runs `body` on each
    /// tile-resident sub-range with the tile loaded. Blocks are
    /// independent, so any partition of the range concatenates back to
    /// the full-range result; in full-width mode this degenerates to a
    /// single call with no gathering.
    fn for_each_tile_span(
        &self,
        netlist: &Netlist,
        blocks: Range<usize>,
        scratch: &mut SimScratch,
        mut body: impl FnMut(&Self, Range<usize>, &mut SimScratch),
    ) {
        let mut start = blocks.start;
        while start < blocks.end {
            let tile_base = start - start % self.tile_width;
            let end = blocks.end.min(tile_base + self.tile_width);
            self.prepare_tile(netlist, tile_base, scratch);
            body(self, start..end, scratch);
            start = end;
        }
    }

    /// Detection words of a stuck-at fault over a contiguous block
    /// range (streamed tile by tile under a bounded budget).
    pub(crate) fn stuck_words(
        &self,
        netlist: &Netlist,
        fault: StuckAtFault,
        blocks: Range<usize>,
        scratch: &mut SimScratch,
    ) -> Vec<u64> {
        let line = netlist.lines().line(fault.line);
        // Output-slot branch faults never touch the kernel at all:
        // detected exactly where the good driver differs from the stuck
        // value (only that output observation is faulty).
        if let LineKind::Branch {
            node,
            sink: Sink::OutputSlot { .. },
        } = *line.kind()
        {
            let vword = stuck_word(fault.value);
            return blocks
                .map(|b| (self.good.node_word(b, node) ^ vword) & self.space.block_mask(b))
                .collect();
        }
        let mut out = Vec::with_capacity(blocks.len());
        self.for_each_tile_span(netlist, blocks, scratch, |sim, span, scratch| {
            sim.stuck_words_span(netlist, fault, span, scratch, &mut out);
        });
        out
    }

    /// One tile-resident span of [`Self::stuck_words`]: writes the root
    /// row, propagates, and appends the masked detection words.
    fn stuck_words_span(
        &self,
        netlist: &Netlist,
        fault: StuckAtFault,
        span: Range<usize>,
        scratch: &mut SimScratch,
        out: &mut Vec<u64>,
    ) {
        let vword = stuck_word(fault.value);
        let line = netlist.lines().line(fault.line);
        let base = Self::scratch_base(scratch);
        let cols = span.start - base..span.end - base;

        match *line.kind() {
            LineKind::Stem { node } => {
                scratch.rows.row_mut(node.index())[cols].fill(vword);
                self.propagate(netlist, node, span.clone(), scratch);
                self.collect_det_into(span, scratch, out);
            }
            LineKind::Branch { node: _, sink } => match sink {
                Sink::GatePin { gate, pin } => {
                    // Root row: the sink gate evaluated with the
                    // overridden operand (a constant row), all other
                    // operands fault-free.
                    let gnode = netlist.node(gate);
                    let w = cols.len();
                    {
                        let SimScratch {
                            rows,
                            acc,
                            tile_good,
                            ..
                        } = scratch;
                        let good_rows: &RowMatrix = if tile_good.is_empty() {
                            &self.good_nm
                        } else {
                            tile_good
                        };
                        acc[..w].fill(vword);
                        let acc_r: &[u64] = &acc[..w];
                        let op = |i: usize, f: NodeId| -> &[u64] {
                            if i == pin {
                                acc_r
                            } else {
                                &good_rows.row(f.index())[cols.clone()]
                            }
                        };
                        eval_gate_rows(
                            gnode.kind(),
                            gnode.fanins(),
                            op,
                            &mut rows.row_mut(gate.index())[cols.clone()],
                        );
                    }
                    self.propagate(netlist, gate, span.clone(), scratch);
                    self.collect_det_into(span, scratch, out);
                }
                Sink::OutputSlot { slot: _ } => {
                    unreachable!("handled without the kernel in stuck_words")
                }
            },
        }
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
        self.detection_set_stuck_threaded(netlist, fault, 1)
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
        let words = self.stuck_words(netlist, fault, 0..self.num_blocks, scratch);
        VectorSet::from_block_words(self.space.num_patterns(), words)
    }

    /// Computes `T(f)` with the 64-vector pattern blocks sharded over up
    /// to `num_threads` workers, each owning its own [`SimScratch`].
    /// Every block is simulated independently, so the result is
    /// bit-identical to the serial computation for any thread count;
    /// worthwhile on wide pattern spaces (many blocks).
    ///
    /// # Panics
    ///
    /// Panics if the fault's line does not belong to `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_stuck_threaded(
        &self,
        netlist: &Netlist,
        fault: StuckAtFault,
        num_threads: usize,
    ) -> VectorSet {
        assert_eq!(netlist.num_nodes(), self.num_nodes, "wrong netlist");
        let words = parallel::run_tiled_with(
            num_threads,
            self.num_blocks,
            || self.new_scratch(),
            |scratch, blocks| self.stuck_words(netlist, fault, blocks, scratch),
        );
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
        self.detection_set_bridge_threaded(netlist, fault, 1)
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

    /// Computes `T(g)` with the victim fault's pattern blocks sharded over
    /// up to `num_threads` workers (see
    /// [`Self::detection_set_stuck_threaded`]).
    ///
    /// # Panics
    ///
    /// Panics if the fault's lines are not stems of `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_bridge_threaded(
        &self,
        netlist: &Netlist,
        fault: &BridgingFault,
        num_threads: usize,
    ) -> VectorSet {
        debug_assert_stems(netlist, fault);
        let victim = self.detection_set_stuck_threaded(netlist, fault.victim_fault(), num_threads);
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

/// The reference full-cone kernel, kept as the differential-testing
/// oracle and benchmark baseline.
impl FaultSimulator {
    /// The primary-output nodes observing `root` or its cone.
    fn observable_outputs_of(&self, netlist: &Netlist, root: NodeId) -> Vec<NodeId> {
        netlist
            .outputs()
            .iter()
            .copied()
            .filter(|&po| po == root || self.reach.reaches(root, po))
            .collect()
    }

    /// Per-fault buffers for a full-cone re-simulation rooted at `root`:
    /// the observable outputs, the faulty-value buffer, and the
    /// cone-membership mask. Allocated once per fault, reused across
    /// blocks.
    fn cone_buffers(&self, netlist: &Netlist, root: NodeId) -> (Vec<NodeId>, Vec<u64>, Vec<bool>) {
        let outputs = self.observable_outputs_of(netlist, root);
        // Reference oracle, off the budgeted data plane by design.
        #[allow(clippy::disallowed_methods)]
        let mut in_cone = vec![false; self.num_nodes];
        in_cone[root.index()] = true;
        for &g in self.cone(root) {
            in_cone[g.index()] = true;
        }
        (outputs, zeroed_words(self.num_nodes), in_cone)
    }

    /// Re-evaluates every gate of `root`'s cone for one block. `fv`
    /// holds faulty words (valid only where `in_cone`); operands outside
    /// the cone come from the good values. `fv[root]` must be set by the
    /// caller.
    fn eval_cone(
        &self,
        netlist: &Netlist,
        block: usize,
        root: NodeId,
        fv: &mut [u64],
        in_cone: &[bool],
    ) {
        let goodb = self.good.block(block);
        for &g in self.cone(root) {
            let node = netlist.node(g);
            let kind = node.kind();
            let fanins = node.fanins();
            let operand = |f: NodeId| -> u64 {
                if in_cone[f.index()] {
                    fv[f.index()]
                } else {
                    goodb[f.index()]
                }
            };
            let word = match kind {
                GateKind::And | GateKind::Nand => {
                    let acc = fanins.iter().fold(u64::MAX, |a, &f| a & operand(f));
                    if kind == GateKind::Nand {
                        !acc
                    } else {
                        acc
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let acc = fanins.iter().fold(0u64, |a, &f| a | operand(f));
                    if kind == GateKind::Nor {
                        !acc
                    } else {
                        acc
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let acc = fanins.iter().fold(0u64, |a, &f| a ^ operand(f));
                    if kind == GateKind::Xnor {
                        !acc
                    } else {
                        acc
                    }
                }
                GateKind::Buf => operand(fanins[0]),
                GateKind::Not => !operand(fanins[0]),
                GateKind::Const0 => 0,
                GateKind::Const1 => u64::MAX,
                GateKind::Input => unreachable!("inputs are never in a cone"),
            };
            fv[g.index()] = word;
        }
    }

    fn detection_word(&self, block: usize, outputs: &[NodeId], fv: &[u64]) -> u64 {
        let goodb = self.good.block(block);
        let mut det = 0u64;
        for &po in outputs {
            det |= fv[po.index()] ^ goodb[po.index()];
        }
        det & self.space.block_mask(block)
    }

    /// Computes `T(f)` with the reference full-cone kernel: every
    /// downstream gate of the fault site is re-evaluated on every
    /// block, whether or not the fault effect reaches it. Bit-identical
    /// to [`Self::detection_set_stuck`]; kept as the
    /// differential-testing oracle and the baseline of the
    /// `event_driven` benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the fault's line does not belong to `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_stuck_full_cone(
        &self,
        netlist: &Netlist,
        fault: StuckAtFault,
    ) -> VectorSet {
        assert_eq!(netlist.num_nodes(), self.num_nodes, "wrong netlist");
        let vword = stuck_word(fault.value);
        let line = netlist.lines().line(fault.line);
        let blocks = 0..self.num_blocks;

        let words: Vec<u64> = match *line.kind() {
            LineKind::Stem { node } => {
                let (outputs, mut fv, in_cone) = self.cone_buffers(netlist, node);
                blocks
                    .map(|block| {
                        fv[node.index()] = vword;
                        self.eval_cone(netlist, block, node, &mut fv, &in_cone);
                        self.detection_word(block, &outputs, &fv)
                    })
                    .collect()
            }
            LineKind::Branch { node, sink } => match sink {
                Sink::GatePin { gate, pin } => {
                    // Operand buffers hoisted out of the block loop: the
                    // sink gate is evaluated through the pin-override
                    // primitive, with no per-block allocations.
                    let (outputs, mut fv, in_cone) = self.cone_buffers(netlist, gate);
                    let gnode = netlist.node(gate);
                    blocks
                        .map(|block| {
                            let goodb = self.good.block(block);
                            fv[gate.index()] = eval_gate_word_pin_override(
                                gnode.kind(),
                                gnode.fanins(),
                                goodb,
                                pin,
                                vword,
                            );
                            self.eval_cone(netlist, block, gate, &mut fv, &in_cone);
                            self.detection_word(block, &outputs, &fv)
                        })
                        .collect()
                }
                Sink::OutputSlot { slot: _ } => blocks
                    .map(|block| {
                        let g = self.good.node_word(block, node);
                        (g ^ vword) & self.space.block_mask(block)
                    })
                    .collect(),
            },
        };
        VectorSet::from_block_words(self.space.num_patterns(), words)
    }

    /// Computes `T(g)` with the reference full-cone kernel (see
    /// [`Self::detection_set_stuck_full_cone`]).
    ///
    /// # Panics
    ///
    /// Panics if the fault's lines are not stems of `netlist`, or if
    /// `netlist` is not the netlist this simulator was built for.
    #[must_use]
    pub fn detection_set_bridge_full_cone(
        &self,
        netlist: &Netlist,
        fault: &BridgingFault,
    ) -> VectorSet {
        assert_eq!(netlist.num_nodes(), self.num_nodes, "wrong netlist");
        let victim = netlist.lines().line(fault.victim).driver();
        let aggressor = netlist.lines().line(fault.aggressor).driver();
        let (outputs, mut fv, in_cone) = self.cone_buffers(netlist, victim);

        let words: Vec<u64> = (0..self.num_blocks)
            .map(|block| {
                let gv = self.good.node_word(block, victim);
                let ga = self.good.node_word(block, aggressor);
                let cond = (if fault.victim_value { gv } else { !gv })
                    & (if fault.aggressor_value { ga } else { !ga })
                    & self.space.block_mask(block);
                if cond == 0 {
                    return 0;
                }
                fv[victim.index()] = gv ^ cond;
                self.eval_cone(netlist, block, victim, &mut fv, &in_cone);
                self.detection_word(block, &outputs, &fv)
            })
            .collect();
        VectorSet::from_block_words(self.space.num_patterns(), words)
    }
}

/// Three-valued detection check for the paper's Definition 2.
///
/// Returns `true` iff the partially specified vector `tij` **definitely**
/// detects the stuck-at fault: some primary output has definite and
/// different values in the fault-free and faulty circuits under
/// pessimistic three-valued simulation.
///
/// ```
/// use ndetect_netlist::NetlistBuilder;
/// use ndetect_sim::{PartialVector, PatternSpace};
/// use ndetect_faults::{threeval_detects_stuck, StuckAtFault};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.and("g", &[a, c])?;
/// b.output(g);
/// let n = b.build()?;
/// let space = PatternSpace::new(2)?;
/// let fault = StuckAtFault::new(n.lines().stem(g), false);
/// // 1X does not definitely detect g/0; 11 does.
/// let t_1x = PartialVector::common_bits(&space, 2, 3);
/// assert!(!threeval_detects_stuck(&n, fault, &t_1x));
/// let t_11 = PartialVector::from_vector(&space, 3);
/// assert!(threeval_detects_stuck(&n, fault, &t_11));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn threeval_detects_stuck(
    netlist: &Netlist,
    fault: StuckAtFault,
    vector: &PartialVector,
) -> bool {
    let inputs = vector.trits();
    let good = eval_trits_all(netlist, &inputs);

    let line = netlist.lines().line(fault.line);
    let fault_trit = Trit::from_bool(fault.value);

    // Faulty levelized pass with injection (cold three-valued path,
    // not a word buffer).
    #[allow(clippy::disallowed_methods)]
    let mut faulty = vec![Trit::X; netlist.num_nodes()];
    for (&pi, &v) in netlist.inputs().iter().zip(&inputs) {
        faulty[pi.index()] = v;
    }
    let (stem_forced, pin_override): (Option<NodeId>, Option<(NodeId, usize)>) = match *line.kind()
    {
        LineKind::Stem { node } => (Some(node), None),
        LineKind::Branch { node: _, sink } => match sink {
            Sink::GatePin { gate, pin } => (None, Some((gate, pin))),
            Sink::OutputSlot { .. } => (None, None),
        },
    };
    if let Some(node) = stem_forced {
        faulty[node.index()] = fault_trit;
    }
    let mut operands: Vec<Trit> = Vec::new();
    for &id in netlist.topo_order() {
        let node = netlist.node(id);
        if node.kind() == GateKind::Input {
            continue;
        }
        if stem_forced == Some(id) {
            continue; // value forced, no evaluation
        }
        operands.clear();
        operands.extend(node.fanins().iter().map(|f| faulty[f.index()]));
        if let Some((gate, pin)) = pin_override {
            if gate == id {
                operands[pin] = fault_trit;
            }
        }
        faulty[id.index()] = eval_gate_trit(node.kind(), &operands);
    }
    if let Some(node) = stem_forced {
        faulty[node.index()] = fault_trit;
    }

    // Observation: definite difference on some output slot.
    let po_branch_slot = match *line.kind() {
        LineKind::Branch {
            sink: Sink::OutputSlot { slot },
            ..
        } => Some(slot),
        _ => None,
    };
    for (slot, &po) in netlist.outputs().iter().enumerate() {
        let g = good[po.index()];
        let f = if po_branch_slot == Some(slot) {
            fault_trit
        } else {
            faulty[po.index()]
        };
        if let (Some(gb), Some(fb)) = (g.to_option(), f.to_option()) {
            if gb != fb {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::stuck_at::all_stuck_at_faults;
    use ndetect_netlist::NetlistBuilder;

    fn figure1() -> Netlist {
        let mut b = NetlistBuilder::new("figure1");
        let i1 = b.input("1");
        let i2 = b.input("2");
        let i3 = b.input("3");
        let i4 = b.input("4");
        let g9 = b.and("9", &[i1, i2]).unwrap();
        let g10 = b.and("10", &[i2, i3]).unwrap();
        let g11 = b.or("11", &[i3, i4]).unwrap();
        b.output(g9);
        b.output(g10);
        b.output(g11);
        b.build().unwrap()
    }

    /// Oracle: detection set by brute-force scalar simulation with the
    /// fault applied through explicit line semantics.
    fn oracle_stuck(netlist: &Netlist, fault: StuckAtFault, space: &PatternSpace) -> Vec<usize> {
        let mut detected = Vec::new();
        for v in 0..space.num_patterns() {
            let bits = space.vector_bits(v);
            let good = netlist.eval_bool(&bits);
            let faulty = oracle_eval_faulty(netlist, fault, &bits);
            if good != faulty {
                detected.push(v);
            }
        }
        detected
    }

    fn oracle_eval_faulty(netlist: &Netlist, fault: StuckAtFault, bits: &[bool]) -> Vec<bool> {
        let line = netlist.lines().line(fault.line);
        let mut values = vec![false; netlist.num_nodes()];
        for (pi, &v) in netlist.inputs().iter().zip(bits) {
            values[pi.index()] = v;
        }
        let (stem_forced, pin_override) = match *line.kind() {
            LineKind::Stem { node } => (Some(node), None),
            LineKind::Branch { sink, .. } => match sink {
                Sink::GatePin { gate, pin } => (None, Some((gate, pin))),
                Sink::OutputSlot { .. } => (None, None),
            },
        };
        for &id in netlist.topo_order() {
            let node = netlist.node(id);
            if node.kind() != GateKind::Input {
                let mut ops: Vec<bool> = node.fanins().iter().map(|f| values[f.index()]).collect();
                if let Some((g, p)) = pin_override {
                    if g == id {
                        ops[p] = fault.value;
                    }
                }
                values[id.index()] = node.kind().eval_bool(&ops);
            }
            if stem_forced == Some(id) {
                values[id.index()] = fault.value;
            }
        }
        if let Some(node) = stem_forced {
            values[node.index()] = fault.value;
        }
        let po_branch_slot = match *line.kind() {
            LineKind::Branch {
                sink: Sink::OutputSlot { slot },
                ..
            } => Some(slot),
            _ => None,
        };
        netlist
            .outputs()
            .iter()
            .enumerate()
            .map(|(slot, &po)| {
                if po_branch_slot == Some(slot) {
                    fault.value
                } else {
                    values[po.index()]
                }
            })
            .collect()
    }

    #[test]
    fn stuck_detection_sets_match_oracle_on_figure1() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        for fault in all_stuck_at_faults(&n) {
            let fast = sim.detection_set_stuck(&n, fault).to_vec();
            let slow = oracle_stuck(&n, fault, sim.space());
            assert_eq!(fast, slow, "fault {}", fault.name(&n));
        }
    }

    #[test]
    fn event_driven_equals_full_cone_on_figure1() {
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let mut scratch = sim.new_scratch();
        for fault in all_stuck_at_faults(&n) {
            let event = sim.detection_set_stuck_with(&n, fault, &mut scratch);
            let oracle = sim.detection_set_stuck_full_cone(&n, fault);
            assert_eq!(event, oracle, "fault {}", fault.name(&n));
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
        assert_eq!(
            sim.detection_set_bridge_full_cone(&n, &g0).to_vec(),
            vec![6, 7]
        );
        // g6 = (11,0,9,1): T = {12}.
        let g6 = BridgingFault::new(stem("11"), false, stem("9"), true);
        assert_eq!(sim.detection_set_bridge(&n, &g6).to_vec(), vec![12]);
    }

    #[test]
    fn bridge_oracle_cross_check() {
        // Brute-force bridging oracle on a multi-level circuit.
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
        let space = sim.space();
        // Bridge between g1 (victim) and g2 (aggressor): non-feedback.
        for (a1, a2) in [(false, true), (true, false)] {
            let fault = BridgingFault::new(n.lines().stem(g1), a1, n.lines().stem(g2), a2);
            let fast = sim.detection_set_bridge(&n, &fault).to_vec();
            let mut slow = Vec::new();
            for v in 0..space.num_patterns() {
                let bits = space.vector_bits(v);
                let all = n.eval_bool_all(&bits);
                let gv = all[g1.index()];
                let ga = all[g2.index()];
                if gv != a1 || ga != a2 {
                    continue; // not activated
                }
                // Victim flips; re-evaluate downstream by brute force.
                let mut vals = all.clone();
                vals[g1.index()] = !gv;
                for &id in n.topo_order() {
                    let node = n.node(id);
                    if node.kind() == GateKind::Input || id == g1 {
                        continue;
                    }
                    let ops: Vec<bool> = node.fanins().iter().map(|f| vals[f.index()]).collect();
                    vals[id.index()] = node.kind().eval_bool(&ops);
                }
                let good_out: Vec<bool> = n.outputs().iter().map(|&po| all[po.index()]).collect();
                let bad_out: Vec<bool> = n.outputs().iter().map(|&po| vals[po.index()]).collect();
                if good_out != bad_out {
                    slow.push(v);
                }
            }
            assert_eq!(fast, slow, "bridge ({a1},{a2})");
        }
    }

    #[test]
    fn threeval_detection_is_conservative_wrt_completions() {
        // If tij detects under 3-valued logic, every completion detects
        // under 2-valued logic.
        let n = figure1();
        let sim = FaultSimulator::new(&n).unwrap();
        let space = *sim.space();
        for fault in all_stuck_at_faults(&n) {
            let t = sim.detection_set_stuck(&n, fault);
            for ti in 0..16 {
                for tj in 0..16 {
                    let tij = PartialVector::common_bits(&space, ti, tj);
                    if threeval_detects_stuck(&n, fault, &tij) {
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
        let space = *sim.space();
        for fault in all_stuck_at_faults(&n) {
            let t = sim.detection_set_stuck(&n, fault);
            for v in 0..16 {
                let pv = PartialVector::from_vector(&space, v);
                assert_eq!(
                    threeval_detects_stuck(&n, fault, &pv),
                    t.contains(v),
                    "fault {} v={v}",
                    fault.name(&n)
                );
            }
        }
    }
}
