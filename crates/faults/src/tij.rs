//! Definition 2 at word speed: [`TijKernel`], pessimistic three-valued
//! detection checks for 64 common-bits vectors per machine word.

// Hot module: every word buffer comes from the `rows` data plane.
#![deny(clippy::disallowed_methods)]

use crate::sim::FaultSimulator;
use crate::stuck_at::StuckAtFault;
use ndetect_netlist::{GateKind, LineKind, Netlist, NodeId, Sink};
use ndetect_sim::rows::{transpose64, zeroed_words};

/// The two rails of one node: (definitely 1, definitely 0), one bit per
/// lane.
type Rails = (u64, u64);

/// The rails of a constant `value` in every lane.
fn constant(value: bool) -> Rails {
    if value {
        (u64::MAX, 0)
    } else {
        (0, u64::MAX)
    }
}

/// Lanes in which both machines are definite and disagree.
fn definite_difference(good: Rails, bad: Rails) -> u64 {
    (good.0 & bad.1) | (good.1 & bad.0)
}

/// Evaluates one gate on two-rail operands read through `op(pin,
/// fanin)`, following the scalar three-valued rules lane by lane.
fn eval_gate(kind: GateKind, fanins: &[NodeId], op: impl Fn(usize, NodeId) -> Rails) -> Rails {
    let operands = fanins.iter().enumerate().map(|(pin, &f)| op(pin, f));
    let swap = |(one, zero): Rails| (zero, one);
    match kind {
        GateKind::And | GateKind::Nand => {
            // 1 only if every operand is 1; 0 as soon as one operand is 0.
            let out = operands.fold((u64::MAX, 0), |(one, zero), (a1, a0)| (one & a1, zero | a0));
            if kind == GateKind::Nand {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            let out = operands.fold((0, u64::MAX), |(one, zero), (a1, a0)| (one | a1, zero & a0));
            if kind == GateKind::Nor {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Definite only where every operand is; then the parity of
            // the 1s.
            let (known, parity) = operands.fold((u64::MAX, 0), |(known, parity), (a1, a0)| {
                (known & (a1 | a0), parity ^ a1)
            });
            let out = (known & parity, known & !parity);
            if kind == GateKind::Xnor {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Buf => op(0, fanins[0]),
        GateKind::Not => swap(op(0, fanins[0])),
        GateKind::Const0 => constant(false),
        GateKind::Const1 => constant(true),
        GateKind::Input => unreachable!("inputs take their rails from the batch"),
    }
}

/// Rails of node `node` in an interleaved rail buffer.
#[inline]
fn rails(buf: &[u64], node: NodeId) -> Rails {
    (buf[2 * node.index()], buf[2 * node.index() + 1])
}

#[inline]
fn set_rails(buf: &mut [u64], node: NodeId, (one, zero): Rails) {
    buf[2 * node.index()] = one;
    buf[2 * node.index() + 1] = zero;
}

/// One non-input node of the fault-free pass: the node, its kind, and
/// the range `lo..hi` of its fanins in the kernel's flat fanin table.
#[derive(Clone, Copy, Debug)]
struct Gate {
    node: NodeId,
    kind: GateKind,
    lo: u32,
    hi: u32,
}

/// The fault-free pass over `gates`, in topological order.
fn eval_good(good: &mut [u64], fanins: &[NodeId], gates: &[Gate]) {
    for g in gates {
        let r = eval_gate(g.kind, &fanins[g.lo as usize..g.hi as usize], |_, f| {
            rails(good, f)
        });
        set_rails(good, g.node, r);
    }
}

/// One worker's 64-lane Definition-2 kernel over a [`FaultSimulator`]'s
/// netlist and cone arena.
///
/// The paper's Definition 2 asks, for a target `f` and two tests `ti`
/// and `tj`, whether `tij` (specified where `ti` and `tj` agree, `X`
/// elsewhere) detects `f` under three-valued simulation. The kernel
/// answers that for one fixed test and up to 64 lane tests per batch:
/// lane `L` simulates `tij(fixed, lanes[L])`.
///
/// Every node carries two rails: bit `L` of its *one* rail is set iff
/// the node is definitely 1 in lane `L`, bit `L` of its *zero* rail iff
/// it is definitely 0, and neither bit means `X`. The gate rules are
/// the pessimistic ones of `ndetect_testutil::threeval::eval_gate_trit`:
/// a controlling operand decides an AND/OR-family gate, and any `X`
/// operand makes an XOR-family gate `X`. That module's `detects_stuck`
/// is the scalar oracle (`tests/tij_oracle.rs`): bit `L` of a result
/// equals `detects_stuck(common_bits(fixed, lanes[L]))`.
///
/// Each batch runs the fault-free machine once. Each fault then
/// re-evaluates only its site's fanout cone, taken from the CSR cone
/// arena, and within it only the gates with a fanin whose rails differ
/// from the fault-free ones. The kernel serves the two batch shapes of
/// Procedure 1:
///
/// * **one batch, many faults:** [`Self::load`] a batch (a fault-free
///   pass over the whole netlist), then ask [`Self::detects`] for any
///   number of faults against it;
/// * **one fault, many batches:** [`Self::detects_batch`], whose
///   fault-free pass covers only the nodes that fault's check reads.
///
/// All buffers are allocated once, in [`Self::new`]. The kernel counts
/// its batches and loaded lanes and adds them to the global
/// `def2_tij_batches_total` and `def2_tij_lanes_total` counters once,
/// when it drops; their ratio is the mean number of lanes per batch.
///
/// ```
/// use ndetect_netlist::NetlistBuilder;
/// use ndetect_faults::{FaultSimulator, StuckAtFault, TijKernel};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.and("g", &[a, c])?;
/// b.output(g);
/// let n = b.build()?;
/// let sim = FaultSimulator::new(&n)?;
/// let mut kernel = TijKernel::new(&n, &sim);
/// let g1 = StuckAtFault::new(n.lines().stem(g), true);
/// // g/1 against fixed test 00: lane 0 is tij(00, 01) = 0X, which
/// // definitely detects it; lane 1 is tij(00, 11) = XX, which does not.
/// kernel.load(0b00, &[0b01, 0b11]);
/// assert_eq!(kernel.detects(g1), 0b01);
/// assert_eq!(kernel.detects_batch(g1, 0b00, &[0b01, 0b11]), 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TijKernel<'a> {
    netlist: &'a Netlist,
    sim: &'a FaultSimulator,
    /// Every non-input node, in topological order, and their fanins.
    gates: Vec<Gate>,
    fanins: Vec<NodeId>,
    /// The gates `focus`'s check reads, in topological order.
    support: Vec<Gate>,
    focus: Option<StuckAtFault>,
    /// Fault-free rails, interleaved: node `i`'s one rail at `2i`, its
    /// zero rail at `2i + 1`.
    good: Vec<u64>,
    /// Whether `good` holds the whole netlist's rails (after
    /// [`Self::load`]) rather than only the support's.
    whole: bool,
    /// Faulty rails in the same layout; node `i`'s are valid only while
    /// `stamp[i] == epoch`, otherwise its fault-free rails apply.
    bad: Vec<u64>,
    stamp: Vec<u64>,
    epoch: u64,
    /// The lanes of the loaded batch.
    lanes: u64,
    batches: u64,
    lanes_loaded: u64,
}

impl<'a> TijKernel<'a> {
    /// Allocates a kernel for `netlist`, which must be the netlist
    /// `sim` was built for.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` and `sim` disagree in node count.
    #[must_use]
    pub fn new(netlist: &'a Netlist, sim: &'a FaultSimulator) -> Self {
        let n = netlist.num_nodes();
        assert_eq!(sim.good_values().num_nodes(), n, "wrong netlist");
        let mut gates = Vec::with_capacity(netlist.num_gates());
        let mut fanins = Vec::new();
        for &node in netlist.topo_order() {
            let kind = netlist.node(node).kind();
            if kind != GateKind::Input {
                let lo = fanins.len() as u32;
                fanins.extend_from_slice(netlist.node(node).fanins());
                let hi = fanins.len() as u32;
                gates.push(Gate { node, kind, lo, hi });
            }
        }
        TijKernel {
            netlist,
            sim,
            support: Vec::with_capacity(gates.len()),
            gates,
            fanins,
            focus: None,
            good: zeroed_words(2 * n),
            whole: false,
            bad: zeroed_words(2 * n),
            stamp: zeroed_words(n),
            epoch: 0,
            lanes: 0,
            batches: 0,
            lanes_loaded: 0,
        }
    }

    /// Loads a batch: lane `L` is `tij(fixed, lanes[L])`. Runs the
    /// fault-free machine over the whole netlist.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` holds 1 to 64 tests, and if a test lies
    /// outside the pattern space.
    pub fn load(&mut self, fixed: u32, lanes: &[u32]) {
        self.load_inputs(fixed, lanes);
        eval_good(&mut self.good, &self.fanins, &self.gates);
        self.whole = true;
    }

    /// The lanes of the batch loaded by [`Self::load`] whose `tij`
    /// definitely detects `fault`: some output slot is definite in both
    /// machines and differs. Re-evaluates only the fault site's fanout
    /// cone.
    ///
    /// # Panics
    ///
    /// Panics if no batch was loaded by [`Self::load`] since the last
    /// [`Self::detects_batch`], or if the fault's line does not belong
    /// to the netlist.
    pub fn detects(&mut self, fault: StuckAtFault) -> u64 {
        assert!(self.whole, "detects needs a batch loaded by `load`");
        self.propagate(fault)
    }

    /// Loads a batch for `fault` alone and returns the lanes whose `tij`
    /// definitely detects it: the same lanes as [`Self::load`] then
    /// [`Self::detects`], but the fault-free pass covers only the nodes
    /// the check reads (the fault site, its fanout cone, and everything
    /// feeding them). The kernel keeps that node list until it is asked
    /// about another fault, so a scan of many batches for one fault
    /// computes it once.
    ///
    /// # Panics
    ///
    /// As for [`Self::load`] and [`Self::detects`].
    pub fn detects_batch(&mut self, fault: StuckAtFault, fixed: u32, lanes: &[u32]) -> u64 {
        if self.focus != Some(fault) {
            self.refocus(fault);
        }
        self.load_inputs(fixed, lanes);
        eval_good(&mut self.good, &self.fanins, &self.support);
        self.whole = false;
        self.propagate(fault)
    }

    /// Points the support at `fault`: its site, the site's fanout cone,
    /// and their transitive fanin.
    fn refocus(&mut self, fault: StuckAtFault) {
        let site = match *self.netlist.lines().line(fault.line).kind() {
            LineKind::Stem { node }
            | LineKind::Branch {
                node,
                sink: Sink::OutputSlot { .. },
            } => node,
            LineKind::Branch {
                sink: Sink::GatePin { gate, .. },
                ..
            } => gate,
        };
        self.epoch += 1;
        let (epoch, stamp) = (self.epoch, &mut self.stamp);
        stamp[site.index()] = epoch;
        for &g in self.sim.cone(site) {
            stamp[g.index()] = epoch;
        }
        for g in self.gates.iter().rev() {
            if stamp[g.node.index()] == epoch {
                for f in &self.fanins[g.lo as usize..g.hi as usize] {
                    stamp[f.index()] = epoch;
                }
            }
        }
        self.support.clear();
        self.support.extend(
            self.gates
                .iter()
                .filter(|g| stamp[g.node.index()] == epoch)
                .copied(),
        );
        self.focus = Some(fault);
    }

    /// Sets the input rails of a batch: lane `L` is `tij(fixed,
    /// lanes[L])`.
    fn load_inputs(&mut self, fixed: u32, lanes: &[u32]) {
        assert!(
            (1..=64).contains(&lanes.len()),
            "a batch holds 1 to 64 lanes"
        );
        let netlist = self.netlist;
        let num_inputs = netlist.num_inputs();
        assert!(
            lanes.iter().fold(fixed, |all, &t| all | t) >> num_inputs == 0,
            "test outside the pattern space"
        );
        // Row `L` marks where lane `L`'s test differs from the fixed one;
        // transposed, row `bit` holds the lanes that see `X` on that bit.
        let mut differs = [0u64; 64];
        for (d, &t) in differs.iter_mut().zip(lanes) {
            *d = u64::from(t ^ fixed);
        }
        transpose64(&mut differs);
        self.lanes = u64::MAX >> (64 - lanes.len());
        // Input `i` is bit `I-1-i` of a vector (see `PatternSpace`).
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            let bit = num_inputs - 1 - i;
            let known = self.lanes & !differs[bit];
            let r = if fixed >> bit & 1 == 1 {
                (known, 0)
            } else {
                (0, known)
            };
            set_rails(&mut self.good, pi, r);
        }
        self.batches += 1;
        self.lanes_loaded += lanes.len() as u64;
    }

    /// Injects `fault` into the loaded batch and propagates it through
    /// the site's fanout cone, re-evaluating only the gates with a fanin
    /// whose rails differ from the fault-free ones.
    fn propagate(&mut self, fault: StuckAtFault) -> u64 {
        let netlist = self.netlist;
        let sim = self.sim;
        let stuck = constant(fault.value);
        let (good, bad, stamp) = (&self.good, &mut self.bad, &mut self.stamp);
        let root = match *netlist.lines().line(fault.line).kind() {
            LineKind::Stem { node } => {
                set_rails(bad, node, stuck);
                node
            }
            LineKind::Branch {
                sink: Sink::GatePin { gate, pin },
                ..
            } => {
                let g = netlist.node(gate);
                let r = eval_gate(g.kind(), g.fanins(), |p, f| {
                    if p == pin {
                        stuck
                    } else {
                        rails(good, f)
                    }
                });
                set_rails(bad, gate, r);
                gate
            }
            LineKind::Branch {
                node,
                sink: Sink::OutputSlot { .. },
            } => {
                // Only this output slot sees the stuck value.
                return self.lanes & definite_difference(rails(good, node), stuck);
            }
        };
        if rails(bad, root) == rails(good, root) {
            return 0; // not activated in any lane
        }
        self.epoch += 1;
        let epoch = self.epoch;
        stamp[root.index()] = epoch;
        let mut det = if sim.is_observed(root) {
            definite_difference(rails(good, root), rails(bad, root))
        } else {
            0
        };
        for &g in sim.cone(root) {
            let node = netlist.node(g);
            let fanins = node.fanins();
            // A gate none of whose fanins changed keeps its fault-free
            // rails.
            if !fanins.iter().any(|f| stamp[f.index()] == epoch) {
                continue;
            }
            let r = eval_gate(node.kind(), fanins, |_, f| {
                if stamp[f.index()] == epoch {
                    rails(bad, f)
                } else {
                    rails(good, f)
                }
            });
            let good_g = rails(good, g);
            if r != good_g {
                set_rails(bad, g, r);
                stamp[g.index()] = epoch;
                if sim.is_observed(g) {
                    det |= definite_difference(good_g, r);
                }
            }
        }
        det & self.lanes
    }
}

impl Drop for TijKernel<'_> {
    fn drop(&mut self) {
        if self.batches > 0 {
            let metrics = ndetect_obs::global();
            metrics.counter("def2_tij_batches_total").add(self.batches);
            metrics
                .counter("def2_tij_lanes_total")
                .add(self.lanes_loaded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_netlist::NetlistBuilder;

    fn and2() -> Netlist {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and("g", &[a, c]).unwrap();
        b.output(g);
        b.build().unwrap()
    }

    #[test]
    #[should_panic(expected = "detects needs a batch loaded by `load`")]
    fn detects_after_a_focused_batch_needs_a_fresh_load() {
        let n = and2();
        let sim = FaultSimulator::new(&n).unwrap();
        let mut kernel = TijKernel::new(&n, &sim);
        let fault = StuckAtFault::new(n.lines().stem(n.outputs()[0]), true);
        let _ = kernel.detects_batch(fault, 0, &[1, 2]);
        let _ = kernel.detects(fault);
    }

    #[test]
    fn counts_batches_and_lanes_on_drop() {
        let n = and2();
        let g = n.outputs()[0];
        let sim = FaultSimulator::new(&n).unwrap();
        let metrics = ndetect_obs::global();
        let batches = metrics.counter("def2_tij_batches_total");
        let lanes = metrics.counter("def2_tij_lanes_total");
        let (b0, l0) = (batches.get(), lanes.get());
        {
            let mut kernel = TijKernel::new(&n, &sim);
            kernel.load(3, &[1, 2, 3]);
            kernel.load(0, &[0, 1, 2, 3]);
            let _ = kernel.detects(StuckAtFault::new(n.lines().stem(g), true));
        }
        // Other tests of this process may add concurrently, hence `>=`.
        assert!(batches.get() >= b0 + 2);
        assert!(lanes.get() >= l0 + 7);
    }
}
