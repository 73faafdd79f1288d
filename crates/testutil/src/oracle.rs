//! Reference detection sets, computed from the fault definitions and
//! sharing no code with the production fault simulator.
//!
//! [`DetectionOracle`] simulates a netlist over its exhaustive input
//! space, 64 vectors per word, from its own input words (vector `v`'s
//! value on input `i` is bit `I-1-i` of `v`) and its own fault-free
//! words. A fault re-simulates only its site's forward closure, found
//! through [`Netlist::sinks`]. Results are ascending vector indices.
//! [`with_stuck_line`] builds the brute-force reference the oracle is
//! checked against with [`Netlist::eval_bool`].

use ndetect_netlist::{GateKind, LineId, LineKind, Netlist, NetlistBuilder, NodeId, Sink};

/// Exhaustive detection sets of stuck-at and four-way bridging faults.
pub struct DetectionOracle<'a> {
    netlist: &'a Netlist,
    num_patterns: usize,
    /// Fault-free words, block-major: node `i` on block `b` is word
    /// `b * num_nodes + i`.
    good: Vec<u64>,
}

impl<'a> DetectionOracle<'a> {
    /// Simulates `netlist` fault-free on all `2^I` input vectors.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 24 inputs.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let num_inputs = netlist.num_inputs();
        assert!(num_inputs <= 24, "exhaustive oracle: at most 24 inputs");
        let num_patterns = 1usize << num_inputs;
        let n = netlist.num_nodes();
        let mut good = vec![0u64; num_patterns.div_ceil(64) * n];
        for (block, words) in good.chunks_exact_mut(n).enumerate() {
            for (i, &pi) in netlist.inputs().iter().enumerate() {
                let shift = num_inputs - 1 - i;
                words[pi.index()] = (0..64)
                    .filter(|&k| (64 * block + k) >> shift & 1 == 1)
                    .fold(0, |w, k| w | 1 << k);
            }
            for &id in netlist.topo_order() {
                let node = netlist.node(id);
                if node.kind() != GateKind::Input {
                    words[id.index()] =
                        eval_word(node.kind(), node.fanins().iter().map(|f| words[f.index()]));
                }
            }
        }
        DetectionOracle {
            netlist,
            num_patterns,
            good,
        }
    }

    /// `T(f)` of `line` stuck at `value`: a stem forces its node, a
    /// gate-pin branch overrides that one operand, and an output-slot
    /// branch changes only that output.
    #[must_use]
    pub fn stuck_set(&self, line: LineId, value: bool) -> Vec<usize> {
        let stuck = if value { u64::MAX } else { 0 };
        match *self.netlist.lines().line(line).kind() {
            LineKind::Stem { node } => self.propagate(node, |_| stuck),
            LineKind::Branch {
                sink: Sink::GatePin { gate, pin },
                ..
            } => {
                let g = self.netlist.node(gate);
                self.propagate(gate, |good| {
                    let operands = g.fanins().iter().enumerate();
                    eval_word(
                        g.kind(),
                        operands.map(|(p, f)| if p == pin { stuck } else { good[f.index()] }),
                    )
                })
            }
            LineKind::Branch {
                node,
                sink: Sink::OutputSlot { .. },
            } => self.collect(|good| good[node.index()] ^ stuck),
        }
    }

    /// `T(g)` of the bridge that flips the `victim` stem wherever the
    /// fault-free circuit has `victim = victim_value` and `aggressor =
    /// aggressor_value`.
    #[must_use]
    pub fn bridge_set(
        &self,
        victim: LineId,
        victim_value: bool,
        aggressor: LineId,
        aggressor_value: bool,
    ) -> Vec<usize> {
        let lines = self.netlist.lines();
        let (v, a) = (lines.line(victim).driver(), lines.line(aggressor).driver());
        let literal = |word: u64, value: bool| if value { word } else { !word };
        self.propagate(v, |good| {
            let active =
                literal(good[v.index()], victim_value) & literal(good[a.index()], aggressor_value);
            good[v.index()] ^ active
        })
    }

    /// Replaces `root`'s word by `faulty(good words)` on every block,
    /// re-simulates the gates `root` reaches, and collects the vectors on
    /// which some output slot differs.
    fn propagate(&self, root: NodeId, faulty: impl Fn(&[u64]) -> u64) -> Vec<usize> {
        let n = self.netlist.num_nodes();
        let mut reached = vec![false; n];
        reached[root.index()] = true;
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            for sink in self.netlist.sinks(node) {
                if let Sink::GatePin { gate, .. } = *sink {
                    if !std::mem::replace(&mut reached[gate.index()], true) {
                        stack.push(gate);
                    }
                }
            }
        }
        let gates: Vec<NodeId> = (self.netlist.topo_order().iter().copied())
            .filter(|&id| id != root && reached[id.index()])
            .collect();
        let mut words = vec![0u64; n];
        self.collect(|good| {
            words[root.index()] = faulty(good);
            for &g in &gates {
                let node = self.netlist.node(g);
                let operands = node.fanins().iter().map(|f| {
                    if reached[f.index()] {
                        words[f.index()]
                    } else {
                        good[f.index()]
                    }
                });
                words[g.index()] = eval_word(node.kind(), operands);
            }
            (self.netlist.outputs().iter())
                .filter(|po| reached[po.index()])
                .fold(0, |det, po| det | (words[po.index()] ^ good[po.index()]))
        })
    }

    /// The vectors whose bit is set in `detect(good words of the block)`.
    fn collect(&self, mut detect: impl FnMut(&[u64]) -> u64) -> Vec<usize> {
        let mut vectors = Vec::new();
        for (block, good) in self.good.chunks_exact(self.netlist.num_nodes()).enumerate() {
            let word = detect(good);
            vectors.extend(
                (0..64)
                    .filter(|&k| word >> k & 1 == 1)
                    .map(|k| 64 * block + k),
            );
        }
        vectors.retain(|&v| v < self.num_patterns);
        vectors
    }
}

/// One gate over 64 vectors, from its operand words in pin order.
fn eval_word(kind: GateKind, mut operands: impl Iterator<Item = u64>) -> u64 {
    match kind {
        GateKind::And => operands.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Nand => !operands.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Or => operands.fold(0, |acc, w| acc | w),
        GateKind::Nor => !operands.fold(0, |acc, w| acc | w),
        GateKind::Xor => operands.fold(0, |acc, w| acc ^ w),
        GateKind::Xnor => !operands.fold(0, |acc, w| acc ^ w),
        GateKind::Buf => operands.next().expect("one operand"),
        GateKind::Not => !operands.next().expect("one operand"),
        GateKind::Const0 => 0,
        GateKind::Const1 => u64::MAX,
        GateKind::Input => unreachable!("inputs take their pattern words"),
    }
}

/// The circuit with `line` cut and its consumers tied to a constant
/// `value` gate: every consumer of a stem, the one pin of a gate-pin
/// branch, or the one slot of an output-slot branch. Inputs keep their
/// order, so vector indices mean the same in both circuits.
///
/// # Panics
///
/// Panics if `line` is not a line of `netlist`.
#[must_use]
pub fn with_stuck_line(netlist: &Netlist, line: LineId, value: bool) -> Netlist {
    const CUT: &str = "<stuck>";
    let site = *netlist.lines().line(line).kind();
    let mut b = NetlistBuilder::new(netlist.name());
    let kind = if value {
        GateKind::Const1
    } else {
        GateKind::Const0
    };
    b.gate(kind, CUT, &[]).expect("fresh name");
    for id in netlist.node_ids() {
        let node = netlist.node(id);
        if node.kind() == GateKind::Input {
            b.input(netlist.node_name(id));
            continue;
        }
        let fanins: Vec<&str> = (node.fanins().iter().enumerate())
            .map(|(pin, &f)| {
                let cut = match site {
                    LineKind::Stem { node } => f == node,
                    LineKind::Branch {
                        sink: Sink::GatePin { gate, pin: p },
                        ..
                    } => (gate, p) == (id, pin),
                    LineKind::Branch { .. } => false,
                };
                if cut {
                    CUT
                } else {
                    netlist.node_name(f)
                }
            })
            .collect();
        b.gate_by_name(node.kind(), netlist.node_name(id), &fanins)
            .expect("same gate, same arity");
    }
    for (slot, &po) in netlist.outputs().iter().enumerate() {
        let cut = match site {
            LineKind::Stem { node } => po == node,
            LineKind::Branch {
                sink: Sink::OutputSlot { slot: s },
                ..
            } => s == slot,
            LineKind::Branch { .. } => false,
        };
        b.output_by_name(if cut { CUT } else { netlist.node_name(po) });
    }
    b.build().expect("cutting a line keeps the DAG acyclic")
}
