//! Pessimistic three-valued (0/1/X) simulation of partially specified
//! vectors: the oracle for the paper's Definition 2, which asks whether
//! the *common bits* `tij` of two tests (specified where `ti` and `tj`
//! agree, unknown elsewhere) already detect a fault. [`detects_stuck`]
//! answers that for one fault and one [`PartialVector`] at a time.

use ndetect_netlist::{GateKind, LineId, LineKind, Netlist, Sink};
use std::fmt;

/// A three-valued logic value: 0, 1, or unknown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Trit {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / unspecified.
    #[default]
    X,
}

impl Trit {
    /// Converts a Boolean into a definite trit.
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// Returns the Boolean value if definite, `None` for `X`.
    #[must_use]
    pub fn to_option(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::X => None,
        }
    }

    /// Three-valued complement (`X` maps to `X`). An inherent method
    /// rather than `std::ops::Not` so call sites need no trait import.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            Trit::Zero => Trit::One,
            Trit::One => Trit::Zero,
            Trit::X => Trit::X,
        }
    }
}

/// Evaluates one gate in pessimistic three-valued logic.
///
/// ```
/// use ndetect_netlist::GateKind;
/// use ndetect_testutil::threeval::{eval_gate_trit, Trit};
/// // A controlling 0 forces an AND output even with an X present.
/// assert_eq!(eval_gate_trit(GateKind::And, &[Trit::Zero, Trit::X]), Trit::Zero);
/// assert_eq!(eval_gate_trit(GateKind::And, &[Trit::One, Trit::X]), Trit::X);
/// assert_eq!(eval_gate_trit(GateKind::Xor, &[Trit::One, Trit::X]), Trit::X);
/// ```
#[must_use]
pub fn eval_gate_trit(kind: GateKind, operands: &[Trit]) -> Trit {
    let any = |t: Trit| operands.contains(&t);
    let out = match kind {
        GateKind::Input => return Trit::X,
        GateKind::Const0 => Trit::Zero,
        GateKind::Const1 => Trit::One,
        GateKind::Buf | GateKind::Not => operands[0],
        // A controlling operand decides; otherwise any X leaves X.
        GateKind::And | GateKind::Nand if any(Trit::Zero) => Trit::Zero,
        GateKind::Or | GateKind::Nor if any(Trit::One) => Trit::One,
        _ if any(Trit::X) => Trit::X,
        GateKind::And | GateKind::Nand => Trit::One,
        GateKind::Or | GateKind::Nor => Trit::Zero,
        GateKind::Xor | GateKind::Xnor => {
            Trit::from_bool(operands.iter().filter(|&&t| t == Trit::One).count() % 2 == 1)
        }
    };
    if matches!(
        kind,
        GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
    ) {
        out.not()
    } else {
        out
    }
}

/// Levelized three-valued evaluation of a whole netlist.
///
/// Returns the trit of every node, indexed by node id.
///
/// # Panics
///
/// Panics if `inputs.len() != netlist.num_inputs()`.
#[must_use]
pub fn eval_trits_all(netlist: &Netlist, inputs: &[Trit]) -> Vec<Trit> {
    eval_with_fault(netlist, inputs, None)
}

/// [`eval_trits_all`] with `fault = (line, value)` injected: a stem
/// forces its node, a gate-pin branch overrides that one operand (an
/// output-slot branch changes no node).
fn eval_with_fault(netlist: &Netlist, inputs: &[Trit], fault: Option<(LineId, bool)>) -> Vec<Trit> {
    assert_eq!(inputs.len(), netlist.num_inputs());
    let site =
        fault.map(|(line, value)| (*netlist.lines().line(line).kind(), Trit::from_bool(value)));
    let mut values = vec![Trit::X; netlist.num_nodes()];
    for (&pi, &v) in netlist.inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    let mut operands: Vec<Trit> = Vec::new();
    for &id in netlist.topo_order() {
        let node = netlist.node(id);
        if node.kind() != GateKind::Input {
            operands.clear();
            operands.extend(node.fanins().iter().map(|f| values[f.index()]));
            if let Some((
                LineKind::Branch {
                    sink: Sink::GatePin { gate, pin },
                    ..
                },
                v,
            )) = site
            {
                if gate == id {
                    operands[pin] = v;
                }
            }
            values[id.index()] = eval_gate_trit(node.kind(), &operands);
        }
        if let Some((LineKind::Stem { node }, v)) = site {
            if node == id {
                values[id.index()] = v;
            }
        }
    }
    values
}

/// Whether the partial vector **definitely** detects `line` stuck at
/// `value`: some primary output slot is definite in both the fault-free
/// and the faulty circuit, and the two differ, under pessimistic
/// three-valued simulation.
///
/// ```
/// use ndetect_netlist::NetlistBuilder;
/// use ndetect_testutil::threeval::{detects_stuck, PartialVector};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.and("g", &[a, c])?;
/// b.output(g);
/// let n = b.build()?;
/// let g_stem = n.lines().stem(g);
/// // 1X does not definitely detect g/0; 11 does.
/// assert!(!detects_stuck(&n, g_stem, false, &PartialVector::common_bits(2, 2, 3)));
/// assert!(detects_stuck(&n, g_stem, false, &PartialVector::from_vector(2, 3)));
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `line` is not a line of `netlist` or the vector's input
/// count differs from the netlist's.
#[must_use]
pub fn detects_stuck(netlist: &Netlist, line: LineId, value: bool, vector: &PartialVector) -> bool {
    let inputs = vector.trits();
    let good = eval_trits_all(netlist, &inputs);
    let faulty = eval_with_fault(netlist, &inputs, Some((line, value)));
    let slot_fault = match *netlist.lines().line(line).kind() {
        LineKind::Branch {
            sink: Sink::OutputSlot { slot },
            ..
        } => Some(slot),
        _ => None,
    };
    netlist.outputs().iter().enumerate().any(|(slot, &po)| {
        let f = if slot_fault == Some(slot) {
            Trit::from_bool(value)
        } else {
            faulty[po.index()]
        };
        matches!((good[po.index()].to_option(), f.to_option()), (Some(g), Some(f)) if g != f)
    })
}

/// A partially specified input vector: each input is 0, 1, or
/// unspecified.
///
/// Input `i`'s bit is bit `I-1-i` of the encoding, so a fully specified
/// partial vector's values equal the vector index.
///
/// ```
/// use ndetect_testutil::threeval::{PartialVector, Trit};
/// // Common bits of vectors 6 (0110) and 7 (0111): 011X.
/// let tij = PartialVector::common_bits(4, 6, 7);
/// assert_eq!(tij.trit(0), Trit::Zero);
/// assert_eq!(tij.trit(1), Trit::One);
/// assert_eq!(tij.trit(2), Trit::One);
/// assert_eq!(tij.trit(3), Trit::X);
/// assert_eq!(tij.to_string(), "011X");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PartialVector {
    num_inputs: usize,
    /// Bit `I-1-i` set ⇔ input `i` is specified.
    cares: u64,
    /// Values on specified bits (0 elsewhere).
    values: u64,
}

impl PartialVector {
    /// A fully specified partial vector equal to `vector`.
    ///
    /// # Panics
    ///
    /// Panics if `vector` is outside the space of `num_inputs` inputs.
    #[must_use]
    pub fn from_vector(num_inputs: usize, vector: usize) -> Self {
        Self::common_bits(num_inputs, vector, vector)
    }

    /// The paper's `tij`: specified where `ti` and `tj` agree (with their
    /// common value), unspecified elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if either vector is outside the space of `num_inputs`
    /// inputs.
    #[must_use]
    pub fn common_bits(num_inputs: usize, ti: usize, tj: usize) -> Self {
        assert!(num_inputs < 64, "at most 63 inputs");
        let mask = (1u64 << num_inputs) - 1;
        assert!((ti as u64 | tj as u64) & !mask == 0, "vector out of range");
        let agree = !((ti ^ tj) as u64) & mask;
        PartialVector {
            num_inputs,
            cares: agree,
            values: ti as u64 & agree,
        }
    }

    /// The trit assigned to input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not below the input count.
    #[must_use]
    pub fn trit(&self, input: usize) -> Trit {
        assert!(input < self.num_inputs);
        let bit = self.num_inputs - 1 - input;
        if (self.cares >> bit) & 1 == 0 {
            Trit::X
        } else {
            Trit::from_bool((self.values >> bit) & 1 == 1)
        }
    }

    /// All input trits, in input order (ready for [`eval_trits_all`]).
    #[must_use]
    pub fn trits(&self) -> Vec<Trit> {
        (0..self.num_inputs).map(|i| self.trit(i)).collect()
    }

    /// Returns `true` if `vector` is consistent with every specified bit
    /// (i.e. `vector` is a completion of this partial vector).
    #[must_use]
    pub fn is_completion(&self, vector: usize) -> bool {
        (vector as u64 ^ self.values) & self.cares == 0
    }
}

impl fmt::Display for PartialVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.trits() {
            f.write_str(t.to_option().map_or("X", |b| if b { "1" } else { "0" }))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_netlist::NetlistBuilder;

    #[test]
    fn trit_basics() {
        assert_eq!(Trit::from_bool(true), Trit::One);
        assert_eq!(Trit::One.not(), Trit::Zero);
        assert_eq!(Trit::X.not(), Trit::X);
        assert_eq!(Trit::X.to_option(), None);
        assert_eq!(Trit::Zero.to_option(), Some(false));
        assert_eq!(Trit::default(), Trit::X);
    }

    #[test]
    fn three_valued_eval_is_consistent_with_two_valued_on_definite_inputs() {
        for &kind in GateKind::all() {
            if kind.is_source() {
                continue;
            }
            let arity = kind.arity().1.min(3);
            for assign in 0..(1 << arity) {
                let bools: Vec<bool> = (0..arity).map(|j| (assign >> j) & 1 == 1).collect();
                let trits: Vec<Trit> = bools.iter().map(|&b| Trit::from_bool(b)).collect();
                assert_eq!(
                    eval_gate_trit(kind, &trits),
                    Trit::from_bool(kind.eval_bool(&bools)),
                    "{kind} {bools:?}"
                );
            }
        }
    }

    #[test]
    fn pessimism_is_sound_for_single_x() {
        // If the 3-valued result is definite, both completions of the X
        // must agree with it.
        for &kind in GateKind::all() {
            if kind.is_source() || matches!(kind, GateKind::Buf | GateKind::Not) {
                continue;
            }
            for fixed in 0..4u8 {
                let a = fixed & 1 == 1;
                let b = fixed >> 1 & 1 == 1;
                let trits = [Trit::from_bool(a), Trit::from_bool(b), Trit::X];
                let out = eval_gate_trit(kind, &trits);
                if let Some(v) = out.to_option() {
                    for x in [false, true] {
                        assert_eq!(kind.eval_bool(&[a, b, x]), v, "{kind} a={a} b={b} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn common_bits_matches_paper_convention() {
        // 6 = 0110, 12 = 1100 agree on inputs 1 (=1) and 3 (=0).
        let tij = PartialVector::common_bits(4, 6, 12);
        assert_eq!(tij.trit(0), Trit::X);
        assert_eq!(tij.trit(1), Trit::One);
        assert_eq!(tij.trit(2), Trit::X);
        assert_eq!(tij.trit(3), Trit::Zero);
        assert!(tij.is_completion(6));
        assert!(tij.is_completion(12));
        assert!(!tij.is_completion(0));
        assert_eq!(tij.to_string(), "X1X0");
    }

    #[test]
    fn full_vector_is_fully_specified() {
        let pv = PartialVector::from_vector(5, 19);
        assert!(pv.trits().iter().all(|t| t.to_option().is_some()));
        assert!(pv.is_completion(19));
        assert!(!pv.is_completion(18));
        let pv = PartialVector::from_vector(4, 6);
        assert_eq!(
            pv.trits(),
            vec![Trit::Zero, Trit::One, Trit::One, Trit::Zero]
        );
    }

    #[test]
    fn netlist_eval_with_x_inputs() {
        // g = AND(a, OR(b, c)): with a=0 the output is 0 regardless of X.
        let mut bld = NetlistBuilder::new("t");
        let a = bld.input("a");
        let b = bld.input("b");
        let c = bld.input("c");
        let o = bld.or("o", &[b, c]).unwrap();
        let g = bld.and("g", &[a, o]).unwrap();
        bld.output(g);
        let n = bld.build().unwrap();
        let vals = eval_trits_all(&n, &[Trit::Zero, Trit::X, Trit::X]);
        assert_eq!(vals[g.index()], Trit::Zero);
        let vals = eval_trits_all(&n, &[Trit::One, Trit::X, Trit::Zero]);
        assert_eq!(vals[g.index()], Trit::X);
        let vals = eval_trits_all(&n, &[Trit::One, Trit::One, Trit::X]);
        assert_eq!(vals[g.index()], Trit::One);
    }

    #[test]
    fn eval_trits_matches_bool_eval_when_fully_specified() {
        let mut bld = NetlistBuilder::new("t");
        let a = bld.input("a");
        let b = bld.input("b");
        let g1 = bld.nand("g1", &[a, b]).unwrap();
        let g2 = bld.xor("g2", &[g1, a]).unwrap();
        bld.output(g2);
        let n = bld.build().unwrap();
        for v in 0..4usize {
            let bits = [v >> 1 & 1 == 1, v & 1 == 1];
            let trits: Vec<Trit> = bits.iter().map(|&x| Trit::from_bool(x)).collect();
            let tv = eval_trits_all(&n, &trits);
            let bv = n.eval_bool_all(&bits);
            for id in n.node_ids() {
                assert_eq!(tv[id.index()], Trit::from_bool(bv[id.index()]));
            }
        }
    }
}
