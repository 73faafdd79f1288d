//! Two-valued bit-parallel gate evaluation.

use ndetect_netlist::{GateKind, NodeId};

/// Evaluates one gate over 64 vectors at once.
///
/// `values` is the per-node word buffer for the current block; `fanins`
/// selects the operand words. Sources (`Input`) must never be evaluated —
/// their words are filled from the pattern space by the caller.
///
/// ```
/// use ndetect_netlist::{GateKind, NodeId};
/// use ndetect_sim::eval_gate_word;
/// let values = [0b1100u64, 0b1010u64];
/// let fanins = [NodeId::new(0), NodeId::new(1)];
/// assert_eq!(eval_gate_word(GateKind::And, &fanins, &values) & 0xF, 0b1000);
/// assert_eq!(eval_gate_word(GateKind::Xor, &fanins, &values) & 0xF, 0b0110);
/// ```
///
/// # Panics
///
/// Panics (debug) if called for a source kind.
#[must_use]
pub fn eval_gate_word(kind: GateKind, fanins: &[NodeId], values: &[u64]) -> u64 {
    let mut ops = fanins.iter().map(|f| values[f.index()]);
    match kind {
        GateKind::Input => {
            debug_assert!(false, "inputs are filled by the pattern space");
            0
        }
        GateKind::Const0 => 0,
        GateKind::Const1 => u64::MAX,
        GateKind::Buf => ops.next().unwrap_or(0),
        GateKind::Not => !ops.next().unwrap_or(0),
        GateKind::And => ops.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Nand => !ops.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Or => ops.fold(0, |acc, w| acc | w),
        GateKind::Nor => !ops.fold(0, |acc, w| acc | w),
        GateKind::Xor => ops.fold(0, |acc, w| acc ^ w),
        GateKind::Xnor => !ops.fold(0, |acc, w| acc ^ w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_netlist::{GateKind, NetlistBuilder};
    use ndetect_testutil::{with_stuck_line, DetectionOracle};

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn word_eval_matches_bool_eval_for_all_kinds_and_operands() {
        // Exhaustive check: for every gate kind with 1..=3 operands, every
        // combination of operand bits in a 8-bit window must match the
        // scalar oracle.
        for &kind in GateKind::all() {
            if kind.is_source() {
                continue;
            }
            for arity in 1..=3usize {
                if kind == GateKind::Buf || kind == GateKind::Not {
                    if arity != 1 {
                        continue;
                    }
                } else if arity < 1 {
                    continue;
                }
                // Operand words: operand j's bit p = bit j of p (so the 2^arity
                // possible operand combinations all appear among p values).
                let values: Vec<u64> = (0..arity)
                    .map(|j| {
                        let mut w = 0u64;
                        for p in 0..64u64 {
                            if (p >> j) & 1 == 1 {
                                w |= 1 << p;
                            }
                        }
                        w
                    })
                    .collect();
                let word = eval_gate_word(kind, &ids(arity), &values);
                for p in 0..64usize {
                    let operands: Vec<bool> = (0..arity).map(|j| (p >> j) & 1 == 1).collect();
                    let expect = kind.eval_bool(&operands);
                    assert_eq!((word >> p) & 1 == 1, expect, "{kind} arity={arity} p={p:b}");
                }
            }
        }
    }

    #[test]
    fn constants() {
        assert_eq!(eval_gate_word(GateKind::Const0, &[], &[]), 0);
        assert_eq!(eval_gate_word(GateKind::Const1, &[], &[]), u64::MAX);
    }

    #[test]
    fn pin_override_matches_buffer_substitution() {
        // A gate-pin stuck-at, injected by the testutil oracle as an
        // operand override, must equal the circuit whose pin is cut and
        // fed from a constant gate. Every input also drives an output,
        // so every gate pin is a branch line of its own.
        for &kind in GateKind::all() {
            if kind.is_source() {
                continue;
            }
            for arity in 1..=kind.arity().1.min(3) {
                let mut b = NetlistBuilder::new("pin");
                let inputs: Vec<NodeId> = (0..arity).map(|i| b.input(format!("i{i}"))).collect();
                let g = b.gate(kind, "g", &inputs).unwrap();
                b.output(g);
                for &i in &inputs {
                    b.output(i);
                }
                let n = b.build().unwrap();
                let oracle = DetectionOracle::new(&n);
                for (pin, &input) in inputs.iter().enumerate() {
                    // Sink order puts the gate pin before the output slot.
                    let branch = n.lines().branches(input)[0];
                    for value in [false, true] {
                        let cut = with_stuck_line(&n, branch, value);
                        let space = crate::PatternSpace::new(arity).unwrap();
                        let substituted: Vec<usize> = (0..space.num_patterns())
                            .filter(|&v| {
                                n.eval_bool(&space.vector_bits(v))
                                    != cut.eval_bool(&space.vector_bits(v))
                            })
                            .collect();
                        assert_eq!(
                            oracle.stuck_set(branch, value),
                            substituted,
                            "{kind} arity={arity} pin={pin} value={value}"
                        );
                    }
                }
            }
        }
    }
}
