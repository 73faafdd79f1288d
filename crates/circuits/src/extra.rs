//! Small combinational circuits: the ISCAS-85 `c17` benchmark and
//! `n`-bit ripple-carry adders.

use ndetect_netlist::{bench_format, Netlist, NetlistBuilder, NodeId};

/// The ISCAS-85 `c17` benchmark (6 NAND gates, 5 inputs, 2 outputs) —
/// the smallest standard combinational benchmark; handy as a sanity
/// fixture.
///
/// ```
/// let c17 = ndetect_circuits::extra::c17();
/// assert_eq!(c17.num_inputs(), 5);
/// assert_eq!(c17.num_gates(), 6);
/// ```
#[must_use]
pub fn c17() -> Netlist {
    const SRC: &str = "
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";
    bench_format::parse("c17", SRC).expect("c17 source is valid")
}

/// An `n`-bit ripple-carry adder: inputs `a0..`, `b0..`, `cin`; outputs
/// `s0..`, `cout`. A multi-level circuit with reconvergent fanout at
/// every bit — a good stress case for cone-restricted fault simulation.
///
/// # Panics
///
/// Panics if `bits == 0` or `2*bits + 1` exceeds the exhaustive limit.
#[must_use]
pub fn ripple_adder(bits: usize) -> Netlist {
    assert!(bits > 0);
    let mut b = NetlistBuilder::new(format!("add{bits}"));
    let a: Vec<NodeId> = (0..bits).map(|i| b.input(format!("a{i}"))).collect();
    let bb: Vec<NodeId> = (0..bits).map(|i| b.input(format!("b{i}"))).collect();
    let mut carry = b.input("cin");
    let mut sums = Vec::with_capacity(bits);
    for i in 0..bits {
        let axb = b.xor(format!("axb{i}"), &[a[i], bb[i]]).expect("fresh");
        let s = b.xor(format!("s{i}"), &[axb, carry]).expect("fresh");
        let g = b.and(format!("g{i}"), &[a[i], bb[i]]).expect("fresh");
        let p = b.and(format!("p{i}"), &[axb, carry]).expect("fresh");
        carry = b.or(format!("c{i}"), &[g, p]).expect("fresh");
        sums.push(s);
    }
    for s in sums {
        b.output(s);
    }
    b.output(carry);
    b.build().expect("adder is a valid netlist")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_adds() {
        let n = ripple_adder(3);
        for a in 0..8u32 {
            for c in 0..16u32 {
                let bv = c >> 1;
                if bv >= 8 {
                    continue;
                }
                let cin = c & 1;
                let mut bits = Vec::new();
                for i in 0..3 {
                    bits.push((a >> i) & 1 == 1);
                }
                for i in 0..3 {
                    bits.push((bv >> i) & 1 == 1);
                }
                bits.push(cin == 1);
                let outs = n.eval_bool(&bits);
                let mut sum = 0u32;
                for (i, &s) in outs.iter().take(3).enumerate() {
                    sum |= u32::from(s) << i;
                }
                let cout = u32::from(outs[3]);
                assert_eq!(a + bv + cin, sum + 8 * cout, "a={a} b={bv} cin={cin}");
            }
        }
    }

    #[test]
    fn c17_known_vector() {
        let n = c17();
        assert_eq!(n.eval_bool(&[true; 5]), vec![true, false]);
    }
}
