//! Checks on the oracles themselves: the detection-set oracle against
//! per-vector `Netlist::eval_bool` brute force on random netlists and
//! against the paper's Table 1 sets, and three-valued pessimism.

use ndetect_netlist::{GateKind, Netlist};
use ndetect_testutil::threeval::{eval_gate_trit, PartialVector, Trit};
use ndetect_testutil::{arb_netlist_sized, with_stuck_line, DetectionOracle};
use proptest::prelude::*;

/// Vector `v`'s input values: input `i` is bit `I-1-i` of `v`.
fn bits(num_inputs: usize, v: usize) -> Vec<bool> {
    (0..num_inputs)
        .map(|i| v >> (num_inputs - 1 - i) & 1 == 1)
        .collect()
}

/// Per vector, whether `faulty` and `netlist` disagree at some output:
/// one `eval_bool` pair per vector.
fn differs(netlist: &Netlist, faulty: &Netlist) -> Vec<bool> {
    let i = netlist.num_inputs();
    (0..1 << i)
        .map(|v| netlist.eval_bool(&bits(i, v)) != faulty.eval_bool(&bits(i, v)))
        .collect()
}

/// The vectors whose flag is set.
fn ones(flags: impl IntoIterator<Item = bool>) -> Vec<usize> {
    (0..)
        .zip(flags)
        .filter_map(|(v, set)| set.then_some(v))
        .collect()
}

/// The paper's Figure 1 circuit, from the corpus file.
fn figure1() -> Netlist {
    let text = include_str!("../../../tests/data/corpus/figure1.bench");
    ndetect_netlist::bench_format::parse("figure1", text).unwrap()
}

#[test]
fn oracle_reproduces_the_papers_table1_sets() {
    let n = figure1();
    let oracle = DetectionOracle::new(&n);
    let by_paper = |paper_line: usize, v: bool| {
        oracle.stuck_set(ndetect_netlist::LineId::new(paper_line - 1), v)
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
    let stem = |name: &str| n.lines().stem(n.node_by_name(name).unwrap());
    // g0 = (9,0,10,1) and g6 = (11,0,9,1).
    assert_eq!(
        oracle.bridge_set(stem("9"), false, stem("10"), true),
        vec![6, 7]
    );
    assert_eq!(
        oracle.bridge_set(stem("11"), false, stem("9"), true),
        vec![12]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stuck-at line (stems, gate pins, output slots) and every
    /// ordered pair of multi-input gate stems as a bridge, on spaces of
    /// up to four blocks. A bridge is brute-forced as its victim stuck
    /// at the flipped value, on the vectors that activate it.
    #[test]
    fn oracle_matches_brute_force_on_random_netlists(netlist in arb_netlist_sized(8, 14)) {
        let oracle = DetectionOracle::new(&netlist);
        for line in netlist.lines().lines() {
            for value in [false, true] {
                let faulty = with_stuck_line(&netlist, line.id(), value);
                prop_assert_eq!(
                    oracle.stuck_set(line.id(), value),
                    ones(differs(&netlist, &faulty)),
                    "{} stuck-at {}", line.name(), value
                );
            }
        }
        let i = netlist.num_inputs();
        let good: Vec<Vec<bool>> = (0..1 << i).map(|v| netlist.eval_bool_all(&bits(i, v))).collect();
        let stems = netlist.multi_input_gate_stems();
        for &victim in &stems {
            let v = netlist.lines().line(victim).driver();
            for a1 in [false, true] {
                let flipped = differs(&netlist, &with_stuck_line(&netlist, victim, !a1));
                for &aggressor in stems.iter().filter(|&&a| a != victim) {
                    let a = netlist.lines().line(aggressor).driver();
                    for a2 in [false, true] {
                        let active = good.iter().map(|all| all[v.index()] == a1 && all[a.index()] == a2);
                        prop_assert_eq!(
                            oracle.bridge_set(victim, a1, aggressor, a2),
                            ones(active.zip(&flipped).map(|(on, &d)| on && d))
                        );
                    }
                }
            }
        }
    }

    /// Three-valued gate evaluation is the pessimistic abstraction of
    /// two-valued evaluation: whenever the trit result is definite, every
    /// completion of the X operands agrees with it (X is always allowed).
    /// The operands are a random common-bits vector.
    #[test]
    fn threeval_is_a_sound_abstraction(
        kind_idx in 0usize..8,
        arity in 2usize..=4,
        ti in 0usize..16,
        tj in 0usize..16,
    ) {
        use GateKind::*;
        let kind = [And, Nand, Or, Nor, Xor, Xnor, Buf, Not][kind_idx];
        let arity = kind.arity().1.min(arity);
        let mask = (1 << arity) - 1;
        let operands = PartialVector::common_bits(arity, ti & mask, tj & mask);
        if let Some(out) = eval_gate_trit(kind, &operands.trits()).to_option() {
            for v in (0..=mask).filter(|&v| operands.is_completion(v)) {
                prop_assert_eq!(kind.eval_bool(&bits(arity, v)), out, "{} {}", kind, operands);
            }
        }
    }

    /// Common-bits vectors are exactly the specified-where-agreeing
    /// partial vectors, and both endpoints complete them.
    #[test]
    fn common_bits_properties(num_inputs in 1usize..=10, a in any::<u64>(), b in any::<u64>()) {
        let ti = (a as usize) % (1 << num_inputs);
        let tj = (b as usize) % (1 << num_inputs);
        let tij = PartialVector::common_bits(num_inputs, ti, tj);
        prop_assert!(tij.is_completion(ti));
        prop_assert!(tij.is_completion(tj));
        let (bi, bj) = (bits(num_inputs, ti), bits(num_inputs, tj));
        for i in 0..num_inputs {
            match tij.trit(i) {
                Trit::X => prop_assert_ne!(bi[i], bj[i]),
                t => {
                    prop_assert_eq!(bi[i], bj[i]);
                    prop_assert_eq!(t, Trit::from_bool(bi[i]));
                }
            }
        }
        // Symmetry.
        prop_assert_eq!(tij, PartialVector::common_bits(num_inputs, tj, ti));
    }
}
