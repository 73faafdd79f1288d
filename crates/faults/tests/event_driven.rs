//! Differential suite for the event-driven fault-propagation kernel:
//! on randomly generated netlists, every stuck-at and bridging
//! detection set produced by the frontier-pruned kernel through one
//! shared scratch must equal the independent
//! `ndetect_testutil::DetectionOracle` — plus
//! directed regression tests that the frontier early exit never skips
//! an observable primary output.

use ndetect_faults::{
    all_stuck_at_faults, enumerate_bridges, BridgeModel, FaultSimulator, StuckAtFault,
};
use ndetect_netlist::{Netlist, NetlistBuilder};
use ndetect_testutil::{arb_netlist_sized, DetectionOracle};
use proptest::prelude::*;

/// Asserts event-driven == oracle for every fault of a netlist, through
/// one scratch shared across all of them.
fn assert_kernels_agree(netlist: &Netlist) -> Result<(), TestCaseError> {
    let sim = FaultSimulator::new(netlist).expect("fits exhaustive sim");
    let oracle = DetectionOracle::new(netlist);
    let mut scratch = sim.new_scratch();
    for fault in all_stuck_at_faults(netlist) {
        prop_assert_eq!(
            sim.detection_set_stuck_with(netlist, fault, &mut scratch)
                .to_vec(),
            oracle.stuck_set(fault.line, fault.value),
            "stuck fault {}",
            fault.name(netlist)
        );
    }
    for b in enumerate_bridges(netlist, sim.reachability(), BridgeModel::FourWay) {
        prop_assert_eq!(
            sim.detection_set_bridge_with(netlist, &b, &mut scratch)
                .to_vec(),
            oracle.bridge_set(b.victim, b.victim_value, b.aggressor, b.aggressor_value),
            "bridge {}",
            b.name(netlist)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Small dense DAGs: single-block spaces, heavy gate-level
    /// reconvergence.
    #[test]
    fn kernels_agree_on_small_netlists(netlist in arb_netlist_sized(4, 24)) {
        assert_kernels_agree(&netlist)?;
    }

    /// Wider spaces (up to 4 blocks): exercises the active-block-range
    /// tightening.
    #[test]
    fn kernels_agree_on_multi_block_netlists(netlist in arb_netlist_sized(8, 16)) {
        assert_kernels_agree(&netlist)?;
    }
}

/// The fault effect dies in one branch (masked to a constant) but must
/// still be seen through the other: the early exit on dead frontier
/// rows must never swallow the live path to an observable output.
#[test]
fn early_exit_keeps_masked_and_live_paths_apart() {
    let mut b = NetlistBuilder::new("masked_branch");
    let a = b.input("a");
    let en = b.input("en");
    let x = b.and("x", &[a, en]).unwrap();
    // Branch 1: masked to constant 0 — the frontier dies here on every
    // block.
    let nen = b.not("nen", en).unwrap();
    let k0 = b.and("k0", &[en, nen]).unwrap(); // constant 0
    let masked = b.and("masked", &[x, k0]).unwrap();
    // Branch 2: a long inverter/buffer chain to a distant output — the
    // frontier must survive all the way down.
    let mut chain = x;
    for i in 0..6 {
        chain = if i % 2 == 0 {
            b.not(format!("c{i}"), chain).unwrap()
        } else {
            b.buf(format!("c{i}"), chain).unwrap()
        };
    }
    b.output(masked);
    b.output(chain);
    let n = b.build().unwrap();

    let sim = FaultSimulator::new(&n).unwrap();
    let oracle = DetectionOracle::new(&n);
    let mut scratch = sim.new_scratch();
    for fault in all_stuck_at_faults(&n) {
        let event = sim.detection_set_stuck_with(&n, fault, &mut scratch);
        let expected = oracle.stuck_set(fault.line, fault.value);
        assert_eq!(event.to_vec(), expected, "fault {}", fault.name(&n));
    }
    // Sanity anchor: x stuck-at-0 is detected through the chain on the
    // vector where a = en = 1, despite the masked branch never showing
    // it.
    let x_sa0 = StuckAtFault::new(n.lines().stem(x), false);
    assert_eq!(sim.detection_set_stuck(&n, x_sa0).to_vec(), vec![3]);
}

/// Reconvergent XOR cancellation: both fanins of an XOR change
/// identically, so the XOR output stays fault-free (it must drop off
/// the frontier), while a sibling path stays observable.
#[test]
fn xor_reconvergence_cancels_without_losing_detection() {
    let mut b = NetlistBuilder::new("xor_cancel");
    let a = b.input("a");
    let c = b.input("c");
    let x = b.and("x", &[a, c]).unwrap();
    let p = b.buf("p", x).unwrap();
    let q = b.buf("q", x).unwrap();
    let r = b.xor("r", &[p, q]).unwrap(); // always 0, faulty or not
    b.output(r);
    b.output(p);
    let n = b.build().unwrap();

    let sim = FaultSimulator::new(&n).unwrap();
    let oracle = DetectionOracle::new(&n);
    let mut scratch = sim.new_scratch();
    for fault in all_stuck_at_faults(&n) {
        let event = sim.detection_set_stuck_with(&n, fault, &mut scratch);
        let expected = oracle.stuck_set(fault.line, fault.value);
        assert_eq!(event.to_vec(), expected, "fault {}", fault.name(&n));
    }
    // x stuck-at-0: r never differs (cancellation) but p does on a=c=1.
    let x_sa0 = StuckAtFault::new(n.lines().stem(x), false);
    assert_eq!(sim.detection_set_stuck(&n, x_sa0).to_vec(), vec![3]);
}

/// A fault active only in the final 64-vector block: the active-range
/// tightening must not clip the detection words of untouched blocks
/// incorrectly.
#[test]
fn fault_active_only_in_last_block() {
    let mut b = NetlistBuilder::new("tail_active");
    let inputs: Vec<_> = (0..8).map(|i| b.input(format!("i{i}"))).collect();
    let g = b.and("g", &inputs).unwrap(); // 1 only on vector 255 (block 3)
    b.output(g);
    let n = b.build().unwrap();

    let sim = FaultSimulator::new(&n).unwrap();
    assert_eq!(sim.space().num_blocks(), 4);
    // g stuck-at-0: activation (good = 1) exists only in the last block.
    let g_sa0 = StuckAtFault::new(n.lines().stem(g), false);
    assert_eq!(sim.detection_set_stuck(&n, g_sa0).to_vec(), vec![255]);
    // g stuck-at-1: active everywhere except vector 255.
    let g_sa1 = StuckAtFault::new(n.lines().stem(g), true);
    assert_eq!(
        sim.detection_set_stuck(&n, g_sa1).to_vec(),
        (0..255).collect::<Vec<_>>()
    );
}
