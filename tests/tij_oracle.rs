//! The 64-lane Definition-2 kernel against its scalar oracle: for every
//! fault and every lane of a batch, bit `L` of `TijKernel::detects` and
//! of `TijKernel::detects_batch` must equal
//! `ndetect_testutil::threeval::detects_stuck` on `tij(fixed, lanes[L])`.
//!
//! One kernel serves every batch of a netlist, so state left over from
//! an earlier batch or fault would show up as a mismatch.

use ndetect::faults::{
    all_stuck_at_faults, FaultSimulator, FaultUniverse, StuckAtFault, TijKernel, UniverseOptions,
};
use ndetect::netlist::{GateKind, Netlist, NetlistBuilder};
use ndetect::seq::{expand, FaultModel};
use ndetect_testutil::arb_netlist_sized;
use ndetect_testutil::threeval::{detects_stuck, PartialVector};
use proptest::prelude::*;

/// Loads one batch and compares every fault in `faults` with the
/// oracle, lane by lane, in both batch shapes: one focused batch per
/// fault, and one load shared by every fault.
fn check_batch(
    kernel: &mut TijKernel<'_>,
    netlist: &Netlist,
    sim: &FaultSimulator,
    faults: &[StuckAtFault],
    fixed: u32,
    lanes: &[u32],
) -> Result<(), String> {
    // Each focused batch follows a whole-netlist load of the complemented
    // batch, so a focused pass that skipped a node it reads would see
    // that batch's rails there.
    let mask = sim.space().num_patterns() as u32 - 1;
    let decoy: Vec<u32> = lanes.iter().map(|&t| !t & mask).collect();
    let alone: Vec<u64> = faults
        .iter()
        .map(|&f| {
            kernel.load(!fixed & mask, &decoy);
            kernel.detects_batch(f, fixed, lanes)
        })
        .collect();
    kernel.load(fixed, lanes);
    for (&fault, &alone) in faults.iter().zip(&alone) {
        let shared = kernel.detects(fault);
        if alone != shared {
            return Err(format!(
                "{}: shared batch {shared:#x}, focused batch {alone:#x}",
                fault.name(netlist)
            ));
        }
        if shared >> 1 >> (lanes.len() - 1) != 0 {
            return Err(format!("{}: bits beyond the batch", fault.name(netlist)));
        }
        for (lane, &t) in lanes.iter().enumerate() {
            let tij = PartialVector::common_bits(netlist.num_inputs(), fixed as usize, t as usize);
            let want = detects_stuck(netlist, fault.line, fault.value, &tij);
            if (shared >> lane & 1 == 1) != want {
                return Err(format!(
                    "{}: tij({fixed}, {t}) = {tij}: kernel {}, oracle {want}",
                    fault.name(netlist),
                    !want
                ));
            }
        }
    }
    Ok(())
}

/// Every stuck-at fault of `netlist` (stems, gate pins and output
/// slots) against batches of `chunk` consecutive vectors, for each
/// `fixed` vector.
fn check_exhaustive(netlist: &Netlist, faults: &[StuckAtFault], fixed: &[u32], chunk: usize) {
    let sim = FaultSimulator::new(netlist).unwrap();
    let mut kernel = TijKernel::new(netlist, &sim);
    let all: Vec<u32> = (0..sim.space().num_patterns() as u32).collect();
    for &f in fixed {
        for lanes in all.chunks(chunk) {
            check_batch(&mut kernel, netlist, &sim, faults, f, lanes).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random netlists, every stuck-at fault, random batches of 1 to 64
    /// lanes (repeats allowed) through one reused kernel.
    #[test]
    fn kernel_matches_scalar_oracle_on_random_netlists(
        netlist in arb_netlist_sized(7, 28),
        batches in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u32>(), 1..=64)),
            1..=4,
        ),
    ) {
        let sim = FaultSimulator::new(&netlist).unwrap();
        let patterns = sim.space().num_patterns() as u32;
        let faults = all_stuck_at_faults(&netlist);
        let mut kernel = TijKernel::new(&netlist, &sim);
        for (fixed, lanes) in batches {
            let lanes: Vec<u32> = lanes.iter().map(|t| t % patterns).collect();
            let checked = check_batch(&mut kernel, &netlist, &sim, &faults, fixed % patterns, &lanes);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

/// s27's two-frame expansion with its explicit transition targets,
/// which include constant-0 gadget gates.
#[test]
fn kernel_matches_scalar_oracle_on_s27_transition_targets() {
    let seq = ndetect::circuits::build_seq("s27").unwrap();
    let expanded = expand(&seq, FaultModel::Transition).unwrap();
    let netlist = expanded.netlist();
    assert!(
        netlist
            .node_ids()
            .any(|id| netlist.node(id).kind() == GateKind::Const0),
        "the gadgets carry constant gates"
    );
    let universe = FaultUniverse::build_explicit(
        netlist,
        &expanded.explicit_targets(),
        UniverseOptions::default(),
    )
    .unwrap();
    let fixed: Vec<u32> = (0..128).step_by(9).collect();
    check_exhaustive(netlist, universe.targets(), &fixed, 64);
    // Every line of the expanded netlist, on a few fixed vectors and an
    // odd batch width.
    check_exhaustive(netlist, &all_stuck_at_faults(netlist), &[0, 77, 127], 37);
}

/// One node observed on two output slots (so each slot is its own
/// branch line), a gate reading one node on two pins, and a constant
/// gate.
#[test]
fn kernel_matches_scalar_oracle_on_shared_output_slots() {
    let mut b = NetlistBuilder::new("slots");
    let a = b.input("a");
    let c = b.input("c");
    let d = b.input("d");
    let g1 = b.and("g1", &[a, c]).unwrap();
    let g2 = b.xor("g2", &[g1, d, g1]).unwrap();
    let k = b.gate(GateKind::Const1, "k", &[]).unwrap();
    let g3 = b.nor("g3", &[g2, k, c]).unwrap();
    let g4 = b.or("g4", &[g1, d]).unwrap();
    b.output(g2);
    b.output(g4);
    b.output(g2);
    b.output(g3);
    let netlist = b.build().unwrap();
    check_exhaustive(
        &netlist,
        &all_stuck_at_faults(&netlist),
        &(0..8).collect::<Vec<_>>(),
        8,
    );
}
