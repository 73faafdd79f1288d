//! Internal test utilities shared across the workspace's test suites:
//! seeded random netlist generation, the matching proptest strategies,
//! and the reference oracles the fault-simulation kernels are checked
//! against ([`DetectionOracle`] for `T(f)` and `T(g)`, [`threeval`] for
//! the paper's Definition 2).
//!
//! The oracles depend on `ndetect-netlist` alone, so they share no code
//! with the kernels they check. Not part of the public API surface of
//! the project; `publish = false`.

#![forbid(unsafe_code)]

mod oracle;
pub mod threeval;

pub use oracle::{with_stuck_line, DetectionOracle};

use ndetect_netlist::{GateKind, Netlist, NetlistBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for [`random_netlist`].
#[derive(Clone, Copy, Debug)]
pub struct RandomNetlistConfig {
    /// Number of primary inputs (1..=12 recommended for exhaustive use).
    pub num_inputs: usize,
    /// Number of gates to create.
    pub num_gates: usize,
    /// Number of primary outputs (drawn from the last gates).
    pub num_outputs: usize,
}

impl Default for RandomNetlistConfig {
    fn default() -> Self {
        RandomNetlistConfig {
            num_inputs: 4,
            num_gates: 12,
            num_outputs: 2,
        }
    }
}

/// Builds a deterministic pseudo-random combinational DAG: each gate
/// picks a random kind and random already-created fanins, so the result
/// is always acyclic; outputs are taken from the latest gates so that
/// most of the circuit is observable.
pub fn random_netlist(seed: u64, config: &RandomNetlistConfig) -> Netlist {
    assert!(config.num_inputs >= 1 && config.num_gates >= 1 && config.num_outputs >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_ab1e_u64);
    let mut b = NetlistBuilder::new(format!("rand{seed}"));
    let mut nodes: Vec<NodeId> = (0..config.num_inputs)
        .map(|i| b.input(format!("i{i}")))
        .collect();

    const KINDS: &[GateKind] = &[
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    for g in 0..config.num_gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            // Fanins are drawn with replacement, so arity never needs to
            // be capped by the number of available nodes.
            _ => rng.gen_range(2..=3),
        };
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| nodes[rng.gen_range(0..nodes.len())])
            .collect();
        let id = b
            .gate(kind, format!("g{g}"), &fanins)
            .expect("fresh names and valid arity");
        nodes.push(id);
    }
    let num_outputs = config.num_outputs.min(config.num_gates);
    for k in 0..num_outputs {
        b.output(nodes[nodes.len() - 1 - k]);
    }
    b.build().expect("randomly grown DAG is valid")
}

/// Proptest strategy producing random netlists with up to `max_inputs`
/// inputs — small enough for exhaustive cross-checking against scalar
/// oracles.
pub fn arb_netlist(max_inputs: usize) -> impl Strategy<Value = Netlist> {
    arb_netlist_sized(max_inputs, 20)
}

/// Like [`arb_netlist`], with an explicit gate budget: larger budgets
/// yield deeper DAGs with more reconvergence and wider fanout — the
/// regime that stresses frontier-pruned (event-driven) fault
/// propagation, where effects must die mid-cone without skipping any
/// observable path.
pub fn arb_netlist_sized(max_inputs: usize, max_gates: usize) -> impl Strategy<Value = Netlist> {
    (any::<u64>(), 1..=max_inputs, 1..=max_gates, 1usize..=3).prop_map(
        |(seed, num_inputs, num_gates, num_outputs)| {
            random_netlist(
                seed,
                &RandomNetlistConfig {
                    num_inputs,
                    num_gates,
                    num_outputs,
                },
            )
        },
    )
}

/// Proptest strategy producing random **sequential** netlists: a random
/// combinational core whose last `k` inputs are reinterpreted as
/// flip-flop outputs and last `k` outputs as the matching next-state
/// functions, for `k` drawn up to `min(inputs, outputs)`. `k = 0`
/// (purely combinational) is included on purpose — the time-frame
/// expansion must degrade gracefully to two shared-input frames.
pub fn arb_seq_netlist(max_inputs: usize) -> impl Strategy<Value = ndetect_netlist::SeqNetlist> {
    (arb_netlist(max_inputs), any::<u64>()).prop_map(|(n, ff_pick)| {
        let max_ffs = n.num_inputs().min(n.num_outputs());
        let num_ffs = usize::try_from(ff_pick % (max_ffs as u64 + 1)).expect("small modulus");
        let num_true_inputs = n.num_inputs() - num_ffs;
        let num_true_outputs = n.num_outputs() - num_ffs;
        let ffs: Vec<String> = n.inputs()[num_true_inputs..]
            .iter()
            .map(|&q| n.node_name(q).to_string())
            .collect();
        ndetect_netlist::SeqNetlist::from_parts(n, num_true_inputs, num_true_outputs, ffs)
            .expect("counts are consistent by construction")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomNetlistConfig::default();
        let a = random_netlist(7, &cfg);
        let b = random_netlist(7, &cfg);
        assert_eq!(
            ndetect_netlist::bench_format::write(&a),
            ndetect_netlist::bench_format::write(&b)
        );
    }

    #[test]
    fn respects_config() {
        let cfg = RandomNetlistConfig {
            num_inputs: 5,
            num_gates: 9,
            num_outputs: 2,
        };
        let n = random_netlist(3, &cfg);
        assert_eq!(n.num_inputs(), 5);
        assert_eq!(n.num_gates(), 9);
        assert_eq!(n.num_outputs(), 2);
    }
}
