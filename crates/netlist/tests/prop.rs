//! Property tests for the netlist substrate: reachability against a DFS
//! oracle, line-model invariants, `.bench` round trips, and `.bench`
//! parsers that never panic on untrusted input.

use ndetect_netlist::{
    bench_format, fanin_cone, fanout_cone, GateKind, LineKind, Netlist, NetlistBuilder, NodeId,
    ReachabilityMatrix, Sink,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_netlist(seed: u64, num_inputs: usize, num_gates: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("r{seed}"));
    let mut nodes: Vec<NodeId> = (0..num_inputs).map(|i| b.input(format!("i{i}"))).collect();
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    for g in 0..num_gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
            1
        } else {
            rng.gen_range(2..=3)
        };
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| nodes[rng.gen_range(0..nodes.len())])
            .collect();
        nodes.push(b.gate(kind, format!("g{g}"), &fanins).expect("valid"));
    }
    for k in 0..rng.gen_range(1..=2usize) {
        b.output(nodes[nodes.len() - 1 - k]);
    }
    b.build().expect("valid DAG")
}

/// DFS oracle for reachability.
fn reaches_dfs(netlist: &Netlist, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; netlist.num_nodes()];
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        for sink in netlist.sinks(id) {
            if let Sink::GatePin { gate, .. } = *sink {
                if gate == to {
                    return true;
                }
                if !seen[gate.index()] {
                    seen[gate.index()] = true;
                    stack.push(gate);
                }
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bitset reachability matrix agrees with DFS for all pairs.
    #[test]
    fn reachability_matches_dfs(seed in any::<u64>(), gates in 1usize..=20) {
        let n = random_netlist(seed, 3, gates);
        let r = ReachabilityMatrix::compute(&n);
        for a in n.node_ids() {
            for b in n.node_ids() {
                prop_assert_eq!(
                    r.reaches(a, b),
                    reaches_dfs(&n, a, b),
                    "{} -> {}", n.node_name(a), n.node_name(b)
                );
            }
        }
    }

    /// Line-model invariants: every node has exactly one stem; branches
    /// exist iff fanout >= 2, one per sink, and all lines have unique ids
    /// covering 0..len.
    #[test]
    fn line_model_invariants(seed in any::<u64>(), gates in 1usize..=20) {
        let n = random_netlist(seed, 4, gates);
        let lines = n.lines();
        let mut stem_count = vec![0usize; n.num_nodes()];
        let mut branch_count = vec![0usize; n.num_nodes()];
        for (i, line) in lines.lines().iter().enumerate() {
            prop_assert_eq!(line.id().index(), i);
            match *line.kind() {
                LineKind::Stem { node } => stem_count[node.index()] += 1,
                LineKind::Branch { node, .. } => branch_count[node.index()] += 1,
            }
        }
        for id in n.node_ids() {
            prop_assert_eq!(stem_count[id.index()], 1, "stems of {}", n.node_name(id));
            let fanout = n.fanout(id);
            let expect = if fanout >= 2 { fanout } else { 0 };
            prop_assert_eq!(branch_count[id.index()], expect, "branches of {}", n.node_name(id));
            prop_assert_eq!(lines.branches(id).len(), expect);
        }
    }

    /// Topological order places fanins before consumers, and levels are
    /// consistent with it.
    #[test]
    fn topo_and_levels_consistent(seed in any::<u64>(), gates in 1usize..=20) {
        let n = random_netlist(seed, 3, gates);
        let pos: std::collections::HashMap<NodeId, usize> = n
            .topo_order().iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in n.node_ids() {
            for &f in n.node(id).fanins() {
                prop_assert!(pos[&f] < pos[&id]);
                prop_assert!(n.level(f) < n.level(id));
            }
        }
    }

    /// Cones are consistent: `a` is in `fanin_cone(b)` iff `b` is in
    /// `fanout_cone(a)` (both include the endpoints).
    #[test]
    fn cones_are_dual(seed in any::<u64>(), gates in 1usize..=16) {
        let n = random_netlist(seed, 3, gates);
        for a in n.node_ids() {
            let fo = fanout_cone(&n, a);
            for b in n.node_ids() {
                let fi = fanin_cone(&n, b);
                prop_assert_eq!(
                    fi.contains(&a),
                    fo.contains(&b),
                    "{} vs {}", n.node_name(a), n.node_name(b)
                );
            }
        }
    }

    /// `.bench` round trips preserve structure counts and behaviour.
    #[test]
    fn bench_round_trip(seed in any::<u64>(), gates in 1usize..=20) {
        let n = random_netlist(seed, 4, gates);
        let text = bench_format::write(&n);
        let back = bench_format::parse(n.name(), &text).expect("parses");
        prop_assert_eq!(n.num_inputs(), back.num_inputs());
        prop_assert_eq!(n.num_outputs(), back.num_outputs());
        prop_assert_eq!(n.num_gates(), back.num_gates());
        for v in 0..(1usize << n.num_inputs()) {
            let bits: Vec<bool> = (0..n.num_inputs())
                .map(|i| (v >> (n.num_inputs() - 1 - i)) & 1 == 1)
                .collect();
            prop_assert_eq!(n.eval_bool(&bits), back.eval_bool(&bits));
        }
    }
}

/// The bundled `.bench` corpus (combinational and DFF), the seeds of the
/// mutation tests.
const CORPUS: [&str; 4] = [
    include_str!("../../../tests/data/corpus/c17.bench"),
    include_str!("../../../tests/data/corpus/figure1.bench"),
    include_str!("../../../tests/data/corpus/mux_parity.bench"),
    include_str!("../../../tests/data/corpus/s27.bench"),
];

/// Fragments a mutation splices into a seed file: the `.bench` syntax a
/// hand-written parser is most likely to slip on.
const TOKENS: [&str; 12] = [
    "DFF(", "DFFSR(", "=", ")", "(", ",", "INPUT(", "OUTPUT(", "AND(", "#", "\n", "\u{e9}",
];

/// Applies each `(kind, at, what)` edit to `seed` in turn: a bit flip, an
/// inserted [`TOKENS`] fragment, or a truncation at byte `at`.
fn mutate(seed: &str, edits: &[(u8, u64, u64)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, at, what) in edits {
        let pos = (at as usize) % (bytes.len() + 1);
        match kind {
            0 if pos < bytes.len() => bytes[pos] ^= 1 << (what % 8),
            1 => {
                let token = TOKENS[(what as usize) % TOKENS.len()];
                bytes.splice(pos..pos, token.bytes());
            }
            2 => bytes.truncate(pos),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs both `.bench` parsers on `text`; whatever parses is written back
/// out. Any panic fails the calling test.
fn parse_and_write(text: &str) {
    if let Ok(netlist) = bench_format::parse("fuzz", text) {
        let _ = bench_format::write(&netlist);
    }
    if let Ok(seq) = bench_format::parse_seq("fuzz", text) {
        let _ = bench_format::write(seq.core());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes give `Ok` or `Err`, never a panic.
    #[test]
    fn bench_parsers_never_panic_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        parse_and_write(&String::from_utf8_lossy(&raw));
    }

    /// Nor do corpus files under byte flips, spliced tokens and
    /// truncations.
    #[test]
    fn bench_parsers_never_panic_on_mutated_corpus_files(
        pick in any::<u64>(),
        edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..6),
    ) {
        parse_and_write(&mutate(CORPUS[(pick as usize) % CORPUS.len()], &edits));
    }
}
