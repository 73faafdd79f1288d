//! Output-cone partitioned analysis (the paper's Section-4 scaling
//! suggestion).
//!
//! Exhaustive analysis needs `2^I` vectors, so wide circuits are out of
//! reach directly. The paper notes that "one can partition a larger
//! circuit into smaller subcircuits and apply the analysis to the
//! subcircuits". This module implements the natural partition: the
//! fanin cone of each primary output is extracted as a standalone
//! circuit (its inputs are the subset of primary inputs feeding that
//! output) and analysed independently.
//!
//! Per-cone results are conservative for detection guarantees: a cone
//! only observes its own output, whereas the full circuit may also
//! detect a fault through other outputs.

use crate::error::CoreError;
use crate::report::TABLE2_THRESHOLDS;
use crate::worst_case::WorstCaseAnalysis;
use ndetect_faults::FaultUniverse;
use ndetect_netlist::{fanin_cone, GateKind, Netlist, NetlistBuilder, NodeId};
use std::collections::HashMap;

/// Extracts the fanin cone of output slot `slot` as a standalone
/// netlist: inputs are the primary inputs inside the cone (original
/// order and names preserved), the only output is the cone root.
///
/// # Panics
///
/// Panics if `slot` is out of range.
#[must_use]
pub fn cone_netlist(netlist: &Netlist, slot: usize) -> Netlist {
    let root = netlist.outputs()[slot];
    let cone = fanin_cone(netlist, root);
    let in_cone: std::collections::HashSet<NodeId> = cone.iter().copied().collect();

    let mut b = NetlistBuilder::new(format!(
        "{}~cone_{}",
        netlist.name(),
        netlist.node_name(root)
    ));
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    // Inputs first, in the original order.
    for &pi in netlist.inputs() {
        if in_cone.contains(&pi) {
            map.insert(pi, b.input(netlist.node_name(pi)));
        }
    }
    // Gates in the parent's topological order restricted to the cone.
    for &id in netlist.topo_order() {
        if !in_cone.contains(&id) || netlist.node(id).kind() == GateKind::Input {
            continue;
        }
        let fanins: Vec<NodeId> = netlist.node(id).fanins().iter().map(|f| map[f]).collect();
        let new_id = b
            .gate(netlist.node(id).kind(), netlist.node_name(id), &fanins)
            .expect("cone extraction preserves validity");
        map.insert(id, new_id);
    }
    b.output(map[&root]);
    b.build().expect("cone of a valid netlist is valid")
}

/// Worst-case summary of one output cone.
#[derive(Clone, Debug, PartialEq)]
pub struct ConeReport {
    /// Name of the output whose cone was analysed.
    pub output_name: String,
    /// Inputs of the cone (exhaustive space is `2^this`).
    pub num_inputs: usize,
    /// Gates in the cone.
    pub num_gates: usize,
    /// Collapsed target faults in the cone.
    pub num_targets: usize,
    /// Detectable bridging faults in the cone.
    pub num_bridges: usize,
    /// `(n, % of cone bridges with nmin ≤ n)` at the Table-2 thresholds.
    pub coverage: Vec<(u32, f64)>,
    /// Cone bridges needing `n ≥ 11` for guaranteed detection.
    pub tail_11: usize,
    /// Data-plane bytes of the cone's simulator
    /// ([`ndetect_faults::FaultSimulator::data_plane_bytes`]).
    pub data_plane_bytes: u64,
}

/// Analyses every output cone of `netlist` independently, with up to
/// `num_threads` workers (`0` = auto) for each cone's fault simulation
/// and `nmin` pass. Results are identical for every thread count.
///
/// Cones with more than `max_cone_inputs` inputs are skipped, so a
/// circuit too wide for one exhaustive universe is analysed through
/// the cones that fit. Each cone's fault universe and `nmin` vector go
/// through the content-addressed artifact store when one is given —
/// cone netlists are keyed by their own canonical structure, so
/// re-running a wide-circuit analysis is incremental per cone.
///
/// # Errors
///
/// Returns [`CoreError::Faults`] if a retained cone still exceeds the
/// simulator's limits.
pub fn analyze_output_cones(
    netlist: &Netlist,
    max_cone_inputs: usize,
    num_threads: usize,
    store: Option<&ndetect_store::Store>,
) -> Result<Vec<ConeReport>, CoreError> {
    let mut reports = Vec::new();
    for slot in 0..netlist.num_outputs() {
        let cone = cone_netlist(netlist, slot);
        if cone.num_inputs() > max_cone_inputs {
            continue;
        }
        let options = ndetect_faults::UniverseOptions::with_threads(num_threads);
        let universe = FaultUniverse::build_stored(&cone, options, store)
            .map_err(|e| CoreError::Faults(e.to_string()))?;
        let wc = WorstCaseAnalysis::compute_stored(&universe, num_threads, store);
        reports.push(ConeReport {
            output_name: netlist.node_name(netlist.outputs()[slot]).to_string(),
            num_inputs: cone.num_inputs(),
            num_gates: cone.num_gates(),
            num_targets: universe.targets().len(),
            num_bridges: universe.bridges().len(),
            coverage: TABLE2_THRESHOLDS
                .iter()
                .map(|&n| (n, wc.coverage_percent(n)))
                .collect(),
            tail_11: wc.tail_count(11),
            data_plane_bytes: universe.simulator().data_plane_bytes(),
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::{extra, figure1};

    #[test]
    fn cone_extraction_preserves_behaviour() {
        let n = extra::c17();
        for slot in 0..n.num_outputs() {
            let cone = cone_netlist(&n, slot);
            assert_eq!(cone.num_outputs(), 1);
            // Exhaustively compare against the parent on the cone's inputs
            // (free parent inputs set to 0).
            let cone_inputs: Vec<&str> = cone.inputs().iter().map(|&i| cone.node_name(i)).collect();
            for v in 0..(1usize << cone.num_inputs()) {
                let cone_bits: Vec<bool> = (0..cone.num_inputs())
                    .map(|i| (v >> (cone.num_inputs() - 1 - i)) & 1 == 1)
                    .collect();
                let mut parent_bits = vec![false; n.num_inputs()];
                for (ci, name) in cone_inputs.iter().enumerate() {
                    let pid = n.node_by_name(name).unwrap();
                    let pos = n.inputs().iter().position(|&x| x == pid).unwrap();
                    parent_bits[pos] = cone_bits[ci];
                }
                let parent_out = n.eval_bool(&parent_bits)[slot];
                let cone_out = cone.eval_bool(&cone_bits)[0];
                assert_eq!(parent_out, cone_out, "slot {slot} v={v}");
            }
        }
    }

    #[test]
    fn figure1_cones_are_tiny() {
        let n = figure1::netlist();
        let reports = analyze_output_cones(&n, 8, 0, None).unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.num_inputs, 2);
            assert_eq!(r.num_gates, 1);
            // Single-gate cones have no bridging pairs.
            assert_eq!(r.num_bridges, 0);
        }
    }

    #[test]
    fn max_inputs_filter_skips_wide_cones() {
        let n = extra::c17();
        let all = analyze_output_cones(&n, 16, 0, None).unwrap();
        assert_eq!(all.len(), 2);
        let none = analyze_output_cones(&n, 2, 0, None).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn cone_analysis_runs_on_adder() {
        let n = extra::ripple_adder(3);
        let reports = analyze_output_cones(&n, 16, 0, None).unwrap();
        assert_eq!(reports.len(), 4);
        // The last sum bit and carry see the whole input space.
        let widest = reports.iter().map(|r| r.num_inputs).max().unwrap();
        assert_eq!(widest, 7);
        // Coverage columns are monotone.
        for r in &reports {
            let mut prev = 0.0;
            for &(_, pct) in &r.coverage {
                assert!(pct >= prev - 1e-9);
                prev = pct;
            }
        }
    }
}
