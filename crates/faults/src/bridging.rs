//! Four-way bridging faults between outputs of multi-input gates.

use crate::stuck_at::StuckAtFault;
use ndetect_netlist::{LineId, Netlist, ReachabilityMatrix};
use std::fmt;

/// A four-way bridging fault `(l1, a1, l2, a2)`.
///
/// The fault is **activated** on vectors where the fault-free circuit has
/// `l1 = a1` and `l2 = a2`; its effect is to flip the *victim* `l1` to
/// `ā1` (the aggressor `l2` is unaffected). Detection additionally
/// requires the flipped value to propagate to a primary output.
///
/// For each unordered pair of candidate stems `{x, y}` the four-way model
/// contributes four faults (either line may be the victim, under either of
/// the two opposing-value activation conditions):
/// `(x,0,y,1)`, `(x,1,y,0)`, `(y,0,x,1)`, `(y,1,x,0)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BridgingFault {
    /// The victim line (a gate-output stem).
    pub victim: LineId,
    /// The fault-free victim value under which the fault is activated.
    pub victim_value: bool,
    /// The aggressor line (a gate-output stem).
    pub aggressor: LineId,
    /// The aggressor value required for activation.
    pub aggressor_value: bool,
}

impl BridgingFault {
    /// Creates a bridging fault `(victim, a1, aggressor, a2)`.
    #[must_use]
    pub fn new(
        victim: LineId,
        victim_value: bool,
        aggressor: LineId,
        aggressor_value: bool,
    ) -> Self {
        BridgingFault {
            victim,
            victim_value,
            aggressor,
            aggressor_value,
        }
    }

    /// The victim stem stuck at `ā1`. It flips the victim on exactly the
    /// vectors where the fault-free victim is `a1`, so
    /// `T(g) = T(l1 stuck-at ā1) ∩ {t : l2(t) = a2}`, with `l2(t)` the
    /// fault-free aggressor value.
    pub(crate) fn victim_fault(&self) -> StuckAtFault {
        StuckAtFault::new(self.victim, !self.victim_value)
    }

    /// Renders the paper's `(l1,a1,l2,a2)` notation with line names, e.g.
    /// `"(9,0,10,1)"`.
    ///
    /// # Panics
    ///
    /// Panics if the line ids do not belong to `netlist`.
    #[must_use]
    pub fn name(&self, netlist: &Netlist) -> String {
        format!(
            "({},{},{},{})",
            netlist.lines().line(self.victim).name(),
            u8::from(self.victim_value),
            netlist.lines().line(self.aggressor).name(),
            u8::from(self.aggressor_value),
        )
    }
}

impl fmt::Display for BridgingFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{})",
            self.victim,
            u8::from(self.victim_value),
            self.aggressor,
            u8::from(self.aggressor_value)
        )
    }
}

/// Which subset of bridge behaviours to enumerate between a candidate
/// line pair.
///
/// The paper's **four-way** model is the union of the wired-AND and
/// wired-OR dominance behaviours: under each opposing-value activation
/// condition, either line may be the victim.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BridgeModel {
    /// All four faults per pair (the paper's model):
    /// `(x,0,y,1)`, `(x,1,y,0)`, `(y,0,x,1)`, `(y,1,x,0)`.
    #[default]
    FourWay,
    /// Wired-AND only: a 0 on the aggressor pulls the victim down —
    /// `(x,1,y,0)`, `(y,1,x,0)`.
    WiredAnd,
    /// Wired-OR only: a 1 on the aggressor pulls the victim up —
    /// `(x,0,y,1)`, `(y,0,x,1)`.
    WiredOr,
}

impl BridgeModel {
    /// The faults this model contributes for an unordered candidate
    /// pair `{x, y}`, in deterministic order.
    #[must_use]
    pub fn pair_faults(self, x: LineId, y: LineId) -> Vec<BridgingFault> {
        match self {
            BridgeModel::FourWay => vec![
                BridgingFault::new(x, false, y, true),
                BridgingFault::new(x, true, y, false),
                BridgingFault::new(y, false, x, true),
                BridgingFault::new(y, true, x, false),
            ],
            BridgeModel::WiredAnd => vec![
                BridgingFault::new(x, true, y, false),
                BridgingFault::new(y, true, x, false),
            ],
            BridgeModel::WiredOr => vec![
                BridgingFault::new(x, false, y, true),
                BridgingFault::new(y, false, x, true),
            ],
        }
    }
}

/// Enumerates all **non-feedback** bridging faults of the given model
/// between outputs of multi-input gates (see [`enumerate_four_way`] for
/// the paper's default model and the ordering guarantees).
#[must_use]
pub fn enumerate_bridges(
    netlist: &Netlist,
    reach: &ReachabilityMatrix,
    model: BridgeModel,
) -> Vec<BridgingFault> {
    enumerate_bridges_among(netlist, reach, model, &netlist.multi_input_gate_stems())
}

/// Enumerates all **non-feedback** bridging faults of the given model
/// between the given candidate stems, in stem-list order.
///
/// This is [`enumerate_bridges`] with the candidate population chosen by
/// the caller instead of defaulting to every multi-input gate stem — the
/// time-frame expansion uses it to restrict bridges to the frame copies
/// of original circuit gates, excluding fault-gadget instrumentation.
///
/// # Panics
///
/// Panics if a stem id does not belong to `netlist`.
#[must_use]
pub fn enumerate_bridges_among(
    netlist: &Netlist,
    reach: &ReachabilityMatrix,
    model: BridgeModel,
    stems: &[LineId],
) -> Vec<BridgingFault> {
    let mut faults = Vec::new();
    for (i, &x) in stems.iter().enumerate() {
        let xd = netlist.lines().line(x).driver();
        for &y in &stems[i + 1..] {
            let yd = netlist.lines().line(y).driver();
            if reach.connected_either_direction(xd, yd) {
                continue;
            }
            faults.extend(model.pair_faults(x, y));
        }
    }
    faults
}

/// Enumerates all **non-feedback** four-way bridging faults between
/// outputs of multi-input gates.
///
/// Pairs with a structural path between the two gates (in either
/// direction) are *feedback* bridges and are skipped, following the
/// paper's "detectable non-feedback four-way bridging faults between
/// outputs of multi-input gates" (detectability is established later by
/// simulation — see [`crate::FaultUniverse`]).
///
/// Faults are emitted in a deterministic order: pairs `(x, y)` with
/// `x` earlier in the topological stem list, each contributing
/// `(x,0,y,1)`, `(x,1,y,0)`, `(y,0,x,1)`, `(y,1,x,0)` — which makes the
/// paper's example fault `g0 = (9,0,10,1)` fault number 0 of Figure 1.
///
/// ```
/// use ndetect_netlist::{NetlistBuilder, ReachabilityMatrix};
/// use ndetect_faults::enumerate_four_way;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g1 = b.and("g1", &[a, c])?;
/// let g2 = b.or("g2", &[a, c])?;
/// b.output(g1);
/// b.output(g2);
/// let n = b.build()?;
/// let reach = ReachabilityMatrix::compute(&n);
/// // One independent pair of multi-input gates -> 4 faults.
/// assert_eq!(enumerate_four_way(&n, &reach).len(), 4);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn enumerate_four_way(netlist: &Netlist, reach: &ReachabilityMatrix) -> Vec<BridgingFault> {
    enumerate_bridges(netlist, reach, BridgeModel::FourWay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::figure1::netlist as figure1;
    use ndetect_netlist::NetlistBuilder;

    #[test]
    fn figure1_enumeration_order_and_count() {
        let n = figure1();
        let reach = ReachabilityMatrix::compute(&n);
        let faults = enumerate_four_way(&n, &reach);
        // Three independent pairs {9,10},{9,11},{10,11} x 4 = 12 faults.
        assert_eq!(faults.len(), 12);
        // g0 of the paper is the very first fault.
        assert_eq!(faults[0].name(&n), "(9,0,10,1)");
        // The paper's g6 = (11,0,9,1) is fault index 6.
        assert_eq!(faults[6].name(&n), "(11,0,9,1)");
    }

    #[test]
    fn feedback_pairs_are_excluded() {
        // g2 depends on g1 -> the pair is a feedback bridge.
        let mut b = NetlistBuilder::new("fb");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let g1 = b.and("g1", &[a, c]).unwrap();
        let g2 = b.or("g2", &[g1, d]).unwrap();
        b.output(g2);
        let n = b.build().unwrap();
        let reach = ReachabilityMatrix::compute(&n);
        assert!(enumerate_four_way(&n, &reach).is_empty());
    }

    #[test]
    fn single_input_gates_are_not_candidates() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let g1 = b.not("g1", a).unwrap();
        let g2 = b.not("g2", c).unwrap();
        b.output(g1);
        b.output(g2);
        let n = b.build().unwrap();
        let reach = ReachabilityMatrix::compute(&n);
        assert!(enumerate_four_way(&n, &reach).is_empty());
    }

    #[test]
    fn model_variants_partition_the_four_way_set() {
        let n = figure1();
        let reach = ReachabilityMatrix::compute(&n);
        let four = enumerate_bridges(&n, &reach, BridgeModel::FourWay);
        let wand = enumerate_bridges(&n, &reach, BridgeModel::WiredAnd);
        let wor = enumerate_bridges(&n, &reach, BridgeModel::WiredOr);
        assert_eq!(wand.len() + wor.len(), four.len());
        for f in &wand {
            assert!(four.contains(f));
            assert!(f.victim_value && !f.aggressor_value);
        }
        for f in &wor {
            assert!(four.contains(f));
            assert!(!f.victim_value && f.aggressor_value);
        }
        // Disjoint.
        assert!(wand.iter().all(|f| !wor.contains(f)));
    }

    #[test]
    fn display_forms() {
        let f = BridgingFault::new(LineId::new(8), false, LineId::new(9), true);
        assert_eq!(f.to_string(), "(l8,0,l9,1)");
    }
}
