//! Structural equivalence collapsing of stuck-at faults.
//!
//! Two faults are *equivalent* when every test distinguishes both or
//! neither; structurally, a stuck-at on a gate input is equivalent to a
//! stuck-at on its output when the input value forces the output:
//!
//! | gate | input fault | ≡ output fault |
//! |------|-------------|----------------|
//! | AND  | in/0        | out/0          |
//! | NAND | in/0        | out/1          |
//! | OR   | in/1        | out/1          |
//! | NOR  | in/1        | out/0          |
//! | BUF  | in/v        | out/v          |
//! | NOT  | in/v        | out/v̄          |
//!
//! XOR/XNOR gates and fanout stems do not collapse. Classes are closed
//! transitively (a chain of gates collapses end to end); the class
//! **representative** is the most downstream member (maximum driver level,
//! ties broken by line id) — this reproduces the fault list of the paper's
//! Table 1, where e.g. `{1/0, 5/0, 9/0}` is represented by `9/0`.

use crate::stuck_at::{all_stuck_at_faults, input_line_of_pin, StuckAtFault};
use ndetect_netlist::{GateKind, LineId, Netlist};
use std::collections::HashMap;

/// Result of equivalence collapsing: the representative faults (ordered by
/// (line id, stuck value)) and the full equivalence classes.
#[derive(Clone, Debug)]
pub struct CollapsedFaults {
    representatives: Vec<StuckAtFault>,
    classes: Vec<Vec<StuckAtFault>>,
    class_of: HashMap<StuckAtFault, usize>,
}

impl CollapsedFaults {
    /// Performs structural equivalence collapsing over the full stuck-at
    /// universe of `netlist`.
    #[must_use]
    pub fn compute(netlist: &Netlist) -> Self {
        let faults = all_stuck_at_faults(netlist);
        let index_of = |f: &StuckAtFault| f.line.index() * 2 + usize::from(f.value);

        // Union-find over fault indices.
        let mut parent: Vec<usize> = (0..faults.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        };

        for id in netlist.node_ids() {
            let node = netlist.node(id);
            let out = netlist.lines().stem(id);
            let out0 = StuckAtFault::new(out, false);
            let out1 = StuckAtFault::new(out, true);
            let pair_for = |pin: usize| -> LineId { input_line_of_pin(netlist, id, pin) };
            match node.kind() {
                GateKind::And | GateKind::Nand => {
                    let out_fault = if node.kind() == GateKind::And {
                        out0
                    } else {
                        out1
                    };
                    for pin in 0..node.fanins().len() {
                        let in_fault = StuckAtFault::new(pair_for(pin), false);
                        union(&mut parent, index_of(&in_fault), index_of(&out_fault));
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let out_fault = if node.kind() == GateKind::Or {
                        out1
                    } else {
                        out0
                    };
                    for pin in 0..node.fanins().len() {
                        let in_fault = StuckAtFault::new(pair_for(pin), true);
                        union(&mut parent, index_of(&in_fault), index_of(&out_fault));
                    }
                }
                GateKind::Buf => {
                    let input = pair_for(0);
                    union(
                        &mut parent,
                        index_of(&StuckAtFault::new(input, false)),
                        index_of(&out0),
                    );
                    union(
                        &mut parent,
                        index_of(&StuckAtFault::new(input, true)),
                        index_of(&out1),
                    );
                }
                GateKind::Not => {
                    let input = pair_for(0);
                    union(
                        &mut parent,
                        index_of(&StuckAtFault::new(input, false)),
                        index_of(&out1),
                    );
                    union(
                        &mut parent,
                        index_of(&StuckAtFault::new(input, true)),
                        index_of(&out0),
                    );
                }
                // XOR/XNOR, inputs, constants: no structural equivalences.
                _ => {}
            }
        }

        // Gather classes.
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..faults.len() {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(i);
        }

        // Pick the most downstream member as representative: maximum driver
        // level, ties broken by the larger line id, then stuck value.
        let mut classes: Vec<Vec<StuckAtFault>> = Vec::with_capacity(groups.len());
        let mut representatives: Vec<StuckAtFault> = Vec::with_capacity(groups.len());
        let mut members: Vec<Vec<usize>> = groups.into_values().collect();
        // Deterministic class order independent of hash iteration.
        for m in &mut members {
            m.sort_unstable();
        }
        members.sort_unstable_by_key(|m| m[0]);

        let depth_key = |f: &StuckAtFault| {
            let line = netlist.lines().line(f.line);
            (netlist.level(line.driver()), f.line, f.value)
        };
        for group in members {
            let class: Vec<StuckAtFault> = group.iter().map(|&i| faults[i]).collect();
            let rep = *class
                .iter()
                .max_by_key(|f| depth_key(f))
                .expect("classes are non-empty");
            classes.push(class);
            representatives.push(rep);
        }

        // Paper ordering: by (line id, stuck value).
        let mut order: Vec<usize> = (0..representatives.len()).collect();
        order.sort_unstable_by_key(|&i| representatives[i]);
        let representatives: Vec<StuckAtFault> =
            order.iter().map(|&i| representatives[i]).collect();
        let classes: Vec<Vec<StuckAtFault>> = order.iter().map(|&i| classes[i].clone()).collect();

        let mut class_of = HashMap::new();
        for (ci, class) in classes.iter().enumerate() {
            for &f in class {
                class_of.insert(f, ci);
            }
        }

        CollapsedFaults {
            representatives,
            classes,
            class_of,
        }
    }

    /// The collapsed fault list (one representative per class), ordered by
    /// (line id, stuck value) — the paper's fault indexing.
    #[must_use]
    pub fn representatives(&self) -> &[StuckAtFault] {
        &self.representatives
    }

    /// The full equivalence classes, parallel to
    /// [`Self::representatives`].
    #[must_use]
    pub fn classes(&self) -> &[Vec<StuckAtFault>] {
        &self.classes
    }

    /// The class index containing an arbitrary (possibly non-representative)
    /// fault.
    #[must_use]
    pub fn class_of(&self, fault: StuckAtFault) -> Option<usize> {
        self.class_of.get(&fault).copied()
    }

    /// Number of collapsed classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// True only for an empty netlist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::figure1::netlist as figure1;
    use ndetect_netlist::NetlistBuilder;

    #[test]
    fn figure1_collapses_to_sixteen_faults_in_paper_order() {
        let n = figure1();
        let c = CollapsedFaults::compute(&n);
        let names: Vec<String> = c.representatives().iter().map(|f| f.name(&n)).collect();
        // Branch lines are named "<stem>-><gate>.<pin>"; map to the paper's
        // numeric labels via line ids: branches of 2 are lines 4,5 (paper 5,6),
        // of 3 are 6,7 (paper 7,8).
        let by_paper_number: Vec<String> = c
            .representatives()
            .iter()
            .map(|f| format!("{}/{}", f.line.index() + 1, u8::from(f.value)))
            .collect();
        assert_eq!(
            by_paper_number,
            vec![
                "1/1", "2/0", "2/1", "3/0", "3/1", "4/0", "5/1", "6/1", "7/1", "8/0", "9/0", "9/1",
                "10/0", "10/1", "11/0", "11/1"
            ],
            "collapsed list was {names:?}"
        );
    }

    #[test]
    fn figure1_classes_match_hand_collapsing() {
        let n = figure1();
        let c = CollapsedFaults::compute(&n);
        // Class of 9/0 contains 1/0 (paper line 1), 5/0 (branch of 2), 9/0.
        let stem9 = n.lines().stem(n.node_by_name("9").unwrap());
        let class_idx = c.class_of(StuckAtFault::new(stem9, false)).unwrap();
        let class = &c.classes()[class_idx];
        assert_eq!(class.len(), 3);
        let paper_ids: Vec<usize> = class.iter().map(|f| f.line.index() + 1).collect();
        assert_eq!(paper_ids, vec![1, 5, 9]);
        // Class of 11/1 contains 4/1, 8/1, 11/1.
        let stem11 = n.lines().stem(n.node_by_name("11").unwrap());
        let class_idx = c.class_of(StuckAtFault::new(stem11, true)).unwrap();
        let paper_ids: Vec<usize> = c.classes()[class_idx]
            .iter()
            .map(|f| f.line.index() + 1)
            .collect();
        assert_eq!(paper_ids, vec![4, 8, 11]);
    }

    #[test]
    fn inverter_chain_collapses_end_to_end() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.not("g1", a).unwrap();
        let g2 = b.not("g2", g1).unwrap();
        b.output(g2);
        let n = b.build().unwrap();
        let c = CollapsedFaults::compute(&n);
        // 6 faults collapse into 2 classes of 3 (a/0≡g1/1≡g2/0, a/1≡g1/0≡g2/1).
        assert_eq!(c.len(), 2);
        assert!(c.classes().iter().all(|cl| cl.len() == 3));
        // Representatives are on the most downstream line, g2.
        let stem_g2 = n.lines().stem(g2);
        assert!(c.representatives().iter().all(|f| f.line == stem_g2));
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c0 = b.input("c");
        let g = b.xor("g", &[a, c0]).unwrap();
        b.output(g);
        let n = b.build().unwrap();
        let c = CollapsedFaults::compute(&n);
        assert_eq!(c.len(), 6); // nothing merges
        assert!(c.classes().iter().all(|cl| cl.len() == 1));
    }

    #[test]
    fn every_fault_belongs_to_exactly_one_class() {
        let n = figure1();
        let c = CollapsedFaults::compute(&n);
        let total: usize = c.classes().iter().map(Vec::len).sum();
        assert_eq!(total, n.lines().len() * 2);
        for f in all_stuck_at_faults(&n) {
            assert!(c.class_of(f).is_some());
        }
    }
}
