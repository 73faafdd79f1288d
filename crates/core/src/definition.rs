//! The two definitions of "detected n times" (the paper's Definitions 1
//! and 2).

use ndetect_faults::{FaultUniverse, StuckAtFault, TijKernel};

/// Which counting rule Procedure 1 uses for target-fault detections.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DetectionDefinition {
    /// **Definition 1** (standard): a fault is detected `n` times by a
    /// test set containing `n` tests that detect it.
    #[default]
    Standard,
    /// **Definition 2** (from Pomeranz & Reddy, DATE 2001): tests `ti`,
    /// `tj` count as different detections of `f` only if `tij` — the
    /// vector specified where `ti` and `tj` agree and unspecified
    /// elsewhere — does **not** detect `f` under three-valued
    /// simulation. Counting is greedy in test-insertion order.
    SufficientlyDifferent,
}

/// The Definition-2 checks of one Procedure-1 worker, in the two batch
/// shapes Procedure 1 needs, 64 `tij` vectors per kernel pass (see
/// [`TijKernel`]).
pub(crate) struct Def2Checks<'u> {
    kernel: TijKernel<'u>,
    /// The lane tests of the batch being loaded.
    lanes: Vec<u32>,
    /// Candidate indices that passed every counted test checked so far,
    /// and the next round's survivors.
    survivors: Vec<u32>,
    next: Vec<u32>,
    /// Per target of the latest [`Self::new_detections`] call.
    fresh: Vec<bool>,
}

impl<'u> Def2Checks<'u> {
    pub(crate) fn new(universe: &'u FaultUniverse) -> Self {
        Def2Checks {
            kernel: TijKernel::new(universe.netlist(), universe.simulator()),
            lanes: Vec::with_capacity(64),
            survivors: Vec::new(),
            next: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Clears `pass[i]` for every passing `candidates[i]` that is not
    /// sufficiently different from some `counted` test of `fault`: a
    /// common-bits vector of the two detects it. Checks one counted test
    /// at a time, against only the candidates that survived the earlier
    /// ones. With `pass` all `true` and every counted test this is the
    /// full Definition-2 scan; Procedure 1 passes the candidates that
    /// never failed and only the tests counted since its last scan.
    pub(crate) fn refine(
        &mut self,
        fault: StuckAtFault,
        counted: impl IntoIterator<Item = u32>,
        candidates: &[u32],
        pass: &mut [bool],
    ) {
        self.survivors.clear();
        self.survivors
            .extend((0..candidates.len() as u32).filter(|&i| pass[i as usize]));
        for s in counted {
            if self.survivors.is_empty() {
                break;
            }
            self.next.clear();
            for batch in self.survivors.chunks(64) {
                self.lanes.clear();
                self.lanes
                    .extend(batch.iter().map(|&i| candidates[i as usize]));
                let detected = self.kernel.detects_batch(fault, s, &self.lanes);
                for (lane, &i) in batch.iter().enumerate() {
                    if detected >> lane & 1 == 1 {
                        pass[i as usize] = false;
                    } else {
                        self.next.push(i);
                    }
                }
            }
            std::mem::swap(&mut self.survivors, &mut self.next);
        }
    }

    /// Which of `targets` (all detected by the new test `t`) count `t`
    /// as a new Definition-2 detection: entry `i` is `true` iff `t` is
    /// sufficiently different from every counted test of `targets[i]`
    /// from index `from[i]` on. `earlier` are the set's tests before
    /// `t`, and `counted[f]` holds the ascending positions in `earlier`
    /// of the tests counted for target `f`; the caller vouches for the
    /// ones before `from[i]`.
    ///
    /// One fault-free pass per 64 earlier tests serves every target;
    /// each target then re-evaluates only its own cone, masked to its
    /// counted tests.
    pub(crate) fn new_detections(
        &mut self,
        faults: &[StuckAtFault],
        t: u32,
        earlier: &[u32],
        targets: &[u32],
        from: &[u32],
        counted: &[Vec<u32>],
    ) -> &[bool] {
        self.fresh.clear();
        self.fresh.resize(targets.len(), true);
        for (b, batch) in earlier.chunks(64).enumerate() {
            let lo = (64 * b) as u32;
            let hi = lo + batch.len() as u32;
            let mut loaded = false;
            for ((fresh, &f), &first) in self.fresh.iter_mut().zip(targets).zip(from) {
                if !*fresh {
                    continue;
                }
                let positions = &counted[f as usize][first as usize..];
                let start = positions.partition_point(|&p| p < lo);
                let mask = positions[start..]
                    .iter()
                    .take_while(|&&p| p < hi)
                    .fold(0u64, |m, &p| m | 1 << (p - lo));
                if mask == 0 {
                    continue;
                }
                if !loaded {
                    self.kernel.load(t, batch);
                    loaded = true;
                }
                if self.kernel.detects(faults[f as usize]) & mask != 0 {
                    *fresh = false;
                }
            }
        }
        &self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> ndetect_netlist::Netlist {
        let mut b = ndetect_netlist::NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and("g", &[a, c]).unwrap();
        b.output(g);
        b.build().unwrap()
    }

    /// The full Definition-2 scan: `refine` from an all-`true` mask.
    fn pass_mask(
        checks: &mut Def2Checks<'_>,
        fault: StuckAtFault,
        counted: &[u32],
        candidates: &[u32],
    ) -> Vec<bool> {
        let mut pass = vec![true; candidates.len()];
        checks.refine(fault, counted.iter().copied(), candidates, &mut pass);
        pass
    }

    #[test]
    fn similar_tests_do_not_count_twice() {
        // For g stuck-at-1 on AND(a,c): T = {00, 01, 10}. Tests 00 and 01
        // share "0-" which already detects the fault (a=0 forces output 0,
        // faulty 1) => NOT sufficiently different.
        let n = and2();
        let u = FaultUniverse::build(&n).unwrap();
        let f_idx = u
            .targets()
            .iter()
            .position(|f| f.value && n.lines().line(f.line).name() == "g")
            .unwrap();
        let fault = u.targets()[f_idx];
        let mut checks = Def2Checks::new(&u);
        assert_eq!(pass_mask(&mut checks, fault, &[0], &[1, 2]), [false, false]);
        // Tests 01 and 10 share "--" (nothing specified): tij detects
        // nothing => they are sufficiently different; 00 and 10 share
        // "-0", which detects.
        assert_eq!(pass_mask(&mut checks, fault, &[1], &[0, 2]), [false, true]);
        // With nothing counted, every candidate passes.
        assert_eq!(pass_mask(&mut checks, fault, &[], &[0, 1, 2]), [true; 3]);
        // A candidate that already failed stays failed: 10 would pass
        // against 01.
        let mut pass = vec![true, false];
        checks.refine(fault, [1], &[0, 2], &mut pass);
        assert_eq!(pass, [false, false]);
        // The add_test shape agrees: 10 is new against counted 01 (set
        // position 1), not against counted 00 (position 0).
        let counted = |positions: &[u32]| {
            let mut c = vec![Vec::new(); u.targets().len()];
            c[f_idx] = positions.to_vec();
            c
        };
        let f = f_idx as u32;
        assert_eq!(
            checks.new_detections(u.targets(), 2, &[0, 1], &[f], &[0], &counted(&[1])),
            [true]
        );
        assert_eq!(
            checks.new_detections(u.targets(), 2, &[0, 1], &[f], &[0], &counted(&[0, 1])),
            [false]
        );
        // Starting past counted 00 leaves only 01 to check.
        assert_eq!(
            checks.new_detections(u.targets(), 2, &[0, 1], &[f], &[1], &counted(&[0, 1])),
            [true]
        );
        // Starting past every counted test checks nothing.
        assert_eq!(
            checks.new_detections(u.targets(), 2, &[0, 1], &[f], &[2], &counted(&[0, 1])),
            [true]
        );
    }

    #[test]
    fn tij_checks_are_symmetric() {
        // tij = tji, so checking a against counted b must agree with
        // checking b against counted a, in both batch shapes.
        let n = and2();
        let u = FaultUniverse::build(&n).unwrap();
        let mut checks = Def2Checks::new(&u);
        for (fi, &fault) in u.targets().iter().enumerate() {
            let mut counted = vec![Vec::new(); u.targets().len()];
            counted[fi] = vec![0];
            for a in 0..4u32 {
                for b in 0..4u32 {
                    let ab = pass_mask(&mut checks, fault, &[b], &[a]);
                    let ba = pass_mask(&mut checks, fault, &[a], &[b]);
                    assert_eq!(ab, ba, "target {fi}, tests {a} and {b}");
                    let fresh =
                        checks.new_detections(u.targets(), a, &[b], &[fi as u32], &[0], &counted);
                    assert_eq!(fresh, ab.as_slice(), "target {fi}, tests {a} and {b}");
                }
            }
        }
    }
}
