//! The symbolic state-transition-graph representation.

use crate::cube::Cube;
use std::fmt;

/// One output bit of a transition row: 0, 1, or unspecified (`-`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OutputBit {
    /// Drives 0.
    Zero,
    /// Drives 1.
    One,
    /// Don't care (minimization freedom; synthesized as 0 in direct mode).
    DontCare,
}

impl fmt::Display for OutputBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputBit::Zero => "0",
            OutputBit::One => "1",
            OutputBit::DontCare => "-",
        })
    }
}

/// One row of a KISS2 table: an input cube, a present state, a next
/// state, and output bits.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transition {
    /// The input condition (cube over the primary inputs).
    pub input: Cube,
    /// Present-state index (into [`Fsm::states`]).
    pub from: usize,
    /// Next-state index.
    pub to: usize,
    /// Output bits, one per primary output.
    pub outputs: Vec<OutputBit>,
}

/// A finite-state machine as a symbolic state-transition table.
///
/// Rows use first-match-wins semantics when cubes overlap (KISS2 tables
/// from well-formed benchmarks are deterministic, i.e. overlapping rows
/// agree; [`Fsm::check_deterministic`] verifies this).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fsm {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    states: Vec<String>,
    reset_state: usize,
    transitions: Vec<Transition>,
}

impl Fsm {
    /// Assembles an FSM from parts (used by the parser and the random
    /// generator).
    ///
    /// # Panics
    ///
    /// Panics if a transition references an out-of-range state, has the
    /// wrong output arity, or an input cube over the wrong variable count.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        num_inputs: usize,
        num_outputs: usize,
        states: Vec<String>,
        reset_state: usize,
        transitions: Vec<Transition>,
    ) -> Self {
        assert!(reset_state < states.len(), "reset state out of range");
        for t in &transitions {
            assert!(t.from < states.len() && t.to < states.len());
            assert_eq!(t.outputs.len(), num_outputs);
            assert_eq!(t.input.num_vars(), num_inputs);
        }
        Fsm {
            name: name.into(),
            num_inputs,
            num_outputs,
            states,
            reset_state,
            transitions,
        }
    }

    /// The machine's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of symbolic states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// State names, in declaration order.
    #[must_use]
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// Index of the reset state.
    #[must_use]
    pub fn reset_state(&self) -> usize {
        self.reset_state
    }

    /// The transition rows, in table order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks up a state index by name.
    #[must_use]
    pub fn state_index(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s == name)
    }

    /// Resolves the behaviour on a concrete `(input minterm, state)` pair:
    /// the first matching row, if any.
    #[must_use]
    pub fn lookup(&self, input_minterm: u32, state: usize) -> Option<&Transition> {
        self.transitions
            .iter()
            .find(|t| t.from == state && t.input.matches(input_minterm))
    }

    /// Checks that overlapping rows never disagree: for every state and
    /// input minterm, all matching rows have the same next state and
    /// compatible outputs. Returns the first conflict as
    /// `(state, minterm)`.
    #[must_use]
    pub fn check_deterministic(&self) -> Option<(usize, u32)> {
        for state in 0..self.states.len() {
            let rows: Vec<&Transition> = self
                .transitions
                .iter()
                .filter(|t| t.from == state)
                .collect();
            for (i, a) in rows.iter().enumerate() {
                for b in &rows[i + 1..] {
                    if !a.input.intersects(&b.input) {
                        continue;
                    }
                    let conflicting_outputs = a.outputs.iter().zip(&b.outputs).any(|(x, y)| {
                        matches!(
                            (x, y),
                            (OutputBit::Zero, OutputBit::One) | (OutputBit::One, OutputBit::Zero)
                        )
                    });
                    if a.to != b.to || conflicting_outputs {
                        // Find a witness minterm in the overlap.
                        let witness = a
                            .input
                            .minterms()
                            .into_iter()
                            .find(|&m| b.input.matches(m))
                            .unwrap_or(0);
                        return Some((state, witness));
                    }
                }
            }
        }
        None
    }

    /// Fraction of `(state, input minterm)` pairs covered by some row.
    #[must_use]
    pub fn specification_coverage(&self) -> f64 {
        let total = self.states.len() * (1usize << self.num_inputs);
        if total == 0 {
            return 1.0;
        }
        let mut covered = 0usize;
        for state in 0..self.states.len() {
            for m in 0..(1u32 << self.num_inputs) {
                if self.lookup(m, state).is_some() {
                    covered += 1;
                }
            }
        }
        covered as f64 / total as f64
    }
}

impl fmt::Display for Fsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} states, {} rows",
            self.name,
            self.num_inputs,
            self.num_outputs,
            self.states.len(),
            self.transitions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle() -> Fsm {
        Fsm::new(
            "toggle",
            1,
            1,
            vec!["off".into(), "on".into()],
            0,
            vec![
                Transition {
                    input: Cube::parse("0").unwrap(),
                    from: 0,
                    to: 0,
                    outputs: vec![OutputBit::Zero],
                },
                Transition {
                    input: Cube::parse("1").unwrap(),
                    from: 0,
                    to: 1,
                    outputs: vec![OutputBit::One],
                },
                Transition {
                    input: Cube::parse("-").unwrap(),
                    from: 1,
                    to: 0,
                    outputs: vec![OutputBit::One],
                },
            ],
        )
    }

    #[test]
    fn lookup_first_match() {
        let f = toggle();
        assert_eq!(f.lookup(0, 0).unwrap().to, 0);
        assert_eq!(f.lookup(1, 0).unwrap().to, 1);
        assert_eq!(f.lookup(0, 1).unwrap().to, 0);
        assert_eq!(f.lookup(1, 1).unwrap().to, 0);
    }

    #[test]
    fn deterministic_check_passes_for_disjoint_rows() {
        assert_eq!(toggle().check_deterministic(), None);
    }

    #[test]
    fn deterministic_check_catches_conflicts() {
        let f = Fsm::new(
            "bad",
            1,
            1,
            vec!["a".into(), "b".into()],
            0,
            vec![
                Transition {
                    input: Cube::parse("-").unwrap(),
                    from: 0,
                    to: 0,
                    outputs: vec![OutputBit::Zero],
                },
                Transition {
                    input: Cube::parse("1").unwrap(),
                    from: 0,
                    to: 1,
                    outputs: vec![OutputBit::Zero],
                },
            ],
        );
        assert_eq!(f.check_deterministic(), Some((0, 1)));
    }

    #[test]
    fn coverage_full_for_toggle() {
        assert!((toggle().specification_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_partial_when_rows_missing() {
        let f = Fsm::new(
            "partial",
            1,
            1,
            vec!["a".into()],
            0,
            vec![Transition {
                input: Cube::parse("1").unwrap(),
                from: 0,
                to: 0,
                outputs: vec![OutputBit::One],
            }],
        );
        assert!((f.specification_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        assert!(toggle().to_string().contains("2 states"));
    }
}
