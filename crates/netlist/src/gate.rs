//! Gate kinds and their Boolean semantics.

use std::fmt;

/// The logic function computed by a netlist node.
///
/// `And`/`Nand`/`Or`/`Nor` are n-ary (≥ 1 input; a single-input `And` acts
/// as a buffer, a single-input `Nand` as an inverter, and so on).
/// `Xor`/`Xnor` are n-ary parity functions. `Buf` and `Not` take exactly one
/// input; `Input`, `Const0` and `Const1` take none.
///
/// ```
/// use ndetect_netlist::GateKind;
/// assert_eq!(GateKind::And.eval_bool(&[true, true]), true);
/// assert_eq!(GateKind::Nor.eval_bool(&[false, false]), true);
/// assert_eq!(GateKind::Xor.eval_bool(&[true, true, true]), true);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum GateKind {
    /// A primary input; its value is supplied by the test vector.
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Identity buffer.
    Buf,
    /// Inverter.
    Not,
    /// n-ary AND.
    And,
    /// n-ary NAND.
    Nand,
    /// n-ary OR.
    Or,
    /// n-ary NOR.
    Nor,
    /// n-ary XOR (odd parity).
    Xor,
    /// n-ary XNOR (even parity).
    Xnor,
}

impl GateKind {
    /// Returns `true` for kinds that take no fanins (`Input`, `Const0`,
    /// `Const1`).
    #[must_use]
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// Returns the valid fanin arity range `(min, max)` for this kind, where
    /// `max == usize::MAX` means unbounded.
    #[must_use]
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not => (1, 1),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => (1, usize::MAX),
            GateKind::Xor | GateKind::Xnor => (1, usize::MAX),
        }
    }

    /// Evaluates the gate over Boolean operand values.
    ///
    /// For source kinds (`Input`) the result is meaningless and this
    /// returns `false`; simulators supply input values externally.
    /// `Const0`/`Const1` return their constants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the operand count violates [`Self::arity`].
    #[must_use]
    pub fn eval_bool(self, operands: &[bool]) -> bool {
        debug_assert!(
            {
                let (lo, hi) = self.arity();
                operands.len() >= lo && operands.len() <= hi
            },
            "operand count {} invalid for {:?}",
            operands.len(),
            self
        );
        match self {
            GateKind::Input | GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => operands[0],
            GateKind::Not => !operands[0],
            GateKind::And => operands.iter().all(|&v| v),
            GateKind::Nand => !operands.iter().all(|&v| v),
            GateKind::Or => operands.iter().any(|&v| v),
            GateKind::Nor => !operands.iter().any(|&v| v),
            GateKind::Xor => operands.iter().fold(false, |acc, &v| acc ^ v),
            GateKind::Xnor => !operands.iter().fold(false, |acc, &v| acc ^ v),
        }
    }

    /// The canonical `.bench` keyword for this kind, e.g. `"NAND"`.
    #[must_use]
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }

    /// Parses a `.bench` keyword (case-insensitive); returns `None` for
    /// unknown keywords. `BUFF` is accepted as an alias for `BUF`.
    #[must_use]
    pub fn from_bench_keyword(word: &str) -> Option<Self> {
        let upper = word.to_ascii_uppercase();
        Some(match upper.as_str() {
            "INPUT" => GateKind::Input,
            "CONST0" | "GND" => GateKind::Const0,
            "CONST1" | "VDD" => GateKind::Const1,
            "BUF" | "BUFF" => GateKind::Buf,
            "NOT" | "INV" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            _ => return None,
        })
    }

    /// All gate kinds, in a fixed order (useful for iteration in tests and
    /// statistics).
    #[must_use]
    pub fn all() -> &'static [GateKind] {
        &[
            GateKind::Input,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ]
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_input_truth_tables() {
        let cases: &[(GateKind, [bool; 4])] = &[
            // outputs for (00, 01, 10, 11)
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for &(kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = (i >> 1) & 1 == 1;
                let b = i & 1 == 1;
                assert_eq!(kind.eval_bool(&[a, b]), e, "{kind} on ({a},{b})");
            }
        }
    }

    #[test]
    fn unary_gates() {
        assert!(GateKind::Buf.eval_bool(&[true]));
        assert!(!GateKind::Buf.eval_bool(&[false]));
        assert!(!GateKind::Not.eval_bool(&[true]));
        assert!(GateKind::Not.eval_bool(&[false]));
    }

    #[test]
    fn nary_parity() {
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true]));
        assert!(!GateKind::Xnor.eval_bool(&[true, false, false]));
        assert!(GateKind::Xnor.eval_bool(&[true, true, false, false]));
    }

    #[test]
    fn single_input_nary_gates_degenerate() {
        assert!(GateKind::And.eval_bool(&[true]));
        assert!(!GateKind::Nand.eval_bool(&[true]));
        assert!(!GateKind::Or.eval_bool(&[false]));
        assert!(GateKind::Nor.eval_bool(&[false]));
    }

    #[test]
    fn bench_keyword_round_trip() {
        for &kind in GateKind::all() {
            let kw = kind.bench_keyword();
            assert_eq!(GateKind::from_bench_keyword(kw), Some(kind));
            assert_eq!(GateKind::from_bench_keyword(&kw.to_lowercase()), Some(kind));
        }
        assert_eq!(GateKind::from_bench_keyword("BUFF"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_keyword("DFF"), None);
    }

    #[test]
    fn constants() {
        assert!(!GateKind::Const0.eval_bool(&[]));
        assert!(GateKind::Const1.eval_bool(&[]));
    }
}
