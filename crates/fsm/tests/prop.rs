//! Property tests for the FSM substrate: cube algebra, QM minimization,
//! KISS2/PLA round trips, synthesis equivalence, and KISS2/PLA parsers
//! that never panic on untrusted input.

use ndetect_fsm::{
    parse_kiss2, parse_pla, qm, random_fsm, synthesize, write_kiss2, write_pla, Cube, MinimizeMode,
    RandomFsmConfig, StateEncoding, SynthOptions,
};
use proptest::prelude::*;

fn arb_cube(num_vars: usize) -> impl Strategy<Value = Cube> {
    prop::collection::vec(0u8..3, num_vars).prop_map(move |chars| {
        let text: String = chars
            .iter()
            .map(|c| match c {
                0 => '0',
                1 => '1',
                _ => '-',
            })
            .collect();
        Cube::parse(&text).expect("valid cube text")
    })
}

proptest! {
    /// `covers` is equivalent to minterm-set inclusion; `intersects` to
    /// non-empty minterm intersection.
    #[test]
    fn cube_algebra_matches_minterm_semantics(
        a in arb_cube(5),
        b in arb_cube(5),
    ) {
        let ma: Vec<u32> = a.minterms();
        let mb: Vec<u32> = b.minterms();
        let subset = mb.iter().all(|m| ma.contains(m));
        prop_assert_eq!(a.covers(&b), subset, "covers {} {}", a, b);
        let inter = ma.iter().any(|m| mb.contains(m));
        prop_assert_eq!(a.intersects(&b), inter, "intersects {} {}", a, b);
    }

    /// QM minimization implements exactly the specified function.
    #[test]
    fn qm_is_exact_on_random_functions(
        num_vars in 2usize..=6,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut on = Vec::new();
        let mut dc = Vec::new();
        for m in 0..(1u32 << num_vars) {
            match next() % 4 {
                0 => on.push(m),
                1 => dc.push(m),
                _ => {}
            }
        }
        let cover = qm::minimize(num_vars, &on, &dc);
        for m in 0..(1u32 << num_vars) {
            let val = qm::cover_matches(&cover, m);
            if on.contains(&m) {
                prop_assert!(val, "on minterm {} uncovered", m);
            } else if !dc.contains(&m) {
                prop_assert!(!val, "off minterm {} covered", m);
            }
        }
        // Primality: no literal of any cube can be dropped without
        // covering an off-set minterm.
        for cube in &cover {
            for var in 0..num_vars {
                if cube.literal(var).is_none() { continue; }
                let bit = 1u32 << (num_vars - 1 - var);
                let bigger = Cube::from_masks(num_vars, cube.care() & !bit, cube.value() & !bit);
                let leaks = bigger.minterms().iter().any(|m| !on.contains(m) && !dc.contains(m));
                prop_assert!(leaks, "cube {} is not prime (drop var {})", cube, var);
            }
        }
    }

    /// Random FSMs round-trip through KISS2 text up to state
    /// renumbering (the parser interns states in first-appearance
    /// order): same state names, same reset, same behaviour on every
    /// (state, minterm) pair.
    #[test]
    fn kiss2_round_trip(seed in any::<u64>(), states in 1usize..=9, inputs in 1usize..=4) {
        let fsm = random_fsm("rt", &RandomFsmConfig {
            num_inputs: inputs,
            num_outputs: 2,
            num_states: states,
            seed,
            ..Default::default()
        });
        let text = write_kiss2(&fsm);
        let back = parse_kiss2("rt", &text).expect("own output parses");
        prop_assert_eq!(back.num_inputs(), fsm.num_inputs());
        prop_assert_eq!(back.num_outputs(), fsm.num_outputs());
        // Same state-name population (order may differ) and same reset.
        let mut a: Vec<&String> = fsm.states().iter().collect();
        let mut b: Vec<&String> = back.states().iter().collect();
        a.sort(); b.sort();
        prop_assert_eq!(a, b);
        prop_assert_eq!(
            &fsm.states()[fsm.reset_state()],
            &back.states()[back.reset_state()]
        );
        // Behavioural equality keyed by state name.
        for (si, name) in fsm.states().iter().enumerate() {
            let bi = back.state_index(name).expect("state survives");
            for m in 0..(1u32 << fsm.num_inputs()) {
                match (fsm.lookup(m, si), back.lookup(m, bi)) {
                    (None, None) => {}
                    (Some(ta), Some(tb)) => {
                        prop_assert_eq!(&fsm.states()[ta.to], &back.states()[tb.to]);
                        prop_assert_eq!(&ta.outputs, &tb.outputs);
                    }
                    (x, y) => prop_assert!(
                        false,
                        "specification mismatch at state {} minterm {}: {:?} vs {:?}",
                        name, m, x.is_some(), y.is_some()
                    ),
                }
            }
        }
    }

    /// Synthesis (any mode) implements the table on specified entries.
    #[test]
    fn synthesis_equivalence(seed in any::<u64>(), states in 2usize..=6) {
        let fsm = random_fsm("synth", &RandomFsmConfig {
            num_inputs: 2,
            num_outputs: 2,
            num_states: states,
            seed,
            ..Default::default()
        });
        let enc = StateEncoding::binary(fsm.num_states());
        for mode in [MinimizeMode::Never, MinimizeMode::Always, MinimizeMode::Heuristic] {
            let netlist = synthesize(&fsm, &enc, SynthOptions { minimize: mode })
                .expect("synthesizes");
            let ni = fsm.num_inputs();
            let nb = enc.num_bits();
            for code in 0..(1u32 << nb) {
                let Some(state) = enc.state_of_code(code) else { continue };
                for m in 0..(1u32 << ni) {
                    let Some(t) = fsm.lookup(m, state) else { continue };
                    let mut bits = Vec::new();
                    for i in 0..ni { bits.push((m >> (ni - 1 - i)) & 1 == 1); }
                    for j in 0..nb { bits.push((code >> (nb - 1 - j)) & 1 == 1); }
                    let outs = netlist.eval_bool(&bits);
                    let to_code = enc.code(t.to);
                    for j in 0..nb {
                        prop_assert_eq!(
                            outs[fsm.num_outputs() + j],
                            (to_code >> (nb - 1 - j)) & 1 == 1,
                            "mode {:?} ns{} m={} code={}", mode, j, m, code
                        );
                    }
                }
            }
        }
    }

    /// PLA text round-trips and the synthesized netlist matches PLA
    /// evaluation on every minterm.
    #[test]
    fn pla_round_trip_and_synthesis(
        num_inputs in 1usize..=5,
        rows in prop::collection::vec((any::<u64>(), 0u8..3, 0u8..3), 1..12),
    ) {
        use ndetect_fsm::{Pla, PlaRow, OutputBit};
        let to_bit = |c: u8| match c { 0 => OutputBit::Zero, 1 => OutputBit::One, _ => OutputBit::DontCare };
        let pla_rows: Vec<PlaRow> = rows.iter().map(|&(seed, o1, o2)| {
            let text: String = (0..num_inputs).map(|i| {
                match (seed >> (2 * i)) & 3 { 0 => '0', 1 => '1', _ => '-' }
            }).collect();
            PlaRow {
                input: Cube::parse(&text).expect("valid"),
                outputs: vec![to_bit(o1), to_bit(o2)],
            }
        }).collect();
        let pla = Pla::new("prop", num_inputs, 2, pla_rows);
        let text = write_pla(&pla);
        let back = parse_pla("prop", &text).expect("own output parses");
        prop_assert_eq!(&pla, &back);
        let netlist = pla.synthesize().expect("synthesizes");
        for m in 0..(1u32 << num_inputs) {
            let bits: Vec<bool> = (0..num_inputs)
                .map(|i| (m >> (num_inputs - 1 - i)) & 1 == 1)
                .collect();
            prop_assert_eq!(netlist.eval_bool(&bits), pla.eval(m), "minterm {}", m);
        }
    }
}

/// Fragments a mutation splices into a seed file: the KISS2 and PLA
/// syntax a hand-written parser is most likely to slip on.
const TOKENS: [&str; 12] = [
    ".i ", ".o ", ".s ", ".p ", ".r ", ".e", "-", "~", " ", "\n", "99999", "\u{e9}",
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

/// Runs both parsers on `text`; whatever parses is written back out.
/// Any panic fails the calling test.
fn parse_and_write(text: &str) {
    if let Ok(fsm) = parse_kiss2("fuzz", text) {
        let _ = write_kiss2(&fsm);
    }
    if let Ok(pla) = parse_pla("fuzz", text) {
        let _ = write_pla(&pla);
    }
}

/// A valid KISS2 file and a valid PLA file, both drawn from `seed`.
fn seed_files(seed: u64) -> [String; 2] {
    use ndetect_fsm::{OutputBit, Pla, PlaRow};
    let fsm = random_fsm(
        "seed",
        &RandomFsmConfig {
            num_inputs: 1 + (seed % 3) as usize,
            num_states: 1 + (seed % 5) as usize,
            seed,
            ..Default::default()
        },
    );
    // One to four rows over 3 inputs: care and value bits from `seed`,
    // outputs alternating between 1 and 0.
    let rows = (0..1 + seed as u32 % 4).map(|r| {
        let care = (seed >> (6 * r)) as u32 & 7;
        PlaRow {
            input: Cube::from_masks(3, care, (seed >> (6 * r + 3)) as u32 & care),
            outputs: vec![[OutputBit::One, OutputBit::Zero][r as usize % 2]],
        }
    });
    let pla = Pla::new("seed", 3, 1, rows.collect());
    [write_kiss2(&fsm), write_pla(&pla)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes give `Ok` or `Err`, never a panic.
    #[test]
    fn kiss2_and_pla_parsers_never_panic_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        parse_and_write(&String::from_utf8_lossy(&raw));
    }

    /// Nor do valid KISS2 and PLA files under byte flips, spliced tokens
    /// and truncations.
    #[test]
    fn kiss2_and_pla_parsers_never_panic_on_mutated_files(
        seed in any::<u64>(),
        edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..6),
    ) {
        for file in seed_files(seed) {
            parse_and_write(&mutate(&file, &edits));
        }
    }
}
