//! Source-scan fallback for the hot-path allocation gate.
//!
//! The primary enforcement is clippy: `clippy.toml` disallows
//! `alloc::vec::from_elem` (the expansion of `vec![elem; n]`) and every
//! hot data-plane module opts in with
//! `#![deny(clippy::disallowed_methods)]`, so raw word-buffer
//! allocation fails `cargo clippy -- -D warnings` in CI. This test is
//! the `cargo test`-only backstop: it re-checks the same invariants by
//! scanning the sources, so the gate cannot silently rot on machines
//! (or CI legs) that never run clippy.

use std::path::PathBuf;

/// The hot data-plane modules: every repeat-form `vec![x; n]` in their
/// non-test code must either go through `ndetect_sim::rows` (the
/// sanctioned allocator) or carry an explicit
/// `#[allow(clippy::disallowed_methods)]` with a justification.
const HOT_MODULES: &[&str] = &[
    "crates/sim/src/rows.rs",
    "crates/sim/src/scratch.rs",
    "crates/sim/src/good.rs",
    "crates/sim/src/set.rs",
    "crates/faults/src/sim.rs",
    "crates/faults/src/tij.rs",
    "crates/faults/src/universe.rs",
    "crates/gen/src/generate.rs",
];

/// Modules that must carry the crate-level deny gate (`rows.rs` is the
/// sanctioned allocation point itself and uses item-level `#[allow]`s
/// instead).
const DENY_GATED: &[&str] = &[
    "crates/sim/src/scratch.rs",
    "crates/sim/src/good.rs",
    "crates/sim/src/set.rs",
    "crates/faults/src/sim.rs",
    "crates/faults/src/tij.rs",
    "crates/faults/src/universe.rs",
    "crates/gen/src/generate.rs",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The non-test prefix of a module: everything before `#[cfg(test)]`
/// (test modules are exempt from the allocation discipline and carry a
/// module-level allow).
fn non_test_source(source: &str) -> &str {
    match source.find("#[cfg(test)]") {
        Some(pos) => &source[..pos],
        None => source,
    }
}

/// Whether a line contains a repeat-form `vec![elem; n]` invocation
/// (the form that expands to `alloc::vec::from_elem`).
fn has_repeat_vec(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    let mut rest = code;
    while let Some(pos) = rest.find("vec![") {
        let inner = &rest[pos + 5..];
        if let Some(close) = inner.find(']') {
            if inner[..close].contains(';') {
                return true;
            }
            rest = &inner[close..];
        } else {
            // Multi-line invocation: conservatively flag it.
            return true;
        }
    }
    false
}

#[test]
fn clippy_config_disallows_raw_word_allocation() {
    let conf = read("clippy.toml");
    assert!(
        conf.contains("alloc::vec::from_elem"),
        "clippy.toml must keep disallowing alloc::vec::from_elem"
    );
    let workspace = read("Cargo.toml");
    assert!(
        workspace.contains("disallowed_methods"),
        "the workspace lint table must mention disallowed_methods \
         (allow at the workspace level; hot modules deny)"
    );
}

#[test]
fn hot_modules_carry_the_deny_gate() {
    for rel in DENY_GATED {
        let source = read(rel);
        assert!(
            source.contains("#![deny(clippy::disallowed_methods)]"),
            "{rel} lost its #![deny(clippy::disallowed_methods)] gate"
        );
    }
    // The sanctioned allocator keeps its explicit item-level allows.
    let rows = read("crates/sim/src/rows.rs");
    assert!(
        rows.contains("#[allow(clippy::disallowed_methods)]"),
        "rows.rs must keep the sanctioned allow on its allocators"
    );
}

#[test]
fn hot_modules_allocate_word_buffers_only_through_rows() {
    for rel in HOT_MODULES {
        let source = read(rel);
        let lines: Vec<&str> = non_test_source(&source).lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !has_repeat_vec(line) {
                continue;
            }
            // An explicit allow within the three preceding lines marks
            // a reviewed, justified exception (cold paths, non-word
            // buffers).
            let excused = lines[i.saturating_sub(3)..i]
                .iter()
                .any(|l| l.contains("#[allow(clippy::disallowed_methods)]"));
            assert!(
                excused,
                "{rel}:{}: raw `vec![x; n]` in a hot module — allocate via \
                 ndetect_sim::rows (zeroed_words / zeroed_counts / RowMatrix) \
                 or add a justified #[allow(clippy::disallowed_methods)]:\n  {}",
                i + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn hot_module_list_matches_reality() {
    // Guard the guard: the scanned files must all exist (a rename would
    // otherwise silently drop a module from the scan).
    for rel in HOT_MODULES {
        assert!(
            repo_root().join(rel).is_file(),
            "{rel} vanished — update HOT_MODULES in tests/hot_path_lint.rs"
        );
    }
}
