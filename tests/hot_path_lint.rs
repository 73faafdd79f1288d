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
//!
//! It also keeps test-only oracles out of production code: no non-test
//! source outside `ndetect-testutil` may define an item named like one
//! (`*full_cone*`, `threeval*`, `*_threaded`, `Trit`, `PartialVector`).
//!
//! And it gates the unsafe boundary. Every crate root keeps
//! `#![forbid(unsafe_code)]` except `ndetect-sim`, whose only `unsafe`
//! is the runtime popcount dispatch in `rows.rs`, and `ndetect-serve`,
//! whose signal handler needs FFI. Every `unsafe {` outside test code
//! carries a `// SAFETY:` comment directly above it.

use std::path::{Path, PathBuf};

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

/// Crate roots that forbid unsafe code outright.
const FORBID_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/chaos/src/lib.rs",
    "crates/circuits/src/lib.rs",
    "crates/cli/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/faults/src/lib.rs",
    "crates/fsm/src/lib.rs",
    "crates/gen/src/lib.rs",
    "crates/netlist/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/seq/src/lib.rs",
    "crates/store/src/lib.rs",
    "crates/testutil/src/lib.rs",
];

/// Directories of non-test sources scanned for `unsafe` blocks.
const SOURCE_DIRS: &[&str] = &["src", "crates", "examples", "perfbench/src"];

/// Every `.rs` file under `dir`, skipping `tests/` directories (test
/// code may use `unsafe` without the comment).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "tests") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn crate_roots_keep_forbidding_unsafe_code() {
    for rel in FORBID_ROOTS {
        assert!(
            read(rel).contains("#![forbid(unsafe_code)]"),
            "{rel} lost its #![forbid(unsafe_code)]"
        );
    }
}

#[test]
fn sim_allows_unsafe_code_only_in_the_popcount_dispatch() {
    let root = read("crates/sim/src/lib.rs");
    assert!(
        root.contains("#![deny(unsafe_code)]") && !root.contains("#![forbid(unsafe_code)]"),
        "ndetect-sim's root must deny (not forbid) unsafe code"
    );
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates/sim/src"), &mut files);
    let mut allows = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source");
        let lines: Vec<&str> = source.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim() == "#[allow(unsafe_code)]" {
                allows.push((path.clone(), lines.get(i + 1).map(|l| l.trim().to_owned())));
            }
        }
    }
    assert_eq!(
        allows,
        [(
            repo_root().join("crates/sim/src/rows.rs"),
            Some("mod dispatch {".to_owned())
        )],
        "ndetect-sim must carry exactly one #[allow(unsafe_code)], on rows.rs's dispatch module"
    );
}

#[test]
fn every_unsafe_block_has_a_safety_comment() {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&repo_root().join(dir), &mut files);
    }
    let mut blocks = 0;
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source");
        let lines: Vec<&str> = non_test_source(&source).lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if !code.contains("unsafe {") {
                continue;
            }
            blocks += 1;
            // The comment block directly above the line must contain a
            // `// SAFETY:` line.
            let justified = lines[..i]
                .iter()
                .rev()
                .map(|l| l.trim())
                .take_while(|l| l.starts_with("//"))
                .any(|l| l.starts_with("// SAFETY:"));
            assert!(
                justified,
                "{}:{}: `unsafe {{` without a `// SAFETY:` comment directly above it:\n  {}",
                path.display(),
                i + 1,
                line.trim()
            );
        }
    }
    // Guard the guard: the scan must see the known blocks (the two
    // popcount dispatch arms, the serve signal handler and perfbench's
    // wait4/kill).
    assert!(blocks >= 5, "found only {blocks} unsafe blocks");
}

/// The names a line of code defines: the identifier after each item
/// keyword. Comments, doc comments included, define nothing.
fn defined_names(line: &str) -> Vec<&str> {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "union", "mod", "type", "trait", "const", "static",
    ];
    let code = line.split("//").next().unwrap_or("");
    let words: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect();
    words
        .windows(2)
        .filter(|pair| ITEM_KEYWORDS.contains(&pair[0]))
        .map(|pair| pair[1])
        .collect()
}

#[test]
fn test_only_oracle_names_stay_out_of_production() {
    let mut files = Vec::new();
    rust_files(&repo_root().join("src"), &mut files);
    let crates = std::fs::read_dir(repo_root().join("crates")).expect("crates/ is listable");
    for entry in crates {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() && !src.starts_with(repo_root().join("crates/testutil")) {
            rust_files(&src, &mut files);
        }
    }
    // Guard the guard: the scan must see the production crates.
    assert!(files.len() >= 60, "scanned only {} files", files.len());
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable source");
        for (i, line) in non_test_source(&source).lines().enumerate() {
            for name in defined_names(line) {
                // The full-cone kernel, three-valued simulation and the
                // block-sharded per-fault entry points.
                let test_only = name.contains("full_cone")
                    || name.starts_with("threeval")
                    || name.ends_with("_threaded")
                    || matches!(name, "Trit" | "PartialVector");
                assert!(
                    !test_only,
                    "{}:{}: `{name}` is a test-only oracle name; oracles live in \
                     crates/testutil",
                    path.display(),
                    i + 1
                );
            }
        }
    }
}
