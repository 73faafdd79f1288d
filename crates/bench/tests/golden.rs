//! Byte-exact golden outputs of the `table*` binaries and digests of
//! Procedure 1's full `d(n,g)` matrices, checked against the files in
//! `tests/golden/` at the repository root, and `all_tables` checked
//! against the single binaries it joins.
//!
//! Tables 1 and 4 reproduce exact numbers from the paper's running
//! example: Table 1 lists every detection set `T(f)` and `nmin(g)` of
//! the Figure-1 circuit, and Table 4 lists the seeded Procedure-1 test
//! sets and the resulting `d(n,g)` / `p(n,g)` counts. Tables 2 and 3
//! pin the worst-case `nmin` pass, and Tables 5 and 6 pin Procedure 1
//! under Definitions 1 and 2, each on a few suite circuits. Timing
//! lines go to stderr, so stdout is stable. After an intended output
//! change, regenerate a file from the repository root, e.g.
//! `./target/release/table1 > tests/golden/table1.txt`.

use ndetect_core::{
    estimate_detection_probabilities, DetectionDefinition, Procedure1Config, WorstCaseAnalysis,
};
use ndetect_faults::FaultUniverse;
use ndetect_store::{encode_to_vec, fnv1a64};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Stdout of a table binary run from the repository root, with the
/// environment knobs that could change output or touch a cache cleared.
fn stdout_of(binary: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(binary)
        .args(args)
        .current_dir(repo_root())
        .env_remove("NDETECT_CACHE_DIR")
        .env_remove("NDETECT_FAILPOINTS")
        .env_remove("NDETECT_TRACE")
        .output()
        .expect("table binary runs");
    assert!(
        out.status.success(),
        "{binary} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_golden(file: &str, actual: &[u8]) {
    let path = repo_root().join("tests/golden").join(file);
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        actual == expected.as_slice(),
        "{file} differs from the golden file\n--- expected\n{}\n--- actual\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(actual)
    );
}

#[test]
fn table1_matches_its_golden() {
    assert_golden("table1.txt", &stdout_of(env!("CARGO_BIN_EXE_table1"), &[]));
}

#[test]
fn table2_matches_its_golden() {
    assert_golden(
        "table2.txt",
        &stdout_of(
            env!("CARGO_BIN_EXE_table2"),
            &["--circuits", "figure1,c17,cse"],
        ),
    );
}

#[test]
fn table3_matches_its_golden() {
    assert_golden(
        "table3.txt",
        &stdout_of(
            env!("CARGO_BIN_EXE_table3"),
            &["--circuits", "cse,s1a,fetch"],
        ),
    );
}

#[test]
fn table4_matches_its_golden() {
    assert_golden("table4.txt", &stdout_of(env!("CARGO_BIN_EXE_table4"), &[]));
}

#[test]
fn table5_matches_its_golden() {
    assert_golden(
        "table5.txt",
        &stdout_of(
            env!("CARGO_BIN_EXE_table5"),
            &["--circuits", "cse,s1a,opus", "--k", "10"],
        ),
    );
}

#[test]
fn table6_matches_its_golden() {
    assert_golden(
        "table6.txt",
        &stdout_of(
            env!("CARGO_BIN_EXE_table6"),
            &["--circuits", "opus,cse", "--k", "4"],
        ),
    );
}

/// `all_tables` prints each single binary's stdout, at that binary's
/// defaults, in paper order with one blank line between sections;
/// Figure 2 appears because `dvram` is selected.
#[test]
fn all_tables_joins_the_single_binaries() {
    let sel = "opus,cse,dvram";
    let runs: [(&str, &[&str]); 7] = [
        (env!("CARGO_BIN_EXE_table1"), &[]),
        (env!("CARGO_BIN_EXE_table2"), &["--circuits", sel]),
        (env!("CARGO_BIN_EXE_table3"), &["--circuits", sel]),
        (env!("CARGO_BIN_EXE_figure2"), &["--circuits", "dvram"]),
        (env!("CARGO_BIN_EXE_table4"), &[]),
        (
            env!("CARGO_BIN_EXE_table5"),
            &["--circuits", sel, "--k", "10"],
        ),
        (
            env!("CARGO_BIN_EXE_table6"),
            &["--circuits", sel, "--k", "4"],
        ),
    ];
    let joined = runs
        .map(|(bin, args)| stdout_of(bin, args))
        .join(&b"\n"[..]);
    let all_args = ["--circuits", sel, "--k5", "10", "--k6", "4"];
    let all = stdout_of(env!("CARGO_BIN_EXE_all_tables"), &all_args);
    assert!(
        all == joined,
        "all_tables differs from the joined binaries\n--- joined\n{}\n--- all_tables\n{}",
        String::from_utf8_lossy(&joined),
        String::from_utf8_lossy(&all)
    );
}

/// The FNV-1a digest of the store payload of `ndet average CIRCUIT --k
/// K --def D`: `nmax`, `K`, the tracked list and every `d(n,g)`, for all
/// `n` and all tracked faults. The `average_*` goldens print only the
/// `n = nmax` histogram; this pins the whole matrix.
fn procedure1_digest(circuit: &str, k: usize, definition: DetectionDefinition) -> Vec<u8> {
    let netlist = ndetect_circuits::build(circuit).expect("suite circuit builds");
    let universe = FaultUniverse::build(&netlist).expect("suite circuit fits");
    let tracked = WorstCaseAnalysis::compute(&universe).tail_indices(11);
    let config = Procedure1Config {
        num_test_sets: k,
        definition,
        ..Default::default()
    };
    let probs = estimate_detection_probabilities(&universe, &tracked, &config).expect("valid");
    format!("{:016x}\n", fnv1a64(&encode_to_vec(&probs))).into_bytes()
}

#[test]
fn procedure1_d_matrices_match_their_digests() {
    assert_golden(
        "procedure1_cse_def1.fnv",
        &procedure1_digest("cse", 200, DetectionDefinition::Standard),
    );
    assert_golden(
        "procedure1_cse_def2.fnv",
        &procedure1_digest("cse", 2, DetectionDefinition::SufficientlyDifferent),
    );
}

/// s1a tracks 1,232 bridges in 309 distinct classes, so its per-class
/// rows span several words.
#[test]
fn procedure1_s1a_d_matrices_match_their_digests() {
    assert_golden(
        "procedure1_s1a_def1.fnv",
        &procedure1_digest("s1a", 100, DetectionDefinition::Standard),
    );
    assert_golden(
        "procedure1_s1a_def2.fnv",
        &procedure1_digest("s1a", 1, DetectionDefinition::SufficientlyDifferent),
    );
}
