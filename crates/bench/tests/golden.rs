//! Byte-exact golden outputs of the `table1` and `table4` binaries,
//! checked against the files in `tests/golden/` at the repository root.
//!
//! Both tables reproduce exact numbers from the paper's running
//! example: Table 1 lists every detection set `T(f)` and `nmin(g)` of
//! the Figure-1 circuit, and Table 4 lists the seeded Procedure-1 test
//! sets and the resulting `d(n,g)` / `p(n,g)` counts. After an intended
//! output change, regenerate a file from the repository root, e.g.
//! `./target/release/table1 > tests/golden/table1.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Stdout of a table binary run from the repository root, with the
/// environment knobs that could change output or touch a cache cleared.
fn stdout_of(binary: &str) -> Vec<u8> {
    let out = Command::new(binary)
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
    assert_golden("table1.txt", &stdout_of(env!("CARGO_BIN_EXE_table1")));
}

#[test]
fn table4_matches_its_golden() {
    assert_golden("table4.txt", &stdout_of(env!("CARGO_BIN_EXE_table4")));
}
