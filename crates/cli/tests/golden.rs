//! Byte-exact golden outputs of the compiled `ndet` binary, checked
//! against the files in `tests/golden/` at the repository root.
//!
//! They pin the worst-case `nmin` pass end to end: `ndet worst` prints
//! its coverage rows, tail counts and `nmin` distribution, `ndet stats`
//! prints `|F|`, `|G|` and the undetectable-bridge count, and the
//! `ndet corpus` CSV carries `nmin` columns. `ndet average` pins
//! Procedure 1 under both definitions, Definition 2's three-valued
//! checks included. `ndet gen` pins the generator's vectors and their
//! order, with and without compaction and seeded tie-breaking. s27
//! covers the sequential explicit-target path. `ndet cones` pins the
//! per-output-cone analysis, with and without `--max-inputs`.
//! After an intended output change, regenerate a file from the
//! repository root, e.g.
//! `./target/release/ndet worst s1a > tests/golden/worst_s1a.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Stdout of `ndet <args>` run from the repository root, with the
/// environment knobs that could change output or touch a cache cleared.
fn ndet_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(args)
        .current_dir(repo_root())
        .env_remove("NDETECT_CACHE_DIR")
        .env_remove("NDETECT_FAILPOINTS")
        .env_remove("NDETECT_TRACE")
        .output()
        .expect("ndet binary runs");
    assert!(
        out.status.success(),
        "ndet {args:?} failed: {}",
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
fn worst_matches_its_goldens() {
    // log, fetch and rie have 128- and 256-word rows, so their scans run
    // the popcount kernels over whole superblock groups.
    for circuit in ["figure1", "c17", "cse", "s1a", "s27", "log", "fetch", "rie"] {
        assert_golden(
            &format!("worst_{circuit}.txt"),
            &ndet_stdout(&["worst", circuit]),
        );
    }
}

#[test]
fn stats_matches_its_goldens() {
    for circuit in ["figure1", "c17", "cse", "s1a", "s27"] {
        assert_golden(
            &format!("stats_{circuit}.txt"),
            &ndet_stdout(&["stats", circuit]),
        );
    }
}

#[test]
fn corpus_csv_matches_its_golden() {
    assert_golden(
        "corpus.csv",
        &ndet_stdout(&["corpus", "tests/data/corpus", "--format", "csv"]),
    );
}

#[test]
fn average_matches_its_goldens() {
    for (circuit, k) in [("figure1", "200"), ("c17", "100"), ("s27", "50")] {
        for def in ["1", "2"] {
            assert_golden(
                &format!("average_{circuit}_def{def}.txt"),
                &ndet_stdout(&["average", circuit, "--k", k, "--tail", "1", "--def", def]),
            );
        }
    }
    assert_golden(
        "average_cse_def1.txt",
        &ndet_stdout(&["average", "cse", "--k", "200", "--def", "1"]),
    );
    assert_golden(
        "average_cse_def2.txt",
        &ndet_stdout(&["average", "cse", "--k", "2", "--def", "2"]),
    );
}

#[test]
fn gen_matches_its_goldens() {
    // s1a twice: one worker builds the same set as the default count.
    // rie seeded is the shape of a fresh served build.
    let seeded = ["--n", "10", "--compact", "--seed", "5"];
    let one_thread = [&seeded[..], &["--threads", "1"]].concat();
    for (golden, circuit, flags) in [
        ("gen_figure1.txt", "figure1", &["--n", "3"][..]),
        ("gen_c17.txt", "c17", &["--n", "5", "--compact"]),
        ("gen_cse.txt", "cse", &seeded),
        ("gen_s1a.txt", "s1a", &seeded),
        ("gen_s1a.txt", "s1a", &one_thread),
        ("gen_rie.txt", "rie", &["--n", "10"]),
        ("gen_rie_seeded.txt", "rie", &seeded),
        ("gen_s27.txt", "s27", &["--n", "3", "--compact"]),
    ] {
        let args = [&["gen", circuit][..], flags].concat();
        assert_golden(golden, &ndet_stdout(&args));
    }
}

#[test]
fn cones_matches_its_goldens() {
    assert_golden("cones_c17.txt", &ndet_stdout(&["cones", "c17"]));
    assert_golden(
        "cones_s1a.txt",
        &ndet_stdout(&["cones", "s1a", "--max-inputs", "10"]),
    );
}
