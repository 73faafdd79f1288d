//! Integration tests for the `ndet` CLI: drives `commands::dispatch`
//! in-process for exit-status checks (discarding the output), and the
//! compiled binary for output, stderr and exit-code checks.

use ndetect_cli::commands::{self, Failure};
use std::process::{Command, Stdio};

/// Runs a command line in-process, discarding its output.
fn dispatch(parts: &[&str]) -> Result<(), Failure> {
    let args: Vec<String> = parts.iter().map(ToString::to_string).collect();
    commands::dispatch(&args, &mut std::io::sink())
}

fn run_binary(parts: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(parts)
        .output()
        .expect("ndet binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn dispatch_succeeds_on_core_commands() {
    assert_eq!(dispatch(&["list"]), Ok(()));
    assert_eq!(dispatch(&["stats", "figure1"]), Ok(()));
    assert_eq!(dispatch(&["worst", "figure1"]), Ok(()));
}

#[test]
fn dispatch_rejects_bad_invocations() {
    // Only a missing or unknown command word is a usage error.
    assert!(matches!(dispatch(&[]), Err(Failure::Usage(_))));
    assert!(matches!(dispatch(&["frobnicate"]), Err(Failure::Usage(_))));
    assert!(matches!(
        dispatch(&["stats", "no-such-circuit"]),
        Err(Failure::Error(_))
    ));
    assert!(matches!(
        dispatch(&["worst", "figure1", "--floor", "NaN"]),
        Err(Failure::Error(_))
    ));
}

#[test]
fn list_shows_the_suite_and_figure1_is_buildable() {
    let (ok, stdout, _) = run_binary(&["list"]);
    assert!(ok);
    assert!(stdout.contains("circuit"), "header line:\n{stdout}");
    // A few paper-suite members that must always be present.
    for name in ["lion", "dk27", "bbtas", "cse"] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
}

#[test]
fn stats_reports_figure1_fault_population() {
    let (ok, stdout, _) = run_binary(&["stats", "figure1"]);
    assert!(ok);
    assert!(
        stdout.contains("figure1: 4 inputs, 3 outputs, 3 gates, 11 lines"),
        "structure line:\n{stdout}"
    );
    // The paper's collapsed fault list has 16 entries and 10 detectable
    // bridging faults g0..g9 (2 undetectable excluded).
    assert!(
        stdout.contains("|F| = 16 collapsed stuck-at, |G| = 10 bridging"),
        "fault population:\n{stdout}"
    );
}

#[test]
fn worst_reports_the_papers_figure1_nmin_profile() {
    let (ok, stdout, _) = run_binary(&["worst", "figure1"]);
    assert!(ok);
    // nmin values from the paper: 4 of 10 faults at nmin <= 1,
    // nmin(g0) = 3 lifts coverage to 80% at n <= 3, and nmin(g6) = 4 is
    // the maximum, reaching 100% at n <= 4.
    assert!(stdout.contains("40.00% at n=1"), "n=1 coverage:\n{stdout}");
    let row = stdout
        .lines()
        .find(|l| l.starts_with("figure1") && l.contains('|') && l.contains("80.00"))
        .unwrap_or_else(|| panic!("missing coverage row:\n{stdout}"));
    let cells: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(
        &cells[cells.len() - 4..],
        &["40.00", "40.00", "80.00", "100.00"],
        "coverage profile must match nmin(g0)=3, nmin(g6)=4:\n{stdout}"
    );
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    for line in [&["frobnicate"][..], &[]] {
        let (ok, _, stderr) = run_binary(line);
        assert!(!ok);
        assert!(stderr.contains("usage:"), "usage on stderr:\n{stderr}");
    }
    // A data error prints the error alone.
    let (ok, _, stderr) = run_binary(&["stats", "no-such-circuit"]);
    assert!(!ok && stderr.starts_with("error: "), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "usage on a data error:\n{stderr}"
    );
}

/// The write end of a pipe whose reader has already gone: the stdin of
/// a `true` process that has exited.
#[cfg(unix)]
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("true runs");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("true exits");
    Stdio::from(writer)
}

#[cfg(unix)]
#[test]
fn a_closed_stdout_pipe_exits_zero() {
    let dir = temp_cache("closed-pipe");
    let dirs = dir.to_str().expect("utf8 path");
    // `ndet list | head`: the reader is gone before `ndet` writes.
    for line in [
        &["list"][..],
        &["worst", "c17"],
        &["cache", "stats", "--cache-dir", dirs],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
            .args(line)
            .stdout(closed_pipe())
            .output()
            .expect("ndet binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line:?}: {:?}\n{stderr}", out.status);
        assert!(stderr.is_empty(), "{line:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A throwaway cache directory, removed at the end of the test.
fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ndet-cli-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corpus")
}

#[test]
fn corpus_emits_csv_and_json_summaries() {
    let corpus = corpus_dir();
    let corpus = corpus.to_str().expect("utf8 path");
    let (ok, csv, _) = run_binary(&["corpus", corpus]);
    assert!(ok);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some(
            "circuit,mode,inputs,outputs,gates,targets,bridges,cov1_pct,cov10_pct,tail11,max_nmin,space,gen1,gen5,gen10,kernel,peak_bytes"
        )
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 4, "4 corpus circuits:\n{csv}");
    // Sorted walk: c17, figure1, mux_parity, s27; figure1's numbers
    // are the paper's. s27 contains DFFs, so it classifies as a `seq`
    // row analysed through its two-frame transition expansion — the
    // structure columns describe the sequential circuit itself.
    assert!(rows[0].starts_with("c17,full,5,2,6,22,26,"), "{csv}");
    assert!(
        rows[1].starts_with("figure1,full,4,3,3,16,10,40.00,100.00,0,4,16,"),
        "{csv}"
    );
    assert!(rows[2].starts_with("mux_parity,full,"), "{csv}");
    assert!(rows[3].starts_with("s27,seq,4,1,"), "{csv}");
    // Generated-set sizes: monotone in n, never above the exhaustive
    // baseline |U| = 2^inputs.
    for row in &rows {
        let cells: Vec<&str> = row.split(',').collect();
        let space: usize = cells[11].parse().expect("space cell");
        let gen1: usize = cells[12].parse().expect("gen1 cell");
        let gen5: usize = cells[13].parse().expect("gen5 cell");
        let gen10: usize = cells[14].parse().expect("gen10 cell");
        assert!(gen1 >= 1 && gen1 <= gen5 && gen5 <= gen10, "{row}");
        assert!(gen10 <= space, "{row}");
        // Kernel/memory reporting: the one kernel and a non-zero data
        // plane.
        assert_eq!(cells[15], "full", "{row}");
        let peak: u64 = cells[16].parse().expect("peak_bytes cell");
        assert!(peak > 0, "{row}");
    }

    let (ok, json, _) = run_binary(&["corpus", corpus, "--format", "json"]);
    assert!(ok);
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.trim_end().ends_with(']'), "{json}");
    assert!(json.contains("\"circuit\": \"figure1\""), "{json}");
    assert!(json.contains("\"max_nmin\": 4"), "{json}");
    assert!(json.contains("\"space\": 16"), "{json}");
    assert!(json.contains("\"gen1\": "), "{json}");
    assert!(json.contains("\"kernel\": \"full\""), "{json}");
    assert!(json.contains("\"peak_bytes\": "), "{json}");

    let (ok, _, _) = run_binary(&["corpus", corpus, "--format", "yaml"]);
    assert!(!ok, "unknown format must fail");
    let (ok, _, _) = run_binary(&["corpus", "/nonexistent-dir"]);
    assert!(!ok, "missing directory must fail");
}

#[test]
fn gen_reports_a_satisfying_compact_set() {
    let (ok, stdout, stderr) = run_binary(&["gen", "figure1", "--n", "1", "--compact"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("generated 1-detection set:"),
        "summary line:\n{stdout}"
    );
    assert!(stdout.contains(", compacted"), "{stdout}");
    assert!(stdout.contains("targets: 16 detectable of 16"), "{stdout}");
    assert!(stdout.contains("bridging coverage:"), "{stdout}");
    // The vector list is the last line; it must be far below |U| = 16.
    let vectors = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('['))
        .unwrap_or_else(|| panic!("missing vector list:\n{stdout}"));
    let count = vectors.trim_matches(['[', ']']).split_whitespace().count();
    assert!((1..=8).contains(&count), "{stdout}");
}

#[test]
fn gen_warm_reruns_hit_the_cache_with_identical_output() {
    let dir = temp_cache("gen-warm");
    let dirs = dir.to_str().expect("utf8 path");
    let (ok, cold, _) = run_binary(&[
        "gen",
        "figure1",
        "--n",
        "5",
        "--compact",
        "--cache-dir",
        dirs,
    ]);
    assert!(ok);
    let (ok, warm, _) = run_binary(&[
        "gen",
        "figure1",
        "--n",
        "5",
        "--compact",
        "--cache-dir",
        dirs,
    ]);
    assert!(ok);
    assert_eq!(cold, warm, "warm generation must be byte-identical");

    let (ok, stats, _) = run_binary(&["cache", "stats", "--cache-dir", dirs]);
    assert!(ok);
    // Universe + generated set, each hit once on the warm run.
    assert!(stats.contains("entries: 2"), "{stats}");
    assert!(stats.contains("hits: 2"), "{stats}");
    assert!(stats.contains("misses: 2"), "{stats}");

    // A different seed is a different artifact (a third entry) and a
    // different (but still valid) invocation.
    let (ok, seeded, _) = run_binary(&[
        "gen",
        "figure1",
        "--n",
        "5",
        "--compact",
        "--seed",
        "9",
        "--cache-dir",
        dirs,
    ]);
    assert!(ok);
    assert!(seeded.contains("generated 5-detection set:"), "{seeded}");
    let (ok, stats, _) = run_binary(&["cache", "stats", "--cache-dir", dirs]);
    assert!(ok);
    assert!(stats.contains("entries: 3"), "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_recursive_walks_subdirectories_in_sorted_order() {
    let dir = temp_cache("recursive-corpus");
    std::fs::create_dir_all(dir.join("sub/deep")).unwrap();
    std::fs::write(
        dir.join("top.bench"),
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("sub/middle.bench"),
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("sub/deep/bottom.bench"),
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
    )
    .unwrap();

    // Without --recursive only the top-level file is seen.
    let (ok, csv, _) = run_binary(&["corpus", dir.to_str().unwrap()]);
    assert!(ok);
    assert!(csv.contains("top,full,"), "{csv}");
    assert!(!csv.contains("middle"), "{csv}");
    assert!(!csv.contains("bottom"), "{csv}");

    // With --recursive every file appears, ordered by sorted full path:
    // sub/deep/bottom.bench < sub/middle.bench < top.bench.
    let (ok, csv, _) = run_binary(&["corpus", "--recursive", dir.to_str().unwrap()]);
    assert!(ok);
    let order: Vec<&str> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').next().unwrap())
        .collect();
    assert_eq!(order, vec!["bottom", "middle", "top"], "{csv}");

    // Determinism: a second run produces byte-identical output.
    let (ok, again, _) = run_binary(&["corpus", "--recursive", dir.to_str().unwrap()]);
    assert!(ok);
    assert_eq!(csv, again);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_cones_fallback_kicks_in_below_max_inputs() {
    let corpus = corpus_dir();
    let (ok, csv, _) = run_binary(&["corpus", corpus.to_str().unwrap(), "--max-inputs", "4"]);
    assert!(ok);
    // c17 (5 inputs) and mux_parity (5 inputs) fall back to the
    // per-output-cone partition; figure1 (4 inputs) stays exhaustive.
    assert!(csv.contains("c17,cones,"), "{csv}");
    assert!(csv.contains("figure1,full,"), "{csv}");
    assert!(csv.contains("mux_parity,cones,"), "{csv}");
}

#[test]
fn corpus_marks_fully_unanalysable_circuits_as_skipped() {
    // A circuit whose every cone exceeds --max-inputs must report
    // empty coverage, not a fabricated 100%.
    let dir = temp_cache("skipped-corpus");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("wide.bench"),
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(y)\ny = AND(a, b, c, d, e)\n",
    )
    .unwrap();
    let (ok, csv, stderr) = run_binary(&["corpus", dir.to_str().unwrap(), "--max-inputs", "4"]);
    assert!(ok, "{stderr}");
    assert!(csv.contains("wide,skipped,5,1,1,0,0,,,0,"), "{csv}");
    let (ok, json, _) = run_binary(&[
        "corpus",
        dir.to_str().unwrap(),
        "--max-inputs",
        "4",
        "--format",
        "json",
    ]);
    assert!(ok);
    assert!(json.contains("\"cov10_pct\": null"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_tolerates_malformed_files_as_error_rows() {
    // One malformed .bench must not abort the run: it becomes an
    // `error` row (details on stderr) and every other file is still
    // analysed.
    let dir = temp_cache("error-corpus");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("broken.bench"),
        "INPUT(a)\nOUTPUT(y)\ny = FROB(a, what)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("good.bench"),
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
    )
    .unwrap();
    let (ok, csv, stderr) = run_binary(&["corpus", dir.to_str().unwrap()]);
    assert!(ok, "malformed file must not abort the corpus run: {stderr}");
    assert!(csv.contains("broken,error,0,0,0,0,0,,,0,"), "{csv}");
    assert!(csv.contains("good,full,2,1,1,"), "{csv}");
    assert!(stderr.contains("corpus error:"), "{stderr}");
    assert!(stderr.contains("1 of 2 files failed"), "{stderr}");

    let (ok, json, _) = run_binary(&["corpus", dir.to_str().unwrap(), "--format", "json"]);
    assert!(ok);
    assert!(json.contains("\"mode\": \"error\""), "{json}");
    assert!(json.contains("\"circuit\": \"good\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_broken_cache_dir_degrades_analysis_and_fails_cache_maintenance() {
    // list/synth/dot never touch the store, so an unusable
    // NDETECT_CACHE_DIR must not break them (and must not create
    // directories as a side effect).
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(["list"])
        .env("NDETECT_CACHE_DIR", "/dev/null/not-a-dir")
        .output()
        .expect("ndet binary runs");
    assert!(out.status.success(), "list must ignore the cache dir");
    // Analysis commands warn and run uncached — the cache is
    // best-effort, so a broken dir can never fail a request — and the
    // output is byte-identical to an uncached run.
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(["worst", "figure1"])
        .env("NDETECT_CACHE_DIR", "/dev/null/not-a-dir")
        .output()
        .expect("ndet binary runs");
    assert!(out.status.success(), "worst must degrade, not fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("continuing uncached"), "{stderr}");
    let (ok, clean, _) = run_binary(&["worst", "figure1"]);
    assert!(ok);
    assert_eq!(String::from_utf8_lossy(&out.stdout), clean);
    // Cache maintenance pointed at the same dir still fails loudly: a
    // repair/verify that silently no-ops would hide real damage.
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(["cache", "stats"])
        .env("NDETECT_CACHE_DIR", "/dev/null/not-a-dir")
        .output()
        .expect("ndet binary runs");
    assert!(
        !out.status.success(),
        "cache stats must report the broken dir"
    );
}

#[test]
fn cache_subcommands_and_warm_analysis_round_trip() {
    let dir = temp_cache("cache-cmds");
    let dirs = dir.to_str().expect("utf8 path");

    // No cache configured -> cache stats errors with guidance.
    let (ok, _, stderr) = run_binary(&["cache", "stats"]);
    assert!(!ok);
    assert!(stderr.contains("cache-dir"), "{stderr}");

    // Cold worst run populates the store; warm run prints identically.
    let (ok, cold, _) = run_binary(&["worst", "figure1", "--cache-dir", dirs]);
    assert!(ok);
    let (ok, warm, _) = run_binary(&["worst", "figure1", "--cache-dir", dirs]);
    assert!(ok);
    assert_eq!(cold, warm, "warm output must be byte-identical");

    let (ok, stats, _) = run_binary(&["cache", "stats", "--cache-dir", dirs]);
    assert!(ok);
    // The report keeps its line order: the directory, then the counts.
    let keys: Vec<&str> = stats.lines().filter_map(|l| l.split(':').next()).collect();
    assert_eq!(
        keys[..7].join(","),
        "cache dir,entries,bytes,hits,misses,writes,shards"
    );
    assert!(stats.contains("\nentries: 2\n"), "{stats}"); // universe + nmin
    assert!(stats.contains("\nhits: 2\n"), "{stats}");
    assert!(stats.contains("\nmisses: 2\n"), "{stats}");

    let (ok, verify, _) = run_binary(&["cache", "verify", "--cache-dir", dirs]);
    assert!(ok);
    assert_eq!(verify, "valid entries: 2\ncorrupt entries: 0\n");

    // gc to zero bytes evicts everything; clear then leaves it empty.
    let (ok, gc, _) = run_binary(&["cache", "gc", "--cache-dir", dirs, "--max-bytes", "0"]);
    assert!(ok);
    assert!(gc.contains("evicted 2"), "{gc}");
    let (ok, _, _) = run_binary(&["cache", "clear", "--cache-dir", dirs]);
    assert!(ok);
    let (ok, stats, _) = run_binary(&["cache", "stats", "--cache-dir", dirs]);
    assert!(ok);
    assert!(stats.contains("entries: 0"), "{stats}");

    let (ok, _, _) = run_binary(&["cache", "frobnicate", "--cache-dir", dirs]);
    assert!(!ok, "unknown cache subcommand must fail");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_verify_reports_corruption_and_analysis_still_succeeds() {
    let dir = temp_cache("cache-corrupt");
    let dirs = dir.to_str().expect("utf8 path");
    let (ok, cold, _) = run_binary(&["worst", "c17", "--cache-dir", dirs]);
    assert!(ok);

    // Flip a byte in the middle of every cached entry.
    let entries = walk_entries(&dir);
    assert!(!entries.is_empty(), "no cache entries found to corrupt");
    for file in entries {
        let mut bytes = std::fs::read(&file).expect("entry bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&file, &bytes).expect("rewrite entry");
    }

    let (ok, _, _) = run_binary(&["cache", "verify", "--cache-dir", dirs]);
    assert!(!ok, "verify must flag corrupt entries");

    // Corrupt entries are silent misses: the analysis recomputes and
    // prints the same result.
    let (ok, redo, _) = run_binary(&["worst", "c17", "--cache-dir", dirs]);
    assert!(ok, "corrupt cache must not break analysis");
    assert_eq!(cold, redo);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flags_may_precede_positionals_everywhere() {
    // Flag-first orderings must parse for every positional extractor:
    // corpus directory, cache subcommand, and bench-file path/sub.
    let dir = temp_cache("flag-first");
    let dirs = dir.to_str().expect("utf8 path");
    let corpus = corpus_dir();
    let corpus = corpus.to_str().expect("utf8 path");

    let (ok, csv, stderr) = run_binary(&["corpus", "--format", "csv", corpus]);
    assert!(ok, "{stderr}");
    assert!(csv.contains("figure1,full,"), "{csv}");

    let (ok, _, stderr) = run_binary(&["cache", "--cache-dir", dirs, "stats"]);
    assert!(ok, "{stderr}");

    let bench = std::path::Path::new(corpus).join("figure1.bench");
    let bench = bench.to_str().expect("utf8 path");
    let (ok, _, stderr) = run_binary(&["bench-file", bench, "worst", "--cache-dir", dirs]);
    assert!(ok, "trailing --cache-dir on bench-file: {stderr}");
    let (ok, _, stderr) = run_binary(&["bench-file", "--cache-dir", dirs, bench, "stats"]);
    assert!(ok, "leading --cache-dir on bench-file: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_flag_does_not_shadow_the_circuit_name() {
    // String-valued flags must not be mistaken for the positional
    // circuit name, in either order.
    let dir = temp_cache("flag-order");
    let dirs = dir.to_str().expect("utf8 path");
    assert_eq!(dispatch(&["stats", "--cache-dir", dirs, "figure1"]), Ok(()));
    assert_eq!(dispatch(&["stats", "figure1", "--cache-dir", dirs]), Ok(()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end service lifecycle: spawn `ndet serve`, discover the bound
/// address via --addr-file, drive it with `ndet request`, check the
/// reply matches the one-shot output byte for byte, then SIGTERM and
/// require a clean exit 0 (the graceful drain path).
#[cfg(unix)]
#[test]
fn serve_binary_answers_requests_and_drains_on_sigterm() {
    let dir = temp_cache("serve-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let addr_file = dir.join("addr");
    let mut server = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().expect("utf8 path"),
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");

    // Wait for the server to announce its address.
    let addr = {
        let mut addr = None;
        for _ in 0..100 {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                addr = Some(text.trim().to_string());
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        addr.expect("server wrote --addr-file")
    };

    let (ok, served, stderr) = run_binary(&["request", &addr, "worst", "figure1"]);
    assert!(ok, "request failed: {stderr}");
    let (ok, oneshot, _) = run_binary(&["worst", "figure1"]);
    assert!(ok);
    assert_eq!(served, oneshot, "serve reply must match one-shot stdout");

    // Structured errors surface as a nonzero client exit.
    let (ok, _, stderr) = run_binary(&["request", &addr, "stats", "no-such-circuit"]);
    assert!(!ok, "analysis error must fail the client");
    assert!(stderr.contains("analysis"), "{stderr}");

    // SIGTERM → drain → exit 0.
    let pid = server.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let status = server.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown must exit 0: {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failpoints_from_the_environment_degrade_but_never_corrupt() {
    let dir = temp_cache("chaos-env");
    let dirs = dir.to_str().expect("utf8 path");

    // A malformed spec is a loud startup error, not a silent no-op.
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(["worst", "figure1", "--cache-dir", dirs])
        .env("NDETECT_FAILPOINTS", "store.save.write=sometimes:maybe")
        .output()
        .expect("ndet binary runs");
    assert!(!out.status.success(), "bad spec must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("NDETECT_FAILPOINTS"),
        "error must name the env var"
    );

    // With every store write failing, analysis output is byte-identical
    // to an unfailed run — the cache degrades, the answer does not.
    let failing = "store.save.create=always:return-err;\
                   store.save.write=always:torn-write;\
                   store.save.rename=always:return-err;\
                   store.counters.flush=always:return-err";
    let out = Command::new(env!("CARGO_BIN_EXE_ndet"))
        .args(["worst", "figure1", "--cache-dir", dirs])
        .env("NDETECT_FAILPOINTS", failing)
        .output()
        .expect("ndet binary runs");
    assert!(
        out.status.success(),
        "writes failing must not fail analysis"
    );
    let degraded = String::from_utf8_lossy(&out.stdout).to_string();
    let (ok, clean, _) = run_binary(&["worst", "figure1", "--cache-dir", dirs]);
    assert!(ok);
    assert_eq!(degraded, clean, "degraded output must be byte-identical");

    // Nothing torn was published: the store verifies clean and a warm
    // run (now with writes working) still succeeds.
    let (ok, _, stderr) = run_binary(&["cache", "verify", "--cache-dir", dirs]);
    assert!(ok, "torn writes must never publish: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_repair_quarantines_corruption_and_the_cache_recovers() {
    let dir = temp_cache("repair");
    let dirs = dir.to_str().expect("utf8 path");

    let (ok, _, _) = run_binary(&["worst", "figure1", "--cache-dir", dirs]);
    assert!(ok);
    // A healthy store repairs to "nothing quarantined".
    let (ok, stdout, _) = run_binary(&["cache", "repair", "--cache-dir", dirs]);
    assert!(ok);
    assert_eq!(stdout, "valid entries: 2\nquarantined: 0\n");

    // Corrupt one entry on disk; verify flags it, repair quarantines it.
    let victim = walk_entries(&dir)
        .into_iter()
        .next()
        .expect("cache has entries");
    std::fs::write(&victim, b"garbage").expect("corrupt the entry");
    let (ok, _, _) = run_binary(&["cache", "verify", "--cache-dir", dirs]);
    assert!(!ok, "verify must flag the corruption");
    let (ok, stdout, _) = run_binary(&["cache", "repair", "--cache-dir", dirs]);
    assert!(ok);
    assert!(stdout.contains("quarantined: 1"), "{stdout}");
    assert!(stdout.contains("MANIFEST"), "{stdout}");
    assert!(dir.join("quarantine/MANIFEST").is_file());

    // Post-repair the store is clean again and analysis still works.
    let (ok, _, _) = run_binary(&["cache", "verify", "--cache-dir", dirs]);
    assert!(ok, "repair must leave a clean store");
    let (ok, _, _) = run_binary(&["worst", "figure1", "--cache-dir", dirs]);
    assert!(ok);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every regular file under the store's objects/ tree, i.e. every entry
/// in the fan-out shard dirs, for corruption tests.
fn walk_entries(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("objects")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.is_file() {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn request_retry_on_flag_validation() {
    // Unknown tokens are rejected with the allowed list in the message.
    let err = dispatch(&["request", "127.0.0.1:1", "ping", "--retry-on", "zebra"])
        .expect_err("bad token must fail")
        .to_string();
    assert!(err.contains("--retry-on"), "{err}");
    assert!(err.contains("refused,busy,timeout"), "{err}");
    // Valid lists parse; with zero retries the request itself still
    // fails fast against a dead port.
    let err = dispatch(&[
        "request",
        "127.0.0.1:1",
        "ping",
        "--retry-on",
        "busy,timeout",
    ])
    .expect_err("dead port must fail")
    .to_string();
    assert!(err.contains("cannot connect"), "{err}");
}

#[test]
fn a_traced_command_runs_under_one_root_span() {
    let path = std::env::temp_dir().join(format!("ndet-root-span-{}.jsonl", std::process::id()));
    let (ok, _, stderr) = run_binary(&["worst", "c17", "--trace-out", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let records: Vec<ndetect_obs::SpanRecord> = text
        .lines()
        .map(|line| ndetect_obs::SpanRecord::parse(line).expect("valid record"))
        .collect();
    let roots: Vec<_> = records.iter().filter(|r| r.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one root span:\n{text}");
    assert_eq!(roots[0].name, "cmd.worst");
    assert!(
        records.len() > 1,
        "the analysis spans nest under it:\n{text}"
    );
    // The root spans the whole trace envelope.
    let report = ndetect_obs::TraceReport::from_jsonl(&text).expect("valid trace");
    assert_eq!(report.wall_ns, roots[0].dur_ns);
}
