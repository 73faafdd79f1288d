//! `--nmax` at the top of its range. `table5` and `table6` track the
//! faults with `nmin ≥ nmax + 1`; at `u32::MAX` that bound saturates, so
//! no fault is tracked, as at any `--nmax` of at least the pattern
//! count, instead of wrapping to 0 and tracking every bridge.
//! `ablation_atpg` builds Procedure-1 test sets up to `nmax` and refuses
//! an `--nmax` above a circuit's pattern count, with the message of
//! `ndet average`.

use std::path::Path;
use std::process::{Command, Output};

const LARGEST: &str = "4294967295";

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .env_remove("NDETECT_CACHE_DIR")
        .env_remove("NDETECT_FAILPOINTS")
        .env_remove("NDETECT_TRACE")
        .output()
        .expect("binary runs")
}

#[test]
fn tables_5_and_6_track_nothing_at_the_largest_nmax() {
    for binary in [env!("CARGO_BIN_EXE_table5"), env!("CARGO_BIN_EXE_table6")] {
        let out = run(
            binary,
            &["--circuits", "cse", "--k", "1", "--nmax", LARGEST],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{binary} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(&format!("n = {LARGEST})")), "{stdout}");
        // The table has its header and no circuit row.
        assert!(
            !stdout.contains("\ncse "),
            "{binary} tracked cse:\n{stdout}"
        );
    }
}

#[test]
fn ablation_atpg_refuses_an_nmax_above_the_pattern_count() {
    let out = run(
        env!("CARGO_BIN_EXE_ablation_atpg"),
        &["--circuits", "c17", "--k", "1", "--nmax", LARGEST],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.ends_with(
            "error: --nmax must be at most 32, the pattern count of c17; got 4294967295\n"
        ),
        "{stderr}"
    );
}
