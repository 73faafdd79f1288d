//! Output checks: stdout digests of the batch commands pinned at the
//! commit that introduced the benchmark, and the paper's Figure-1
//! anchors.

use ndetect_core::WorstCaseAnalysis;
use ndetect_faults::FaultUniverse;

/// FNV-1a 64 of each batch command's stdout, keyed by the command
/// without `--threads` (output is identical for every thread count).
/// After an intended output change, a run's failed checks print each new
/// digest to copy here.
const PINNED: &[(&str, u64)] = &[
    ("worst figure1", 0xa30d3b59ed5e1986),
    ("worst c17", 0xb9f92c83902eb976),
    ("worst cse", 0xdda36a5bf0612dff),
    ("worst s1a", 0xc6336015cca605b0),
    ("worst log", 0x357f30b2b927c47b),
    ("worst fetch", 0x0720bc93106bc6d1),
    ("worst rie", 0x8f9c0b443d78d1cf),
    ("average cse --k 10000 --def 1", 0x93d94c91b50a4a97),
    ("average cse --k 10 --def 2", 0x218988469bb362d3),
    ("stats figure1", 0xd361519983748a0d),
    ("stats c17", 0x3bf9b0d053330ea9),
    ("stats cse", 0x3b11c20fac6d72d2),
    ("stats s1a", 0x44e53c244c0816ab),
    ("stats log", 0xb91a76d350829de6),
    ("stats fetch", 0xce844e6b85eb1c74),
    ("stats rie", 0xa43df8371231a3f3),
];

/// The digest the checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    ndetect_store::fnv1a64(bytes)
}

/// Checks `stdout` of `command` against its pinned digest.
pub fn pinned(command: &str, stdout: &[u8]) -> Result<(), String> {
    let expected = PINNED
        .iter()
        .find(|(c, _)| *c == command)
        .map(|(_, d)| *d)
        .ok_or_else(|| format!("no digest pinned for `{command}`"))?;
    matches_digest(command, stdout, expected)
}

/// Checks `stdout` against an expected digest.
pub fn matches_digest(command: &str, stdout: &[u8], expected: u64) -> Result<(), String> {
    let got = digest(stdout);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "`{command}` stdout digest {got:#018x} differs from the pinned {expected:#018x}"
        ))
    }
}

/// The paper's coverage profile in `ndet worst figure1` output:
/// nmin(g0) = 3 and nmin(g6) = 4 make the n<=1..4 row read 40, 40, 80,
/// 100 percent.
pub fn figure1_coverage_row(stdout: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(stdout);
    let row = text
        .lines()
        .find(|l| l.starts_with("figure1") && l.contains('|') && l.contains("80.00"))
        .ok_or("`worst figure1` prints no coverage row")?;
    let cells: Vec<&str> = row.split_whitespace().collect();
    if cells.ends_with(&["40.00", "40.00", "80.00", "100.00"]) {
        Ok(())
    } else {
        Err(format!(
            "`worst figure1` coverage row `{row}` is not 40.00 40.00 80.00 100.00"
        ))
    }
}

/// The paper's worked example through the library: nmin(g0) = 3 and
/// nmin(g6) = 4 on Figure 1.
pub fn figure1_nmin() -> Result<(), String> {
    let universe = FaultUniverse::build(&ndetect_circuits::figure1::netlist())
        .map_err(|e| format!("figure1 universe: {e}"))?;
    let wc = WorstCaseAnalysis::compute(&universe);
    for (name, a, a_high, b, b_high, nmin) in [
        ("g0", "9", false, "10", true, 3),
        ("g6", "11", false, "9", true, 4),
    ] {
        let g = universe
            .find_bridge(a, a_high, b, b_high)
            .ok_or_else(|| format!("figure1 has no bridge {name}"))?;
        if wc.nmin(g) != Some(nmin) {
            return Err(format!(
                "nmin({name}) = {:?}, the paper has {nmin}",
                wc.nmin(g)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_digest_is_caught() {
        let stdout = b"figure1: |F| = 16\n";
        let right = digest(stdout);
        assert!(matches_digest("worst figure1", stdout, right).is_ok());
        assert!(matches_digest("worst figure1", stdout, right ^ 1).is_err());
        assert!(pinned("worst no-such-circuit", stdout).is_err());
    }

    #[test]
    fn every_batch_command_has_a_pinned_digest() {
        use crate::batch::{commands, WORST_SWEEP};
        use crate::Workload;
        let mut all: Vec<String> = [Workload::WorstSweep, Workload::AverageDef12]
            .into_iter()
            .flat_map(commands)
            .map(|argv| argv.join(" "))
            .collect();
        all.extend(WORST_SWEEP.iter().map(|c| format!("stats {c}")));
        for command in all {
            assert!(
                PINNED.iter().any(|(c, _)| *c == command),
                "no digest pinned for `{command}`"
            );
        }
    }

    #[test]
    fn the_figure1_anchors_hold() {
        figure1_nmin().unwrap();
        let row = b"figure1          10 |   40.00   40.00   80.00  100.00\n";
        figure1_coverage_row(row).unwrap();
        let wrong = b"figure1          10 |   40.00   80.00   80.00  100.00\n";
        assert!(figure1_coverage_row(wrong).is_err());
    }
}
