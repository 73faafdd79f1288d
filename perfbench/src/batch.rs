//! The batch workloads, `worst-sweep` and `average-def12`: each
//! operation is one cold `ndet` process with no cache directory.

use crate::report::Report;
use crate::stats::{median, quartiles};
use crate::{check, proc, Args, Workload};
use std::time::{Duration, Instant};

/// The size sweep of `worst-sweep`, smallest first: 16 to 16,384
/// patterns and up to 59,696 bridges.
pub const WORST_SWEEP: &[&str] = &["figure1", "c17", "cse", "s1a", "log", "fetch", "rie"];

/// The fewest times a set-up is repeated in one run; the median of the
/// repeats is reported.
pub const SETUP_REPS: usize = 3;

/// A batch set-up pass is cheap (0.02 s for one small circuit), so it
/// repeats until this much set-up time has passed, and at least
/// `SETUP_REPS` times.
const SETUP_TIME: Duration = Duration::from_secs(2);

/// Spawns of a no-work `ndet` command behind `connect_p50_ms`.
const CONNECT_REPS: usize = 40;

/// The commands of one pass of a batch workload.
pub fn commands(workload: Workload) -> Vec<Vec<&'static str>> {
    match workload {
        Workload::WorstSweep => WORST_SWEEP.iter().map(|&c| vec!["worst", c]).collect(),
        // K = 10,000 is the paper's Table-5 setting; Definition 2 is
        // ~1000x more expensive per test set, so it runs at K = 10.
        Workload::AverageDef12 => vec![
            vec!["average", "cse", "--k", "10000", "--def", "1"],
            vec!["average", "cse", "--k", "10", "--def", "2"],
        ],
        Workload::ServeMix => Vec::new(),
    }
}

/// The circuits a workload's set-up (`ndet stats`) covers.
pub fn setup_circuits(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::AverageDef12 => &["cse"],
        _ => WORST_SWEEP,
    }
}

/// Runs one `ndet` command and checks its exit status and pinned
/// stdout digest; the run counts as one operation.
pub fn run_checked(args: &Args, report: &mut Report, argv: &[&str]) -> Option<proc::Run> {
    let command = argv.join(" ");
    report.op(proc::run(&mut args.ndet(argv))
        .map_err(|e| format!("cannot run `ndet {command}`: {e}"))
        .and_then(|run| {
            if !run.exit.status.success() {
                return Err(format!("`ndet {command}` exited with {}", run.exit.status));
            }
            check::pinned(&command, &run.stdout)?;
            if command == "worst figure1" {
                check::figure1_coverage_row(&run.stdout)?;
            }
            Ok(run)
        }))
}

/// Set-up: an `ndet stats` pass over the workload's circuits (circuit
/// synthesis and universe build), repeated; returns the median pass.
fn setup(args: &Args, report: &mut Report) -> f64 {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < SETUP_REPS || start.elapsed() < SETUP_TIME {
        let pass = setup_circuits(args.workload)
            .iter()
            .filter_map(|c| run_checked(args, report, &["stats", c]))
            .map(|run| run.wall.as_secs_f64())
            .sum();
        passes.push(pass);
    }
    describe(report, "set-up pass", "s", &passes);
    median(&passes)
}

/// Spawn-to-exit times (ms) of `ndet list`, which does no analysis:
/// the fixed cost of any one-shot call.
pub fn connects(args: &Args, report: &mut Report) -> Vec<f64> {
    (0..CONNECT_REPS)
        .filter_map(|_| {
            report.op(proc::run(&mut args.ndet(&["list"]))
                .map_err(|e| format!("cannot run `ndet list`: {e}"))
                .and_then(|run| match run.exit.status.success() {
                    true => Ok(run.wall.as_secs_f64() * 1e3),
                    false => Err(format!("`ndet list` exited with {}", run.exit.status)),
                }))
        })
        .collect()
}

/// One pass of the workload's commands: the summed process wall time
/// and each command's run.
pub fn pass(args: &Args, report: &mut Report) -> (f64, Vec<proc::Run>) {
    let runs: Vec<proc::Run> = commands(args.workload)
        .iter()
        .filter_map(|argv| run_checked(args, report, argv))
        .collect();
    (runs.iter().map(|r| r.wall.as_secs_f64()).sum(), runs)
}

/// Prints a sample's size, median and quartile spread.
pub fn describe(report: &mut Report, what: &str, unit: &str, values: &[f64]) {
    let spread = quartiles(values).map_or("n/a".to_string(), |(q1, q3)| {
        format!("{:.1}%", 100.0 * (q3 - q1) / median(values))
    });
    report.note(format!(
        "{what}: n={} median={:.4} {unit} quartile spread={spread}",
        values.len(),
        median(values)
    ));
}

/// The `--trace 0` run of a batch workload.
pub fn measure(args: &Args, report: &mut Report) {
    report.op(check::figure1_nmin());
    let setup_s = setup(args, report);
    report.metric("setup_s", setup_s, "s");

    let start = Instant::now();
    let mut passes = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut peak_kb = 0;
    loop {
        let (wall, runs) = pass(args, report);
        passes.push(wall);
        for run in runs {
            latencies_ms.push(run.wall.as_secs_f64() * 1e3);
            peak_kb = peak_kb.max(run.exit.max_rss_kb);
        }
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    describe(report, "pass wall", "s", &passes);
    describe(report, "command latency", "ms", &latencies_ms);
    report.metric("wall_s", median(&passes), "s");
    report.metric("request_p50_ms", median(&latencies_ms), "ms");
    report.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
}
