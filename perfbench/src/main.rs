//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --ndet BIN --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload against the real `ndet` binary and
//! prints every metric by name and unit, then a last line of JSON
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` measures
//! the end-to-end metrics with tracing off; `--trace 1` is the separate
//! traced run: each operation of the workload runs for real and is then
//! replayed in-process, with each layer's public entry points timed
//! under spans that are written as JSONL.
//! `perfbench/run.sh` builds both binaries and passes `--ndet`/`--out`;
//! README.md defines the workloads and metrics.

mod batch;
mod check;
mod layers;
mod proc;
mod report;
mod serve;
mod stats;

use report::Report;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// The end-to-end metrics every `--trace 0` run reports in its JSON
/// line. `request_p50_ms` is there for serve-mix, where hot reads are
/// 95% of the requests but one fresh `rie` build sets a pass's wall
/// time, so only the median request moves when the hot-read path does;
/// batch workloads report their median cold-command latency.
/// serve-mix also prints `request_p99_ms` and `throughput_rps`; they
/// are left out of the line because `throughput_rps` repeats `wall_s`
/// (a pass is fixed work) and the p99 is a fresh `rie` build.
const END_TO_END: &[&str] = &["wall_s", "setup_s", "peak_rss_mb", "request_p50_ms"];

/// The per-layer metrics every `--trace 1` run reports in its JSON line
/// (each run also prints the layer metrics specific to its workload).
/// `connect_p50_ms` is here rather than end to end: a one-shot `ndet`
/// start costs about 1 ms, and on a shared machine that moves by more
/// than any useful bound between runs.
const PER_LAYER: &[&str] = &[
    "connect_p50_ms",
    "circuits.build_ms",
    "faults.universe_ms",
    "faults.targets",
    "faults.bridges",
    "faults.patterns",
    "faults.distinct_bridge_sets",
    "sim.intersect_gib_s",
    "core.worst_ms",
    "core.worst_ns_per_pair",
    "trace.overhead_pct",
    "trace.untraced_pct",
];

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `ndet worst` over a size sweep of seven circuits.
    WorstSweep,
    /// `ndet average cse` under Definition 1 and Definition 2.
    AverageDef12,
    /// A resident `ndet serve` under a closed-loop request mix.
    ServeMix,
}

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WorstSweep => "worst-sweep",
            Workload::AverageDef12 => "average-def12",
            Workload::ServeMix => "serve-mix",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "worst-sweep" => Some(Workload::WorstSweep),
            "average-def12" => Some(Workload::AverageDef12),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

/// A checked command line.
pub struct Args {
    /// The `ndet` binary under test.
    pub ndet: PathBuf,
    /// Scratch directory for caches and the trace.
    pub out: PathBuf,
    /// The workload to run.
    pub workload: Workload,
    /// Drives the serve-mix request order and its fresh `gen` seeds.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Worker threads for every analysis: one per core.
    pub threads: usize,
}

impl Args {
    /// An `ndet` invocation with `--threads` set and every `NDETECT_*`
    /// setting that could change its behaviour cleared.
    pub fn ndet(&self, argv: &[&str]) -> Command {
        let mut command = Command::new(&self.ndet);
        command
            .args(argv)
            .args(["--threads", &self.threads.to_string()]);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("NDETECT_") {
                command.env_remove(key);
            }
        }
        command
    }
}

const USAGE: &str =
    "usage: perfbench --ndet BIN --out DIR --workload worst-sweep|average-def12|serve-mix \
--seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("missing value for {flag}")),
        }
    };
    let required = |flag: &str| value(flag)?.ok_or_else(|| format!("missing {flag}"));
    let workload = required("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        let v = required(flag)?;
        v.parse()
            .map_err(|_| format!("bad value for {flag}: `{v}`"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value for --trace: `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        ndet: PathBuf::from(required("--ndet")?),
        out: PathBuf::from(required("--out")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("--seed")?,
        seconds: Duration::from_secs(seconds),
        trace,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// The first line of a command's stdout, or `unknown`.
fn first_line(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code: cores, threads, the
/// commit, the compiler and the target features compiled in (the binary
/// under test is built by the same `cargo` invocation environment).
fn environment(args: &Args) -> String {
    format!(
        "env: nproc={} threads={} commit={} rustc=\"{}\" target_features: popcnt={} avx2={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        args.threads,
        first_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"]),
        first_line("rustc", &["--version"]),
        cfg!(target_feature = "popcnt"),
        cfg!(target_feature = "avx2"),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let mut report = Report::default();
    report.note(format!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    ));
    report.note(environment(&args));
    match (args.workload, args.trace) {
        (Workload::ServeMix, false) => serve::measure(&args, &mut report),
        (Workload::ServeMix, true) => layers::serve(&args, &mut report),
        (_, false) => batch::measure(&args, &mut report),
        (_, true) => layers::batch(&args, &mut report),
    }
    let line = report.finish(if args.trace { PER_LAYER } else { END_TO_END });
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}
