//! Subcommand implementations for `ndet`.

use ndetect_core::partition::analyze_output_cones;
use ndetect_core::{
    estimate_detection_probabilities_stored, DetectionDefinition, Procedure1Config,
};
use ndetect_netlist::{bench_format, Netlist};
use ndetect_seq::FaultModel;
use ndetect_serve::render::{CorpusRequest, Knobs};
use ndetect_serve::{Engine, Subject};
use ndetect_store::Store;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::PathBuf;

mod serve_cmd;

/// Usage text shown when the command word is missing or unknown.
pub const USAGE: &str = "usage:
  ndet list
  ndet stats <circuit> [--seq] [--fault-model M]
  ndet worst <circuit> [--floor N] [--seq] [--fault-model M]
  ndet average <circuit> [--k K] [--nmax N] [--def 1|2] [--tail T]
              [--seq] [--fault-model M]
  ndet gen <circuit> [--n N] [--compact] [--seed S] [--seq]
          [--fault-model M]
  ndet synth <circuit>
  ndet bench-file <path> <stats|worst|cones> [--seq] [--fault-model M]
  ndet pla-file <path> <stats|worst|synth>
  ndet dot <circuit>
  ndet cones <circuit> [--max-inputs N]
  ndet corpus <dir> [--format csv|json] [--max-inputs N] [--recursive]
  ndet cache <stats|verify|repair|clear|gc> [--max-bytes N]
  ndet serve [--addr A] [--addr-file F] [--request-timeout-ms T]
             [--hot-universes N] [--hot-sets N] [--max-conns N] [--chaos]
  ndet request <addr> <verb> [args...] [--retry N] [--retry-on LIST]
               [--timeout-ms T]
  ndet trace report <file>

<circuit>: a suite name (`ndet list`), `figure1`, `c17`, or a bundled
sequential circuit (`s27`, `shift4`, `cnt3`). Sequential circuits are
analysed through deterministic two-frame broadside time-frame
expansion: flip-flop outputs become free pseudo-inputs of frame 1 and
the frame-2 flip-flop inputs are observed alongside the primary
outputs. `--fault-model M` picks the lowered fault model — `transition`
(default: slow-to-rise/slow-to-fall delay faults launched by frame 1
and captured in frame 2) or `stuck-at` (collapsed stuck-at faults of
the expanded netlist). `--seq` forces sequential interpretation
(registry lookup for named circuits, DFF-accepting parse for
`bench-file`); files containing DFFs are auto-detected either way.
`ndet corpus` classifies sequential `.bench` files as `seq` rows
analysed under the transition model.

`ndet serve` keeps an analysis process resident: it binds a TCP socket
(default 127.0.0.1:0; the chosen address is printed on stdout and, with
--addr-file, written to a file) and answers newline-delimited requests
(`stats <circuit>`, `worst <circuit> [floor=N]`, `gen <circuit> [n=N]
[compact] [seed=S]`, `corpus <dir> [format=csv|json] [max_inputs=N]
[recursive]`, `metrics`, `ping`) with exactly the bytes the
matching one-shot command prints. Hot artifacts stay in an in-memory
LRU, identical concurrent requests coalesce into a single build,
connections beyond --max-conns get a one-line `err busy` reply, and
SIGTERM/ctrl-c drains in-flight work before exiting 0. `ndet request`
is the matching one-shot client: it sends one request line and prints
the reply payload, failing when the server sends nothing for
--timeout-ms T milliseconds (default 120000); `--retry N` retries up to
N times with exponential backoff. By default a retry covers refused
connections and `err busy` / `err timeout` replies (for supervisors
racing server startup and herds hitting a saturated server);
`--retry-on LIST` narrows or widens that to any comma-separated subset
of refused,busy,timeout,internal,shutdown.

Fault injection: every command honours the NDETECT_FAILPOINTS
environment variable (`site=trigger:action` entries separated by `;`,
e.g. `store.save.write=always:return-err`) to deterministically inject
faults at named sites in the store, codec, engine, and serve layers —
see README \"Fault tolerance & chaos testing\" for the site table.
`ndet serve --chaos` additionally enables the `chaos set|list|clear`
verb for arming failpoints over the wire; without the flag the verb
answers `err denied`. `ndet cache repair` moves undecodable cache
entries into a `quarantine/` directory (with a MANIFEST recording the
original path and reason) instead of deleting them.

Every command accepts `--trace-out FILE` (or the NDETECT_TRACE
environment variable): spans covering the analysis hot paths — universe
build phases, store load/save, generation and compaction, serve request
lifecycle — are appended to FILE as JSONL. `ndet trace
report <file>` aggregates such a file into a per-span time table.
`metrics` (over `ndet request`) returns a Prometheus-style text
exposition of the serve counters, store session counters, and request
latency histogram.

Every analysis command accepts `--threads N` (worker threads for fault
simulation; default: the NDETECT_THREADS environment variable, then all
available cores). Results are identical for every thread count.

Every analysis command also accepts `--cache-dir DIR` (default: the
NDETECT_CACHE_DIR environment variable): a content-addressed on-disk
cache of fault universes and nmin vectors, making repeated analyses of
the same circuit incremental across invocations. `ndet cache` inspects
and maintains that directory (gc evicts least-recently-used entries
down to --max-bytes). The cache is strictly best-effort: an unusable
cache directory (read-only, full disk) makes analysis commands warn
once and continue uncached — only `ndet cache` itself treats an
unopenable store as fatal.";

/// Why a command line failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The command word is missing or unknown: `ndet` follows the
    /// message with [`USAGE`].
    Usage(String),
    /// The command ran and failed (a bad flag value, an unknown circuit,
    /// an unreadable or malformed file): the message alone says why.
    Error(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Error(message)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(message) | Failure::Error(message) => f.write_str(message),
        }
    }
}

/// Parses and runs a command line, writing what the command prints to
/// `stdout`; returns a user-facing error on failure.
pub fn dispatch(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| Failure::Usage("missing command".into()))?;
    let rest: Vec<&String> = it.collect();
    // Failpoints from NDETECT_FAILPOINTS arm before anything touches
    // the store or engine; a malformed spec is a hard error so a typo'd
    // chaos run cannot silently test nothing.
    ndetect_chaos::init_from_env().map_err(|e| format!("NDETECT_FAILPOINTS: {e}"))?;
    // Tracing: an explicit --trace-out wins over NDETECT_TRACE; either
    // way the sink is flushed after the command so the JSONL is
    // complete even for buffered writers.
    match flag_str(&rest, "--trace-out")? {
        Some(path) => ndetect_obs::trace::init_file(path)
            .map_err(|e| format!("cannot open --trace-out file `{path}`: {e}"))?,
        None => {
            let _ = ndetect_obs::trace::init_from_env();
        }
    }
    let result = {
        let _root = root_span(command).map(ndetect_obs::trace::span);
        let mut out = String::new();
        let ran = dispatch_command(command, &rest, &mut out, stdout);
        // What a command printed goes out even when it then failed
        // (`cache verify` lists the entries it rejects).
        ran.and(write_stdout(stdout, &out).map_err(Failure::Error))
    };
    ndetect_obs::trace::flush();
    result
}

/// Writes `text` to `stdout` and flushes it. A reader that closed the
/// pipe early (`ndet list | head -1`) has all it wanted, so a broken
/// pipe counts as written.
fn write_stdout(stdout: &mut dyn Write, text: &str) -> Result<(), String> {
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("cannot write output: {e}")),
        _ => Ok(()),
    }
}

/// The `cmd.<verb>` root span of a command, so that a trace accounts for
/// the whole process. `serve` has none: its `serve.request` spans are
/// the roots, one per request, and a process-long root beside them
/// would count their time twice.
fn root_span(command: &str) -> Option<&'static str> {
    Some(match command {
        "list" => "cmd.list",
        "stats" => "cmd.stats",
        "worst" => "cmd.worst",
        "average" => "cmd.average",
        "gen" => "cmd.gen",
        "synth" => "cmd.synth",
        "bench-file" => "cmd.bench-file",
        "pla-file" => "cmd.pla-file",
        "dot" => "cmd.dot",
        "cones" => "cmd.cones",
        "corpus" => "cmd.corpus",
        "cache" => "cmd.cache",
        "request" => "cmd.request",
        "trace" => "cmd.trace",
        _ => return None,
    })
}

/// Runs one command, appending what it prints to `out`. Only `serve`,
/// which prints while it runs, writes to `stdout` itself. The analysis
/// verbs render through `ndetect_serve::render` and an [`Engine`] that
/// keeps nothing resident — the layer and the artifact path `ndet
/// serve` shares, which is what keeps a served reply byte-identical to
/// the one-shot stdout.
fn dispatch_command(
    command: &str,
    rest: &[&String],
    out: &mut String,
    stdout: &mut dyn Write,
) -> Result<(), Failure> {
    let rest: Vec<&String> = rest.to_vec();
    // Worker threads for fault simulation and analysis; 0 = auto
    // (NDETECT_THREADS, then the machine's available parallelism).
    let threads = flag_value(&rest, "--threads")?.unwrap_or(0);
    let knobs = Knobs { threads };
    let text = match command {
        "list" => Ok(list()),
        "stats" => subject(&rest).and_then(|(_, s, engine)| s.stats(knobs, &engine)),
        "worst" => {
            let floor = flag_value(&rest, "--floor")?.unwrap_or(100);
            subject(&rest).and_then(|(_, s, engine)| s.worst(floor, knobs, &engine))
        }
        "average" => {
            let k = flag_value(&rest, "--k")?.unwrap_or(200);
            let nmax: u32 = flag_value(&rest, "--nmax")?.unwrap_or(10);
            let def: u32 = flag_value(&rest, "--def")?.unwrap_or(1);
            let tail = flag_value(&rest, "--tail")?.unwrap_or(nmax.saturating_add(1));
            subject(&rest)
                .and_then(|(name, s, engine)| average(name, &s, k, nmax, def, tail, knobs, &engine))
        }
        "gen" => {
            let n_det: u32 = flag_value(&rest, "--n")?.unwrap_or(10);
            let do_compact = flag_present(&rest, "--compact");
            let seed: Option<u64> = flag_value(&rest, "--seed")?;
            if n_det == 0 {
                return Err(Failure::Error("--n must be at least 1".into()));
            }
            subject(&rest).and_then(|(_, s, engine)| s.gen(n_det, do_compact, seed, knobs, &engine))
        }
        "synth" => netlist(&rest).map(|n| bench_format::write(&n)),
        "bench-file" => bench_file(&rest, knobs, &one_shot_engine(&rest)?),
        "pla-file" => pla_file(&rest, knobs, &one_shot_engine(&rest)?),
        "dot" => netlist(&rest).map(|n| ndetect_netlist::dot::write(&n)),
        "cones" => {
            let max_inputs = flag_value(&rest, "--max-inputs")?.unwrap_or(14);
            let store = open_store_degraded(&rest)?;
            netlist(&rest).and_then(|n| cones(&n, max_inputs, knobs, store.as_ref()))
        }
        "corpus" => corpus(&rest, knobs, &one_shot_engine(&rest)?),
        "cache" => cache(&rest, open_store(&rest)?.as_ref(), out).map(|()| String::new()),
        "serve" => {
            serve_cmd::serve(&rest, open_store_degraded(&rest)?, stdout).map(|()| String::new())
        }
        "request" => serve_cmd::request(&rest),
        "trace" => trace_cmd(&rest),
        other => return Err(Failure::Usage(format!("unknown command `{other}`"))),
    };
    out.push_str(&text?);
    Ok(())
}

/// `ndet trace report <file>`: aggregate a JSONL trace (as written by
/// `--trace-out` / `NDETECT_TRACE`) into a per-span time table.
fn trace_cmd(rest: &[&String]) -> Result<String, String> {
    let pos = positionals(rest);
    match pos.first().copied() {
        Some("report") => {
            let path = pos.get(1).copied().ok_or("missing trace file path")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let report = ndetect_obs::TraceReport::from_jsonl(&text)?;
            Ok(ndetect_obs::render_report(&report))
        }
        Some(other) => Err(format!("unknown trace subcommand `{other}`")),
        None => Err("missing trace subcommand (expected `report <file>`)".into()),
    }
}

/// The value of `flag`, parsed at the width it is used at, so an
/// out-of-range number fails with `bad value for FLAG` instead of
/// wrapping in a later cast.
fn flag_value<T: std::str::FromStr>(rest: &[&String], flag: &str) -> Result<Option<T>, String> {
    match flag_str(rest, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {flag}: `{v}`")),
    }
}

fn flag_str<'a>(rest: &[&'a String], flag: &str) -> Result<Option<&'a str>, String> {
    for (i, arg) in rest.iter().enumerate() {
        if arg.as_str() == flag {
            return rest
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("missing value for {flag}"));
        }
    }
    Ok(None)
}

/// Flags that are pure presence toggles — they consume no value, so the
/// positional scanner must not swallow the token after them.
const BOOLEAN_FLAGS: &[&str] = &["--compact", "--recursive", "--chaos", "--seq"];

/// Whether a presence-toggle flag (one of [`BOOLEAN_FLAGS`]) was given.
fn flag_present(rest: &[&String], flag: &str) -> bool {
    debug_assert!(BOOLEAN_FLAGS.contains(&flag), "unregistered boolean flag");
    rest.iter().any(|arg| arg.as_str() == flag)
}

/// The cache directory selected by `--cache-dir`, falling back to the
/// `NDETECT_CACHE_DIR` environment variable; `None` when no cache
/// directory is configured.
fn cache_dir(rest: &[&String]) -> Result<Option<String>, String> {
    // An empty value (e.g. --cache-dir "$UNSET_VAR") disables caching
    // rather than rooting a store in the current directory.
    Ok(flag_str(rest, "--cache-dir")?
        .map(str::to_string)
        .or_else(|| std::env::var("NDETECT_CACHE_DIR").ok())
        .filter(|d| !d.is_empty()))
}

/// Opens the configured artifact store, failing hard when it cannot be
/// opened. Only `ndet cache` uses this: a maintenance command pointed
/// at a broken store must report it, not shrug.
fn open_store(rest: &[&String]) -> Result<Option<Store>, String> {
    match cache_dir(rest)? {
        None => Ok(None),
        Some(dir) => Store::open(&dir)
            .map(Some)
            .map_err(|e| format!("cannot open cache dir `{dir}`: {e}")),
    }
}

/// Opens the configured artifact store for an analysis command: the
/// cache is best-effort, so an unusable directory (read-only parent,
/// full disk) degrades to running uncached with a one-line warning
/// rather than failing the analysis.
fn open_store_degraded(rest: &[&String]) -> Result<Option<Store>, String> {
    match cache_dir(rest)? {
        None => Ok(None),
        Some(dir) => match Store::open(&dir) {
            Ok(store) => Ok(Some(store)),
            Err(e) => {
                eprintln!("ndet: cannot open cache dir `{dir}` ({e}); continuing uncached");
                Ok(None)
            }
        },
    }
}

/// The engine a one-shot analysis renders through: the configured store
/// ([`open_store_degraded`]) and nothing resident.
fn one_shot_engine(rest: &[&String]) -> Result<Engine, String> {
    Ok(Engine::new(open_store_degraded(rest)?, 0, 0))
}

/// The positional arguments: every token that is neither a `--flag` nor
/// the value following one (string-valued flags like `--cache-dir`
/// would otherwise be misread as positionals). Presence toggles
/// ([`BOOLEAN_FLAGS`]) consume no value.
fn positionals<'a>(rest: &[&'a String]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            if !BOOLEAN_FLAGS.contains(&arg.as_str()) {
                let _ = it.next(); // the flag's value
            }
            continue;
        }
        out.push(arg.as_str());
    }
    out
}

/// The circuit name: the first positional that is not a bare number.
fn circuit_name<'a>(rest: &[&'a String]) -> Result<&'a str, String> {
    positionals(rest)
        .into_iter()
        .find(|a| !a.chars().all(|c| c.is_ascii_digit()))
        .ok_or_else(|| "missing circuit name".to_string())
}

/// The combinational suite circuit named on the command line.
fn netlist(rest: &[&String]) -> Result<Netlist, String> {
    ndetect_circuits::build(circuit_name(rest)?).map_err(|e| e.to_string())
}

/// The `--fault-model` flag, parsed; `None` when absent.
fn fault_model_flag(rest: &[&String]) -> Result<Option<FaultModel>, String> {
    match flag_str(rest, "--fault-model")? {
        None => Ok(None),
        Some(v) => FaultModel::parse(v).map(Some).ok_or_else(|| {
            format!("bad value for --fault-model: `{v}` (expected transition or stuck-at)")
        }),
    }
}

/// The circuit argument, resolved with `--fault-model` through the
/// one-shot engine it comes with. `--seq` refuses a combinational name.
fn subject<'a>(rest: &[&'a String]) -> Result<(&'a str, Subject, Engine), String> {
    let engine = one_shot_engine(rest)?;
    let name = circuit_name(rest)?;
    let model = fault_model_flag(rest)?;
    if flag_present(rest, "--seq") && matches!(engine.resolve(name, None), Ok(Subject::Comb(_))) {
        return Err(format!("`{name}` is not a sequential circuit (drop --seq)"));
    }
    let subject = engine.resolve(name, model)?;
    Ok((name, subject, engine))
}

fn list() -> String {
    let mut out = format!(
        "{:<10} {:>6} {:>7} {:>7} {:>10} {:<14}\n",
        "circuit", "inputs", "outputs", "states", "sim bits", "source"
    );
    for spec in ndetect_circuits::suite() {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>7} {:>7} {:>10} {:<14}",
            spec.name(),
            spec.inputs(),
            spec.outputs(),
            spec.states(),
            spec.total_input_bits(),
            format!("{:?}", spec.source()),
        );
    }
    out + "\nspecials: figure1 (paper example), c17 (ISCAS-85)\n"
}

#[allow(clippy::too_many_arguments)]
fn average(
    name: &str,
    subject: &Subject,
    k: usize,
    nmax: u32,
    def: u32,
    tail: u32,
    knobs: Knobs,
    engine: &Engine,
) -> Result<String, String> {
    let universe = &subject.universe(knobs, engine)?;
    let definition = match def {
        1 => DetectionDefinition::Standard,
        2 => DetectionDefinition::SufficientlyDifferent,
        other => return Err(format!("--def must be 1 or 2, got {other}")),
    };
    // No fault has more tests than there are patterns, so a larger n
    // changes no set; refuse it before Procedure 1 sizes its tallies by
    // it.
    let patterns = universe.space().num_patterns();
    if nmax as usize > patterns {
        return Err(format!(
            "--nmax must be at most {patterns}, the pattern count of {name}; got {nmax}"
        ));
    }
    let wc = engine.worst(universe, knobs.threads);
    let tracked = wc.tail_indices(tail);
    if tracked.is_empty() {
        return Ok(format!(
            "{name}: no untargeted faults with nmin >= {tail}; nothing to estimate\n"
        ));
    }
    let config = Procedure1Config {
        nmax,
        num_test_sets: k,
        definition,
        threads: knobs.threads,
        ..Default::default()
    };
    // Procedure 1 is seeded, so the whole K-set construction is
    // cacheable: warm re-runs load the estimate from the store.
    let probs =
        estimate_detection_probabilities_stored(universe, &tracked, &config, engine.store())
            .map_err(|e| e.to_string())?;
    let mut out = format!(
        "{name}: {} tracked faults (nmin >= {tail}), K = {k}, definition {def}\n",
        tracked.len()
    );
    let _ = writeln!(
        out,
        "p({nmax},g) >= thresholds 1.0..0.0: {:?}",
        probs.histogram_row(nmax)
    );
    if let Some((pos, p)) = probs.min_probability(nmax) {
        let _ = writeln!(
            out,
            "lowest p({nmax},g) = {p:.3} for {}",
            universe.bridges()[tracked[pos]].name(universe.netlist())
        );
    }
    let _ = writeln!(
        out,
        "expected escapes at n = {nmax}: {:.2} of {} tracked faults",
        probs.expected_escapes(nmax),
        tracked.len()
    );
    Ok(out)
}

fn pla_file(rest: &[&String], knobs: Knobs, engine: &Engine) -> Result<String, String> {
    let pos = positionals(rest);
    let path = *pos.first().ok_or("missing .pla path")?;
    let sub = pos.get(1).copied().unwrap_or("stats");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("pla");
    let pla = ndetect_fsm::parse_pla(name, &text).map_err(|e| e.to_string())?;
    let netlist = pla.synthesize().map_err(|e| e.to_string())?;
    match sub {
        "stats" => ndetect_serve::render_stats(&netlist, knobs, engine),
        "worst" => ndetect_serve::render_worst(&netlist, 100, knobs, engine),
        "synth" => Ok(bench_format::write(&netlist)),
        other => Err(format!("unknown pla-file subcommand `{other}`")),
    }
}

fn bench_file(rest: &[&String], knobs: Knobs, engine: &Engine) -> Result<String, String> {
    let pos = positionals(rest);
    let path = *pos.first().ok_or("missing .bench path")?;
    let sub = pos.get(1).copied().unwrap_or("stats");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    let subject = Subject::parse_bench(
        name,
        &text,
        flag_present(rest, "--seq"),
        fault_model_flag(rest)?,
    )?;
    match (sub, &subject) {
        ("stats", _) => subject.stats(knobs, engine),
        ("worst", _) => subject.worst(100, knobs, engine),
        ("cones", Subject::Comb(netlist)) => cones(netlist, 14, knobs, engine.store()),
        (other, Subject::Comb(_)) => Err(format!("unknown bench-file subcommand `{other}`")),
        (other, Subject::Seq(..)) => Err(format!(
            "unknown bench-file subcommand `{other}` for a sequential circuit (expected stats or worst)"
        )),
    }
}

fn cones(
    netlist: &Netlist,
    max_inputs: usize,
    knobs: Knobs,
    store: Option<&Store>,
) -> Result<String, String> {
    let reports = analyze_output_cones(netlist, max_inputs, knobs.threads, store)
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "{}: {} output cones analysed (cones wider than {max_inputs} inputs skipped)\n",
        netlist.name(),
        reports.len()
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>7} {:>8} {:>9} {:>8}",
        "output", "inputs", "gates", "targets", "bridges", "cov@10", "tail11"
    );
    for r in reports {
        let cov10 = r
            .coverage
            .iter()
            .find(|(n, _)| *n == 10)
            .map_or(100.0, |(_, pct)| *pct);
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>7} {:>8} {:>8.2}% {:>8}",
            r.output_name,
            r.num_inputs,
            r.num_gates,
            r.num_targets,
            r.num_bridges,
            cov10,
            r.tail_11
        );
    }
    Ok(out)
}

/// `ndet cache <stats|verify|repair|clear|gc>`: inspection and
/// maintenance of the on-disk artifact store.
fn cache(rest: &[&String], store: Option<&Store>, out: &mut String) -> Result<(), String> {
    let sub = positionals(rest).first().copied().unwrap_or("stats");
    let store = store
        .ok_or("no cache directory configured: pass --cache-dir DIR or set NDETECT_CACHE_DIR")?;
    match sub {
        "stats" => {
            let s = store.stats().map_err(|e| e.to_string())?;
            let _ = writeln!(out, "cache dir: {}", store.root().display());
            let _ = writeln!(out, "entries: {}", s.entries);
            let _ = writeln!(out, "bytes: {}", s.total_bytes);
            let _ = writeln!(out, "hits: {}", s.hits);
            let _ = writeln!(out, "misses: {}", s.misses);
            let _ = writeln!(out, "writes: {}", s.writes);
            let _ = writeln!(out, "shards: {}", s.shards);
            // Per-shard entry histogram (occupied fan-out dirs only).
            let histogram = store.shard_histogram().map_err(|e| e.to_string())?;
            for (shard, count) in &histogram {
                let _ = writeln!(out, "shard {shard}: {count}");
            }
            Ok(())
        }
        "verify" => {
            let report = store.verify().map_err(|e| e.to_string())?;
            let _ = writeln!(out, "valid entries: {}", report.valid);
            let _ = writeln!(out, "corrupt entries: {}", report.corrupt.len());
            for (path, reason) in &report.corrupt {
                let _ = writeln!(out, "  {}: {reason}", path.display());
            }
            if report.corrupt.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} corrupt cache entries (they are treated as misses; `ndet cache clear` removes them)",
                    report.corrupt.len()
                ))
            }
        }
        "repair" => {
            let report = store.repair().map_err(|e| e.to_string())?;
            let _ = writeln!(out, "valid entries: {}", report.valid);
            let _ = writeln!(out, "quarantined: {}", report.quarantined.len());
            for (path, reason) in &report.quarantined {
                let _ = writeln!(out, "  {}: {reason}", path.display());
            }
            if !report.quarantined.is_empty() {
                let _ = writeln!(
                    out,
                    "quarantined entries moved under {} (see MANIFEST); they rebuild as cache misses",
                    store.root().join("quarantine").display()
                );
            }
            Ok(())
        }
        "clear" => {
            store.clear().map_err(|e| e.to_string())?;
            let _ = writeln!(out, "cache cleared: {}", store.root().display());
            Ok(())
        }
        "gc" => {
            let max_bytes: u64 = flag_value(rest, "--max-bytes")?.unwrap_or(256 * 1024 * 1024);
            let report = store.gc(max_bytes).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "gc to {max_bytes} bytes: evicted {} entries ({} bytes), kept {} ({} bytes)",
                report.evicted, report.freed_bytes, report.kept, report.kept_bytes
            );
            Ok(())
        }
        other => Err(format!("unknown cache subcommand `{other}`")),
    }
}

/// `ndet corpus <dir>`: walks a directory of ISCAS-style `.bench` files
/// (`--recursive` descends into subdirectories; order is the sorted
/// full path list either way, so results are deterministic), runs the
/// stats/worst-case analysis per circuit through the artifact store
/// (with the output-cone partitioned fallback for circuits too wide for
/// exhaustive simulation), generates compact n-detection sets at
/// n = 1, 5, 10 for exhaustively analysed circuits, and emits a
/// machine-readable CSV or JSON summary on stdout.
fn corpus(rest: &[&String], knobs: Knobs, engine: &Engine) -> Result<String, String> {
    let dir = positionals(rest)
        .first()
        .copied()
        .ok_or("missing corpus directory")?;
    let format = flag_str(rest, "--format")?.unwrap_or("csv");
    if format != "csv" && format != "json" {
        return Err(format!("--format must be csv or json, got `{format}`"));
    }
    let request = CorpusRequest {
        dir: PathBuf::from(dir),
        format: format.to_string(),
        max_inputs: flag_value(rest, "--max-inputs")?.unwrap_or(14),
        recursive: flag_present(rest, "--recursive"),
    };
    let output = ndetect_serve::render_corpus(&request, knobs, engine)?;
    for message in &output.errors {
        eprintln!("# corpus error: {message}");
    }
    if !output.errors.is_empty() {
        eprintln!(
            "# corpus: {} of {} files failed (rows marked `error`)",
            output.errors.len(),
            output.files
        );
    }
    Ok(output.body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), Failure> {
        let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
        dispatch(&owned, &mut std::io::sink())
    }

    #[test]
    fn rejects_missing_and_unknown_commands() {
        assert!(matches!(run(&[]), Err(Failure::Usage(_))));
        assert!(matches!(run(&["frobnicate"]), Err(Failure::Usage(_))));
        assert!(matches!(
            run(&["greedy", "figure1"]),
            Err(Failure::Usage(_))
        ));
    }

    #[test]
    fn list_succeeds() {
        assert!(run(&["list"]).is_ok());
    }

    #[test]
    fn stats_and_worst_on_figure1() {
        assert!(run(&["stats", "figure1"]).is_ok());
        assert!(run(&["worst", "figure1"]).is_ok());
        assert!(run(&["stats", "not-a-circuit"]).is_err());
    }

    #[test]
    fn average_flag_validation() {
        assert!(run(&["average", "figure1", "--k", "10", "--nmax", "3", "--tail", "3"]).is_ok());
        assert!(run(&["average", "figure1", "--def", "7"]).is_err());
        assert!(run(&["average", "figure1", "--k"]).is_err());
        assert!(run(&["average", "figure1", "--k", "zebra"]).is_err());
        // Numbers past u32 fail to parse instead of wrapping into range.
        let bad = |flag: &str, value: &str| {
            let args = ["average", "figure1", "--k", "5", flag, value];
            match run(&args) {
                Err(Failure::Error(message)) => message,
                other => panic!("{args:?}: {other:?}"),
            }
        };
        for flag in ["--def", "--tail", "--nmax"] {
            for value in ["4294967296", "4294967297"] {
                assert_eq!(bad(flag, value), format!("bad value for {flag}: `{value}`"));
            }
        }
        // figure1 has 16 patterns: n = 16 is the largest that can
        // change a set, and a larger one fails before any allocation.
        assert!(run(&["average", "figure1", "--k", "2", "--nmax", "16"]).is_ok());
        for value in ["17", "20", "4294967295"] {
            assert_eq!(
                bad("--nmax", value),
                format!("--nmax must be at most 16, the pattern count of figure1; got {value}")
            );
        }
    }

    #[test]
    fn greedy_synth_dot_cones() {
        assert!(run(&["gen", "figure1", "--n", "2"]).is_ok());
        assert!(matches!(
            run(&["gen", "figure1", "--n", "4294967297"]),
            Err(Failure::Error(message)) if message == "bad value for --n: `4294967297`"
        ));
        assert!(run(&["synth", "figure1"]).is_ok());
        assert!(run(&["dot", "c17"]).is_ok());
        assert!(run(&["cones", "c17"]).is_ok());
    }

    #[test]
    fn gen_flag_validation() {
        assert!(run(&["gen", "figure1", "--n", "3"]).is_ok());
        assert!(run(&["gen", "figure1", "--n", "3", "--compact"]).is_ok());
        assert!(run(&["gen", "figure1", "--compact", "--n", "3", "--seed", "7"]).is_ok());
        // Boolean flags must not swallow the circuit name.
        assert!(run(&["gen", "--compact", "figure1"]).is_ok());
        assert!(run(&["gen", "figure1", "--n", "0"]).is_err());
        assert!(run(&["gen", "figure1", "--n", "zebra"]).is_err());
        assert!(run(&["gen", "figure1", "--seed"]).is_err());
        assert!(run(&["gen"]).is_err());
    }

    #[test]
    fn threads_flag_accepted_and_validated() {
        assert!(run(&["stats", "figure1", "--threads", "1"]).is_ok());
        assert!(run(&["worst", "figure1", "--threads", "2"]).is_ok());
        assert!(run(&[
            "average",
            "figure1",
            "--k",
            "10",
            "--nmax",
            "2",
            "--threads",
            "2"
        ])
        .is_ok());
        assert!(run(&["worst", "figure1", "--threads", "zebra"]).is_err());
        assert!(run(&["worst", "figure1", "--threads"]).is_err());
    }

    #[test]
    fn file_commands_validate_paths() {
        assert!(run(&["bench-file", "/nonexistent/x.bench"]).is_err());
        assert!(run(&["pla-file", "/nonexistent/x.pla"]).is_err());
    }

    #[test]
    fn trace_out_produces_a_reportable_jsonl_file() {
        let path =
            std::env::temp_dir().join(format!("ndet-trace-test-{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        assert!(run(&["worst", "figure1", "--trace-out", &path]).is_ok());
        ndetect_obs::trace::disable();
        assert!(run(&["trace", "report", &path]).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_subcommand_validation() {
        assert!(run(&["trace"]).is_err());
        assert!(run(&["trace", "frobnicate"]).is_err());
        assert!(run(&["trace", "report"]).is_err());
        assert!(run(&["trace", "report", "/nonexistent/trace.jsonl"]).is_err());
    }

    #[test]
    fn request_retry_flag_validation() {
        assert!(run(&["request", "127.0.0.1:1", "ping", "--retry", "zebra"]).is_err());
        assert!(run(&["request", "127.0.0.1:1", "ping", "--retry"]).is_err());
    }

    #[test]
    fn sequential_circuits_run_end_to_end() {
        assert!(run(&["worst", "s27"]).is_ok());
        assert!(run(&["stats", "shift4", "--fault-model", "stuck-at"]).is_ok());
        assert!(run(&["gen", "cnt3", "--n", "2", "--seq"]).is_ok());
        assert!(run(&["average", "s27", "--k", "5", "--nmax", "2"]).is_ok());
    }

    #[test]
    fn sequential_flag_validation() {
        // --fault-model only makes sense for time-frame expansion.
        assert!(run(&["worst", "figure1", "--fault-model", "transition"]).is_err());
        assert!(run(&["worst", "s27", "--fault-model", "zebra"]).is_err());
        // --seq on a combinational name, and names in neither registry.
        assert!(run(&["worst", "figure1", "--seq"]).is_err());
        assert!(run(&["worst", "not-a-circuit", "--seq"]).is_err());
    }

    #[test]
    fn bench_file_auto_detects_sequential_circuits() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/corpus/s27.bench"
        );
        assert!(run(&["bench-file", path, "worst"]).is_ok());
        assert!(run(&["bench-file", path, "stats", "--seq"]).is_ok());
        assert!(run(&["bench-file", path, "cones"]).is_err());
    }
}
