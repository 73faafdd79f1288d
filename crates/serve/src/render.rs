//! Render-to-string analysis front ends shared by the one-shot `ndet`
//! CLI and the persistent server.
//!
//! Both paths must produce **byte-identical** output for the same
//! request (the serve-smoke CI job diffs them), so the rendering lives
//! here once and reads every artifact through one [`Engine`]: the CLI
//! renders through `Engine::new(store, 0, 0)`, which keeps nothing
//! resident, and the server through its long-lived engine, which keeps
//! hot artifacts and joins identical in-flight builds.

use crate::Engine;
use ndetect_core::partition::analyze_output_cones;
use ndetect_core::report::{render_table2, render_table3, table2_row, table3_row};
use ndetect_core::{bridges_detected, NminDistribution};
use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_gen::GenOptions;
use ndetect_netlist::{bench_format, Netlist, NetlistError, NetlistStats, SeqNetlist};
use ndetect_seq::{ExpandedModel, FaultModel};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Simulation knobs shared by every analysis request: the worker
/// thread count, a performance knob — results are identical for every
/// value.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Knobs {
    /// Worker threads (0 = auto: `NDETECT_THREADS`, then all cores).
    pub threads: usize,
}

impl Knobs {
    /// The universe options these knobs select (semantic defaults).
    #[must_use]
    pub fn universe_options(self) -> UniverseOptions {
        UniverseOptions::with_threads(self.threads)
    }
}

/// `ndet stats` / serve `stats`: structure, fault population, kernel.
///
/// # Errors
///
/// Returns a user-facing message when the universe cannot be built.
pub fn render_stats(netlist: &Netlist, knobs: Knobs, engine: &Engine) -> Result<String, String> {
    let universe = engine.universe(netlist, None, knobs.universe_options())?;
    Ok(stats_body(netlist, &universe))
}

/// The shared `stats` body (combinational and sequential front ends
/// render the same universe summary).
fn stats_body(netlist: &Netlist, universe: &FaultUniverse) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{netlist}");
    let _ = writeln!(out, "{}", NetlistStats::compute(netlist));
    let _ = writeln!(out, "{universe}");
    // Constant words: the stats goldens and benchmark digests pin this line.
    let _ = writeln!(
        out,
        "kernel: full ({} bytes/worker data plane, budget auto)",
        universe.simulator().data_plane_bytes(),
    );
    out
}

/// The expansion of `seq` under `model` and the explicit-target
/// universe over it.
fn seq_universe(
    seq: &SeqNetlist,
    model: FaultModel,
    knobs: Knobs,
    engine: &Engine,
) -> Result<(Arc<ExpandedModel>, Arc<FaultUniverse>), String> {
    let expanded = engine.expanded(seq, model)?;
    let universe = engine.universe(
        expanded.netlist(),
        Some(&expanded.explicit_targets()),
        knobs.universe_options(),
    )?;
    Ok((expanded, universe))
}

/// `ndet stats --seq` / serve `stats` on a sequential circuit: the
/// expansion summary, then the same structure/universe/kernel report
/// over the two-frame expanded netlist.
///
/// # Errors
///
/// Returns a user-facing message when the expansion fails or the
/// expanded universe cannot be built.
pub fn render_seq_stats(
    seq: &SeqNetlist,
    model: FaultModel,
    knobs: Knobs,
    engine: &Engine,
) -> Result<String, String> {
    let (expanded, universe) = seq_universe(seq, model, knobs, engine)?;
    Ok(format!(
        "{expanded}\n{}",
        stats_body(expanded.netlist(), &universe)
    ))
}

/// `ndet worst` / serve `worst`: the worst-case nmin analysis with the
/// paper's Table 2/3 rows and the nmin tail distribution.
///
/// # Errors
///
/// Returns a user-facing message when the universe cannot be built.
pub fn render_worst(
    netlist: &Netlist,
    floor: usize,
    knobs: Knobs,
    engine: &Engine,
) -> Result<String, String> {
    let universe = engine.universe(netlist, None, knobs.universe_options())?;
    Ok(worst_body(netlist.name(), &universe, floor, knobs, engine))
}

/// The shared `worst` body: analysis summary, Table 2/3 rows, and the
/// nmin tail distribution.
fn worst_body(
    name: &str,
    universe: &Arc<FaultUniverse>,
    floor: usize,
    knobs: Knobs,
    engine: &Engine,
) -> String {
    let wc = engine.worst(universe, knobs.threads);
    let mut out = String::new();
    let _ = writeln!(out, "{universe}");
    let _ = writeln!(out, "{wc}");
    let _ = writeln!(out);
    let _ = write!(out, "{}", render_table2(&[table2_row(name, &wc)]));
    let _ = writeln!(out);
    let _ = write!(out, "{}", render_table3(&[table3_row(name, &wc)]));
    let dist = NminDistribution::collect(&wc, floor as u32);
    if !dist.is_empty() {
        let _ = writeln!(out, "\nnmin distribution (nmin >= {floor}):");
        let _ = write!(out, "{}", dist.render_ascii(24));
    }
    out
}

/// `ndet worst --seq` / serve `worst` on a sequential circuit:
/// worst-case nmin analysis over the lowered transition (or stuck-at)
/// fault population of the two-frame expansion.
///
/// # Errors
///
/// Returns a user-facing message when the expansion fails or the
/// expanded universe cannot be built.
pub fn render_seq_worst(
    seq: &SeqNetlist,
    model: FaultModel,
    floor: usize,
    knobs: Knobs,
    engine: &Engine,
) -> Result<String, String> {
    let (expanded, universe) = seq_universe(seq, model, knobs, engine)?;
    Ok(format!(
        "{expanded}\n{}",
        worst_body(expanded.netlist().name(), &universe, floor, knobs, engine)
    ))
}

/// `ndet gen` / serve `gen`: the set-cover generation engine with
/// compaction and seeded tie-breaking.
///
/// # Errors
///
/// Returns a user-facing message when `n` is zero or the universe
/// cannot be built.
pub fn render_gen(
    netlist: &Netlist,
    n: u32,
    compact: bool,
    seed: Option<u64>,
    knobs: Knobs,
    engine: &Engine,
) -> Result<String, String> {
    if n == 0 {
        return Err("n must be at least 1".into());
    }
    let universe = engine.universe(netlist, None, knobs.universe_options())?;
    Ok(gen_body(&universe, n, compact, seed, engine))
}

/// `ndet gen --seq` / serve `gen` on a sequential circuit: broadside
/// n-detection set generation over the expanded fault population.
///
/// # Errors
///
/// Returns a user-facing message when `n` is zero, the expansion
/// fails, or the expanded universe cannot be built.
pub fn render_seq_gen(
    seq: &SeqNetlist,
    model: FaultModel,
    n: u32,
    compact: bool,
    seed: Option<u64>,
    knobs: Knobs,
    engine: &Engine,
) -> Result<String, String> {
    if n == 0 {
        return Err("n must be at least 1".into());
    }
    let (expanded, universe) = seq_universe(seq, model, knobs, engine)?;
    Ok(format!(
        "{expanded}\n{}",
        gen_body(&universe, n, compact, seed, engine)
    ))
}

/// The shared `gen` body: set summary, target accounting, bridging
/// coverage, and the set listing.
fn gen_body(
    universe: &Arc<FaultUniverse>,
    n: u32,
    compact: bool,
    seed: Option<u64>,
    engine: &Engine,
) -> String {
    let options = GenOptions {
        n,
        compact,
        seed,
        ..GenOptions::default()
    };
    let set = engine.generated(universe, &options);
    let space = universe.space().num_patterns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "generated {n}-detection set: {} tests ({:.2}% of the {space}-vector space{})",
        set.len(),
        100.0 * set.len() as f64 / space as f64,
        if set.is_compacted() {
            ", compacted"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "targets: {} detectable of {}; every one detected min(n, |T(f)|) times",
        universe.num_detectable_targets(),
        universe.targets().len()
    );
    let covered = bridges_detected(universe, set.as_vector_set());
    let coverage = if universe.bridges().is_empty() {
        100.0
    } else {
        100.0 * covered as f64 / universe.bridges().len() as f64
    };
    let _ = writeln!(
        out,
        "bridging coverage: {coverage:.2}% ({covered} of {})",
        universe.bridges().len()
    );
    let _ = writeln!(out, "{set}");
    out
}

/// A circuit to analyse: a combinational netlist, or a sequential one
/// with the fault model its two-frame expansion lowers. The CLI, the
/// server and `corpus` resolve every circuit into one, and its methods
/// are the one dispatch onto the combinational and sequential
/// renderers. Clones share the netlist.
#[derive(Clone, Debug)]
pub enum Subject {
    /// A combinational circuit, analysed directly.
    Comb(Arc<Netlist>),
    /// A sequential circuit, analysed through its two-frame broadside
    /// expansion under the given fault model.
    Seq(Arc<SeqNetlist>, FaultModel),
}

impl Subject {
    /// Parses `.bench` text. A file with flip-flops is sequential (a
    /// DFF is a classification, not a failure); `force_seq` reads any
    /// file that way. A missing `model` defaults to transition.
    ///
    /// # Errors
    ///
    /// Returns the parser's message, or the combinational-circuit
    /// message when `model` is given for a combinational file.
    pub fn parse_bench(
        name: &str,
        text: &str,
        force_seq: bool,
        model: Option<FaultModel>,
    ) -> Result<Subject, String> {
        if !force_seq {
            match bench_format::parse(name, text) {
                Ok(netlist) => return Subject::combinational(netlist, model),
                Err(NetlistError::Sequential { .. }) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        let seq = bench_format::parse_seq(name, text).map_err(|e| e.to_string())?;
        Ok(Subject::Seq(Arc::new(seq), model.unwrap_or_default()))
    }

    /// A combinational subject; a fault model only exists for a
    /// sequential circuit's expansion, so one given here is an error.
    pub(crate) fn combinational(
        netlist: Netlist,
        model: Option<FaultModel>,
    ) -> Result<Subject, String> {
        match model {
            None => Ok(Subject::Comb(Arc::new(netlist))),
            Some(model) => Err(format!(
                "fault model `{model}` applies only to sequential circuits; `{}` is combinational",
                netlist.name()
            )),
        }
    }

    /// `stats` through [`render_stats`] or [`render_seq_stats`], whose
    /// errors it returns.
    pub fn stats(&self, knobs: Knobs, engine: &Engine) -> Result<String, String> {
        match self {
            Subject::Comb(netlist) => render_stats(netlist, knobs, engine),
            Subject::Seq(seq, model) => render_seq_stats(seq, *model, knobs, engine),
        }
    }

    /// `worst` through [`render_worst`] or [`render_seq_worst`], whose
    /// errors it returns.
    pub fn worst(&self, floor: usize, knobs: Knobs, engine: &Engine) -> Result<String, String> {
        match self {
            Subject::Comb(netlist) => render_worst(netlist, floor, knobs, engine),
            Subject::Seq(seq, model) => render_seq_worst(seq, *model, floor, knobs, engine),
        }
    }

    /// `gen` through [`render_gen`] or [`render_seq_gen`], whose
    /// errors it returns.
    pub fn gen(
        &self,
        n: u32,
        compact: bool,
        seed: Option<u64>,
        knobs: Knobs,
        engine: &Engine,
    ) -> Result<String, String> {
        match self {
            Subject::Comb(netlist) => render_gen(netlist, n, compact, seed, knobs, engine),
            Subject::Seq(seq, model) => {
                render_seq_gen(seq, *model, n, compact, seed, knobs, engine)
            }
        }
    }

    /// The fault universe the renderers analyse: the circuit's own, or
    /// the explicit-target universe over the expansion.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the expansion fails or the
    /// universe cannot be built.
    pub fn universe(&self, knobs: Knobs, engine: &Engine) -> Result<Arc<FaultUniverse>, String> {
        match self {
            Subject::Comb(netlist) => engine.universe(netlist, None, knobs.universe_options()),
            Subject::Seq(seq, model) => Ok(seq_universe(seq, *model, knobs, engine)?.1),
        }
    }
}

/// Parameters of a corpus run (`ndet corpus` / serve `corpus`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusRequest {
    /// Directory holding `.bench` files.
    pub dir: PathBuf,
    /// `csv` or `json`.
    pub format: String,
    /// Cone-fallback threshold: circuits wider than this are analysed
    /// per output cone.
    pub max_inputs: usize,
    /// Whether to descend into subdirectories.
    pub recursive: bool,
}

/// Output of a corpus run: the machine-readable summary plus any
/// per-file error diagnostics (the run tolerates malformed files).
#[derive(Clone, Debug)]
pub struct CorpusOutput {
    /// The CSV or JSON summary (what `ndet corpus` prints on stdout).
    pub body: String,
    /// Human-readable per-file failure messages (stderr material).
    pub errors: Vec<String>,
    /// Total `.bench` files walked (for the failure summary line).
    pub files: usize,
}

/// One row of the corpus summary.
struct CorpusRow {
    circuit: String,
    /// `full` (exhaustive universe), `cones` (per-output partitioned
    /// fallback for circuits wider than `max_inputs`), `seq`
    /// (sequential circuit analysed through its two-frame transition
    /// expansion), `skipped` (every cone was too wide — nothing was
    /// analysed), or `error` (the file failed to
    /// read/parse/analyse).
    mode: &'static str,
    inputs: usize,
    outputs: usize,
    gates: usize,
    targets: usize,
    bridges: usize,
    /// `None` when nothing was analysed (`mode = skipped`) — an empty
    /// CSV cell / JSON null, never a fabricated percentage.
    cov1: Option<f64>,
    cov10: Option<f64>,
    tail11: usize,
    max_nmin: Option<u32>,
    /// The exhaustive baseline `|U| = 2^I` (`None` outside `full` mode,
    /// where no exhaustive universe exists).
    space: Option<usize>,
    /// Compacted generated-set sizes `|T|` at n = 1, 5, 10 (`None`
    /// outside `full` mode).
    gen1: Option<usize>,
    gen5: Option<usize>,
    gen10: Option<usize>,
    /// Peak kernel data-plane bytes (the maximum across cones in `cones`
    /// mode); `None` when nothing was simulated. The `kernel` column
    /// reads `full` exactly when this is set.
    peak_bytes: Option<u64>,
}

impl CorpusRow {
    fn empty(name: &str, mode: &'static str) -> Self {
        CorpusRow {
            circuit: name.to_string(),
            mode,
            inputs: 0,
            outputs: 0,
            gates: 0,
            targets: 0,
            bridges: 0,
            cov1: None,
            cov10: None,
            tail11: 0,
            max_nmin: None,
            space: None,
            gen1: None,
            gen5: None,
            gen10: None,
            peak_bytes: None,
        }
    }
}

/// Collects the `.bench` files under `dir` — its direct children, plus
/// every subdirectory when `recursive` (symlinked directories are not
/// followed). The caller sorts the full path list, so the walk order
/// never leaks into the output.
fn collect_bench_files(dir: &Path, recursive: bool, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
        if is_dir {
            if recursive {
                collect_bench_files(&path, true, out)?;
            }
        } else if path.extension().is_some_and(|ext| ext == "bench") {
            out.push(path);
        }
    }
    Ok(())
}

/// `ndet corpus` / serve `corpus`: walks a directory of ISCAS-style
/// `.bench` files (sorted full path list, so results are
/// deterministic), runs the stats/worst-case analysis per circuit
/// through the engine (with the output-cone partitioned fallback for
/// circuits too wide for exhaustive simulation), generates compact
/// n-detection sets at n = 1, 5, 10 for exhaustively analysed
/// circuits, and emits a machine-readable CSV or JSON summary.
///
/// # Errors
///
/// Returns a user-facing message when the directory cannot be walked,
/// holds no `.bench` files, or the format is unknown. Individual
/// malformed files become `error` rows instead.
pub fn render_corpus(
    request: &CorpusRequest,
    knobs: Knobs,
    engine: &Engine,
) -> Result<CorpusOutput, String> {
    let mut body = String::new();
    let tail = render_corpus_stream(request, knobs, engine, &mut |chunk| body.push_str(chunk))?;
    body.push_str(&tail.trailer);
    Ok(CorpusOutput {
        body,
        errors: tail.errors,
        files: tail.files,
    })
}

/// What remains of a streamed corpus run after the last row chunk: the
/// closing bytes of the body plus the per-file diagnostics.
/// `chunks... + trailer` is byte-identical to [`CorpusOutput::body`].
pub struct CorpusTail {
    /// Body bytes after the final row (`]\n` for JSON, empty for CSV).
    pub trailer: String,
    /// Human-readable per-file failure messages (stderr material).
    pub errors: Vec<String>,
    /// Total `.bench` files walked (for the failure summary line).
    pub files: usize,
}

/// The streaming core of [`render_corpus`]: emits the body as chunks —
/// one header chunk, then one chunk per circuit *as each analysis
/// completes* — so a serving front end can flush rows to a client
/// incrementally instead of buffering a long corpus run. The one-shot
/// path is just this function with a `String`-appending sink, which is
/// what keeps the two byte-identical.
///
/// # Errors
///
/// Returns a user-facing message when the directory cannot be walked,
/// holds no `.bench` files, or the format is unknown. Individual
/// malformed files become `error` rows instead.
pub fn render_corpus_stream(
    request: &CorpusRequest,
    knobs: Knobs,
    engine: &Engine,
    sink: &mut dyn FnMut(&str),
) -> Result<CorpusTail, String> {
    let json = match request.format.as_str() {
        "csv" => false,
        "json" => true,
        other => return Err(format!("format must be csv or json, got `{other}`")),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_bench_files(&request.dir, request.recursive, &mut paths)?;
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .bench files in {}", request.dir.display()));
    }

    sink(if json { "[\n" } else { CORPUS_CSV_HEADER });
    let mut errors = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        // Per-file fault tolerance: one malformed file is reported as
        // an `error` row instead of aborting the whole corpus run.
        let row = match corpus_row(path, request.max_inputs, knobs, engine) {
            Ok(row) => row,
            Err(message) => {
                errors.push(message);
                let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("bench");
                CorpusRow::empty(name, "error")
            }
        };
        // One row per path, so the JSON separator is decidable without
        // holding rows back: every row but the last gets a comma.
        let chunk = if json {
            corpus_json_row(&row, i + 1 < paths.len())
        } else {
            corpus_csv_row(&row)
        };
        sink(&chunk);
    }
    Ok(CorpusTail {
        trailer: if json {
            "]\n".to_string()
        } else {
            String::new()
        },
        errors,
        files: paths.len(),
    })
}

/// Analyses one corpus circuit: exhaustively when it fits, otherwise
/// via the per-output-cone partition (conservative aggregates). A
/// sequential circuit is analysed through its two-frame expansion: its
/// structure columns (inputs/outputs/gates) describe the sequential
/// circuit, its analysis columns the expanded universe.
fn corpus_row(
    path: &Path,
    max_inputs: usize,
    knobs: Knobs,
    engine: &Engine,
) -> Result<CorpusRow, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("bench");
    let subject = Subject::parse_bench(name, &text, false, None)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let netlist = match subject {
        Subject::Comb(netlist) => netlist,
        Subject::Seq(seq, model) => {
            let expanded = engine.expanded(&seq, model)?;
            let mut row = CorpusRow::empty(name, "seq");
            row.inputs = seq.num_true_inputs();
            row.outputs = seq.num_true_outputs();
            row.gates = seq.core().num_gates();
            // A broadside pattern space (PIs + state bits) too wide for
            // exhaustive analysis is classified without fabricating
            // coverage, like `skipped`.
            if expanded.netlist().num_inputs() <= max_inputs {
                let explicit = expanded.explicit_targets();
                let options = knobs.universe_options();
                let universe = engine.universe(expanded.netlist(), Some(&explicit), options)?;
                analysed_columns(&mut row, &universe, knobs, engine);
            }
            return Ok(row);
        }
    };

    let mut row = CorpusRow::empty(name, "full");
    row.inputs = netlist.num_inputs();
    row.outputs = netlist.num_outputs();
    row.gates = netlist.num_gates();
    if netlist.num_inputs() <= max_inputs {
        let universe = engine.universe(&netlist, None, knobs.universe_options())?;
        analysed_columns(&mut row, &universe, knobs, engine);
        return Ok(row);
    }
    let reports = analyze_output_cones(&netlist, max_inputs, knobs.threads, engine.store())
        .map_err(|e| e.to_string())?;
    if reports.is_empty() {
        // Every cone was wider than max_inputs: nothing was simulated,
        // so report no coverage rather than a vacuous 100%.
        row.mode = "skipped";
        return Ok(row);
    }
    let total_bridges: usize = reports.iter().map(|r| r.num_bridges).sum();
    // Bridge-weighted coverage across cones (conservative: each cone
    // only observes its own output).
    let weighted = |n: u32| -> f64 {
        if total_bridges == 0 {
            return 100.0;
        }
        reports
            .iter()
            .map(|r| {
                let cov = r
                    .coverage
                    .iter()
                    .find(|(t, _)| *t == n)
                    .map_or(100.0, |(_, pct)| *pct);
                cov * r.num_bridges as f64
            })
            .sum::<f64>()
            / total_bridges as f64
    };
    row.mode = "cones";
    row.targets = reports.iter().map(|r| r.num_targets).sum();
    row.bridges = total_bridges;
    row.cov1 = Some(weighted(1));
    row.cov10 = Some(weighted(10));
    row.tail11 = reports.iter().map(|r| r.tail_11).sum();
    // Peak over cones: the widest cone dominates the data plane.
    row.peak_bytes = reports.iter().map(|r| r.data_plane_bytes).max();
    Ok(row)
}

/// Fills the analysis columns of an exhaustively analysed row (`full`
/// or `seq`): coverage and tail from the worst case, and compacted
/// generated-set sizes at n = 1, 5, 10 against the exhaustive baseline
/// |U| — how much smaller than the whole space an n-detection set is.
fn analysed_columns(
    row: &mut CorpusRow,
    universe: &Arc<FaultUniverse>,
    knobs: Knobs,
    engine: &Engine,
) {
    let wc = engine.worst(universe, knobs.threads);
    let gen_size = |n: u32| {
        let options = GenOptions {
            n,
            compact: true,
            ..GenOptions::default()
        };
        Some(engine.generated(universe, &options).len())
    };
    row.targets = universe.targets().len();
    row.bridges = universe.bridges().len();
    row.cov1 = Some(wc.coverage_percent(1));
    row.cov10 = Some(wc.coverage_percent(10));
    row.tail11 = wc.tail_count(11);
    row.max_nmin = wc.max_finite();
    row.space = Some(universe.space().num_patterns());
    row.gen1 = gen_size(1);
    row.gen5 = gen_size(5);
    row.gen10 = gen_size(10);
    row.peak_bytes = Some(universe.simulator().data_plane_bytes());
}

const CORPUS_CSV_HEADER: &str = "circuit,mode,inputs,outputs,gates,targets,bridges,cov1_pct,cov10_pct,tail11,max_nmin,space,gen1,gen5,gen10,kernel,peak_bytes\n";

fn corpus_csv_row(r: &CorpusRow) -> String {
    let pct = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.2}"));
    let opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
    // Circuit names come from file stems: quote per RFC 4180 when a
    // name would otherwise split the row or the record.
    let circuit = if r.circuit.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", r.circuit.replace('"', "\"\""))
    } else {
        r.circuit.clone()
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
        circuit,
        r.mode,
        r.inputs,
        r.outputs,
        r.gates,
        r.targets,
        r.bridges,
        pct(r.cov1),
        pct(r.cov10),
        r.tail11,
        r.max_nmin.map_or(String::new(), |v| v.to_string()),
        opt(r.space),
        opt(r.gen1),
        opt(r.gen5),
        opt(r.gen10),
        if r.peak_bytes.is_some() { "full" } else { "" },
        r.peak_bytes.map_or(String::new(), |v| v.to_string()),
    )
}

fn corpus_json_row(r: &CorpusRow, comma: bool) -> String {
    // Hand-rolled JSON (no serde offline); circuit names come from file
    // stems, so they may hold any character.
    let pct = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.2}"));
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "  {{\"circuit\": \"{}\", \"mode\": \"{}\", \"inputs\": {}, \"outputs\": {}, \
         \"gates\": {}, \"targets\": {}, \"bridges\": {}, \"cov1_pct\": {}, \
         \"cov10_pct\": {}, \"tail11\": {}, \"max_nmin\": {}, \"space\": {}, \
         \"gen1\": {}, \"gen5\": {}, \"gen10\": {}, \"kernel\": {}, \
         \"peak_bytes\": {}}}{}\n",
        ndetect_obs::trace::escape_json(&r.circuit),
        r.mode,
        r.inputs,
        r.outputs,
        r.gates,
        r.targets,
        r.bridges,
        pct(r.cov1),
        pct(r.cov10),
        r.tail11,
        r.max_nmin.map_or("null".to_string(), |v| v.to_string()),
        opt(r.space),
        opt(r.gen1),
        opt(r.gen5),
        opt(r.gen10),
        if r.peak_bytes.is_some() {
            "\"full\""
        } else {
            "null"
        },
        r.peak_bytes.map_or("null".to_string(), |v| v.to_string()),
        if comma { "," } else { "" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::figure1;

    #[test]
    fn stats_and_worst_render_the_paper_numbers() {
        let engine = Engine::new(None, 0, 0);
        let netlist = figure1::netlist();
        let stats = render_stats(&netlist, Knobs::default(), &engine).unwrap();
        assert!(stats.contains("figure1: 4 inputs, 3 outputs, 3 gates, 11 lines"));
        assert!(stats.contains("kernel: "));
        let worst = render_worst(&netlist, 100, Knobs::default(), &engine).unwrap();
        assert!(worst.contains("40.00% at n=1"), "{worst}");
    }

    #[test]
    fn gen_rejects_n_zero_and_renders_a_set() {
        let engine = Engine::new(None, 0, 0);
        let netlist = figure1::netlist();
        assert!(render_gen(&netlist, 0, false, None, Knobs::default(), &engine).is_err());
        let out = render_gen(&netlist, 1, true, None, Knobs::default(), &engine).unwrap();
        assert!(out.contains("generated 1-detection set:"), "{out}");
        assert!(out.contains(", compacted"), "{out}");
    }

    #[test]
    fn corpus_rejects_unknown_formats_and_missing_dirs() {
        let engine = Engine::new(None, 0, 0);
        let request = CorpusRequest {
            dir: PathBuf::from("/nonexistent-dir"),
            format: "yaml".into(),
            max_inputs: 14,
            recursive: false,
        };
        assert!(render_corpus(&request, Knobs::default(), &engine).is_err());
        let request = CorpusRequest {
            format: "csv".into(),
            ..request
        };
        assert!(render_corpus(&request, Knobs::default(), &engine).is_err());
    }
}
