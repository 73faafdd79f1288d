//! The traced runs (`--trace 1`): the workload replayed in-process, each
//! call into a layer's public entry point timed under a span, plus the
//! input properties an optimisation may depend on. Spans are held in
//! memory and written as JSONL, readable by `ndet trace report`, when
//! the run ends.
//!
//! Each operation (a batch command, a served request) runs for real and
//! is then replayed in-process twice, tracing off and then on, back to
//! back. The two replays give `trace.overhead_pct`; the traced replay
//! against the real operation gives `trace.untraced_pct`, the share of
//! end-to-end time no layer span covers, so a large unexplained gap can
//! never read as full coverage. Pairing each operation with its replays
//! keeps all three within seconds of each other, so drift in host speed
//! over a run cancels out of both figures.

use crate::report::Report;
use crate::serve::{self, Conn, Item, Replies, Server};
use crate::stats::median;
use crate::{batch, check, Args};
use ndetect_core::{
    estimate_detection_probabilities, DetectionDefinition, Procedure1Config, WorstCaseAnalysis,
    KIND_WORST_CASE,
};
use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_gen::{compact, generate, generated_key, GenOptions, KIND_GENERATED_SET};
use ndetect_netlist::{bench_format, NetlistError};
use ndetect_obs::trace;
use ndetect_seq::{encode_expanded, expand_stored, expanded_key, FaultModel, KIND_EXPANDED};
use ndetect_serve::{Engine, Request};
use ndetect_store::{encode_to_vec, Store};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Target×bridge pairs in the `VectorSet::intersection_count` sample.
const INTERSECT_PAIRS: usize = 4096;

/// How long the intersection sample is repeated.
const INTERSECT_TIME: Duration = Duration::from_millis(300);

/// Passes of the serve mix the traced run replays.
const TRACE_PASSES: usize = 5;

/// A traced batch run repeats rounds of its commands until this much
/// time has passed (at least one round), so that the coverage figure
/// rests on several processes per command: one Definition-2 process
/// varies by about 15%.
const TRACE_TIME: Duration = Duration::from_secs(60);

/// Span sink that holds the trace in memory until the run ends.
#[derive(Clone, Default)]
struct Buffer(Arc<Mutex<Vec<u8>>>);

impl Buffer {
    /// Runs `f` with tracing on, under a root span `perfbench.op` tagged
    /// with what it runs, so `ndet trace report` can tell how much of
    /// each operation the layer spans cover.
    fn traced<T>(&self, what: &str, f: impl FnOnce() -> T) -> T {
        trace::init_writer(Box::new(self.clone()));
        let out = {
            let mut root = trace::span("perfbench.op");
            root.field("on", what);
            f()
        };
        trace::disable();
        out
    }
}

impl Write for Buffer {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("no span writer panics while holding the buffer")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Layer times (ms) of one replay, by metric name.
#[derive(Default)]
struct Layers {
    ms: BTreeMap<String, f64>,
}

impl Layers {
    /// Runs `f` under the span `span` (tagged `on=<tag>`), adds its time
    /// to the metric `key`, and returns its result and time in ms.
    fn time<T>(
        &mut self,
        span: &'static str,
        tag: &str,
        key: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let mut guard = trace::span(span);
        guard.field("on", tag);
        let start = Instant::now();
        let out = black_box(f());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(guard);
        *self.ms.entry(key.to_string()).or_default() += ms;
        (out, ms)
    }

    fn total(&self) -> f64 {
        self.ms.values().sum()
    }

    /// Divides every time by `rounds`: the figures of one round.
    fn per_round(&mut self, rounds: usize) {
        for ms in self.ms.values_mut() {
            *ms /= rounds as f64;
        }
    }
}

/// The input properties of one analysed circuit, and the time its
/// nmin passes took over the whole workload.
struct Facts {
    circuit: String,
    targets: usize,
    bridges: usize,
    patterns: usize,
    distinct_bridge_sets: usize,
    worst_ms: f64,
}

impl Facts {
    fn of(circuit: &str, universe: &FaultUniverse, worst_ms: f64) -> Self {
        let distinct: HashSet<&[u64]> = universe.bridge_sets().iter().map(|s| s.words()).collect();
        Facts {
            circuit: circuit.to_string(),
            targets: universe.targets().len(),
            bridges: universe.bridges().len(),
            patterns: universe.space().num_patterns(),
            distinct_bridge_sets: distinct.len(),
            worst_ms,
        }
    }
}

/// Writes the spans as JSONL and checks that `ndet trace report` reads
/// them.
fn finish_tracing(args: &Args, report: &mut Report, buffer: &Buffer) {
    let bytes = std::mem::take(&mut *buffer.0.lock().expect("tracing has stopped"));
    let path = args.out.join(format!(
        "{}-seed{}.trace.jsonl",
        args.workload.name(),
        args.seed
    ));
    let spans = bytes.iter().filter(|&&b| b == b'\n').count();
    let written = report
        .op(std::fs::write(&path, &bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display())));
    if written.is_some() {
        let path = path.to_string_lossy();
        report.op(
            crate::proc::run(&mut args.ndet(&["trace", "report", &path]))
                .map_err(|e| format!("cannot run `ndet trace report`: {e}"))
                .and_then(|run| match run.exit.status.success() {
                    true => Ok(()),
                    false => Err(format!("`ndet trace report` cannot read {path}")),
                }),
        );
        report.note(format!("trace: {spans} spans in {path}"));
    }
}

/// `VectorSet::intersection_count` throughput over a fixed sample of
/// the universe's target×bridge pairs, in GiB/s of operand bytes.
fn intersect_gib_s(circuit: &str, universe: &FaultUniverse) -> f64 {
    let targets = universe.target_sets();
    let bridges = universe.bridge_sets();
    let pairs: Vec<(usize, usize)> = (0..INTERSECT_PAIRS)
        .map(|i| (i * 7919 % targets.len(), i * 104_729 % bridges.len()))
        .collect();
    let bytes_per_pair = 2 * 8 * targets[0].words().len();
    let mut span = trace::span("sim.intersect");
    span.field("on", circuit);
    let start = Instant::now();
    let mut reps = 0usize;
    let mut sink = 0usize;
    while start.elapsed() < INTERSECT_TIME {
        for &(f, g) in &pairs {
            sink = sink.wrapping_add(targets[f].intersection_count(black_box(&bridges[g])));
        }
        reps += 1;
    }
    let seconds = start.elapsed().as_secs_f64();
    black_box(sink);
    (reps * pairs.len() * bytes_per_pair) as f64 / seconds / f64::from(1u32 << 30)
}

/// What the traced batch replays leave behind besides their layer
/// times.
#[derive(Default)]
struct BatchReplay {
    facts: Vec<Facts>,
    tracked: Option<usize>,
    /// The universe with the most pattern×bridge bits, for the
    /// intersection sample.
    largest: Option<(String, FaultUniverse)>,
}

impl BatchReplay {
    /// Adds one replayed command's universe and nmin time.
    fn add(&mut self, circuit: &str, command: Replayed) {
        if command.tracked.is_some() {
            self.tracked = command.tracked;
        }
        let universe = command.universe;
        match self.facts.iter_mut().find(|f| f.circuit == circuit) {
            Some(facts) => facts.worst_ms += command.worst_ms,
            None => self
                .facts
                .push(Facts::of(circuit, &universe, command.worst_ms)),
        }
        let size = |u: &FaultUniverse| u.space().num_patterns() * u.bridges().len();
        if self
            .largest
            .as_ref()
            .is_none_or(|(_, u)| size(&universe) > size(u))
        {
            self.largest = Some((circuit.to_string(), universe));
        }
    }
}

/// What one replayed command built.
struct Replayed {
    universe: FaultUniverse,
    worst_ms: f64,
    /// Faults Procedure 1 tracked, for `ndet average`.
    tracked: Option<usize>,
}

/// One batch command replayed in-process: the calls the CLI makes for
/// it, in the order it makes them.
fn replay_command(args: &Args, argv: &[&str], layers: &mut Layers) -> Result<Replayed, String> {
    let threads = args.threads;
    let circuit = argv[1];
    let (netlist, _) = layers.time("circuits.build", circuit, "circuits.build_ms", || {
        ndetect_circuits::build(circuit)
    });
    let netlist = netlist.map_err(|e| format!("{circuit}: {e}"))?;
    let (universe, _) = layers.time("faults.universe", circuit, "faults.universe_ms", || {
        FaultUniverse::build_with(&netlist, UniverseOptions::with_threads(threads))
    });
    let universe = universe.map_err(|e| format!("{circuit}: {e}"))?;
    let (wc, worst_ms) = layers.time("core.worst", circuit, "core.worst_ms", || {
        WorstCaseAnalysis::compute_with(&universe, threads)
    });
    let mut tracked = None;
    if let ["average", _, "--k", k, "--def", def] = argv {
        // `ndet average` tracks the tail nmin >= nmax + 1 = 11.
        let tail = wc.tail_indices(11);
        let (definition, span, key) = match *def {
            "1" => (
                DetectionDefinition::Standard,
                "core.procedure1_def1",
                "core.procedure1_def1_ms",
            ),
            _ => (
                DetectionDefinition::SufficientlyDifferent,
                "core.procedure1_def2",
                "core.procedure1_def2_ms",
            ),
        };
        let config = Procedure1Config {
            nmax: 10,
            num_test_sets: k.parse().map_err(|_| format!("bad K `{k}`"))?,
            definition,
            threads,
            ..Procedure1Config::default()
        };
        let (probs, _) = layers.time(span, circuit, key, || {
            estimate_detection_probabilities(&universe, &tail, &config)
        });
        probs.map_err(|e| format!("{circuit}: {e}"))?;
        tracked = Some(tail.len());
    }
    Ok(Replayed {
        universe,
        worst_ms,
        tracked,
    })
}

/// The time of the work both sides of the trace accounting cover, in
/// ms: end to end with tracing off, in layer spans (`covered_ms`), and
/// in the replayed part of those spans with tracing off and on.
struct Coverage {
    e2e_ms: f64,
    covered_ms: f64,
    plain_ms: f64,
    traced_ms: f64,
}

/// Reports the layer times, the input properties, the size-sweep fit
/// and the trace accounting shared by every traced run.
fn report_layers(report: &mut Report, traced: &Layers, coverage: Coverage, facts: &[Facts]) {
    for (key, ms) in &traced.ms {
        report.metric(key.clone(), *ms, "ms");
    }
    if let Some((key, ms)) = traced.ms.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
        report.note(format!("largest layer: {key} = {ms:.1} ms"));
    }
    let mut points = Vec::new();
    for f in facts {
        let pairs = f.targets * f.bridges;
        report.note(format!(
            "input {}: |F|={} |G|={} |U|={} distinct T(g)={} ({:.1}% of |G|) pairs={pairs}",
            f.circuit,
            f.targets,
            f.bridges,
            f.patterns,
            f.distinct_bridge_sets,
            100.0 * f.distinct_bridge_sets as f64 / f.bridges.max(1) as f64,
        ));
        report.metric(format!("core.worst_ms.{}", f.circuit), f.worst_ms, "ms");
        points.push((pairs as f64, f.worst_ms * 1e6));
    }
    let sum = |field: fn(&Facts) -> usize| facts.iter().map(field).sum::<usize>() as f64;
    report.metric("faults.targets", sum(|f| f.targets), "count");
    report.metric("faults.bridges", sum(|f| f.bridges), "count");
    report.metric("faults.patterns", sum(|f| f.patterns), "count");
    report.metric(
        "faults.distinct_bridge_sets",
        sum(|f| f.distinct_bridge_sets),
        "count",
    );
    report.metric(
        "core.worst_ns_per_pair",
        crate::stats::slope_through_origin(&points),
        "ns",
    );
    if facts.len() > 1 {
        report.metric(
            "core.worst_size_exponent",
            crate::stats::loglog_exponent(&points),
            "ratio",
        );
    }
    let Coverage {
        e2e_ms,
        covered_ms,
        plain_ms,
        traced_ms,
    } = coverage;
    report.note(format!(
        "trace accounting: end to end {e2e_ms:.1} ms, layer spans {covered_ms:.1} ms; \
replayed {plain_ms:.1} ms untraced, {traced_ms:.1} ms traced"
    ));
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
        "%",
    );
    report.metric(
        "trace.untraced_pct",
        100.0 * (e2e_ms - covered_ms) / e2e_ms,
        "%",
    );
}

/// The `--trace 1` run of a batch workload: rounds in which every
/// command runs as a cold `ndet` process and is then replayed untraced
/// and traced. Layer times are reported per round.
pub fn batch(args: &Args, report: &mut Report) {
    report.op(check::figure1_nmin());
    let connects = batch::connects(args, report);
    report.metric("connect_p50_ms", median(&connects), "ms");
    let buffer = Buffer::default();
    let (mut plain, mut traced) = (Layers::default(), Layers::default());
    let mut replay = BatchReplay::default();
    let mut e2e_ms = 0.0;
    let mut rounds = 0;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < TRACE_TIME {
        for argv in batch::commands(args.workload) {
            let Some(run) = batch::run_checked(args, report, &argv) else {
                return;
            };
            e2e_ms += run.wall.as_secs_f64() * 1e3;
            if report.op(replay_command(args, &argv, &mut plain)).is_none() {
                return;
            }
            let command = argv.join(" ");
            let Some(replayed) =
                report.op(buffer.traced(&command, || replay_command(args, &argv, &mut traced)))
            else {
                return;
            };
            replay.add(argv[1], replayed);
        }
        rounds += 1;
    }
    report.note(format!("trace: {rounds} rounds"));
    let intersect = replay.largest.as_ref().map(|(circuit, universe)| {
        buffer.traced("intersection sample", || intersect_gib_s(circuit, universe))
    });
    finish_tracing(args, report, &buffer);
    if let Some(rate) = intersect {
        report.metric("sim.intersect_gib_s", rate, "GiB/s");
    }
    if let Some(tracked) = replay.tracked {
        report.metric("core.tracked_faults", tracked as f64, "count");
    }
    plain.per_round(rounds);
    traced.per_round(rounds);
    for facts in &mut replay.facts {
        facts.worst_ms /= rounds as f64;
    }
    let coverage = Coverage {
        e2e_ms: e2e_ms / rounds as f64,
        covered_ms: traced.total(),
        plain_ms: plain.total(),
        traced_ms: traced.total(),
    };
    report_layers(report, &traced, coverage, &replay.facts);
}

/// The circuit a serve request names, resolved the way the server does:
/// the combinational suite first, then the sequential registry.
enum Subject {
    Comb(ndetect_netlist::Netlist),
    Seq(ndetect_netlist::SeqNetlist),
}

fn resolve(circuit: &str) -> Result<Subject, String> {
    match ndetect_circuits::build(circuit) {
        Ok(netlist) => Ok(Subject::Comb(netlist)),
        Err(e) => ndetect_circuits::build_seq(circuit)
            .map(Subject::Seq)
            .map_err(|_| e.to_string()),
    }
}

/// The kind of a request: its verb, or `gen_fresh` for a fresh build.
fn kind(item: &Item) -> String {
    match item.line.split_whitespace().next().unwrap_or("") {
        "gen" if item.fresh => "gen_fresh".to_string(),
        verb => verb.to_string(),
    }
}

/// Executes one request the way the server's job thread does: resolve
/// the circuit (`circuits.build`), then render through the engine
/// (`serve.render`, which covers hot-cache, store and generator work).
fn execute(engine: &Engine, item: &Item, layers: &mut Layers) -> Result<String, String> {
    let request = Request::parse(&item.line).map_err(|e| e.message)?;
    let key = format!("serve.render_ms.{}", kind(item));
    let line = item.line.as_str();
    let subject = |circuit: &str, layers: &mut Layers| {
        layers
            .time("circuits.build", circuit, "circuits.build_ms", || {
                resolve(circuit)
            })
            .0
    };
    let model = FaultModel::default();
    let rendered = match request {
        Request::Stats { circuit, knobs, .. } => {
            let s = subject(&circuit, layers)?;
            layers.time("serve.render", line, &key, || match &s {
                Subject::Comb(n) => ndetect_serve::render_stats(n, knobs, engine),
                Subject::Seq(s) => ndetect_serve::render_seq_stats(s, model, knobs, engine),
            })
        }
        Request::Worst {
            circuit,
            floor,
            knobs,
            ..
        } => {
            let s = subject(&circuit, layers)?;
            layers.time("serve.render", line, &key, || match &s {
                Subject::Comb(n) => ndetect_serve::render_worst(n, floor, knobs, engine),
                Subject::Seq(s) => ndetect_serve::render_seq_worst(s, model, floor, knobs, engine),
            })
        }
        Request::Gen {
            circuit,
            n,
            compact,
            seed,
            knobs,
            ..
        } => {
            let s = subject(&circuit, layers)?;
            layers.time("serve.render", line, &key, || match &s {
                Subject::Comb(net) => {
                    ndetect_serve::render_gen(net, n, compact, seed, knobs, engine)
                }
                Subject::Seq(s) => {
                    ndetect_serve::render_seq_gen(s, model, n, compact, seed, knobs, engine)
                }
            })
        }
        Request::Corpus { request, knobs } => layers.time("serve.render", line, &key, || {
            ndetect_serve::render_corpus(&request, knobs, engine).map(|o| o.body)
        }),
        _ => return Err(format!("`{line}` is not part of the mix")),
    };
    rendered.0
}

/// An in-process engine over a fresh store with the server's default
/// hot-cache sizes, after the server's warm-up pass.
struct Replica {
    engine: Engine,
    dir: PathBuf,
}

impl Replica {
    fn open(args: &Args, name: &str) -> Result<Replica, String> {
        let dir = args.out.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
        let engine = Engine::new(Some(store), 32, 32);
        for line in serve::warmup_requests() {
            let item = Item { line, fresh: false };
            execute(&engine, &item, &mut Layers::default())?;
        }
        Ok(Replica { engine, dir })
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        // The store flushes its counters when the engine drops, so the
        // directory goes after it.
        let engine = std::mem::replace(&mut self.engine, Engine::new(None, 0, 0));
        drop(engine);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client and layer-span time (ms) of one kind of request.
#[derive(Default)]
struct Split {
    requests: usize,
    client_ms: f64,
    covered_ms: f64,
}

/// Sends the mix to the server over one connection and replays each
/// request in-process right after its reply, untraced and then traced;
/// every replayed reply must equal the served one. One connection, so
/// that a request's client latency is its own work plus wire and
/// dispatch, with no wait behind another connection's request. The
/// served reply's stream, from its first byte to its last, is timed on
/// the client as `serve.stream` (into `wire`): the wire cost of a reply
/// sent in several frames, which no in-process replay has. Returns the
/// split by request kind (the `serve.render_ms.*` suffix); `None` after
/// the first failure, which `report` counts.
fn serve_paired(
    args: &Args,
    report: &mut Report,
    addr: &str,
    mix: &[Item],
    buffer: &Buffer,
    (plain, traced, wire): (&mut Layers, &mut Layers, &mut Layers),
    replies: &mut Replies,
) -> Option<BTreeMap<String, Split>> {
    let plain_replica = report.op(Replica::open(args, "replay-plain"))?;
    let traced_replica = report.op(Replica::open(args, "replay-traced"))?;
    let mut conn = report.op(Conn::open(addr))?;
    let mut split: BTreeMap<String, Split> = BTreeMap::new();
    for item in mix {
        report.op((|| {
            let sent = Instant::now();
            conn.send(&item.line)?;
            conn.await_reply(&item.line)?;
            let (payload, stream_ms) = buffer.traced(&item.line, || {
                wire.time("serve.stream", &item.line, "serve.stream_ms", || {
                    conn.receive(&item.line)
                })
            });
            let payload = payload?;
            let client_ms = sent.elapsed().as_secs_f64() * 1e3;
            replies.record(&item.line, payload.clone())?;
            let untraced = execute(&plain_replica.engine, item, plain)?;
            let before = traced.total();
            let replayed =
                buffer.traced(&item.line, || execute(&traced_replica.engine, item, traced))?;
            if untraced != payload || replayed != payload {
                return Err(format!(
                    "`{}`: the in-process reply differs from the served one",
                    item.line
                ));
            }
            let kind = split.entry(kind(item)).or_default();
            kind.requests += 1;
            kind.client_ms += client_ms;
            kind.covered_ms += traced.total() - before + stream_ms;
            Ok(())
        })())?;
    }
    Some(split)
}

/// What the serve probes measured besides layer times.
struct Probes {
    facts: Vec<Facts>,
    vectors: usize,
    bytes: usize,
    intersect_gib_s: f64,
}

/// Direct calls into the layers the served mix reaches below the render
/// layer: universes and nmin passes of the served circuits, the s27
/// expansion, corpus parsing, the fresh builds' generator and
/// compaction, and the store round trip of those artifacts.
fn serve_probes(args: &Args, mix: &[Item], layers: &mut Layers) -> Result<Probes, String> {
    let threads = args.threads;
    let options = UniverseOptions::with_threads(threads);
    let dir = args.out.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let mut facts = Vec::new();
    let mut universes = BTreeMap::new();
    let mut bytes = 0usize;
    let mut round_trip = |layers: &mut Layers, what: &str, key, kind, payload: Vec<u8>| {
        layers
            .time("store.save", what, "store.save_ms", || {
                store.save(key, kind, &payload)
            })
            .0
            .map_err(|e| format!("store save of {what}: {e}"))?;
        let (loaded, _) = layers.time("store.load", what, "store.load_ms", || {
            store.load(key, kind)
        });
        bytes += payload.len();
        match loaded == Some(payload) {
            true => Ok(()),
            false => Err(format!("store load of {what} returned other bytes")),
        }
    };

    for circuit in ["c17", "figure1", "cse", "s1a", "log", "rie"] {
        let netlist = ndetect_circuits::build(circuit).map_err(|e| format!("{circuit}: {e}"))?;
        let (universe, _) = layers.time("faults.universe", circuit, "faults.universe_ms", || {
            FaultUniverse::build_with(&netlist, options)
        });
        let universe = universe.map_err(|e| format!("{circuit}: {e}"))?;
        // rie is only ever a fresh build in the mix; its nmin pass is
        // worst-sweep's business.
        if circuit != "rie" {
            let (wc, worst_ms) = layers.time("core.worst", circuit, "core.worst_ms", || {
                WorstCaseAnalysis::compute_with(&universe, threads)
            });
            round_trip(
                layers,
                circuit,
                WorstCaseAnalysis::store_key(&universe),
                KIND_WORST_CASE,
                encode_to_vec(&wc),
            )?;
            facts.push(Facts::of(circuit, &universe, worst_ms));
        }
        universes.insert(circuit, universe);
    }

    let seq = ndetect_circuits::build_seq("s27").map_err(|e| format!("s27: {e}"))?;
    let model = FaultModel::default();
    let (expanded, _) = layers.time("seq.expand", "s27", "seq.expand_ms", || {
        expand_stored(&seq, model, None)
    });
    let expanded = expanded.map_err(|e| format!("s27: {e}"))?;
    round_trip(
        layers,
        "s27 expansion",
        expanded_key(&seq, model),
        KIND_EXPANDED,
        encode_expanded(&expanded),
    )?;
    let (universe, _) = layers.time("faults.universe", "s27", "faults.universe_ms", || {
        FaultUniverse::build_explicit(expanded.netlist(), &expanded.explicit_targets(), options)
    });
    let universe = universe.map_err(|e| format!("s27: {e}"))?;
    let (_, worst_ms) = layers.time("core.worst", "s27", "core.worst_ms", || {
        WorstCaseAnalysis::compute_with(&universe, threads)
    });
    facts.push(Facts::of("s27", &universe, worst_ms));

    let mut files: Vec<_> = std::fs::read_dir(serve::CORPUS)
        .map_err(|e| format!("cannot read {}: {e}", serve::CORPUS))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "bench"))
        .collect();
    files.sort();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("bench")
            .to_string();
        let (parsed, _) =
            layers.time(
                "netlist.parse",
                &name,
                "netlist.parse_ms",
                || match bench_format::parse(&name, &text) {
                    Err(NetlistError::Sequential { .. }) => {
                        bench_format::parse_seq(&name, &text).map(|_| ())
                    }
                    other => other.map(|_| ()),
                },
            );
        parsed.map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The first pass's fresh builds: the generator and compaction the
    // server runs for them, called directly.
    let mut vectors = 0;
    for item in mix.iter().take(serve::pass_len()).filter(|i| i.fresh) {
        let Ok(Request::Gen {
            circuit, n, seed, ..
        }) = Request::parse(&item.line)
        else {
            return Err(format!("`{}` is not a gen request", item.line));
        };
        let universe = &universes[circuit.as_str()];
        let gen_options = GenOptions {
            n,
            seed,
            threads,
            ..GenOptions::default()
        };
        let (mut set, _) = layers.time("gen.generate", &circuit, "gen.generate_ms", || {
            generate(universe, &gen_options)
        });
        layers.time("gen.compact", &circuit, "gen.compact_ms", || {
            compact(&mut set, universe)
        });
        vectors += set.len();
        let stored = GenOptions {
            compact: true,
            ..gen_options
        };
        round_trip(
            layers,
            &item.line,
            generated_key(universe, &stored),
            KIND_GENERATED_SET,
            encode_to_vec(&set),
        )?;
    }
    // The store flushes its counters when dropped: drop it before its
    // directory goes.
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Probes {
        facts,
        vectors,
        bytes,
        intersect_gib_s: intersect_gib_s("rie", &universes["rie"]),
    })
}

/// The `--trace 1` run of `serve-mix`: a fixed stretch of the mix
/// against a real server, each request paired with its in-process
/// replays, then the layer probes.
pub fn serve(args: &Args, report: &mut Report) {
    let mix = serve::mix(args.seed, TRACE_PASSES);
    let mut replies = Replies::default();
    let Some(server) = report.op(Server::start(args, "serve-trace")) else {
        return;
    };
    let Some(mut control) = report.op(Conn::open(&server.addr)) else {
        return;
    };
    serve::warm_up(&mut control, report, &mut replies);
    let pings = serve::pings(&server.addr, report);
    report.metric("connect_p50_ms", median(&pings), "ms");
    let before = report.op(serve::scrape(&mut control));
    let buffer = Buffer::default();
    let mut plain = Layers::default();
    let mut traced = Layers::default();
    let mut wire = Layers::default();
    let split = serve_paired(
        args,
        report,
        &server.addr,
        &mix,
        &buffer,
        (&mut plain, &mut traced, &mut wire),
        &mut replies,
    );
    let after = report.op(serve::scrape(&mut control));
    drop(control);
    report.op(server.stop());
    let Some(split) = split else { return };
    if let (Some(before), Some(after)) = (&before, &after) {
        serve::server_counters(report, before, after);
    }
    for (kind, s) in &split {
        report.note(format!(
            "trace accounting, {kind}: {} requests, client {:.1} ms, layer spans {:.1} ms ({:.1}%)",
            s.requests,
            s.client_ms,
            s.covered_ms,
            100.0 * s.covered_ms / s.client_ms
        ));
    }
    let coverage = Coverage {
        e2e_ms: split.values().map(|s| s.client_ms).sum(),
        covered_ms: split.values().map(|s| s.covered_ms).sum(),
        plain_ms: plain.total(),
        traced_ms: traced.total(),
    };
    let probes = report.op(buffer.traced("layer probes", || serve_probes(args, &mix, &mut traced)));
    finish_tracing(args, report, &buffer);
    serve::check_replies(args, report, &replies);
    let Some(probes) = probes else { return };
    report.metric("gen.vectors", probes.vectors as f64, "count");
    report.metric("store.bytes", probes.bytes as f64, "B");
    report.metric("sim.intersect_gib_s", probes.intersect_gib_s, "GiB/s");
    traced.ms.extend(wire.ms);
    report_layers(report, &traced, coverage, &probes.facts);
}
