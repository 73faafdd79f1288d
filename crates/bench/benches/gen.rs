//! Criterion benchmark for the n-detection test-set generation engine
//! (`ndetect-gen`), plus a machine-readable perf-snapshot mode.
//!
//! The measured unit is the greedy set-cover construction (and its
//! compaction passes) over a prebuilt targets-only universe, so the
//! numbers isolate the generator from fault simulation.
//!
//! Modes:
//!
//! * `cargo bench --bench gen` — criterion timings of raw generation
//!   and generation+compaction at n = 5 on the widest suite circuits
//!   (`s1a`, `rie`);
//! * `cargo bench --bench gen -- --json [--quick] [--out PATH]
//!   [--cache-dir DIR]` — measures suite **and** corpus circuits at
//!   n ∈ {1, 5, 10} and writes a `BENCH_PR5.json` snapshot (set sizes
//!   vs the exhaustive baseline, wall-clock) at the repository root,
//!   adding generation to the perf trajectory. Each entry's `index_ms`
//!   is the circuit's one-time build of the universe's vector→target
//!   index (`FaultUniverse::target_index`, timed on its first call);
//!   `gen_ms` and `compact_ms` are best-of runs with that index already
//!   built, so a one-shot `ndet gen` pays `index_ms` on top. With a
//!   cache directory it also times `generate_stored` cold vs warm — a
//!   warm re-run must be a pure disk hit (asserted by the CI
//!   `bench-smoke` job).

use criterion::{criterion_group, Criterion};
use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_gen::{compact, generate, generate_stored, GenOptions};
use ndetect_netlist::{bench_format, Netlist, NetlistError};
use ndetect_store::Store;
use std::path::PathBuf;
use std::time::Instant;

/// One circuit's prebuilt generation workload.
struct Workload {
    name: String,
    universe: FaultUniverse,
}

impl Workload {
    fn new(name: &str, netlist: &Netlist) -> Self {
        let universe = FaultUniverse::build_with(
            netlist,
            UniverseOptions {
                include_bridges: false,
                threads: 1,
                ..UniverseOptions::default()
            },
        )
        .expect("fits exhaustive sim");
        Workload {
            name: name.to_string(),
            universe,
        }
    }
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen");
    group.sample_size(10);
    for name in ["s1a", "rie"] {
        let netlist = ndetect_circuits::build(name).expect("suite circuit builds");
        let w = Workload::new(name, &netlist);
        let raw = GenOptions::with_n(5);
        let compacted = GenOptions {
            compact: true,
            ..raw
        };
        group.bench_function(format!("{name}/generate_n5"), |b| {
            b.iter(|| generate(&w.universe, &raw).len())
        });
        group.bench_function(format!("{name}/generate_compact_n5"), |b| {
            b.iter(|| generate(&w.universe, &compacted).len())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_generation
}

/// One measured row of the snapshot.
struct Row {
    circuit: String,
    n: u32,
    space: usize,
    index_ms: f64,
    raw_size: usize,
    compact_size: usize,
    gen_ms: f64,
    compact_ms: f64,
}

/// Minimum wall-clock over `iters` runs of `f`, in seconds.
fn time_best<F: FnMut() -> usize>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn repo_root() -> PathBuf {
    // crates/bench -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The snapshot workloads: the widest suite circuits plus every
/// combinational corpus `.bench` file.
fn snapshot_workloads() -> Vec<Workload> {
    let mut workloads: Vec<Workload> = ["s1a", "rie"]
        .iter()
        .map(|name| {
            let netlist = ndetect_circuits::build(name).expect("suite builds");
            Workload::new(name, &netlist)
        })
        .collect();
    let corpus = repo_root().join("tests/data/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "bench"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        // Sequential fixtures (s27) need time-frame expansion first;
        // the snapshot measures combinational circuits only.
        let netlist = match bench_format::parse(&name, &text) {
            Ok(netlist) => netlist,
            Err(NetlistError::Sequential { .. }) => continue,
            Err(e) => panic!("corpus file parses: {e}"),
        };
        workloads.push(Workload::new(&name, &netlist));
    }
    workloads
}

fn render_json(rows: &[Row], quick: bool, store_gen: &[(String, f64, f64)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"circuit\": \"{}\", \"n\": {}, \"space\": {}, \"raw_size\": {}, \
             \"compact_size\": {}, \"index_ms\": {:.3}, \"gen_ms\": {:.3}, \
             \"compact_ms\": {:.3}}}{comma}\n",
            r.circuit, r.n, r.space, r.raw_size, r.compact_size, r.index_ms, r.gen_ms, r.compact_ms
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"store_gen\": [\n");
    for (i, (circuit, cold_ms, warm_ms)) in store_gen.iter().enumerate() {
        let comma = if i + 1 < store_gen.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"circuit\": \"{circuit}\", \"cold_ms\": {cold_ms:.3}, \
             \"warm_ms\": {warm_ms:.3}}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_main(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let iters = if quick { 1 } else { 5 };
    let out_path = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_PR5.json"));
    let store = flag_value(args, "--cache-dir")
        .or_else(|| std::env::var("NDETECT_CACHE_DIR").ok())
        .filter(|d| !d.is_empty())
        .map(|dir| Store::open(&dir).expect("cache dir opens"));

    let workloads = snapshot_workloads();
    let mut rows = Vec::new();
    for w in &workloads {
        let space = w.universe.space().num_patterns();
        // The first call builds the index; every generation below
        // reuses it.
        let t0 = Instant::now();
        std::hint::black_box(w.universe.target_index());
        let index_ms = t0.elapsed().as_secs_f64() * 1e3;
        for n in [1u32, 5, 10] {
            let raw_options = GenOptions::with_n(n);
            let raw = generate(&w.universe, &raw_options);
            let gen_secs = time_best(iters, || generate(&w.universe, &raw_options).len());
            let compact_secs = time_best(iters, || {
                let mut set = generate(&w.universe, &raw_options);
                compact(&mut set, &w.universe);
                set.len()
            });
            let mut compacted = raw.clone();
            compact(&mut compacted, &w.universe);
            rows.push(Row {
                circuit: w.name.clone(),
                n,
                space,
                index_ms,
                raw_size: raw.len(),
                compact_size: compacted.len(),
                gen_ms: gen_secs * 1e3,
                compact_ms: compact_secs * 1e3,
            });
            eprintln!(
                "# {}: n={n} |T| {} -> {} compacted (|U| = {space}), {:.2} ms",
                w.name,
                raw.len(),
                compacted.len(),
                compact_secs * 1e3
            );
        }
    }

    // Store-backed generation (the cached fast path): the first call
    // generates and populates, the second must be a pure disk hit.
    let mut store_gen = Vec::new();
    if let Some(store) = &store {
        for w in &workloads {
            let options = GenOptions {
                n: 5,
                compact: true,
                ..GenOptions::default()
            };
            let t0 = Instant::now();
            let (cold, _) = generate_stored(&w.universe, &options, Some(store));
            let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let (warm, _) = generate_stored(&w.universe, &options, Some(store));
            let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(cold, warm, "warm generation must be bit-identical");
            store_gen.push((w.name.clone(), cold_ms, warm_ms));
        }
    }

    let json = render_json(&rows, quick, &store_gen);
    std::fs::write(&out_path, &json).expect("snapshot written");
    eprintln!("# wrote {}", out_path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--json") {
        json_main(&args);
    } else {
        benches();
    }
}
