//! Criterion benchmark of the event-driven fault-propagation kernel,
//! plus a machine-readable perf-snapshot mode.
//!
//! The kernel computes every detection set (collapsed stuck-at targets
//! plus the four-way bridging population) of a circuit through one
//! shared simulator, so the timing isolates the per-fault kernel — the
//! dominant cost of a cold universe build.
//!
//! Modes:
//!
//! * `cargo bench --bench event_driven` — criterion timings on the
//!   widest suite circuits (`s1a`, `rie`);
//! * `cargo bench --bench event_driven -- --json [--quick]
//!   [--out PATH] [--cache-dir DIR]` — measures suite **and** corpus
//!   circuits and writes a `BENCH_PR4.json` snapshot (circuit, kernel,
//!   threads, ns/fault) at the repository root, giving future PRs a
//!   trajectory to compare against. With a cache directory it also
//!   exercises `FaultUniverse::build_stored`, so a warm re-run must
//!   perform zero universe builds (asserted by the CI `bench-smoke`
//!   job via `ndet cache stats`).

use criterion::{criterion_group, Criterion};
use ndetect_faults::{
    enumerate_bridges, BridgeModel, BridgingFault, CollapsedFaults, FaultSimulator, FaultUniverse,
    StuckAtFault, UniverseOptions,
};
use ndetect_netlist::{bench_format, Netlist, NetlistError};
use ndetect_sim::parallel;
use ndetect_store::Store;
use std::path::PathBuf;
use std::time::Instant;

/// One circuit's precomputed fault population: kernel timings measure
/// only detection-set construction, not good values or enumeration.
struct Workload {
    name: String,
    netlist: Netlist,
    sim: FaultSimulator,
    targets: Vec<StuckAtFault>,
    bridges: Vec<BridgingFault>,
}

impl Workload {
    fn new(name: &str, netlist: Netlist) -> Self {
        let sim = FaultSimulator::with_threads(&netlist, 1).expect("fits exhaustive sim");
        let targets = CollapsedFaults::compute(&netlist)
            .representatives()
            .to_vec();
        let bridges = enumerate_bridges(&netlist, sim.reachability(), BridgeModel::FourWay);
        Workload {
            name: name.to_string(),
            netlist,
            sim,
            targets,
            bridges,
        }
    }

    fn num_faults(&self) -> usize {
        self.targets.len() + self.bridges.len()
    }

    /// Every detection set through the event-driven kernel, fault list
    /// tiled over `threads` workers, each reusing one scratch.
    fn run_event(&self, threads: usize) -> usize {
        let stuck = parallel::parallel_map_with(
            threads,
            &self.targets,
            || self.sim.new_scratch(),
            |scratch, _, &f| {
                self.sim
                    .detection_set_stuck_with(&self.netlist, f, scratch)
                    .len()
            },
        );
        let bridged = parallel::parallel_map_with(
            threads,
            &self.bridges,
            || self.sim.new_scratch(),
            |scratch, _, fault| {
                self.sim
                    .detection_set_bridge_with(&self.netlist, fault, scratch)
                    .len()
            },
        );
        stuck.into_iter().sum::<usize>() + bridged.into_iter().sum::<usize>()
    }
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_driven");
    group.sample_size(3);
    for name in ["s1a", "rie"] {
        let netlist = ndetect_circuits::build(name).expect("suite circuit builds");
        let w = Workload::new(name, netlist);
        group.bench_function(format!("{name}/event"), |b| b.iter(|| w.run_event(1)));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_kernels
}

/// One measured row of the snapshot.
struct Row {
    circuit: String,
    kernel: &'static str,
    threads: usize,
    faults: usize,
    ns_per_fault: f64,
    total_ms: f64,
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
        .map(|name| Workload::new(name, ndetect_circuits::build(name).expect("suite builds")))
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
        workloads.push(Workload::new(&name, netlist));
    }
    workloads
}

fn render_json(rows: &[Row], quick: bool, store_builds: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"circuit\": \"{}\", \"kernel\": \"{}\", \"threads\": {}, \
             \"faults\": {}, \"ns_per_fault\": {:.1}, \"total_ms\": {:.3}}}{comma}\n",
            r.circuit, r.kernel, r.threads, r.faults, r.ns_per_fault, r.total_ms
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"store_builds\": [\n");
    for (i, (circuit, ms)) in store_builds.iter().enumerate() {
        let comma = if i + 1 < store_builds.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"circuit\": \"{circuit}\", \"ms\": {ms:.3}}}{comma}\n"
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
        .unwrap_or_else(|| repo_root().join("BENCH_PR4.json"));
    let store = flag_value(args, "--cache-dir")
        .or_else(|| std::env::var("NDETECT_CACHE_DIR").ok())
        .filter(|d| !d.is_empty())
        .map(|dir| Store::open(&dir).expect("cache dir opens"));

    let workloads = snapshot_workloads();
    let mut rows = Vec::new();
    for w in &workloads {
        let faults = w.num_faults().max(1);
        for threads in [1usize, 4] {
            let secs = time_best(iters, || w.run_event(threads));
            let ns_per_fault = secs * 1e9 / faults as f64;
            eprintln!(
                "# {}: {faults} faults, {threads} threads, {ns_per_fault:.1} ns/fault",
                w.name
            );
            rows.push(Row {
                circuit: w.name.clone(),
                kernel: "event_driven",
                threads,
                faults,
                ns_per_fault,
                total_ms: secs * 1e3,
            });
        }
    }

    // Store-backed universe builds (the cached fast path of the new
    // kernel): cold runs build + populate, warm runs must load.
    let mut store_builds = Vec::new();
    if let Some(store) = &store {
        for w in &workloads {
            let t0 = Instant::now();
            let (universe, _) = FaultUniverse::build_stored(
                &w.netlist,
                None,
                UniverseOptions::with_threads(1),
                Some(store),
            )
            .expect("suite circuits fit exhaustive sim");
            std::hint::black_box(universe.targets().len());
            store_builds.push((w.name.clone(), t0.elapsed().as_secs_f64() * 1e3));
        }
    }

    let json = render_json(&rows, quick, &store_builds);
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
