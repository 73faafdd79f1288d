//! Criterion micro-benchmark for the chunked SIMD row kernels of
//! `ndetect_sim::rows` — the word-level inner loops every fault-sim and
//! generation hot path runs on.
//!
//! Each op is measured at three lane widths (`L = 1` pure scalar,
//! `u64x4`, `u64x8` — the production [`ndetect_sim::rows::LANES`]) so
//! the snapshot records what the fixed-lane chunking actually buys on
//! this machine, and future `std::simd` ports have a trajectory to beat.
//! The `*_lanes` bodies are the portable folds. The production
//! `rows::popcount` and `rows::and_popcount` choose a POPCNT copy of the
//! same body at run time when the CPU has the instruction, so they are
//! timed too, as `kernel: "dispatched"` entries.
//!
//! Modes:
//!
//! * `cargo bench --bench rows` — criterion timings;
//! * `cargo bench --bench rows -- --json [--quick] [--out PATH]` —
//!   writes a `BENCH_PR6.json` snapshot (op, kernel, lanes, row words,
//!   GiB/s, and whether the CPU has POPCNT) at the repository root; the
//!   CI `bench-smoke` job runs the `--quick` variant.

use criterion::{criterion_group, Criterion};
use ndetect_sim::rows;
use std::path::PathBuf;
use std::time::Instant;

/// Words per benched row: 4096 blocks ≈ an 18-input exhaustive space —
/// large enough to stream, small enough to stay cache-resident like a
/// real tile.
const ROW_WORDS: usize = 4096;

/// Deterministic pseudo-random row content (the kernels are data
/// independent; this just defeats trivial constant folding).
fn pattern(n: usize, salt: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).wrapping_add(i.rotate_left(13)))
        .collect()
}

/// The benched surface: every op runs one pass over `ROW_WORDS`-word
/// rows at lane width `L` and returns a fold the caller black-boxes.
struct Ops;

impl Ops {
    fn and_into<const L: usize>(dst: &mut [u64], src: &[u64]) -> u64 {
        rows::and_into_lanes::<L>(dst, src);
        dst[0]
    }

    fn and_popcount<const L: usize>(a: &[u64], b: &[u64]) -> u64 {
        rows::and_popcount_lanes::<L>(a, b)
    }

    fn popcount<const L: usize>(a: &[u64]) -> u64 {
        rows::popcount_lanes::<L>(a)
    }

    fn or_diff_into<const L: usize>(det: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        rows::or_diff_into_lanes::<L>(det, a, b)
    }
}

/// Runs `op` at lane width `L` once over fresh-ish buffers; returns a
/// value to black-box.
fn run_op<const L: usize>(op: &str, a: &[u64], b: &[u64], scratch: &mut [u64]) -> u64 {
    match op {
        "and_into" => Ops::and_into::<L>(&mut scratch[..a.len()], a),
        "and_popcount" => Ops::and_popcount::<L>(a, b),
        "popcount" => Ops::popcount::<L>(a),
        "or_diff_into" => Ops::or_diff_into::<L>(&mut scratch[..a.len()], a, b),
        _ => unreachable!("unknown op {op}"),
    }
}

const OPS: [&str; 4] = ["and_into", "and_popcount", "popcount", "or_diff_into"];

/// The ops whose production entry point dispatches at run time.
const DISPATCHED_OPS: [&str; 2] = ["and_popcount", "popcount"];

/// Runs the production (runtime-dispatched) entry point of `op`.
fn run_dispatched(op: &str, a: &[u64], b: &[u64]) -> u64 {
    match op {
        "and_popcount" => rows::and_popcount(a, b),
        "popcount" => rows::popcount(a),
        _ => unreachable!("{op} has no dispatched entry point"),
    }
}

/// Whether the dispatched entry points take their POPCNT path here.
fn cpu_has_popcnt() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn bench_chunked_ops(c: &mut Criterion) {
    let a = pattern(ROW_WORDS, 0xDEAD);
    let b = pattern(ROW_WORDS, 0xBEEF);
    let mut scratch = pattern(ROW_WORDS, 0x1234);
    let mut group = c.benchmark_group("chunked_ops");
    for op in OPS {
        group.bench_function(format!("{op}/scalar"), |bch| {
            bch.iter(|| std::hint::black_box(run_op::<1>(op, &a, &b, &mut scratch)))
        });
        group.bench_function(format!("{op}/u64x4"), |bch| {
            bch.iter(|| std::hint::black_box(run_op::<4>(op, &a, &b, &mut scratch)))
        });
        group.bench_function(format!("{op}/u64x8"), |bch| {
            bch.iter(|| std::hint::black_box(run_op::<8>(op, &a, &b, &mut scratch)))
        });
    }
    for op in DISPATCHED_OPS {
        group.bench_function(format!("{op}/dispatched"), |bch| {
            bch.iter(|| std::hint::black_box(run_dispatched(op, &a, &b)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_chunked_ops
}

/// One measured row of the snapshot.
struct Row {
    op: &'static str,
    /// `"lanes"` for a `*_lanes::<L>` body, `"dispatched"` for the
    /// production entry point (which runs `L =` [`rows::LANES`]).
    kernel: &'static str,
    lanes: usize,
    words: usize,
    ns_per_row: f64,
    gib_per_s: f64,
}

impl Row {
    /// The row for one call of `op` taking `secs`.
    fn timed(op: &'static str, kernel: &'static str, lanes: usize, secs: f64) -> Self {
        Row {
            op,
            kernel,
            lanes,
            words: ROW_WORDS,
            ns_per_row: secs * 1e9,
            gib_per_s: bytes_per_call(op) as f64 / secs / (1u64 << 30) as f64,
        }
    }
}

/// Minimum wall-clock over `iters` timed batches of `reps` calls.
fn time_best<F: FnMut() -> u64>(iters: usize, reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
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

fn render_json(rows: &[Row], quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"row_words\": {ROW_WORDS},\n"));
    out.push_str(&format!("  \"production_lanes\": {},\n", rows::LANES));
    out.push_str(&format!("  \"cpu_popcnt\": {},\n", cpu_has_popcnt()));
    out.push_str("  \"entries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"kernel\": \"{}\", \"lanes\": {}, \"words\": {}, \
             \"ns_per_row\": {:.1}, \"gib_per_s\": {:.2}}}{comma}\n",
            r.op, r.kernel, r.lanes, r.words, r.ns_per_row, r.gib_per_s
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Bytes one call of `op` streams (reads + writes), for bandwidth.
fn bytes_per_call(op: &str) -> usize {
    let row = ROW_WORDS * 8;
    match op {
        "and_into" => 3 * row,     // read dst + src, write dst
        "and_popcount" => 2 * row, // read a + b
        "popcount" => row,         // read a
        "or_diff_into" => 4 * row, // read det + a + b, write det
        _ => unreachable!(),
    }
}

fn json_main(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let (iters, reps) = if quick { (2, 16) } else { (7, 256) };
    let out_path = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_PR6.json"));

    let a = pattern(ROW_WORDS, 0xDEAD);
    let b = pattern(ROW_WORDS, 0xBEEF);
    let mut scratch = pattern(ROW_WORDS, 0x1234);
    let mut out_rows = Vec::new();
    for op in OPS {
        for lanes in [1usize, 4, 8] {
            let secs = match lanes {
                1 => time_best(iters, reps, || run_op::<1>(op, &a, &b, &mut scratch)),
                4 => time_best(iters, reps, || run_op::<4>(op, &a, &b, &mut scratch)),
                _ => time_best(iters, reps, || run_op::<8>(op, &a, &b, &mut scratch)),
            };
            out_rows.push(Row::timed(op, "lanes", lanes, secs));
        }
        let base = out_rows[out_rows.len() - 3].ns_per_row;
        let x8 = out_rows[out_rows.len() - 1].ns_per_row;
        eprintln!(
            "# {op}: scalar {base:.0} ns/row, u64x8 {x8:.0} ns/row ({:.2}x)",
            base / x8
        );
    }
    for op in DISPATCHED_OPS {
        let secs = time_best(iters, reps, || run_dispatched(op, &a, &b));
        let row = Row::timed(op, "dispatched", rows::LANES, secs);
        eprintln!(
            "# {op}: dispatched {:.0} ns/row, {:.2} GiB/s (popcnt={})",
            row.ns_per_row,
            row.gib_per_s,
            cpu_has_popcnt()
        );
        out_rows.push(row);
    }

    let json = render_json(&out_rows, quick);
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
