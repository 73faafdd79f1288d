//! Regenerates the paper's **Table 6**: the Table-5 probability
//! histogram under **Definition 1** vs **Definition 2** (two tests only
//! count as different detections of a fault if their common bits do not
//! already detect it).
//!
//! The paper uses K = 1000; the default here is 200 for a quick run —
//! pass `--k 1000` for the paper's setting. Definition 2 construction
//! costs more than Definition 1 (three-valued similarity checks, 64 per
//! kernel pass): the default run over the whole suite takes about 45 s
//! on a shared 2-core machine, nearly all of it Definition 2 on the 13-
//! and 14-input circuits.
//!
//! Usage: `table6 [--circuits a,b,c] [--k 200] [--nmax 10] [--seed ...]`.

use ndetect_bench::{build_universe_options, open_store, selected_circuits, Args};
use ndetect_core::report::{render_table6, table6_row, Table6Row};
use ndetect_core::{
    estimate_detection_probabilities, DetectionDefinition, Procedure1Config, WorstCaseAnalysis,
};

fn main() {
    let args = Args::parse();
    let k: usize = args.get_or("k", 200);
    let nmax: u32 = args.get_or("nmax", 10);
    let seed: u64 = args.get_or("seed", 0x5EED_0002);

    let mut rows: Vec<Table6Row> = Vec::new();
    let threads = args.threads();
    let store = open_store(&args);
    for name in selected_circuits(&args) {
        let (_netlist, universe) =
            build_universe_options(&name, args.universe_options(), store.as_ref());
        let wc = WorstCaseAnalysis::compute_stored(&universe, threads, store.as_ref());
        let tracked = wc.tail_indices(nmax + 1);
        if tracked.is_empty() {
            continue;
        }
        let base = Procedure1Config {
            nmax,
            num_test_sets: k,
            seed,
            threads,
            ..Default::default()
        };
        let d1 =
            estimate_detection_probabilities(&universe, &tracked, &base).expect("valid config");
        let d2 = estimate_detection_probabilities(
            &universe,
            &tracked,
            &Procedure1Config {
                definition: DetectionDefinition::SufficientlyDifferent,
                ..base
            },
        )
        .expect("valid config");
        rows.push(table6_row(&name, &d1, &d2));
    }
    println!("Table 6: average-case probabilities under Definitions 1 and 2 (K = {k}, n = {nmax})");
    println!();
    print!("{}", render_table6(&rows));
}
