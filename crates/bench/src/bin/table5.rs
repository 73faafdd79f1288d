//! Regenerates the paper's **Table 5**: average-case probabilities of
//! detection. For every circuit with faults not guaranteed detected by
//! a 10-detection test set (`nmin ≥ 11`), K random 10-detection test
//! sets are built with Procedure 1 (Definition 1) and the number of
//! tail faults with `p(10, gj) ≥ 1.0, 0.9, …, 0.0` is tabulated.
//!
//! The paper uses K = 10000; the default here is 1000 for a quick run —
//! pass `--k 10000` for the paper's setting. On a shared 2-core machine
//! the default run over the suite takes about 1.7 s, and `--k 10000`
//! about 10 s.
//!
//! Usage: `table5 [--circuits a,b,c] [--k 1000] [--nmax 10] [--seed ...]`.

use ndetect_bench::{build_universe_options, open_store, selected_circuits, Args};
use ndetect_core::report::{render_table5, table5_row, Table5Row};
use ndetect_core::{estimate_detection_probabilities, Procedure1Config, WorstCaseAnalysis};

fn main() {
    let args = Args::parse();
    let k: usize = args.get_or("k", 1000);
    let nmax: u32 = args.get_or("nmax", 10);
    let seed: u64 = args.get_or("seed", 0x5EED_0001);

    let mut rows: Vec<Table5Row> = Vec::new();
    let threads = args.threads();
    let store = open_store(&args);
    for name in selected_circuits(&args) {
        let (_netlist, universe) =
            build_universe_options(&name, args.universe_options(), store.as_ref());
        let wc = WorstCaseAnalysis::compute_stored(&universe, threads, store.as_ref());
        // No nmin exceeds |U|, so `--nmax u32::MAX` tracks nothing, as
        // any `--nmax` of at least |U| does.
        let tracked = wc.tail_indices(nmax.saturating_add(1));
        if tracked.is_empty() {
            continue; // the paper lists only circuits with tail faults
        }
        let config = Procedure1Config {
            nmax,
            num_test_sets: k,
            seed,
            threads,
            ..Default::default()
        };
        let probs =
            estimate_detection_probabilities(&universe, &tracked, &config).expect("valid config");
        rows.push(table5_row(&name, &probs));
        if let Some((pos, p)) = probs.min_probability(nmax) {
            eprintln!(
                "# {name}: lowest p({nmax},g) = {p:.3} for {}",
                universe.bridges()[tracked[pos]].name(universe.netlist())
            );
        }
    }
    println!("Table 5: average-case probabilities of detection (K = {k}, n = {nmax})");
    println!(
        "(faults with nmin >= {}; count with p(n,gj) >= threshold)",
        nmax.saturating_add(1)
    );
    println!();
    print!("{}", render_table5(&rows));
}
