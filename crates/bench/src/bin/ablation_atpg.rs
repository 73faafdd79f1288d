//! Ablation: **compact greedy vs random n-detection test sets**.
//!
//! The paper's analysis is independent of how the n-detection set was
//! generated; this ablation quantifies the spread between a compact
//! deterministic greedy set (what ATPG compaction aims for — closer to
//! the worst case) and the random sets of Procedure 1, on bridging
//! coverage, for n = 1..nmax.
//!
//! Usage: `ablation_atpg [--circuits a,b,c] [--nmax 10] [--k 100]`.
//! An `--nmax` above a circuit's pattern count exits 1 with an error.

use ndetect_bench::{build_universe_options, open_store, selected_circuits, Args};
use ndetect_core::{bridge_coverage, construct_test_set_series, Procedure1Config};
use ndetect_gen::{generate, GenOptions};

fn main() {
    let args = Args::parse();
    let nmax: u32 = args.get_or("nmax", 10);
    let k: usize = args.get_or("k", 100);

    println!("Ablation: greedy compact vs random n-detection test sets");
    println!("(bridging-fault coverage %; random column is the mean over K = {k} sets)");
    println!();
    println!(
        "{:<10} {:>3} | {:>7} {:>9} {:>9} {:>9}",
        "circuit", "n", "|greedy|", "greedy%", "random%", "delta"
    );
    let threads = args.threads();
    let store = open_store(&args);
    for name in selected_circuits(&args) {
        let (_netlist, universe) =
            build_universe_options(&name, args.universe_options(), store.as_ref());
        // No fault has more tests than there are patterns; refuse a
        // larger n before Procedure 1 sizes its test sets by it.
        let patterns = universe.space().num_patterns();
        if nmax as usize > patterns {
            eprintln!(
                "error: --nmax must be at most {patterns}, the pattern count of {name}; got {nmax}"
            );
            std::process::exit(1);
        }
        let config = Procedure1Config {
            nmax,
            num_test_sets: k,
            threads,
            ..Default::default()
        };
        let series = construct_test_set_series(&universe, &config).expect("valid config");
        for n in [1, 2, 5, nmax] {
            if n > nmax {
                continue;
            }
            let greedy = generate(&universe, &GenOptions::with_n(n));
            let gcov = bridge_coverage(&universe, greedy.as_vector_set());
            let rcov: f64 = series.sets[(n - 1) as usize]
                .iter()
                .map(|s| bridge_coverage(&universe, s.as_vector_set()))
                .sum::<f64>()
                / k as f64;
            println!(
                "{:<10} {:>3} | {:>7} {:>8.2}% {:>8.2}% {:>+8.2}%",
                name,
                n,
                greedy.len(),
                gcov,
                rcov,
                rcov - gcov
            );
        }
    }
}
