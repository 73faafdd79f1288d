//! Ablation: **equivalence collapsing on/off** for the target set `F`.
//!
//! The paper computes `nmin` over collapsed stuck-at targets. With the
//! full (uncollapsed) universe, `F` is a superset, so `nmin(g)` can
//! only stay equal or decrease — this ablation measures by how much the
//! worst-case coverage moves, and verifies the monotonicity property on
//! real circuits.
//!
//! Usage: `ablation_collapse [--circuits a,b,c] [--cache-dir DIR]`.

use ndetect_bench::{open_store, selected_circuits, Args};
use ndetect_core::WorstCaseAnalysis;
use ndetect_faults::{FaultUniverse, UniverseOptions};

fn main() {
    let args = Args::parse();
    let store = open_store(&args);
    println!("Ablation: equivalence collapsing of target faults");
    println!("(worst-case coverage % at n = 10 and tail counts, collapsed vs full F)");
    println!();
    println!(
        "{:<10} {:>6} {:>6} | {:>9} {:>9} | {:>8} {:>8}",
        "circuit", "|Fc|", "|Ff|", "cov10(c)", "cov10(f)", "tail(c)", "tail(f)"
    );
    for name in selected_circuits(&args) {
        let netlist = ndetect_circuits::build(&name).expect("suite circuit builds");
        let (collapsed, _) =
            FaultUniverse::build_stored(&netlist, None, args.universe_options(), store.as_ref())
                .expect("fits exhaustive sim");
        let (full, _) = FaultUniverse::build_stored(
            &netlist,
            None,
            UniverseOptions {
                collapse_targets: false,
                ..args.universe_options()
            },
            store.as_ref(),
        )
        .expect("fits exhaustive sim");
        let wc_c = WorstCaseAnalysis::compute_stored(&collapsed, args.threads(), store.as_ref());
        let wc_f = WorstCaseAnalysis::compute_stored(&full, args.threads(), store.as_ref());

        // Monotonicity check: more targets never increase nmin.
        for j in 0..collapsed.bridges().len() {
            let (c, f) = (wc_c.nmin(j), wc_f.nmin(j));
            match (c, f) {
                (Some(c), Some(f)) => assert!(f <= c, "{name} bridge {j}: {f} > {c}"),
                (None, Some(_)) | (None, None) => {}
                (Some(_), None) => panic!("{name} bridge {j}: bound lost without collapsing"),
            }
        }

        println!(
            "{:<10} {:>6} {:>6} | {:>8.2}% {:>8.2}% | {:>8} {:>8}",
            name,
            collapsed.targets().len(),
            full.targets().len(),
            wc_c.coverage_percent(10),
            wc_f.coverage_percent(10),
            wc_c.tail_count(11),
            wc_f.tail_count(11),
        );
    }
}
