//! Ablation: **bridging-model sensitivity** — how much do the
//! worst-case conclusions depend on using the paper's full four-way
//! model vs its wired-AND / wired-OR halves?
//!
//! Usage: `ablation_bridge_model [--circuits a,b,c] [--cache-dir DIR]`.

use ndetect_bench::{open_store, selected_circuits, Args};
use ndetect_core::WorstCaseAnalysis;
use ndetect_faults::{BridgeModel, FaultUniverse, UniverseOptions};

fn main() {
    let args = Args::parse();
    let store = open_store(&args);
    println!("Ablation: four-way vs wired-AND vs wired-OR bridging models");
    println!("(worst-case coverage % at n = 1 and n = 10, and nmin >= 11 tail counts)");
    println!();
    println!(
        "{:<10} {:<9} | {:>8} {:>8} {:>8} {:>8}",
        "circuit", "model", "|G|", "cov@1", "cov@10", "tail11"
    );
    for name in selected_circuits(&args) {
        let netlist = ndetect_circuits::build(&name).expect("suite circuit builds");
        for (label, model) in [
            ("four-way", BridgeModel::FourWay),
            ("wired-AND", BridgeModel::WiredAnd),
            ("wired-OR", BridgeModel::WiredOr),
        ] {
            let (universe, _) = FaultUniverse::build_stored(
                &netlist,
                None,
                UniverseOptions {
                    bridge_model: model,
                    ..args.universe_options()
                },
                store.as_ref(),
            )
            .expect("fits exhaustive sim");
            let wc = WorstCaseAnalysis::compute_stored(&universe, args.threads(), store.as_ref());
            println!(
                "{:<10} {:<9} | {:>8} {:>7.2}% {:>7.2}% {:>8}",
                if model == BridgeModel::FourWay {
                    name.as_str()
                } else {
                    ""
                },
                label,
                universe.bridges().len(),
                wc.coverage_percent(1),
                wc.coverage_percent(10),
                wc.tail_count(11),
            );
        }
    }
}
