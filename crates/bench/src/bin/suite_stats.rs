//! Prints structural and fault-population statistics for every suite
//! circuit — used to calibrate the experiment harness.
//!
//! Usage: `suite_stats [--threads N] [--cache-dir DIR]`.

use ndetect_bench::{open_store, Args};
use ndetect_faults::FaultUniverse;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let store = open_store(&args);
    println!(
        "{:<10} {:>3} {:>3} {:>3} {:>5} {:>6} {:>7} {:>8} {:>8} {:>8}",
        "circuit", "pi", "po", "st", "bits", "gates", "|F|", "|G|", "undet", "ms"
    );
    for spec in ndetect_circuits::suite() {
        let t0 = Instant::now();
        let netlist = spec.build().expect("suite circuits synthesize");
        let (universe, _) =
            FaultUniverse::build_stored(&netlist, None, args.universe_options(), store.as_ref())
                .expect("suite circuits fit exhaustive sim");
        let ms = t0.elapsed().as_millis();
        println!(
            "{:<10} {:>3} {:>3} {:>3} {:>5} {:>6} {:>7} {:>8} {:>8} {:>8}",
            spec.name(),
            spec.inputs(),
            spec.outputs(),
            spec.states(),
            spec.total_input_bits(),
            netlist.num_gates(),
            universe.targets().len(),
            universe.bridges().len(),
            universe.num_undetectable_bridges(),
            ms
        );
    }
}
