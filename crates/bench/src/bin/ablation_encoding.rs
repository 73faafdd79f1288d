//! Ablation: **state-encoding sensitivity** — the same state machine
//! synthesized under natural-binary vs Gray encodings yields different
//! combinational logic; how stable are the n-detection conclusions?
//!
//! Usage: `ablation_encoding [--circuits a,b,c] [--cache-dir DIR]`.

use ndetect_bench::{open_store, selected_circuits, Args};
use ndetect_core::WorstCaseAnalysis;
use ndetect_faults::FaultUniverse;
use ndetect_fsm::{synthesize, StateEncoding, SynthOptions};

fn main() {
    let args = Args::parse();
    let store = open_store(&args);
    println!("Ablation: binary vs Gray state encoding");
    println!("(worst-case coverage % and tail counts over the same machine)");
    println!();
    println!(
        "{:<10} {:<7} | {:>6} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "enc", "gates", "|G|", "cov@1", "cov@10", "tail11"
    );
    for name in selected_circuits(&args) {
        let Some(spec) = ndetect_circuits::spec(&name) else {
            eprintln!("# skipping `{name}`: not a suite circuit");
            continue;
        };
        let fsm = spec.build_fsm();
        for (label, encoding) in [
            ("binary", StateEncoding::binary(fsm.num_states())),
            ("gray", StateEncoding::gray(fsm.num_states())),
        ] {
            let netlist = synthesize(&fsm, &encoding, SynthOptions::default())
                .expect("suite machines synthesize");
            let (universe, _) = FaultUniverse::build_stored(
                &netlist,
                None,
                args.universe_options(),
                store.as_ref(),
            )
            .expect("fits exhaustive sim");
            let wc = WorstCaseAnalysis::compute_stored(&universe, args.threads(), store.as_ref());
            println!(
                "{:<10} {:<7} | {:>6} {:>8} {:>7.2}% {:>7.2}% {:>8}",
                if label == "binary" { name.as_str() } else { "" },
                label,
                netlist.num_gates(),
                universe.bridges().len(),
                wc.coverage_percent(1),
                wc.coverage_percent(10),
                wc.tail_count(11),
            );
        }
    }
}
