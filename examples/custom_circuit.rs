//! The downstream-user workflow: author your own circuit (via the
//! builder API or `.bench` text), then run the full n-detection
//! analysis on it — worst-case guarantees, average-case probabilities,
//! and a compact greedy test set.
//!
//! Run with: `cargo run --release --example custom_circuit`

use ndetect::analysis::{
    bridge_coverage, estimate_detection_probabilities, Procedure1Config, WorstCaseAnalysis,
};
use ndetect::faults::FaultUniverse;
use ndetect::gen::{generate, GenOptions};
use ndetect::netlist::{bench_format, NetlistBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Option A: the builder API.
    let mut b = NetlistBuilder::new("my_alu_slice");
    let a = b.input("a");
    let c = b.input("c");
    let cin = b.input("cin");
    let sel = b.input("sel");
    let axc = b.xor("axc", &[a, c])?;
    let sum = b.xor("sum", &[axc, cin])?;
    let and_ab = b.and("and_ab", &[a, c])?;
    let prop = b.and("prop", &[axc, cin])?;
    let cout = b.or("cout", &[and_ab, prop])?;
    let nsel = b.not("nsel", sel)?;
    let out_sum = b.and("out_sum", &[sum, nsel])?;
    let out_and = b.and("out_and", &[and_ab, sel])?;
    let y = b.or("y", &[out_sum, out_and])?;
    b.output(y);
    b.output(cout);
    let circuit = b.build()?;
    println!("built: {circuit}");

    // Option B: the same circuit round-tripped through .bench text —
    // what you'd do with a file on disk.
    let text = bench_format::write(&circuit);
    let circuit = bench_format::parse("my_alu_slice", &text)?;
    println!("round-tripped through .bench ({} bytes)\n", text.len());

    // Full analysis.
    let universe = FaultUniverse::build(&circuit)?;
    println!("{universe}");
    let wc = WorstCaseAnalysis::compute(&universe);
    println!("{wc}");

    // Per-fault detail for the hardest bridging faults.
    let mut hardest: Vec<(usize, Option<u32>)> = (0..universe.bridges().len())
        .map(|j| (j, wc.nmin(j)))
        .collect();
    hardest.sort_by_key(|&(_, nmin)| std::cmp::Reverse(nmin.unwrap_or(u32::MAX)));
    println!("\nhardest bridging faults:");
    for &(j, nmin) in hardest.iter().take(5) {
        println!(
            "  {} : T(g) = {:?}, nmin = {}",
            universe.bridges()[j].name(universe.netlist()),
            universe.bridge_set(j).to_vec(),
            nmin.map_or("never guaranteed".to_string(), |v| v.to_string()),
        );
    }

    // Average case over everything.
    let tracked: Vec<usize> = (0..universe.bridges().len()).collect();
    let probs = estimate_detection_probabilities(
        &universe,
        &tracked,
        &Procedure1Config {
            nmax: 5,
            num_test_sets: 2000,
            ..Default::default()
        },
    )?;
    if let Some((pos, p)) = probs.min_probability(5) {
        println!(
            "\nlowest p(5,g) = {p:.3} for {}",
            universe.bridges()[tracked[pos]].name(universe.netlist())
        );
    }

    // And a compact deterministic test set.
    for n in [1u32, 5] {
        let set = generate(&universe, &GenOptions::with_n(n));
        println!(
            "greedy {n}-detection set: {} tests, bridging coverage {:.1}%",
            set.len(),
            bridge_coverage(&universe, set.as_vector_set())
        );
    }
    Ok(())
}
